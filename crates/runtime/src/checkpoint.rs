//! Barrier-consistent checkpoints: the versioned binary codec that
//! captures a run's execution state at an iteration barrier, and the
//! structured errors its decoder reports.
//!
//! # Wire format (version 1)
//!
//! ```text
//! "TPDC"  magic (4 bytes)
//! u8      version (currently 1)
//! field*  tagged fields: u8 tag, u64 LE payload length, payload
//! u64 LE  FNV-1a 64 checksum of everything before it
//! ```
//!
//! Fields are self-describing — a reader skips nothing silently: an
//! unknown tag is a [`CheckpointError::UnknownField`], which is what
//! makes version drift loud instead of lossy. The trailing checksum is
//! verified **before** any field is parsed, so a corrupted byte can
//! never drive the parser into a bogus length or a panic; it surfaces
//! as a structured [`CheckpointError`].
//!
//! The checkpoint is captured at an iteration barrier — the model's
//! consistent cut: every node's budget for the iteration is spent, no
//! firing is in flight, and the rings hold exactly the inter-iteration
//! tokens (delays and carried state). That is why ring contents, one
//! `u64` iteration index and the per-node control-ordinal counters are
//! sufficient to resume mid-graph; everything else is derived from the
//! compiled plan or the embedded [`Metrics`] snapshot.

use crate::metrics::Metrics;
use crate::token::{Token, TokenBytes};
use std::fmt;
use std::sync::Arc;
use tpdf_apps::dsp::Complex;
use tpdf_apps::image::GrayImage;
use tpdf_core::mode::Mode;
use tpdf_trace::SnapshotError;

/// The 4-byte magic prefix of every checkpoint frame.
pub const MAGIC: [u8; 4] = *b"TPDC";
/// The current wire-format version.
pub const VERSION: u8 = 1;

const TAG_ITERATION: u8 = 1;
const TAG_FINGERPRINT: u8 = 2;
const TAG_CONTROL_FIRINGS: u8 = 3;
const TAG_CHANNELS: u8 = 4;
const TAG_CAPTURED: u8 = 5;
const TAG_METRICS: u8 = 6;

/// Everything the decoder (or a restore) can report. Never a panic:
/// arbitrary bytes decode to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The frame is shorter than magic + version + checksum.
    TooShort {
        /// Observed frame length in bytes.
        len: usize,
    },
    /// The frame does not start with `"TPDC"`.
    BadMagic,
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion(u8),
    /// The trailing FNV-1a checksum does not match the frame body —
    /// the bytes were corrupted or truncated in flight.
    ChecksumMismatch {
        /// Checksum recomputed over the frame body.
        expected: u64,
        /// Checksum found in the trailer.
        found: u64,
    },
    /// A field tag this decoder does not know (a newer writer).
    UnknownField(u8),
    /// A field or payload ended before its declared length.
    Truncated {
        /// What was being parsed.
        field: &'static str,
    },
    /// A field parsed but its contents are not valid.
    Malformed {
        /// What was being parsed.
        field: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A required field is absent from the frame.
    MissingField(&'static str),
    /// The checkpoint does not belong to this executor: its graph
    /// fingerprint (node names and channel topology) differs.
    GraphMismatch {
        /// Fingerprint the executor computed for its own graph.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The checkpoint's shape disagrees with the executor (channel or
    /// node count) — it was captured on a different compilation.
    ShapeMismatch {
        /// What disagreed ("channels", "nodes", …).
        what: &'static str,
        /// Count the executor expects.
        expected: u64,
        /// Count the checkpoint carries.
        found: u64,
    },
    /// The checkpoint's iteration index is not below the configured
    /// iteration count — there is nothing left to resume.
    NothingToResume {
        /// Iteration recorded in the checkpoint.
        iteration: u64,
        /// Total iterations the executor is configured for.
        configured: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort { len } => {
                write!(f, "checkpoint frame of {len} bytes is too short")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint frame (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this reader speaks {VERSION})")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: body hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            CheckpointError::UnknownField(tag) => {
                write!(f, "unknown checkpoint field tag {tag} (written by a newer version?)")
            }
            CheckpointError::Truncated { field } => {
                write!(f, "checkpoint truncated while reading {field}")
            }
            CheckpointError::Malformed { field, detail } => {
                write!(f, "malformed checkpoint field {field}: {detail}")
            }
            CheckpointError::MissingField(field) => {
                write!(f, "checkpoint is missing required field {field}")
            }
            CheckpointError::GraphMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different graph: fingerprint {found:#018x}, \
                 this executor is {expected:#018x}"
            ),
            CheckpointError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint shape mismatch: {found} {what}, this executor has {expected}"
            ),
            CheckpointError::NothingToResume {
                iteration,
                configured,
            } => write!(
                f,
                "checkpoint already at iteration {iteration} of {configured} — nothing to resume"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapshotError> for CheckpointError {
    fn from(value: SnapshotError) -> Self {
        CheckpointError::Malformed {
            field: "metrics",
            detail: value.to_string(),
        }
    }
}

/// The live contents of one channel ring at the barrier, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelContents {
    /// A data channel's tokens.
    Data(Vec<Token>),
    /// A control channel's modes.
    Control(Vec<Mode>),
}

impl ChannelContents {
    /// Number of live elements.
    pub fn len(&self) -> usize {
        match self {
            ChannelContents::Data(tokens) => tokens.len(),
            ChannelContents::Control(modes) => modes.len(),
        }
    }

    /// Whether the ring was empty at the barrier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One channel's checkpointed state.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelCheckpoint {
    /// The ring's capacity when the checkpoint was taken. Restore uses
    /// it as a floor, not a mandate — Kahn determinacy makes the
    /// streams capacity-independent, so a restoring executor may size
    /// its rings larger (e.g. for later phases) without changing any
    /// observable output.
    pub capacity: u64,
    /// Live elements, oldest first.
    pub contents: ChannelContents,
}

/// A barrier-consistent capture of one run's execution state.
///
/// Produced by a run whose [`crate::RunRequest`] set
/// `checkpoint_at_end`; consumed by a run whose request names it in
/// `resume`, which continues mid-graph as if it had never stopped.
/// Serialized with [`Checkpoint::encode`] / [`Checkpoint::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed iterations — the barrier index the run stopped at.
    pub iteration: u64,
    /// Structural fingerprint of the graph (node names + channel
    /// topology), checked on restore. Deliberately excludes ring
    /// capacities, firing counts, thread count and placement: those may
    /// all differ between the checkpointing and the restoring executor
    /// without affecting the streams.
    pub fingerprint: u64,
    /// Per-node control-actor ordinals (how many times each node's
    /// mode selector has been consulted). Not part of [`Metrics`], so
    /// carried explicitly — data-dependent control replays wrongly
    /// without it.
    pub control_firings: Vec<u64>,
    /// Per-channel ring state, in channel index order.
    pub channels: Vec<ChannelCheckpoint>,
    /// Sink tokens captured by an [`crate::cases::OutputCapture`] but
    /// not yet taken when the checkpoint was cut — without these,
    /// restore + `take_tokens` would silently drop the prefix.
    pub captured: Vec<Token>,
    /// The partial run's accumulated metrics, embedded through the
    /// lossless text snapshot codec (the serde seam).
    pub metrics: Metrics,
}

/// FNV-1a 64 over `bytes` — the trailer checksum of the wire format.
/// Public so adversarial tests can forge frames with valid trailers.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_field(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

fn put_token(out: &mut Vec<u8>, token: &Token) {
    match token {
        Token::Unit => out.push(0),
        Token::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Token::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Token::Byte(b) => {
            out.push(3);
            out.push(*b);
        }
        Token::Complex(c) => {
            out.push(4);
            out.extend_from_slice(&c.re.to_le_bytes());
            out.extend_from_slice(&c.im.to_le_bytes());
        }
        Token::Image(img) => {
            out.push(5);
            put_u64(out, img.width() as u64);
            put_u64(out, img.height() as u64);
            for &px in img.pixels() {
                out.extend_from_slice(&px.to_le_bytes());
            }
        }
        // A block's bytes are re-inlined: the handle's sharing is an
        // in-process optimisation, the wire carries the payload.
        Token::Block(bytes) => {
            out.push(6);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes.as_slice());
        }
    }
}

fn put_mode(out: &mut Vec<u8>, mode: &Mode) {
    match mode {
        Mode::WaitAll => out.push(0),
        Mode::HighestPriority => out.push(1),
        Mode::SelectOne(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        Mode::SelectMany(list) => {
            out.push(3);
            put_u64(out, list.len() as u64);
            for &i in list {
                put_u64(out, i as u64);
            }
        }
    }
}

/// Bounds-checked cursor over a frame body. Every read reports
/// [`CheckpointError::Truncated`] instead of slicing out of range, so
/// the decoder is total over arbitrary input.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { field });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1, field)?[0])
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, CheckpointError> {
        let raw = self.bytes(8, field)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// A declared element count, sanity-capped by the bytes actually
    /// remaining (`min_size` = the smallest possible encoding of one
    /// element) so a forged count cannot drive a huge allocation.
    fn count(&mut self, min_size: usize, field: &'static str) -> Result<usize, CheckpointError> {
        let declared = self.u64(field)?;
        let ceiling = (self.remaining() / min_size.max(1)) as u64;
        if declared > ceiling {
            return Err(CheckpointError::Malformed {
                field,
                detail: format!("declared {declared} elements, only {ceiling} can fit"),
            });
        }
        Ok(declared as usize)
    }

    fn token(&mut self) -> Result<Token, CheckpointError> {
        let field = "token";
        Ok(match self.u8(field)? {
            0 => Token::Unit,
            1 => {
                let raw = self.bytes(8, field)?;
                Token::Int(i64::from_le_bytes(raw.try_into().expect("8-byte slice")))
            }
            2 => Token::Float(self.f64(field)?),
            3 => Token::Byte(self.u8(field)?),
            4 => Token::Complex(Complex {
                re: self.f64(field)?,
                im: self.f64(field)?,
            }),
            5 => {
                let width = self.u64(field)? as usize;
                let height = self.u64(field)? as usize;
                let count = width
                    .checked_mul(height)
                    .ok_or(CheckpointError::Malformed {
                        field,
                        detail: "image dimensions overflow".to_string(),
                    })?;
                let bytes = count.checked_mul(4).ok_or(CheckpointError::Malformed {
                    field,
                    detail: format!("an image of {count} pixels overflows"),
                })?;
                if self.remaining() < bytes {
                    return Err(CheckpointError::Truncated { field });
                }
                let mut pixels = Vec::with_capacity(count);
                for _ in 0..count {
                    let raw = self.bytes(4, field)?;
                    pixels.push(f32::from_le_bytes(raw.try_into().expect("4-byte slice")));
                }
                Token::Image(Arc::new(GrayImage::from_pixels(width, height, pixels)))
            }
            6 => {
                let len = self.u64(field)? as usize;
                Token::Block(TokenBytes::new(self.bytes(len, field)?))
            }
            other => {
                return Err(CheckpointError::Malformed {
                    field,
                    detail: format!("unknown token tag {other}"),
                })
            }
        })
    }

    fn mode(&mut self) -> Result<Mode, CheckpointError> {
        let field = "mode";
        Ok(match self.u8(field)? {
            0 => Mode::WaitAll,
            1 => Mode::HighestPriority,
            2 => Mode::SelectOne(self.u64(field)? as usize),
            3 => {
                let count = self.count(8, field)?;
                let mut list = Vec::with_capacity(count);
                for _ in 0..count {
                    list.push(self.u64(field)? as usize);
                }
                Mode::SelectMany(list)
            }
            other => {
                return Err(CheckpointError::Malformed {
                    field,
                    detail: format!("unknown mode tag {other}"),
                })
            }
        })
    }
}

impl Checkpoint {
    /// Serializes the checkpoint into a self-describing, checksummed
    /// frame (see the module docs for the wire format).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);

        put_field(&mut out, TAG_ITERATION, &self.iteration.to_le_bytes());
        put_field(&mut out, TAG_FINGERPRINT, &self.fingerprint.to_le_bytes());

        let mut payload = Vec::new();
        put_u64(&mut payload, self.control_firings.len() as u64);
        for &n in &self.control_firings {
            put_u64(&mut payload, n);
        }
        put_field(&mut out, TAG_CONTROL_FIRINGS, &payload);

        payload.clear();
        put_u64(&mut payload, self.channels.len() as u64);
        for channel in &self.channels {
            put_u64(&mut payload, channel.capacity);
            match &channel.contents {
                ChannelContents::Data(tokens) => {
                    payload.push(0);
                    put_u64(&mut payload, tokens.len() as u64);
                    for token in tokens {
                        put_token(&mut payload, token);
                    }
                }
                ChannelContents::Control(modes) => {
                    payload.push(1);
                    put_u64(&mut payload, modes.len() as u64);
                    for mode in modes {
                        put_mode(&mut payload, mode);
                    }
                }
            }
        }
        put_field(&mut out, TAG_CHANNELS, &payload);

        payload.clear();
        put_u64(&mut payload, self.captured.len() as u64);
        for token in &self.captured {
            put_token(&mut payload, token);
        }
        put_field(&mut out, TAG_CAPTURED, &payload);

        put_field(&mut out, TAG_METRICS, self.metrics.to_snapshot().as_bytes());

        let digest = checksum(&out);
        put_u64(&mut out, digest);
        out
    }

    /// Decodes a frame produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// Total over arbitrary bytes — every failure is a structured
    /// [`CheckpointError`], never a panic. The checksum is verified
    /// before any field is parsed.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(CheckpointError::TooShort { len: bytes.len() });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = bytes[MAGIC.len()];
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let expected = checksum(body);
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }

        let mut reader = Reader::new(&body[MAGIC.len() + 1..]);
        let mut iteration = None;
        let mut fingerprint = None;
        let mut control_firings = None;
        let mut channels = None;
        let mut captured = None;
        let mut metrics = None;
        while reader.remaining() > 0 {
            let tag = reader.u8("field tag")?;
            let len = reader.u64("field length")? as usize;
            let payload = reader.bytes(len, "field payload")?;
            let mut field = Reader::new(payload);
            match tag {
                TAG_ITERATION => iteration = Some(field.u64("iteration")?),
                TAG_FINGERPRINT => fingerprint = Some(field.u64("fingerprint")?),
                TAG_CONTROL_FIRINGS => {
                    let count = field.count(8, "control_firings")?;
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        list.push(field.u64("control_firings")?);
                    }
                    control_firings = Some(list);
                }
                TAG_CHANNELS => {
                    let count = field.count(10, "channels")?;
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        let capacity = field.u64("channel capacity")?;
                        let kind = field.u8("channel kind")?;
                        let contents = match kind {
                            0 => {
                                let n = field.count(1, "channel tokens")?;
                                let mut tokens = Vec::with_capacity(n);
                                for _ in 0..n {
                                    tokens.push(field.token()?);
                                }
                                ChannelContents::Data(tokens)
                            }
                            1 => {
                                let n = field.count(1, "channel modes")?;
                                let mut modes = Vec::with_capacity(n);
                                for _ in 0..n {
                                    modes.push(field.mode()?);
                                }
                                ChannelContents::Control(modes)
                            }
                            other => {
                                return Err(CheckpointError::Malformed {
                                    field: "channel kind",
                                    detail: format!("unknown channel kind {other}"),
                                })
                            }
                        };
                        list.push(ChannelCheckpoint { capacity, contents });
                    }
                    channels = Some(list);
                }
                TAG_CAPTURED => {
                    let count = field.count(1, "captured")?;
                    let mut tokens = Vec::with_capacity(count);
                    for _ in 0..count {
                        tokens.push(field.token()?);
                    }
                    captured = Some(tokens);
                }
                TAG_METRICS => {
                    let text =
                        std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed {
                            field: "metrics",
                            detail: e.to_string(),
                        })?;
                    metrics = Some(Metrics::from_snapshot(text)?);
                    // The snapshot text is the whole payload.
                    field.bytes(field.remaining(), "metrics")?;
                }
                other => return Err(CheckpointError::UnknownField(other)),
            }
            if field.remaining() > 0 {
                return Err(CheckpointError::Malformed {
                    field: "field payload",
                    detail: format!("{} trailing bytes after field {tag}", field.remaining()),
                });
            }
        }

        Ok(Checkpoint {
            iteration: iteration.ok_or(CheckpointError::MissingField("iteration"))?,
            fingerprint: fingerprint.ok_or(CheckpointError::MissingField("fingerprint"))?,
            control_firings: control_firings
                .ok_or(CheckpointError::MissingField("control_firings"))?,
            channels: channels.ok_or(CheckpointError::MissingField("channels"))?,
            captured: captured.ok_or(CheckpointError::MissingField("captured"))?,
            metrics: metrics.ok_or(CheckpointError::MissingField("metrics"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::PlacementPolicy;
    use std::time::Duration;

    fn zero_metrics() -> Metrics {
        Metrics {
            iterations: 0,
            threads: 1,
            effective_workers: 1,
            placement: PlacementPolicy::WorkStealing,
            firings: Vec::new(),
            tokens_pushed: Vec::new(),
            channel_high_water: Vec::new(),
            channel_capacity: Vec::new(),
            total_tokens: 0,
            elapsed: Duration::ZERO,
            tokens_per_sec: 0.0,
            deadline_misses: 0,
            vote_failures: 0,
            deadline_selections: Vec::new(),
            mode_sequences: Vec::new(),
            worker_firings: Vec::new(),
            worker_steals: Vec::new(),
            rebinds: Vec::new(),
            pinned_cores: Vec::new(),
            arena_hits: 0,
            arena_misses: 0,
            arena_recycled: 0,
            arena_retired: 0,
        }
    }

    fn empty_checkpoint() -> Checkpoint {
        Checkpoint {
            iteration: 0,
            fingerprint: 0,
            control_firings: Vec::new(),
            channels: Vec::new(),
            captured: Vec::new(),
            metrics: zero_metrics(),
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            iteration: 7,
            fingerprint: 0xdead_beef_cafe_f00d,
            control_firings: vec![0, 3, 12],
            channels: vec![
                ChannelCheckpoint {
                    capacity: 8,
                    contents: ChannelContents::Data(vec![
                        Token::Unit,
                        Token::Int(-42),
                        Token::Float(2.5),
                        Token::Byte(0xA5),
                        Token::Complex(Complex { re: 1.0, im: -1.0 }),
                        Token::Image(Arc::new(GrayImage::from_pixels(
                            2,
                            2,
                            vec![0.0, 0.25, 0.5, 1.0],
                        ))),
                        Token::Block(TokenBytes::new(vec![1u8, 2, 3, 4, 5])),
                    ]),
                },
                ChannelCheckpoint {
                    capacity: 4,
                    contents: ChannelContents::Control(vec![
                        Mode::WaitAll,
                        Mode::HighestPriority,
                        Mode::SelectOne(3),
                        Mode::SelectMany(vec![0, 2]),
                    ]),
                },
            ],
            captured: vec![Token::Int(9), Token::Block(TokenBytes::new(vec![7u8; 9]))],
            metrics: zero_metrics(),
        }
    }

    #[test]
    fn forged_image_width_is_an_error_not_a_panic() {
        // A valid 1x1 image whose width is then forged to 2^62 and the
        // checkpoint resealed: width x height fits a usize, the pixel
        // bytes do not.
        let mut checkpoint = empty_checkpoint();
        checkpoint.channels.push(ChannelCheckpoint {
            capacity: 1,
            contents: ChannelContents::Data(vec![Token::Image(Arc::new(GrayImage::from_pixels(
                1,
                1,
                vec![0.625],
            )))]),
        });
        let mut bytes = checkpoint.encode();
        let mut image = vec![5u8];
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&0.625f32.to_le_bytes());
        let width = bytes
            .windows(image.len())
            .position(|w| w == image)
            .expect("image token present")
            + 1;
        bytes[width..width + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let trailer = bytes.len() - 8;
        let hash = checksum(&bytes[..trailer]);
        bytes[trailer..].copy_from_slice(&hash.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn round_trips_exactly() {
        let checkpoint = sample_checkpoint();
        let decoded = Checkpoint::decode(&checkpoint.encode()).unwrap();
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn sliced_block_reinlines_payload_only() {
        let backing = TokenBytes::new((0u8..32).collect::<Vec<u8>>());
        let mut sliced = empty_checkpoint();
        sliced.channels.push(ChannelCheckpoint {
            capacity: 2,
            contents: ChannelContents::Data(vec![Token::Block(backing.slice(8..12))]),
        });
        let mut whole = empty_checkpoint();
        whole.channels.push(ChannelCheckpoint {
            capacity: 2,
            contents: ChannelContents::Data(vec![Token::Block(backing.clone())]),
        });
        let decoded = Checkpoint::decode(&sliced.encode()).unwrap();
        let ChannelContents::Data(tokens) = &decoded.channels[0].contents else {
            panic!("data channel expected");
        };
        assert_eq!(tokens[0].as_block().unwrap().as_slice(), &[8, 9, 10, 11]);
        // Only the slice's 4 bytes travel, not the 32-byte backing.
        assert_eq!(whole.encode().len() - sliced.encode().len(), 28);
    }

    #[test]
    fn every_single_byte_corruption_is_structured() {
        let bytes = sample_checkpoint().encode();
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x01;
            let err =
                Checkpoint::decode(&corrupt).expect_err("a flipped bit must never decode cleanly");
            // Any structured error is acceptable; reaching here without
            // a panic is the property.
            let _ = err.to_string();
        }
    }

    #[test]
    fn truncation_is_structured() {
        let bytes = sample_checkpoint().encode();
        for len in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn version_bump_is_rejected_by_name() {
        let mut bytes = sample_checkpoint().encode();
        bytes[4] = VERSION + 1;
        // Recompute the trailer so the version check — not the
        // checksum — is what rejects the frame.
        let body_len = bytes.len() - 8;
        let digest = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn unknown_field_is_rejected_by_tag() {
        let mut bytes = sample_checkpoint().encode();
        bytes.truncate(bytes.len() - 8); // strip the trailer
        bytes.push(200); // unknown tag
        bytes.extend_from_slice(&0u64.to_le_bytes()); // empty payload
        let digest = checksum(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnknownField(200))
        );
    }
}
