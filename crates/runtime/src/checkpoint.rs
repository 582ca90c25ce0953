//! Barrier-consistent checkpoints: what a run's execution state at an
//! iteration barrier holds, its `TPDC` byte format, and the errors a
//! decode or a restore reports.
//!
//! # Wire format (version 1)
//!
//! A [`crate::codec`] envelope with magic `"TPDC"` and no header bytes.
//! Its fields:
//!
//! ```text
//! 1 iteration        u64
//! 2 fingerprint      u64
//! 3 control_firings  u64 count, u64 each
//! 4 channels         u64 count; each: u64 capacity, u8 kind (0 data, 1 control),
//!                    then a token list, or a u64 count of modes
//! 5 captured         token list
//! 6 metrics          the Metrics::to_snapshot text
//! ```
//!
//! A mode is one byte (`0` wait-all, `1` highest priority, `2`
//! select-one + `u64` port, `3` select-many + `u64` count + `u64`
//! ports). An unknown tag is a [`DecodeError::UnknownField`], which is
//! what makes version drift loud instead of lossy.
//!
//! The checkpoint is captured at an iteration barrier — the model's
//! consistent cut: every node's budget for the iteration is spent, no
//! firing is in flight, and the rings hold exactly the inter-iteration
//! tokens (delays and carried state). That is why ring contents, one
//! `u64` iteration index and the per-node control-ordinal counters are
//! sufficient to resume mid-graph; everything else is derived from the
//! compiled plan or the embedded [`Metrics`] snapshot.

pub use crate::codec::checksum;
use crate::codec::{put_tokens, put_u64, read_envelope, DecodeError, Envelope, Reader};
use crate::metrics::Metrics;
use crate::token::Token;
use std::fmt;
use tpdf_core::mode::Mode;

/// The 4-byte magic prefix of every checkpoint.
pub const MAGIC: [u8; 4] = *b"TPDC";
/// The current wire-format version.
pub const VERSION: u8 = 1;

const TAG_ITERATION: u8 = 1;
const TAG_FINGERPRINT: u8 = 2;
const TAG_CONTROL_FIRINGS: u8 = 3;
const TAG_CHANNELS: u8 = 4;
const TAG_CAPTURED: u8 = 5;
const TAG_METRICS: u8 = 6;

/// Everything a decode or a restore can report. Never a panic:
/// arbitrary bytes decode to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes are not a well-formed `TPDC` checkpoint.
    Decode(DecodeError),
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
            CheckpointError::Decode(e) => write!(f, "checkpoint: {e}"),
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

impl From<DecodeError> for CheckpointError {
    fn from(value: DecodeError) -> Self {
        CheckpointError::Decode(value)
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
    /// The partial run's accumulated metrics, embedded as their
    /// lossless text snapshot ([`Metrics::to_snapshot`]).
    pub metrics: Metrics,
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

fn read_mode(field: &mut Reader) -> Result<Mode, DecodeError> {
    let what = "mode";
    Ok(match field.u8(what)? {
        0 => Mode::WaitAll,
        1 => Mode::HighestPriority,
        2 => Mode::SelectOne(field.u64(what)? as usize),
        3 => Mode::SelectMany(field.list(8, what, |r| Ok(r.u64(what)? as usize))?),
        other => {
            return Err(DecodeError::Malformed {
                field: what,
                detail: format!("unknown mode tag {other}"),
            })
        }
    })
}

fn read_channel(field: &mut Reader) -> Result<ChannelCheckpoint, DecodeError> {
    let capacity = field.u64("channel capacity")?;
    let contents = match field.u8("channel kind")? {
        0 => ChannelContents::Data(field.tokens("channel tokens")?),
        1 => ChannelContents::Control(field.list(1, "channel modes", read_mode)?),
        other => {
            return Err(DecodeError::Malformed {
                field: "channel kind",
                detail: format!("unknown channel kind {other}"),
            })
        }
    };
    Ok(ChannelCheckpoint { capacity, contents })
}

impl Checkpoint {
    /// Serializes the checkpoint into a self-describing, checksummed
    /// envelope (see the module docs for the wire format).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        let mut env = Envelope::begin(&mut out, MAGIC, VERSION, &[]);
        env.bytes(TAG_ITERATION, &self.iteration.to_le_bytes());
        env.bytes(TAG_FINGERPRINT, &self.fingerprint.to_le_bytes());
        env.field(TAG_CONTROL_FIRINGS, |out| {
            put_u64(out, self.control_firings.len() as u64);
            for &n in &self.control_firings {
                put_u64(out, n);
            }
        });
        env.field(TAG_CHANNELS, |out| {
            put_u64(out, self.channels.len() as u64);
            for channel in &self.channels {
                put_u64(out, channel.capacity);
                match &channel.contents {
                    ChannelContents::Data(tokens) => {
                        out.push(0);
                        put_tokens(out, tokens);
                    }
                    ChannelContents::Control(modes) => {
                        out.push(1);
                        put_u64(out, modes.len() as u64);
                        for mode in modes {
                            put_mode(out, mode);
                        }
                    }
                }
            }
        });
        env.field(TAG_CAPTURED, |out| put_tokens(out, &self.captured));
        env.bytes(TAG_METRICS, self.metrics.to_snapshot().as_bytes());
        env.finish();
        out
    }

    /// Decodes bytes produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// Total over arbitrary bytes — every failure is a structured
    /// [`CheckpointError::Decode`], never a panic. The checksum is
    /// verified before any field is parsed.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut iteration = None;
        let mut fingerprint = None;
        let mut control_firings = None;
        let mut channels = None;
        let mut captured = None;
        let mut metrics = None;
        read_envelope(bytes, MAGIC, VERSION, 0, |tag, field| {
            match tag {
                TAG_ITERATION => iteration = Some(field.u64("iteration")?),
                TAG_FINGERPRINT => fingerprint = Some(field.u64("fingerprint")?),
                TAG_CONTROL_FIRINGS => {
                    let what = "control_firings";
                    control_firings = Some(field.list(8, what, |r| r.u64(what))?);
                }
                TAG_CHANNELS => channels = Some(field.list(10, "channels", read_channel)?),
                TAG_CAPTURED => captured = Some(field.tokens("captured")?),
                TAG_METRICS => {
                    let text = field.str("metrics")?;
                    let parsed =
                        Metrics::from_snapshot(text).map_err(|e| DecodeError::Malformed {
                            field: "metrics",
                            detail: e.to_string(),
                        })?;
                    metrics = Some(parsed);
                }
                other => return Err(DecodeError::UnknownField(other)),
            }
            Ok(())
        })?;
        let missing = DecodeError::MissingField;
        Ok(Checkpoint {
            iteration: iteration.ok_or(missing("iteration"))?,
            fingerprint: fingerprint.ok_or(missing("fingerprint"))?,
            control_firings: control_firings.ok_or(missing("control_firings"))?,
            channels: channels.ok_or(missing("channels"))?,
            captured: captured.ok_or(missing("captured"))?,
            metrics: metrics.ok_or(missing("metrics"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::PlacementPolicy;
    use crate::token::TokenBytes;
    use std::sync::Arc;
    use std::time::Duration;
    use tpdf_apps::dsp::Complex;
    use tpdf_apps::image::GrayImage;

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
            Err(CheckpointError::Decode(DecodeError::Malformed { .. }))
        ));
    }

    #[test]
    fn forged_lengths_are_errors_not_panics() {
        let mut checkpoint = empty_checkpoint();
        checkpoint.control_firings = vec![4, 5];
        checkpoint.channels = vec![
            ChannelCheckpoint {
                capacity: 2,
                contents: ChannelContents::Data(vec![
                    Token::image(GrayImage::from_pixels(1, 1, vec![0.5])),
                    Token::block(vec![1u8, 2, 3]),
                ]),
            },
            ChannelCheckpoint {
                capacity: 1,
                contents: ChannelContents::Control(vec![Mode::SelectMany(vec![0, 2])]),
            },
        ];
        checkpoint.captured = vec![Token::Int(9)];
        let bytes = checkpoint.encode();
        // Layout: iteration field 5..22, fingerprint 22..39;
        // control_firings tag 39, length 40..48, count 48..56; channels
        // tag 72, count 81..89; channel 0 token count 98..106, image
        // 106 (width 107..115, height 115..123), block 127 (length
        // 128..136); channel 1 mode count 148..156, SelectMany 156
        // (count 157..165); captured tag 181, count 190..198; metrics
        // tag 207.
        assert_eq!(
            [bytes[39], bytes[72], bytes[106], bytes[127], bytes[156], bytes[181], bytes[207]],
            [
                TAG_CONTROL_FIRINGS,
                TAG_CHANNELS,
                5,
                6,
                3,
                TAG_CAPTURED,
                TAG_METRICS
            ]
        );
        let lengths = [
            ("field length", 40),
            ("control_firings count", 48),
            ("channels count", 81),
            ("channel token count", 98),
            ("image width", 107),
            ("image height", 115),
            ("block length", 128),
            ("channel mode count", 148),
            ("SelectMany count", 157),
            ("captured count", 190),
        ];
        for (what, at) in lengths {
            let honest = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            for forged in [honest + 1, 1 << 32, 1 << 62, u64::MAX] {
                let mut bytes = bytes.clone();
                bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                let trailer = bytes.len() - 8;
                let hash = checksum(&bytes[..trailer]);
                bytes[trailer..].copy_from_slice(&hash.to_le_bytes());
                assert!(
                    Checkpoint::decode(&bytes).is_err(),
                    "{what} forged to {forged} decoded"
                );
            }
        }
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
            Err(CheckpointError::Decode(DecodeError::UnsupportedVersion(
                VERSION + 1
            )))
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
            Err(CheckpointError::Decode(DecodeError::UnknownField(200)))
        );
    }
}
