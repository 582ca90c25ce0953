//! The wire codec: length-prefixed, checksummed binary frames.
//!
//! # Wire format (version 1)
//!
//! Every frame travels as a `u32` little-endian body length followed
//! by the body, a [`tpdf_runtime::codec`] envelope — the one the
//! checkpoint format uses — with magic `"TPDN"` and one header byte,
//! the frame type (Hello, Records, Barrier, Result, Backoff, Bye):
//!
//! ```text
//! "TPDN"  magic (4 bytes)
//! u8      version (currently 1)
//! u8      frame type
//! field*  tagged fields: u8 tag, u64 LE payload length, payload
//! u64 LE  FNV-1a 64 checksum of everything before it
//! ```
//!
//! Tokens travel as the codec's token lists. An unknown tag is a
//! [`DecodeError::UnknownField`], which makes version drift loud
//! instead of lossy, and the checksum is verified **before** any field
//! is parsed. The decoder is total over arbitrary input: wire garbage
//! decodes to a structured [`FrameError`], never a panic.

use std::fmt;

use tpdf_runtime::codec::{put_tokens, read_envelope, DecodeError, Envelope};
use tpdf_runtime::Token;

/// The 4-byte magic prefix of every frame body.
pub const MAGIC: [u8; 4] = *b"TPDN";
/// The current wire-format version.
pub const VERSION: u8 = 1;

const TYPE_HELLO: u8 = 1;
const TYPE_RECORDS: u8 = 2;
const TYPE_BARRIER: u8 = 3;
const TYPE_RESULT: u8 = 4;
const TYPE_BACKOFF: u8 = 5;
const TYPE_BYE: u8 = 6;

const TAG_APP: u8 = 1;
const TAG_SESSION: u8 = 2;
const TAG_TOKENS_PER_RUN: u8 = 3;
const TAG_TOKENS: u8 = 4;
const TAG_SEQ: u8 = 5;
const TAG_ERROR: u8 = 6;
const TAG_REASON: u8 = 7;

/// Why the server told a client to back off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffReason {
    /// The session's ingress request queue is full; the barrier is
    /// parked server-side and reads from this connection are paused
    /// until the queue frees — nothing is dropped.
    QueueFull,
    /// Admission control refused the session (session limit,
    /// oversubscription or a draining service). Retry the `Hello`.
    AdmissionRefused,
    /// The session's token feed buffer is full; reads are paused until
    /// in-flight runs consume it. TCP flow control holds the rest.
    FeedFull,
}

impl BackoffReason {
    fn to_u8(self) -> u8 {
        match self {
            BackoffReason::QueueFull => 0,
            BackoffReason::AdmissionRefused => 1,
            BackoffReason::FeedFull => 2,
        }
    }

    fn from_u8(value: u8) -> Option<BackoffReason> {
        match value {
            0 => Some(BackoffReason::QueueFull),
            1 => Some(BackoffReason::AdmissionRefused),
            2 => Some(BackoffReason::FeedFull),
            _ => None,
        }
    }
}

/// One protocol message. The client speaks `Hello`, `Records`,
/// `Barrier` and `Bye`; the server answers with a `Hello` ack,
/// `Result`, `Backoff` and `Bye`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session handshake. The client sends the application name with
    /// `session = 0`; the server's ack echoes the name and fills in
    /// the session id and the number of input tokens one run (one
    /// `Barrier`) consumes.
    Hello {
        /// Registered application name.
        app: String,
        /// Session id (0 in the client's request).
        session: u64,
        /// Input tokens one `Barrier` consumes (0 in the request).
        tokens_per_run: u64,
    },
    /// A batch of input tokens appended to the session's feed.
    Records {
        /// The payload tokens, in stream order.
        tokens: Vec<Token>,
    },
    /// Ends one run's worth of records and submits the run.
    Barrier {
        /// Client-chosen run sequence number, echoed by the `Result`.
        seq: u64,
    },
    /// One completed run's captured sink output (or its failure).
    Result {
        /// The `Barrier` sequence number this result answers.
        seq: u64,
        /// Captured sink tokens on success, error detail on failure.
        outcome: Result<Vec<Token>, String>,
    },
    /// Backpressure signal; see [`BackoffReason`].
    Backoff {
        /// Session the signal concerns (0 before a session exists).
        session: u64,
        /// Why the client should slow down.
        reason: BackoffReason,
    },
    /// Clean shutdown of the connection (either direction).
    Bye,
}

impl Frame {
    /// The frame's wire-type byte (what [`crate::server`] records in
    /// `FrameRecv` trace events).
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::Records { .. } => TYPE_RECORDS,
            Frame::Barrier { .. } => TYPE_BARRIER,
            Frame::Result { .. } => TYPE_RESULT,
            Frame::Backoff { .. } => TYPE_BACKOFF,
            Frame::Bye => TYPE_BYE,
        }
    }

    /// Encodes the frame **body** (no length prefix): magic, version,
    /// type, tagged fields, trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut env = Envelope::begin(out, MAGIC, VERSION, &[self.type_byte()]);
        match self {
            Frame::Hello {
                app,
                session,
                tokens_per_run,
            } => {
                env.bytes(TAG_APP, app.as_bytes());
                env.bytes(TAG_SESSION, &session.to_le_bytes());
                env.bytes(TAG_TOKENS_PER_RUN, &tokens_per_run.to_le_bytes());
            }
            Frame::Records { tokens } => env.field(TAG_TOKENS, |out| put_tokens(out, tokens)),
            Frame::Barrier { seq } => env.bytes(TAG_SEQ, &seq.to_le_bytes()),
            Frame::Result { seq, outcome } => {
                env.bytes(TAG_SEQ, &seq.to_le_bytes());
                match outcome {
                    Ok(tokens) => env.field(TAG_TOKENS, |out| put_tokens(out, tokens)),
                    Err(detail) => env.bytes(TAG_ERROR, detail.as_bytes()),
                }
            }
            Frame::Backoff { session, reason } => {
                env.bytes(TAG_SESSION, &session.to_le_bytes());
                env.bytes(TAG_REASON, &[reason.to_u8()]);
            }
            Frame::Bye => {}
        }
        env.finish();
    }

    /// Decodes one frame body. Total over arbitrary bytes: every
    /// malformation is a structured [`FrameError`].
    ///
    /// # Errors
    ///
    /// [`FrameError::Decode`] or [`FrameError::UnknownFrameType`]
    /// (`Oversized` only comes from the length-prefix layer,
    /// [`FrameReader`]).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        let mut app = None;
        let mut session = None;
        let mut tokens_per_run = None;
        let mut tokens = None;
        let mut seq = None;
        let mut error = None;
        let mut reason = None;
        let header = read_envelope(body, MAGIC, VERSION, 1, |tag, field| {
            match tag {
                TAG_APP => app = Some(field.str("app")?.to_string()),
                TAG_SESSION => session = Some(field.u64("session")?),
                TAG_TOKENS_PER_RUN => tokens_per_run = Some(field.u64("tokens_per_run")?),
                TAG_TOKENS => tokens = Some(field.tokens("tokens")?),
                TAG_SEQ => seq = Some(field.u64("seq")?),
                TAG_ERROR => error = Some(field.str("error")?.to_string()),
                TAG_REASON => {
                    let byte = field.u8("reason")?;
                    reason = Some(BackoffReason::from_u8(byte).ok_or(DecodeError::Malformed {
                        field: "reason",
                        detail: format!("unknown backoff reason {byte}"),
                    })?);
                }
                other => return Err(DecodeError::UnknownField(other)),
            }
            Ok(())
        })?;
        let missing = DecodeError::MissingField;
        Ok(match header[0] {
            TYPE_HELLO => Frame::Hello {
                app: app.ok_or(missing("app"))?,
                session: session.unwrap_or(0),
                tokens_per_run: tokens_per_run.unwrap_or(0),
            },
            TYPE_RECORDS => Frame::Records {
                tokens: tokens.ok_or(missing("tokens"))?,
            },
            TYPE_BARRIER => Frame::Barrier {
                seq: seq.ok_or(missing("seq"))?,
            },
            TYPE_RESULT => Frame::Result {
                seq: seq.ok_or(missing("seq"))?,
                outcome: match (tokens, error) {
                    (_, Some(detail)) => Err(detail),
                    (Some(tokens), None) => Ok(tokens),
                    (None, None) => return Err(missing("tokens").into()),
                },
            },
            TYPE_BACKOFF => Frame::Backoff {
                session: session.unwrap_or(0),
                reason: reason.ok_or(missing("reason"))?,
            },
            TYPE_BYE => Frame::Bye,
            other => return Err(FrameError::UnknownFrameType(other)),
        })
    }
}

/// Appends one length-prefixed frame to `out` (`u32` LE body length,
/// then the body) — the only framing the transport layer adds. The
/// body is encoded in place and the prefix back-patched.
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    frame.encode_into(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Everything the decoder can report. Arbitrary wire bytes decode to
/// one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body is not a well-formed `TPDN` envelope, or a field in it
    /// is not.
    Decode(DecodeError),
    /// The type byte names no known frame.
    UnknownFrameType(u8),
    /// The length prefix declares a body beyond the configured cap —
    /// a hostile or corrupt peer must not drive a huge allocation.
    Oversized {
        /// Declared body length.
        len: usize,
        /// Configured maximum.
        cap: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Decode(e) => write!(f, "frame: {e}"),
            FrameError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Oversized { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(value: DecodeError) -> Self {
        FrameError::Decode(value)
    }
}

/// Incremental length-prefix splitter: feed it raw socket bytes, take
/// complete decoded frames out. Both the non-blocking server and the
/// blocking client read through one of these.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// Creates a reader refusing bodies beyond `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next complete frame, `Ok(None)` while more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] on a length prefix beyond the cap,
    /// or any decode error of [`Frame::decode`]. After an error the
    /// stream is unsynchronised; the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4-byte prefix")) as usize;
        if len > self.max_frame {
            return Err(FrameError::Oversized {
                len,
                cap: self.max_frame,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tpdf_apps::dsp::Complex;
    use tpdf_apps::image::GrayImage;
    use tpdf_runtime::codec::{checksum, put_u64};
    use tpdf_runtime::TokenBytes;

    fn put_field(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
        out.push(tag);
        put_u64(out, payload.len() as u64);
        out.extend_from_slice(payload);
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                app: "ofdm".to_string(),
                session: 0,
                tokens_per_run: 0,
            },
            Frame::Hello {
                app: "ofdm".to_string(),
                session: u64::MAX - 3,
                tokens_per_run: 360,
            },
            Frame::Records {
                tokens: vec![
                    Token::Unit,
                    Token::Int(-77),
                    Token::Float(0.125),
                    Token::Byte(9),
                    Token::Complex(Complex { re: 1.5, im: -2.5 }),
                    Token::Block(TokenBytes::new(vec![1u8, 2, 3, 4])),
                ],
            },
            Frame::Barrier { seq: 41 },
            Frame::Result {
                seq: 41,
                outcome: Ok(vec![Token::Byte(1), Token::Byte(0)]),
            },
            Frame::Result {
                seq: 42,
                outcome: Err("run failed: stalled".to_string()),
            },
            Frame::Backoff {
                session: 7,
                reason: BackoffReason::QueueFull,
            },
            Frame::Backoff {
                session: 0,
                reason: BackoffReason::AdmissionRefused,
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let body = frame.encode();
            let decoded = Frame::decode(&body).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn reader_splits_a_concatenated_stream() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame);
        }
        // Feed the stream one byte at a time: framing must not depend
        // on read-boundary luck.
        let mut reader = FrameReader::new(1 << 20);
        let mut decoded = Vec::new();
        for &byte in &wire {
            reader.extend(&[byte]);
            while let Some(frame) = reader.next_frame().expect("clean stream") {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn every_single_byte_flip_is_a_structured_error() {
        // Mirrors the checkpoint codec's corruption fuzz: each
        // one-byte flip either fails the checksum or (if it hits the
        // trailer) reports the mismatch — and never panics or decodes
        // to a different frame silently.
        for frame in sample_frames() {
            let body = frame.encode();
            for i in 0..body.len() {
                let mut corrupt = body.clone();
                corrupt[i] ^= 0x41;
                match Frame::decode(&corrupt) {
                    Err(_) => {}
                    Ok(decoded) => {
                        panic!("flip at byte {i} of {frame:?} decoded silently to {decoded:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        for frame in sample_frames() {
            let body = frame.encode();
            for len in 0..body.len() {
                assert!(
                    Frame::decode(&body[..len]).is_err(),
                    "truncation to {len} bytes of {frame:?} decoded"
                );
            }
        }
    }

    #[test]
    fn version_and_type_drift_are_loud() {
        let mut body = Frame::Bye.encode();
        body[4] = 9; // version byte
        let hash = checksum(&body[..body.len() - 8]);
        let trailer = body.len() - 8;
        body[trailer..].copy_from_slice(&hash.to_le_bytes());
        assert_eq!(
            Frame::decode(&body),
            Err(FrameError::Decode(DecodeError::UnsupportedVersion(9)))
        );

        let mut body = Frame::Bye.encode();
        body[5] = 200; // frame-type byte
        let hash = checksum(&body[..body.len() - 8]);
        let trailer = body.len() - 8;
        body[trailer..].copy_from_slice(&hash.to_le_bytes());
        assert_eq!(Frame::decode(&body), Err(FrameError::UnknownFrameType(200)));
    }

    #[test]
    fn unknown_fields_are_loud() {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.push(VERSION);
        body.push(6); // Bye
        put_field(&mut body, 250, b"future");
        let hash = checksum(&body);
        body.extend_from_slice(&hash.to_le_bytes());
        assert_eq!(
            Frame::decode(&body),
            Err(FrameError::Decode(DecodeError::UnknownField(250)))
        );
    }

    #[test]
    fn forged_counts_cannot_drive_allocation() {
        // A Records frame declaring 2^60 tokens in an 8-byte payload.
        let mut tokens_payload = Vec::new();
        put_u64(&mut tokens_payload, 1 << 60);
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.push(VERSION);
        body.push(2); // Records
        put_field(&mut body, TAG_TOKENS, &tokens_payload);
        let hash = checksum(&body);
        body.extend_from_slice(&hash.to_le_bytes());
        assert!(matches!(
            Frame::decode(&body),
            Err(FrameError::Decode(DecodeError::Malformed { .. }))
        ));
    }

    /// Where `needle` starts in `haystack`.
    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("pattern present")
    }

    #[test]
    fn forged_image_width_is_an_error_not_a_panic() {
        // A valid 1x1 image whose width is then forged to 2^62 and the
        // body resealed: width x height fits a usize, the pixel bytes
        // do not.
        let frame = Frame::Records {
            tokens: vec![Token::Image(Arc::new(GrayImage::from_pixels(
                1,
                1,
                vec![0.625],
            )))],
        };
        let mut body = frame.encode();
        let mut image = vec![5u8];
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&1u64.to_le_bytes());
        image.extend_from_slice(&0.625f32.to_le_bytes());
        let width = find(&body, &image) + 1;
        body[width..width + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        let trailer = body.len() - 8;
        let hash = checksum(&body[..trailer]);
        body[trailer..].copy_from_slice(&hash.to_le_bytes());
        assert!(matches!(
            Frame::decode(&body),
            Err(FrameError::Decode(DecodeError::Malformed { .. }))
        ));
    }

    fn reseal(body: &mut [u8]) {
        let trailer = body.len() - 8;
        let hash = checksum(&body[..trailer]);
        body[trailer..].copy_from_slice(&hash.to_le_bytes());
    }

    #[test]
    fn forged_lengths_are_errors_not_panics() {
        // Body layout: magic 0..4, version 4, type 5, tokens tag 6,
        // field length 7..15, token count 15..23; image 23 (width
        // 24..32, height 32..40, pixel 40..44); block 44 (length 45..53,
        // bytes 53..56); checksum 56..64.
        let frame = Frame::Records {
            tokens: vec![
                Token::image(GrayImage::from_pixels(1, 1, vec![0.5])),
                Token::block(vec![1u8, 2, 3]),
            ],
        };
        let body = frame.encode();
        assert_eq!((body[23], body[44], body.len()), (5, 6, 64));
        let lengths = [
            ("field length", 7),
            ("token count", 15),
            ("image width", 24),
            ("image height", 32),
            ("block length", 45),
        ];
        for (what, at) in lengths {
            let honest = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            for forged in [honest + 1, 1 << 32, 1 << 62, u64::MAX] {
                let mut body = body.clone();
                body[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                reseal(&mut body);
                assert!(
                    Frame::decode(&body).is_err(),
                    "{what} forged to {forged} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_in_a_field_are_an_error() {
        // A token list or a backoff reason followed by one more byte in
        // its field: the payload must be consumed exactly.
        let mut tokens = Vec::new();
        tpdf_runtime::codec::put_tokens(&mut tokens, &[Token::Byte(1)]);
        tokens.push(0);
        let cases = [
            (TYPE_RECORDS, TAG_TOKENS, tokens),
            (TYPE_BACKOFF, TAG_REASON, vec![0, 0]),
        ];
        for (frame_type, tag, payload) in cases {
            let mut body = Vec::new();
            body.extend_from_slice(&MAGIC);
            body.push(VERSION);
            body.push(frame_type);
            put_field(&mut body, tag, &payload);
            let hash = checksum(&body);
            body.extend_from_slice(&hash.to_le_bytes());
            assert!(matches!(
                Frame::decode(&body),
                Err(FrameError::Decode(DecodeError::Malformed {
                    field: "field payload",
                    ..
                }))
            ));
        }
    }

    #[test]
    fn oversized_length_prefixes_are_refused() {
        let mut reader = FrameReader::new(64);
        reader.extend(&1024u32.to_le_bytes());
        assert_eq!(
            reader.next_frame(),
            Err(FrameError::Oversized { len: 1024, cap: 64 })
        );
    }
}
