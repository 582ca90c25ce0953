//! The wire codec: length-prefixed, checksummed binary frames.
//!
//! # Wire format (version 1)
//!
//! Every frame travels as a `u32` little-endian body length followed
//! by the body:
//!
//! ```text
//! "TPDN"  magic (4 bytes)
//! u8      version (currently 1)
//! u8      frame type (Hello, Records, Barrier, Result, Backoff, Bye)
//! field*  tagged fields: u8 tag, u64 LE payload length, payload
//! u64 LE  FNV-1a 64 checksum of everything before it
//! ```
//!
//! The format deliberately mirrors the checkpoint codec
//! (`tpdf_runtime::checkpoint`): fields are self-describing — an
//! unknown tag is a [`FrameError::UnknownField`], which makes version
//! drift loud instead of lossy — and the trailing checksum is verified
//! **before** any field is parsed, so a corrupted byte can never drive
//! the parser into a bogus length or a panic. The decoder is total
//! over arbitrary input: wire garbage decodes to a structured
//! [`FrameError`], never a panic.

use std::fmt;
use std::sync::Arc;

use tpdf_apps::dsp::Complex;
use tpdf_apps::image::GrayImage;
use tpdf_runtime::{Token, TokenBytes};

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
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.type_byte());
        match self {
            Frame::Hello {
                app,
                session,
                tokens_per_run,
            } => {
                put_field(&mut out, TAG_APP, app.as_bytes());
                put_field(&mut out, TAG_SESSION, &session.to_le_bytes());
                put_field(&mut out, TAG_TOKENS_PER_RUN, &tokens_per_run.to_le_bytes());
            }
            Frame::Records { tokens } => {
                put_field(&mut out, TAG_TOKENS, &encode_tokens(tokens));
            }
            Frame::Barrier { seq } => {
                put_field(&mut out, TAG_SEQ, &seq.to_le_bytes());
            }
            Frame::Result { seq, outcome } => {
                put_field(&mut out, TAG_SEQ, &seq.to_le_bytes());
                match outcome {
                    Ok(tokens) => put_field(&mut out, TAG_TOKENS, &encode_tokens(tokens)),
                    Err(detail) => put_field(&mut out, TAG_ERROR, detail.as_bytes()),
                }
            }
            Frame::Backoff { session, reason } => {
                put_field(&mut out, TAG_SESSION, &session.to_le_bytes());
                put_field(&mut out, TAG_REASON, &[reason.to_u8()]);
            }
            Frame::Bye => {}
        }
        let hash = checksum(&out);
        out.extend_from_slice(&hash.to_le_bytes());
        out
    }

    /// Decodes one frame body. Total over arbitrary bytes: every
    /// malformation is a structured [`FrameError`].
    ///
    /// # Errors
    ///
    /// Every [`FrameError`] variant except `Oversized` (which only the
    /// length-prefix layer, [`FrameReader`], reports).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        // Magic + version + type + checksum is the smallest frame.
        if body.len() < MAGIC.len() + 2 + 8 {
            return Err(FrameError::TooShort { len: body.len() });
        }
        if body[..MAGIC.len()] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let (payload, trailer) = body.split_at(body.len() - 8);
        let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let expected = checksum(payload);
        if expected != found {
            return Err(FrameError::ChecksumMismatch { expected, found });
        }
        let version = payload[MAGIC.len()];
        if version != VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let frame_type = payload[MAGIC.len() + 1];
        let mut reader = Reader::new(&payload[MAGIC.len() + 2..]);

        let mut app = None;
        let mut session = None;
        let mut tokens_per_run = None;
        let mut tokens = None;
        let mut seq = None;
        let mut error = None;
        let mut reason = None;
        while reader.remaining() > 0 {
            let tag = reader.u8("field tag")?;
            let len = reader.u64("field length")? as usize;
            let payload = reader.bytes(len, "field payload")?;
            match tag {
                TAG_APP => app = Some(utf8(payload, "app")?),
                TAG_SESSION => session = Some(field_u64(payload, "session")?),
                TAG_TOKENS_PER_RUN => {
                    tokens_per_run = Some(field_u64(payload, "tokens_per_run")?);
                }
                TAG_TOKENS => tokens = Some(decode_tokens(payload)?),
                TAG_SEQ => seq = Some(field_u64(payload, "seq")?),
                TAG_ERROR => error = Some(utf8(payload, "error")?),
                TAG_REASON => {
                    let byte = *payload
                        .first()
                        .ok_or(FrameError::Truncated { field: "reason" })?;
                    reason = Some(BackoffReason::from_u8(byte).ok_or(FrameError::Malformed {
                        field: "reason",
                        detail: format!("unknown backoff reason {byte}"),
                    })?);
                }
                other => return Err(FrameError::UnknownField(other)),
            }
        }
        Ok(match frame_type {
            TYPE_HELLO => Frame::Hello {
                app: app.ok_or(FrameError::MissingField("app"))?,
                session: session.unwrap_or(0),
                tokens_per_run: tokens_per_run.unwrap_or(0),
            },
            TYPE_RECORDS => Frame::Records {
                tokens: tokens.ok_or(FrameError::MissingField("tokens"))?,
            },
            TYPE_BARRIER => Frame::Barrier {
                seq: seq.ok_or(FrameError::MissingField("seq"))?,
            },
            TYPE_RESULT => Frame::Result {
                seq: seq.ok_or(FrameError::MissingField("seq"))?,
                outcome: match (tokens, error) {
                    (_, Some(detail)) => Err(detail),
                    (Some(tokens), None) => Ok(tokens),
                    (None, None) => return Err(FrameError::MissingField("tokens")),
                },
            },
            TYPE_BACKOFF => Frame::Backoff {
                session: session.unwrap_or(0),
                reason: reason.ok_or(FrameError::MissingField("reason"))?,
            },
            TYPE_BYE => Frame::Bye,
            other => return Err(FrameError::UnknownFrameType(other)),
        })
    }
}

/// Appends one length-prefixed frame to `out` (`u32` LE body length,
/// then the body) — the only framing the transport layer adds.
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    let body = frame.encode();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Everything the decoder can report. Arbitrary wire bytes decode to
/// one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The body is shorter than magic + version + type + checksum.
    TooShort {
        /// Observed body length in bytes.
        len: usize,
    },
    /// The body does not start with `"TPDN"`.
    BadMagic,
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion(u8),
    /// The trailing FNV-1a checksum does not match the body — the
    /// bytes were corrupted or truncated in flight.
    ChecksumMismatch {
        /// Checksum recomputed over the body.
        expected: u64,
        /// Checksum found in the trailer.
        found: u64,
    },
    /// The type byte names no known frame.
    UnknownFrameType(u8),
    /// A field tag this decoder does not know (a newer peer).
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
    /// A field the frame type requires is absent.
    MissingField(&'static str),
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
            FrameError::TooShort { len } => write!(f, "frame body of {len} bytes is too short"),
            FrameError::BadMagic => write!(f, "not a tpdf-net frame (bad magic)"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v} (this reader speaks {VERSION})")
            }
            FrameError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: body hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            FrameError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            FrameError::UnknownField(tag) => {
                write!(f, "unknown frame field tag {tag} (sent by a newer peer?)")
            }
            FrameError::Truncated { field } => write!(f, "frame truncated while reading {field}"),
            FrameError::Malformed { field, detail } => {
                write!(f, "malformed frame field {field}: {detail}")
            }
            FrameError::MissingField(field) => {
                write!(f, "frame is missing required field {field}")
            }
            FrameError::Oversized { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

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

/// FNV-1a 64 over `bytes` — the same trailer hash the checkpoint
/// codec uses.
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

fn field_u64(payload: &[u8], field: &'static str) -> Result<u64, FrameError> {
    let raw: [u8; 8] = payload
        .try_into()
        .map_err(|_| FrameError::Truncated { field })?;
    Ok(u64::from_le_bytes(raw))
}

fn utf8(payload: &[u8], field: &'static str) -> Result<String, FrameError> {
    String::from_utf8(payload.to_vec()).map_err(|_| FrameError::Malformed {
        field,
        detail: "not valid UTF-8".to_string(),
    })
}

fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + tokens.len() * 17);
    put_u64(&mut out, tokens.len() as u64);
    for token in tokens {
        put_token(&mut out, token);
    }
    out
}

fn decode_tokens(payload: &[u8]) -> Result<Vec<Token>, FrameError> {
    let mut reader = Reader::new(payload);
    let count = reader.count(1, "token count")?;
    let mut tokens = Vec::with_capacity(count);
    for _ in 0..count {
        tokens.push(reader.token()?);
    }
    Ok(tokens)
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

/// Bounds-checked cursor over a frame body. Every read reports
/// [`FrameError::Truncated`] instead of slicing out of range, so the
/// decoder is total over arbitrary input.
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

    fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated { field });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, FrameError> {
        Ok(self.bytes(1, field)?[0])
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, FrameError> {
        let raw = self.bytes(8, field)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// A declared element count, sanity-capped by the bytes actually
    /// remaining (`min_size` = the smallest possible encoding of one
    /// element) so a forged count cannot drive a huge allocation.
    fn count(&mut self, min_size: usize, field: &'static str) -> Result<usize, FrameError> {
        let declared = self.u64(field)?;
        let ceiling = (self.remaining() / min_size.max(1)) as u64;
        if declared > ceiling {
            return Err(FrameError::Malformed {
                field,
                detail: format!("declared {declared} elements, only {ceiling} can fit"),
            });
        }
        Ok(declared as usize)
    }

    fn token(&mut self) -> Result<Token, FrameError> {
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
                let count = width.checked_mul(height).ok_or(FrameError::Malformed {
                    field,
                    detail: "image dimensions overflow".to_string(),
                })?;
                let bytes = count.checked_mul(4).ok_or(FrameError::Malformed {
                    field,
                    detail: format!("an image of {count} pixels overflows"),
                })?;
                if self.remaining() < bytes {
                    return Err(FrameError::Truncated { field });
                }
                let mut pixels = Vec::with_capacity(count);
                for _ in 0..count {
                    let raw = self.bytes(4, field)?;
                    pixels.push(f32::from_le_bytes(raw.try_into().expect("4-byte slice")));
                }
                Token::Image(Arc::new(GrayImage::from_pixels(width, height, pixels)))
            }
            6 => {
                let len = self.count(1, field)?;
                Token::Block(TokenBytes::new(self.bytes(len, field)?))
            }
            other => {
                return Err(FrameError::Malformed {
                    field,
                    detail: format!("unknown token discriminant {other}"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Frame::decode(&body), Err(FrameError::UnsupportedVersion(9)));

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
        assert_eq!(Frame::decode(&body), Err(FrameError::UnknownField(250)));
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
            Err(FrameError::Malformed { .. })
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
            Err(FrameError::Malformed { .. })
        ));
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
