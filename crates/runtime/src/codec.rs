//! The one binary codec under both of the workspace's byte formats:
//! `TPDC` checkpoints ([`crate::checkpoint`]) and `TPDN` wire frames
//! (`tpdf_net::frame`). A checkpoint is the token contents of the rings
//! at an iteration barrier and a `Records`/`Result` frame carries the
//! same tokens, so both travel as the same bytes.
//!
//! # Envelope
//!
//! ```text
//! magic   4 bytes ("TPDC" or "TPDN")
//! u8      version (currently 1 for both)
//! header  fixed bytes the format owns (the frame-type byte; none for checkpoints)
//! field*  tagged fields: u8 tag, u64 LE payload length, payload
//! u64 LE  FNV-1a 64 checksum of everything before it
//! ```
//!
//! [`read_envelope`] checks, in order: the length, the magic, the
//! checksum — **before** the version and before any field is parsed, so
//! a corrupted byte can never drive the parser into a bogus length —
//! then the version. Every field's payload must be consumed exactly.
//! The decoder is total over arbitrary input: every malformation is a
//! structured [`DecodeError`], never a panic.
//!
//! # Tokens
//!
//! A token list is a `u64` LE count followed by that many tokens, each
//! a one-byte discriminant and its payload: `0` unit, `1` `i64`, `2`
//! `f64`, `3` byte, `4` complex (`re`, `im` as `f64`), `5` image
//! (`u64` width, `u64` height, `f32` pixels row-major), `6` block (`u64`
//! length, bytes). A block's bytes are re-inlined: the handle's sharing
//! is an in-process optimisation, the bytes carry the payload.

use crate::token::{Token, TokenBytes};
use std::fmt;
use std::sync::Arc;
use tpdf_apps::dsp::Complex;
use tpdf_apps::image::GrayImage;

/// FNV-1a 64 over `bytes`: the envelope's trailer checksum (and the
/// hash behind the runtime's graph fingerprint). Public so adversarial
/// tests can forge bodies with valid trailers.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything the envelope, field and token layers can report.
/// Arbitrary bytes decode to one of these (or to a format's own
/// error wrapping one) — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body is shorter than magic + version + header + checksum.
    TooShort {
        /// Observed body length in bytes.
        len: usize,
    },
    /// The body does not start with the format's magic.
    BadMagic,
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion(u8),
    /// The trailing FNV-1a checksum does not match the body: the bytes
    /// were corrupted or truncated in flight.
    ChecksumMismatch {
        /// Checksum recomputed over the body.
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
    /// A required field is absent.
    MissingField(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TooShort { len } => write!(f, "body of {len} bytes is too short"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: body hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            DecodeError::UnknownField(tag) => {
                write!(f, "unknown field tag {tag} (written by a newer version?)")
            }
            DecodeError::Truncated { field } => write!(f, "truncated while reading {field}"),
            DecodeError::Malformed { field, detail } => write!(f, "malformed {field}: {detail}"),
            DecodeError::MissingField(field) => write!(f, "missing required field {field}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes one envelope straight into an output buffer: magic, version
/// and header on [`Envelope::begin`], one [`Envelope::field`] per
/// field, the checksum on [`Envelope::finish`].
pub struct Envelope<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> Envelope<'a> {
    /// Starts an envelope at the end of `out`.
    pub fn begin(out: &'a mut Vec<u8>, magic: [u8; 4], version: u8, header: &[u8]) -> Self {
        let start = out.len();
        out.extend_from_slice(&magic);
        out.push(version);
        out.extend_from_slice(header);
        Envelope { out, start }
    }

    /// Appends one field whose payload `write` appends to the buffer;
    /// the length is reserved first and back-patched.
    pub fn field(&mut self, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
        self.out.push(tag);
        let at = self.out.len();
        put_u64(self.out, 0);
        write(self.out);
        let len = (self.out.len() - at - 8) as u64;
        self.out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends one field whose payload is `bytes`.
    pub fn bytes(&mut self, tag: u8, bytes: &[u8]) {
        self.field(tag, |out| out.extend_from_slice(bytes));
    }

    /// Seals the envelope with the checksum of everything since
    /// [`Envelope::begin`].
    pub fn finish(self) {
        let hash = checksum(&self.out[self.start..]);
        put_u64(self.out, hash);
    }
}

/// Verifies an envelope (see the module docs for the order of checks),
/// then hands each field to `each` with a [`Reader`] over its payload,
/// which `each` must consume exactly. Returns the header bytes.
///
/// # Errors
///
/// Any [`DecodeError`], from the envelope or from `each`.
pub fn read_envelope<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u8,
    header_len: usize,
    mut each: impl FnMut(u8, &mut Reader<'a>) -> Result<(), DecodeError>,
) -> Result<&'a [u8], DecodeError> {
    if bytes.len() < magic.len() + 1 + header_len + 8 {
        return Err(DecodeError::TooShort { len: bytes.len() });
    }
    if bytes[..magic.len()] != magic {
        return Err(DecodeError::BadMagic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let expected = checksum(body);
    if expected != found {
        return Err(DecodeError::ChecksumMismatch { expected, found });
    }
    let mut reader = Reader::new(&body[magic.len()..]);
    let found_version = reader.u8("version")?;
    if found_version != version {
        return Err(DecodeError::UnsupportedVersion(found_version));
    }
    let header = reader.bytes(header_len, "header")?;
    while reader.remaining() > 0 {
        let tag = reader.u8("field tag")?;
        let len = reader.u64("field length")? as usize;
        let mut field = Reader::new(reader.bytes(len, "field payload")?);
        each(tag, &mut field)?;
        if field.remaining() > 0 {
            return Err(DecodeError::Malformed {
                field: "field payload",
                detail: format!("{} trailing bytes after field {tag}", field.remaining()),
            });
        }
    }
    Ok(header)
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a token list: its count, then each token.
pub fn put_tokens(out: &mut Vec<u8>, tokens: &[Token]) {
    put_u64(out, tokens.len() as u64);
    for token in tokens {
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
            Token::Byte(b) => out.extend_from_slice(&[3, *b]),
            Token::Complex(c) => {
                out.push(4);
                out.extend_from_slice(&c.re.to_le_bytes());
                out.extend_from_slice(&c.im.to_le_bytes());
            }
            Token::Image(img) => {
                out.push(5);
                put_u64(out, img.width() as u64);
                put_u64(out, img.height() as u64);
                out.reserve(img.pixels().len() * 4);
                for &px in img.pixels() {
                    out.extend_from_slice(&px.to_le_bytes());
                }
            }
            Token::Block(bytes) => {
                out.push(6);
                put_u64(out, bytes.len() as u64);
                out.extend_from_slice(bytes.as_slice());
            }
        }
    }
}

/// Bounds-checked cursor over a payload. Every read reports
/// [`DecodeError::Truncated`] instead of slicing out of range, so the
/// decoder is total over arbitrary input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` remain.
    pub fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { field });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at the end of the payload.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.bytes(1, field)?[0])
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let raw = self.bytes(8, field)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// The rest of the payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Malformed`] when the bytes are not UTF-8.
    pub fn str(&mut self, field: &'static str) -> Result<&'a str, DecodeError> {
        let rest = self.bytes(self.remaining(), field)?;
        std::str::from_utf8(rest).map_err(|e| DecodeError::Malformed {
            field,
            detail: e.to_string(),
        })
    }

    /// A declared element count, capped by the bytes remaining:
    /// `min_size` is the smallest encoding of one element, so a forged
    /// count cannot drive a huge allocation. Every pre-allocation of
    /// both decoders goes through here (or, for image pixels, a length
    /// checked against the bytes remaining). The largest element is a
    /// [`Token`] (40 bytes) at one byte per `Unit`, so a body of `n`
    /// bytes pre-allocates at most about `40 n` bytes, which an honest
    /// body of `Unit` tokens also reaches.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Malformed`] when the count cannot fit.
    fn count(&mut self, min_size: usize, field: &'static str) -> Result<usize, DecodeError> {
        let declared = self.u64(field)?;
        let ceiling = (self.remaining() / min_size.max(1)) as u64;
        if declared > ceiling {
            return Err(DecodeError::Malformed {
                field,
                detail: format!("declared {declared} elements, only {ceiling} can fit"),
            });
        }
        Ok(declared as usize)
    }

    /// A counted list: a `u64` count, refused when `min_size` bytes
    /// per element cannot fit in the bytes remaining, then that many
    /// elements read by `element`.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] of a forged count or of `element`.
    pub fn list<T>(
        &mut self,
        min_size: usize,
        field: &'static str,
        mut element: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.count(min_size, field)?;
        let mut list = Vec::with_capacity(count);
        for _ in 0..count {
            list.push(element(self)?);
        }
        Ok(list)
    }

    /// A token list written by [`put_tokens`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] of a forged count or a bad token.
    pub fn tokens(&mut self, field: &'static str) -> Result<Vec<Token>, DecodeError> {
        self.list(1, field, Reader::token)
    }

    fn token(&mut self) -> Result<Token, DecodeError> {
        let field = "token";
        Ok(match self.u8(field)? {
            0 => Token::Unit,
            1 => Token::Int(self.u64(field)? as i64),
            2 => Token::Float(self.f64(field)?),
            3 => Token::Byte(self.u8(field)?),
            4 => Token::Complex(Complex {
                re: self.f64(field)?,
                im: self.f64(field)?,
            }),
            5 => {
                let width = self.u64(field)? as usize;
                let height = self.u64(field)? as usize;
                let bytes = width
                    .checked_mul(height)
                    .and_then(|count| count.checked_mul(4))
                    .ok_or_else(|| DecodeError::Malformed {
                        field,
                        detail: format!("a {width}x{height} image overflows"),
                    })?;
                let pixels = self
                    .bytes(bytes, field)?
                    .chunks_exact(4)
                    .map(|px| f32::from_le_bytes(px.try_into().expect("4-byte chunk")))
                    .collect();
                Token::Image(Arc::new(GrayImage::from_pixels(width, height, pixels)))
            }
            6 => {
                let len = self.count(1, field)?;
                Token::Block(TokenBytes::new(self.bytes(len, field)?))
            }
            other => {
                return Err(DecodeError::Malformed {
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

    const MAGIC: [u8; 4] = *b"TEST";

    fn every_kind() -> Vec<Token> {
        vec![
            Token::Unit,
            Token::Int(-77),
            Token::Float(0.125),
            Token::Byte(9),
            Token::Complex(Complex { re: 1.5, im: -2.5 }),
            Token::image(GrayImage::from_pixels(2, 2, vec![0.0, 0.25, 0.5, 1.0])),
            Token::Block(TokenBytes::new((0u8..16).collect::<Vec<u8>>()).slice(3..9)),
        ]
    }

    /// An envelope with header `[7]`, a token field (tag 1) and a text
    /// field (tag 2).
    fn encode(tokens: &[Token], text: &str) -> Vec<u8> {
        let mut out = vec![0xEE]; // bytes before the envelope are not hashed
        let mut env = Envelope::begin(&mut out, MAGIC, 1, &[7]);
        env.field(1, |out| put_tokens(out, tokens));
        env.bytes(2, text.as_bytes());
        env.finish();
        out.remove(0);
        out
    }

    fn decode(bytes: &[u8]) -> Result<(u8, Vec<Token>, String), DecodeError> {
        let (mut tokens, mut text) = (Vec::new(), String::new());
        let header = read_envelope(bytes, MAGIC, 1, 1, |tag, field| {
            match tag {
                1 => tokens = field.tokens("tokens")?,
                2 => text = field.str("text")?.to_string(),
                other => return Err(DecodeError::UnknownField(other)),
            }
            Ok(())
        })?;
        Ok((header[0], tokens, text))
    }

    fn reseal(bytes: &mut [u8]) {
        let trailer = bytes.len() - 8;
        let hash = checksum(&bytes[..trailer]);
        bytes[trailer..].copy_from_slice(&hash.to_le_bytes());
    }

    #[test]
    fn every_token_kind_round_trips() {
        let bytes = encode(&every_kind(), "done");
        assert_eq!(decode(&bytes), Ok((7, every_kind(), "done".to_string())));
    }

    #[test]
    fn every_single_byte_flip_is_a_structured_error() {
        let bytes = encode(&every_kind(), "done");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            assert!(decode(&corrupt).is_err(), "flip at byte {i} decoded");
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = encode(&every_kind(), "done");
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation to {len} decoded"
            );
        }
    }

    #[test]
    fn version_is_checked_after_the_checksum() {
        let mut bytes = encode(&[], "");
        bytes[4] = 2;
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
        reseal(&mut bytes);
        assert_eq!(decode(&bytes), Err(DecodeError::UnsupportedVersion(2)));
    }

    #[test]
    fn a_field_payload_is_consumed_exactly() {
        let mut bytes = encode(&[Token::Unit], "");
        // Grow the token field's declared length by one and splice in
        // one byte after its token list.
        bytes[7..15].copy_from_slice(&10u64.to_le_bytes());
        bytes.insert(24, 0);
        reseal(&mut bytes);
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::Malformed {
                field: "field payload",
                ..
            })
        ));
    }

    #[test]
    fn token_is_forty_bytes() {
        // The bound `Reader::count` documents.
        assert_eq!(std::mem::size_of::<Token>(), 40);
    }
}
