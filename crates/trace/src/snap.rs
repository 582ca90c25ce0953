//! The line-oriented snapshot codec.
//!
//! A snapshot is a text document of `key=value` lines, one field per
//! line, with repeated keys forming ordered lists; a `TPDC` checkpoint
//! carries the runtime's metrics in this form. It is
//! deliberately trivial — diffable in a terminal, greppable, and
//! stable across versions that only add fields.
//!
//! Floats are encoded as `f64:<hex bits>` so round-trips are exact;
//! strings are escaped so embedded newlines cannot break framing.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or lookup failure while reading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A required key was absent.
    Missing(String),
    /// A value failed to parse as the requested type.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Missing(key) => write!(f, "snapshot field missing: {key}"),
            SnapshotError::Malformed(what) => write!(f, "snapshot field malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Builds a snapshot document field by field.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    out: String,
}

/// Appends `v` in decimal without going through `fmt` machinery —
/// snapshot documents are integer-heavy and checkpoint encoding
/// serializes one per capture on a guarded overhead budget.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter {
            out: String::with_capacity(1024),
        }
    }

    /// Writes one `key=value` line with any `Display` value. Repeating
    /// a key appends an ordered list entry.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        debug_assert!(!key.contains('=') && !key.contains('\n'));
        self.out.push_str(key);
        self.out.push('=');
        let start = self.out.len();
        use fmt::Write;
        let _ = write!(self.out, "{value}");
        debug_assert!(!self.out[start..].contains('\n'));
        self.out.push('\n');
    }

    /// Writes a float exactly, as `f64:<hex of its bit pattern>`.
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.field(key, format_args!("f64:{:016x}", value.to_bits()));
    }

    /// Writes an escaped string value (newlines, `\` and `=` survive).
    pub fn field_str(&mut self, key: &str, value: &str) {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                other => vec![other],
            })
            .collect();
        self.field(key, escaped);
    }

    /// Writes an iterator of integers as one comma-separated value.
    /// Streams straight into the output buffer — no per-element
    /// allocation; checkpoint encoding serializes metrics through here
    /// on a guarded overhead budget.
    pub fn field_list(&mut self, key: &str, values: impl IntoIterator<Item = u64>) {
        debug_assert!(!key.contains('=') && !key.contains('\n'));
        self.out.push_str(key);
        self.out.push('=');
        let mut first = true;
        for v in values {
            if !first {
                self.out.push(',');
            }
            first = false;
            push_u64(&mut self.out, v);
        }
        self.out.push('\n');
    }

    /// Finishes the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Reads a snapshot document produced by [`SnapshotWriter`].
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    /// Key → values in document order (repeated keys accumulate).
    fields: BTreeMap<String, Vec<String>>,
}

impl SnapshotReader {
    /// Parses a document; blank lines are ignored, any other line must
    /// contain `=`.
    pub fn parse(text: &str) -> Result<SnapshotReader, SnapshotError> {
        let mut fields: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| SnapshotError::Malformed(format!("line without '=': {line:?}")))?;
            fields
                .entry(key.to_string())
                .or_default()
                .push(value.to_string());
        }
        Ok(SnapshotReader { fields })
    }

    /// The raw value of `key` (first occurrence).
    pub fn raw(&self, key: &str) -> Result<&str, SnapshotError> {
        self.fields
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
            .ok_or_else(|| SnapshotError::Missing(key.to_string()))
    }

    /// All values recorded under `key`, in document order (empty if
    /// the key never appeared).
    pub fn values(&self, key: &str) -> &[String] {
        self.fields.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Parses `key` with any `FromStr` type.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, SnapshotError> {
        self.raw(key)?
            .parse()
            .map_err(|_| SnapshotError::Malformed(format!("{key}={}", self.raw(key).unwrap())))
    }

    /// Parses `key` as a `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, SnapshotError> {
        self.get(key)
    }

    /// Parses `key` as an exact float written by
    /// [`SnapshotWriter::field_f64`].
    pub fn f64(&self, key: &str) -> Result<f64, SnapshotError> {
        let raw = self.raw(key)?;
        let hex = raw
            .strip_prefix("f64:")
            .ok_or_else(|| SnapshotError::Malformed(format!("{key}={raw}")))?;
        u64::from_str_radix(hex, 16)
            .map(f64::from_bits)
            .map_err(|_| SnapshotError::Malformed(format!("{key}={raw}")))
    }

    /// Reads an escaped string written by [`SnapshotWriter::field_str`].
    pub fn string(&self, key: &str) -> Result<String, SnapshotError> {
        let raw = self.raw(key)?;
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                _ => return Err(SnapshotError::Malformed(format!("{key}={raw}"))),
            }
        }
        Ok(out)
    }

    /// Parses a comma-separated integer list written by
    /// [`SnapshotWriter::field_list`].
    pub fn u64_list(&self, key: &str) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.raw(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|part| {
                part.parse()
                    .map_err(|_| SnapshotError::Malformed(format!("{key}={raw}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapshotWriter::new();
        w.field("iterations", 128u64);
        w.field_f64("demand", 0.1 + 0.2);
        w.field_f64("nan", f64::NAN);
        w.field_str("name", "line1\nline2\\tail=x");
        let r = SnapshotReader::parse(&w.finish()).unwrap();
        assert_eq!(r.u64("iterations").unwrap(), 128);
        assert_eq!(r.f64("demand").unwrap(), 0.1 + 0.2);
        assert!(r.f64("nan").unwrap().is_nan());
        assert_eq!(r.string("name").unwrap(), "line1\nline2\\tail=x");
    }

    #[test]
    fn lists_and_repeated_keys_keep_order() {
        let mut w = SnapshotWriter::new();
        w.field_list("buckets", [3u64, 0, 7]);
        w.field_list("empty", []);
        w.field("session", "a");
        w.field("session", "b");
        let r = SnapshotReader::parse(&w.finish()).unwrap();
        assert_eq!(r.u64_list("buckets").unwrap(), vec![3, 0, 7]);
        assert_eq!(r.u64_list("empty").unwrap(), Vec::<u64>::new());
        assert_eq!(r.values("session"), ["a", "b"]);
        assert_eq!(r.values("absent"), Vec::<String>::new().as_slice());
    }

    #[test]
    fn errors_identify_the_field() {
        let r = SnapshotReader::parse("count=twelve\n").unwrap();
        assert!(matches!(r.u64("missing"), Err(SnapshotError::Missing(k)) if k == "missing"));
        assert!(matches!(r.u64("count"), Err(SnapshotError::Malformed(_))));
        assert!(matches!(r.f64("count"), Err(SnapshotError::Malformed(_))));
        assert!(SnapshotReader::parse("no separator\n").is_err());
    }
}
