//! Prometheus-style text exposition.
//!
//! [`Exposition`] accumulates counters, gauges and histograms and
//! renders them in the Prometheus text format (version 0.0.4): one
//! `# HELP`/`# TYPE` header pair per metric name, then one sample per
//! line. Histograms come from [`crate::HistogramSnapshot`] and expand
//! into cumulative `_bucket{le=...}` samples plus `_sum` and `_count`,
//! which is how the log2 latency histograms reach a scraper.
//!
//! A layer declares its families once, as a const table of [`Family`]
//! rows (name, help, type, accessor); [`Exposition::families`] and
//! [`Exposition::labelled`] render a table one family at a time, so
//! every family's samples stay consecutive.
//!
//! Label **values** are arbitrary UTF-8 (a session or graph name may
//! contain `"`, `\` or a newline) and are escaped per the exposition
//! spec; metric and label **names** are programmer-supplied constants,
//! so an invalid one is a bug and panics loudly rather than producing
//! an exposition the scraper will reject.

use std::fmt::Write;

use crate::hist::HistogramSnapshot;

/// Escapes a label value per the text-exposition spec: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Panics unless `name` is a valid metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn check_metric_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(
        head_ok && tail_ok,
        "invalid Prometheus metric name {name:?}: names must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
}

/// Panics unless `name` is a valid label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`; colons are metric-name only).
fn check_label_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(
        head_ok && tail_ok,
        "invalid Prometheus label name {name:?}: names must match [a-zA-Z_][a-zA-Z0-9_]*"
    );
}

/// How a [`Family`] reads its sample out of a source value.
enum Sample<T> {
    /// A monotone counter.
    Counter(fn(&T) -> u64),
    /// A gauge.
    Gauge(fn(&T) -> f64),
    /// A log2 histogram (unlabeled only).
    Histogram(fn(&T) -> HistogramSnapshot),
}

/// One declared metric family: its name, its help string and how to
/// read its sample from a `T`. A const table of these is the single
/// declaration of a layer's exposition; [`Exposition::families`] and
/// [`Exposition::labelled`] render it, one family at a time.
pub struct Family<T> {
    name: &'static str,
    help: &'static str,
    sample: Sample<T>,
}

impl<T> Family<T> {
    /// A counter family.
    pub const fn counter(name: &'static str, help: &'static str, read: fn(&T) -> u64) -> Self {
        Family {
            name,
            help,
            sample: Sample::Counter(read),
        }
    }

    /// A gauge family.
    pub const fn gauge(name: &'static str, help: &'static str, read: fn(&T) -> f64) -> Self {
        Family {
            name,
            help,
            sample: Sample::Gauge(read),
        }
    }

    /// A histogram family (unlabeled only).
    pub const fn histogram(
        name: &'static str,
        help: &'static str,
        read: fn(&T) -> HistogramSnapshot,
    ) -> Self {
        Family {
            name,
            help,
            sample: Sample::Histogram(read),
        }
    }
}

/// Builds a Prometheus text-format document.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    last_header: String,
    /// Every family already emitted, in order. The text format requires
    /// all samples of a family to be consecutive under one header pair;
    /// re-opening a family is a programming error (an interleaving
    /// per-entity loop) and panics rather than emitting a document
    /// scrapers reject.
    families: Vec<String>,
}

impl Exposition {
    /// Creates an empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Emits the `# HELP` / `# TYPE` header once per metric name.
    fn header(&mut self, name: &str, kind: &str, help: &str) {
        check_metric_name(name);
        if self.last_header == name {
            return;
        }
        assert!(
            !self.families.iter().any(|f| f == name),
            "Prometheus family {name:?} re-opened after other samples: the text format \
             requires all samples of a family to be consecutive — group the emitting loops \
             per family instead of per entity"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        self.last_header = name.to_string();
        self.families.push(name.to_string());
    }

    /// Adds an unlabeled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, "counter", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Adds a counter sample with one label. Consecutive samples of
    /// the same metric share the header; the label value is escaped.
    pub fn counter_with(&mut self, name: &str, help: &str, label: (&str, &str), value: u64) {
        self.header(name, "counter", help);
        check_label_name(label.0);
        let _ = writeln!(
            self.out,
            "{name}{{{}=\"{}\"}} {value}",
            label.0,
            escape_label_value(label.1)
        );
    }

    /// Adds an unlabeled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, "gauge", help);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Adds a gauge sample with one label (value escaped like
    /// [`Exposition::counter_with`]).
    pub fn gauge_with(&mut self, name: &str, help: &str, label: (&str, &str), value: f64) {
        self.header(name, "gauge", help);
        check_label_name(label.0);
        let _ = writeln!(
            self.out,
            "{name}{{{}=\"{}\"}} {value}",
            label.0,
            escape_label_value(label.1)
        );
    }

    /// Expands a histogram snapshot into cumulative buckets plus
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snapshot: &HistogramSnapshot) {
        self.header(name, "histogram", help);
        let mut cumulative = 0u64;
        for (i, &n) in snapshot.buckets.iter().enumerate() {
            cumulative += n;
            let _ = writeln!(
                self.out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                HistogramSnapshot::bucket_bound(i)
            );
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", snapshot.count);
        let _ = writeln!(self.out, "{name}_sum {}", snapshot.sum);
        let _ = writeln!(self.out, "{name}_count {}", snapshot.count);
    }

    /// Adds one unlabeled sample per family of `table`, read from
    /// `source`.
    pub fn families<T>(&mut self, table: &[Family<T>], source: &T) {
        for family in table {
            let (name, help) = (family.name, family.help);
            match family.sample {
                Sample::Counter(read) => self.counter(name, help, read(source)),
                Sample::Gauge(read) => self.gauge(name, help, read(source)),
                Sample::Histogram(read) => self.histogram(name, help, &read(source)),
            }
        }
    }

    /// Adds every family of `table` with one sample per entry, labelled
    /// `label="key(entry)"`. The loop runs family by family, so each
    /// family's samples are consecutive by construction.
    ///
    /// # Panics
    ///
    /// On a histogram family: histograms are rendered unlabeled only.
    pub fn labelled<T>(
        &mut self,
        table: &[Family<T>],
        label: &str,
        entries: &[T],
        key: impl Fn(&T) -> String,
    ) {
        for family in table {
            let (name, help) = (family.name, family.help);
            for entry in entries {
                let value = key(entry);
                match family.sample {
                    Sample::Counter(read) => {
                        self.counter_with(name, help, (label, &value), read(entry))
                    }
                    Sample::Gauge(read) => {
                        self.gauge_with(name, help, (label, &value), read(entry))
                    }
                    Sample::Histogram(_) => panic!("labelled histogram family {name:?}"),
                }
            }
        }
    }

    /// Finishes the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// `promtool check metrics`-style conformance lint of a text-format
/// document (version 0.0.4). Checks, per line and per family:
///
/// * line grammar — `# HELP`/`# TYPE` comments and
///   `name{label="value",...} value` samples, nothing else;
/// * metric and label names match the spec grammars, values parse as
///   floats (`NaN`/`+Inf`/`-Inf` included);
/// * `# TYPE` appears exactly once per family, names a known type, and
///   precedes the family's samples;
/// * all samples of a family are consecutive (no family is re-opened
///   after another family's samples);
/// * histograms: every `_bucket` series carries `le`, bucket bounds
///   strictly increase, cumulative counts never decrease, the series
///   closes with `le="+Inf"`, and `_sum`/`_count` are present with
///   `_count` equal to the `+Inf` bucket (checked per label set, so
///   labelled histogram families lint too).
///
/// Returns the first violation as `Err(line-number: message)`. Useful
/// for asserting that concatenated expositions (service + net + ops)
/// still form one valid scrape document.
pub fn lint(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct HistTrack {
        last_le: Option<f64>,
        last_cumulative: Option<f64>,
        inf: Option<f64>,
        sum: bool,
        count: Option<f64>,
    }
    struct Family {
        kind: String,
        closed: bool,
        samples: bool,
        // keyed by the non-`le` label set
        hist: BTreeMap<String, HistTrack>,
    }

    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut current: Option<String> = None;

    fn parse_value(text: &str) -> Option<f64> {
        match text {
            "+Inf" | "Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            "NaN" => Some(f64::NAN),
            _ => text.parse().ok(),
        }
    }
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_label_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    /// Splits `name{labels} value` into (name, labels, value); labels
    /// are returned as (name, unescaped value) pairs.
    #[allow(clippy::type_complexity)]
    fn parse_sample(line: &str) -> Option<(String, Vec<(String, String)>, f64)> {
        let (name_end, has_labels) = match line.find(['{', ' ']) {
            Some(i) => (i, line.as_bytes()[i] == b'{'),
            None => return None,
        };
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return None;
        }
        let mut labels = Vec::new();
        let rest = if has_labels {
            let body = &line[name_end + 1..];
            let bytes = body.as_bytes();
            let mut label_start = 0usize;
            let after_labels;
            loop {
                // label name up to '='
                let eq = body[label_start..].find('=')? + label_start;
                let lname = &body[label_start..eq];
                if !valid_label_name(lname) {
                    return None;
                }
                // opening quote
                if bytes.get(eq + 1) != Some(&b'"') {
                    return None;
                }
                // scan the quoted value, honouring escapes
                let mut value = String::new();
                let mut i = eq + 2;
                loop {
                    match bytes.get(i)? {
                        b'\\' => {
                            match bytes.get(i + 1)? {
                                b'\\' => value.push('\\'),
                                b'"' => value.push('"'),
                                b'n' => value.push('\n'),
                                _ => return None,
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => {
                            let c = body[i..].chars().next()?;
                            value.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                labels.push((lname.to_string(), value));
                match bytes.get(i) {
                    Some(b',') => label_start = i + 1,
                    Some(b'}') => {
                        after_labels = i + 1;
                        break;
                    }
                    _ => return None,
                }
            }
            body[after_labels..].trim_start()
        } else {
            line[name_end..].trim_start()
        };
        // Optional trailing timestamp: `value [timestamp]`.
        let mut parts = rest.split_whitespace();
        let value = parse_value(parts.next()?)?;
        if let Some(ts) = parts.next() {
            ts.parse::<i64>().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some((name.to_string(), labels, value))
    }

    fn close_family(name: &str, family: &mut Family) -> Result<(), String> {
        family.closed = true;
        if family.kind == "histogram" {
            for (labels, track) in &family.hist {
                let at = if labels.is_empty() {
                    String::new()
                } else {
                    format!(" {{{labels}}}")
                };
                let inf = track
                    .inf
                    .ok_or_else(|| format!("histogram {name}{at} has no le=\"+Inf\" bucket"))?;
                if !track.sum {
                    return Err(format!("histogram {name}{at} has no _sum sample"));
                }
                let count = track
                    .count
                    .ok_or_else(|| format!("histogram {name}{at} has no _count sample"))?;
                if count != inf {
                    return Err(format!(
                        "histogram {name}{at}: _count {count} != +Inf bucket {inf}"
                    ));
                }
            }
        }
        Ok(())
    }

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let fail = |msg: String| Err(format!("line {lineno}: {msg}"));
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            let (keyword, rest) = match comment.split_once(' ') {
                Some(pair) => pair,
                None => continue, // a free-form comment
            };
            if keyword != "HELP" && keyword != "TYPE" {
                continue;
            }
            let (name, detail) = match rest.split_once(' ') {
                Some(pair) => pair,
                None => (rest, ""),
            };
            if !valid_metric_name(name) {
                return fail(format!("invalid metric name {name:?} in # {keyword}"));
            }
            if keyword == "HELP" {
                if let Some(f) = families.get(name) {
                    if f.samples || f.closed {
                        return fail(format!("# HELP {name} after the family's samples"));
                    }
                }
                continue;
            }
            if !matches!(
                detail,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return fail(format!("unknown type {detail:?} for {name}"));
            }
            if let Some(f) = families.get(name) {
                if f.samples || f.closed {
                    return fail(format!("# TYPE {name} after the family's samples"));
                }
                return fail(format!("duplicate # TYPE for {name}"));
            }
            families.insert(
                name.to_string(),
                Family {
                    kind: detail.to_string(),
                    closed: false,
                    samples: false,
                    hist: BTreeMap::new(),
                },
            );
            continue;
        }
        let (name, labels, value) = match parse_sample(line) {
            Some(parsed) => parsed,
            None => return fail(format!("unparsable sample line {line:?}")),
        };
        // Resolve the family: histogram series fold `_bucket`/`_sum`/
        // `_count` suffixes back onto the declared base name.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| families.get(*base).is_some_and(|f| f.kind == "histogram"))
            .map(str::to_string);
        let family_name = base.clone().unwrap_or_else(|| name.clone());
        let Some(family) = families.get_mut(&family_name) else {
            return fail(format!("sample {name} has no preceding # TYPE"));
        };
        if family.kind == "histogram" && base.is_none() {
            return fail(format!(
                "histogram family {family_name} sampled without _bucket/_sum/_count"
            ));
        }
        if family.closed {
            return fail(format!(
                "family {family_name} re-opened: its samples are not consecutive"
            ));
        }
        // Entering a new family closes the previous one.
        if current.as_deref() != Some(family_name.as_str()) {
            if let Some(prev) = current.replace(family_name.clone()) {
                let prev_family = families.get_mut(&prev).expect("tracked");
                if let Err(msg) = close_family(&prev, prev_family) {
                    return fail(msg);
                }
            }
        }
        let family = families.get_mut(&family_name).expect("tracked");
        family.samples = true;
        if family.kind == "histogram" {
            let key: Vec<String> = labels
                .iter()
                .filter(|(l, _)| l != "le")
                .map(|(l, v)| format!("{l}={v:?}"))
                .collect();
            let track = family.hist.entry(key.join(",")).or_default();
            if name.ends_with("_bucket") {
                let Some((_, le)) = labels.iter().find(|(l, _)| l == "le") else {
                    return fail(format!("{name} bucket without an le label"));
                };
                let Some(bound) = parse_value(le) else {
                    return fail(format!("{name} le={le:?} is not a number"));
                };
                if track.last_le.is_some_and(|prev| bound <= prev) {
                    return fail(format!("{name} bucket bounds not increasing at le={le}"));
                }
                if track.last_cumulative.is_some_and(|prev| value < prev) {
                    return fail(format!("{name} cumulative count decreases at le={le}"));
                }
                if bound.is_infinite() {
                    track.inf = Some(value);
                }
                track.last_le = Some(bound);
                track.last_cumulative = Some(value);
            } else if name.ends_with("_sum") {
                track.sum = true;
            } else {
                track.count = Some(value);
            }
        }
    }
    if let Some(name) = current {
        let family = families.get_mut(&name).expect("tracked");
        close_family(&name, family).map_err(|msg| format!("end of document: {msg}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Log2Histogram;

    #[test]
    fn renders_counters_and_gauges_with_single_headers() {
        let mut e = Exposition::new();
        e.counter("tpdf_runs_total", "Completed runs.", 3);
        e.counter_with("tpdf_firings_total", "Firings.", ("worker", "0"), 10);
        e.counter_with("tpdf_firings_total", "Firings.", ("worker", "1"), 20);
        e.gauge("tpdf_demand", "Deadline demand.", 0.5);
        let text = e.finish();
        assert_eq!(text.matches("# TYPE tpdf_firings_total").count(), 1);
        assert!(text.contains("tpdf_runs_total 3"));
        assert!(text.contains("tpdf_firings_total{worker=\"1\"} 20"));
        assert!(text.contains("tpdf_demand 0.5"));
    }

    #[test]
    fn histograms_are_cumulative_and_closed_by_inf() {
        let h = Log2Histogram::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        let mut e = Exposition::new();
        e.histogram("tpdf_firing_ns", "Firing duration.", &h.snapshot());
        let text = e.finish();
        assert!(text.contains("# TYPE tpdf_firing_ns histogram"));
        assert!(text.contains("tpdf_firing_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("tpdf_firing_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("tpdf_firing_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tpdf_firing_ns_sum 6"));
        assert!(text.contains("tpdf_firing_ns_count 3"));
    }

    #[test]
    fn label_values_are_escaped_per_spec() {
        let mut e = Exposition::new();
        e.counter_with(
            "tpdf_sessions_total",
            "Sessions.",
            ("session", "evil\"name\\with\nnewline"),
            1,
        );
        e.gauge_with("tpdf_demand", "Demand.", ("session", "a\\b"), 0.5);
        let text = e.finish();
        assert!(
            text.contains(r#"tpdf_sessions_total{session="evil\"name\\with\nnewline"} 1"#),
            "unescaped exposition: {text}"
        );
        assert!(text.contains(r#"tpdf_demand{session="a\\b"} 0.5"#));
        // The document itself stays line-framed: the raw newline never
        // reaches the output.
        assert!(text.lines().all(|l| !l.contains('\n')));
    }

    #[test]
    #[should_panic(expected = "re-opened after other samples")]
    fn interleaved_families_are_rejected_loudly() {
        let mut e = Exposition::new();
        for session in ["0", "1"] {
            e.counter_with("tpdf_a_total", "A.", ("session", session), 1);
            e.counter_with("tpdf_b_total", "B.", ("session", session), 2);
        }
    }

    #[test]
    fn lint_accepts_everything_the_builder_emits() {
        let h = Log2Histogram::new();
        for v in [1u64, 5, 900, 70_000] {
            h.record(v);
        }
        let mut e = Exposition::new();
        e.counter("tpdf_runs_total", "Completed runs.", 3);
        for worker in 0..3 {
            e.counter_with(
                "tpdf_firings_total",
                "Firings.",
                ("worker", &worker.to_string()),
                10 * worker,
            );
        }
        e.gauge("tpdf_demand", "Deadline demand.", 0.5);
        e.gauge_with("tpdf_health", "Health.", ("session", "evil\"\\\nname"), 1.0);
        e.histogram("tpdf_firing_ns", "Firing duration.", &h.snapshot());
        e.counter("tpdf_after_total", "A family after the histogram.", 1);
        let text = e.finish();
        lint(&text).unwrap();
        // Concatenated documents with disjoint families lint too — the
        // /metrics endpoint serves service + net + ops back to back.
        let mut other = Exposition::new();
        other.counter("tpdf_other_total", "Another document.", 9);
        lint(&format!("{text}{}", other.finish())).unwrap();
    }

    #[test]
    fn lint_rejects_malformed_documents() {
        // Interleaved families.
        let doc = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n";
        assert!(lint(doc).unwrap_err().contains("not consecutive"));
        // Sample without a header.
        assert!(lint("orphan 1\n").unwrap_err().contains("no preceding"));
        // Unknown type.
        assert!(lint("# TYPE a enum\na 1\n")
            .unwrap_err()
            .contains("unknown type"));
        // Unparsable value.
        assert!(lint("# TYPE a gauge\na one\n")
            .unwrap_err()
            .contains("unparsable"));
        // Histogram without +Inf.
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(lint(doc).unwrap_err().contains("+Inf"));
        // Histogram whose count disagrees with the +Inf bucket.
        let doc = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n";
        assert!(lint(doc).unwrap_err().contains("!= +Inf bucket"));
        // Decreasing cumulative counts.
        let doc = "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\n\
                   h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(lint(doc).unwrap_err().contains("decreases"));
        // Non-increasing bucket bounds.
        let doc = "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n";
        assert!(lint(doc).unwrap_err().contains("not increasing"));
        // Headers after samples.
        let doc = "# TYPE a counter\na 1\n# TYPE a counter\n";
        assert!(lint(doc)
            .unwrap_err()
            .contains("after the family's samples"));
    }

    #[test]
    fn lint_tracks_labelled_histograms_independently() {
        let doc = "# TYPE h histogram\n\
                   h_bucket{session=\"0\",le=\"1\"} 1\n\
                   h_bucket{session=\"0\",le=\"+Inf\"} 2\n\
                   h_sum{session=\"0\"} 3\n\
                   h_count{session=\"0\"} 2\n\
                   h_bucket{session=\"1\",le=\"1\"} 5\n\
                   h_bucket{session=\"1\",le=\"+Inf\"} 5\n\
                   h_sum{session=\"1\"} 9\n\
                   h_count{session=\"1\"} 5\n";
        lint(doc).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_metric_names_are_rejected_loudly() {
        Exposition::new().counter("tpdf-bad-name", "Hyphens are not allowed.", 1);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    fn invalid_label_names_are_rejected_loudly() {
        Exposition::new().counter_with("tpdf_ok", "Bad label.", ("se ssion", "v"), 1);
    }

    struct Row {
        id: u32,
        runs: u64,
        load: f64,
    }

    const ROWS: &[Family<Row>] = &[
        Family::counter("tpdf_row_runs_total", "Runs per row", |r| r.runs),
        Family::gauge("tpdf_row_load", "Load per row", |r| r.load),
    ];

    #[test]
    fn family_tables_render_one_family_at_a_time() {
        let rows = [
            Row {
                id: 0,
                runs: 3,
                load: 0.5,
            },
            Row {
                id: 7,
                runs: 4,
                load: 1.0,
            },
        ];
        let mut e = Exposition::new();
        e.families(ROWS, &rows[0]);
        e.labelled(ROWS, "row", &[], |r: &Row| r.id.to_string());
        let text = e.finish();
        assert!(text.contains("tpdf_row_runs_total 3\n"));
        assert!(text.contains("# TYPE tpdf_row_load gauge\ntpdf_row_load 0.5\n"));

        let mut e = Exposition::new();
        e.labelled(ROWS, "row", &rows, |r| r.id.to_string());
        let text = e.finish();
        let expected = "# HELP tpdf_row_runs_total Runs per row\n\
                        # TYPE tpdf_row_runs_total counter\n\
                        tpdf_row_runs_total{row=\"0\"} 3\n\
                        tpdf_row_runs_total{row=\"7\"} 4\n\
                        # HELP tpdf_row_load Load per row\n\
                        # TYPE tpdf_row_load gauge\n\
                        tpdf_row_load{row=\"0\"} 0.5\n\
                        tpdf_row_load{row=\"7\"} 1\n";
        assert_eq!(text, expected);
        lint(&text).unwrap();
    }

    #[test]
    #[should_panic(expected = "labelled histogram family")]
    fn labelled_histograms_are_refused() {
        let table: &[Family<Log2Histogram>] =
            &[Family::histogram("tpdf_h_ns", "H", |h| h.snapshot())];
        Exposition::new().labelled(table, "k", &[Log2Histogram::new()], |_| "0".into());
    }
}
