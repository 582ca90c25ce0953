//! Spans of the traced run: recorded from the benchmark's own files,
//! around the calls into each layer, held in memory and written as
//! Chrome-trace JSON when the run ends.

use std::io::Write;
use std::path::Path;

use crate::json::quote;

/// One timed call. `start_ns`/`end_ns` count from the traced run's
/// origin; `parent` names the enclosing depth's span of the same op,
/// so a layer's self time is its span minus its child's.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Writes `spans` as a Chrome-trace event array, one lane per span name.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut lanes: Vec<&str> = Vec::new();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (index, span) in spans.iter().enumerate() {
        let lane = lanes
            .iter()
            .position(|l| *l == span.name)
            .unwrap_or_else(|| {
                lanes.push(span.name);
                lanes.len() - 1
            });
        let parent = span.parent.map_or("null".to_string(), quote);
        writeln!(
            out,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {lane}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {parent}}}}}{}",
            quote(span.name),
            span.start_ns as f64 / 1e3,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            span.op,
            if index + 1 == spans.len() { "" } else { "," },
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = [
            Span {
                name: "d0.wire_op",
                parent: None,
                op: 7,
                start_ns: 1_000,
                end_ns: 3_500,
            },
            Span {
                name: "d1.service_op",
                parent: Some("d0.wire_op"),
                op: 7,
                start_ns: 9_000,
                end_ns: 9_400,
            },
        ];
        // Beside the test binary, i.e. inside the build directory.
        let path = std::env::current_exe()
            .expect("test binary path")
            .with_file_name("trace_self_test.json");
        write_chrome_trace(&path, &spans).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_file(&path).expect("cleans up");
        let Value::Array(events) = parse(&text).expect("valid JSON") else {
            panic!("trace is not an array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Value::String("d0.wire_op".to_string()))
        );
    }
}
