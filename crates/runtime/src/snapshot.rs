//! Text snapshot codec and Prometheus rendering for [`Metrics`].
//!
//! The text is what a `TPDC` checkpoint carries as its metrics field
//! ([`crate::checkpoint`]). It is built on [`tpdf_trace`]'s line-oriented
//! [`SnapshotWriter`]/[`SnapshotReader`] (`key=value` lines, repeated
//! keys forming ordered lists, floats as exact bit patterns). The
//! encoding is lossless: [`Metrics::from_snapshot`] ∘
//! [`Metrics::to_snapshot`] is the identity, which the round-trip
//! tests pin down.

use crate::executor::PlacementPolicy;
use crate::metrics::{DeadlineSelection, Metrics, RebindEvent};
use std::time::Duration;
use tpdf_core::graph::{ChannelId, NodeId};
use tpdf_core::mode::Mode;
use tpdf_manycore::MappingStrategy;
use tpdf_symexpr::Binding;
use tpdf_trace::{Exposition, SnapshotError, SnapshotReader, SnapshotWriter};

fn placement_str(placement: &PlacementPolicy) -> &'static str {
    match placement {
        PlacementPolicy::WorkStealing => "ws",
        PlacementPolicy::Affinity(MappingStrategy::RoundRobin) => "affinity:round_robin",
        PlacementPolicy::Affinity(MappingStrategy::Packed) => "affinity:packed",
        PlacementPolicy::Affinity(MappingStrategy::LoadBalanced) => "affinity:load_balanced",
    }
}

fn placement_parse(text: &str) -> Result<PlacementPolicy, SnapshotError> {
    Ok(match text {
        "ws" => PlacementPolicy::WorkStealing,
        "affinity:round_robin" => PlacementPolicy::Affinity(MappingStrategy::RoundRobin),
        "affinity:packed" => PlacementPolicy::Affinity(MappingStrategy::Packed),
        "affinity:load_balanced" => PlacementPolicy::Affinity(MappingStrategy::LoadBalanced),
        other => return Err(SnapshotError::Malformed(format!("placement={other}"))),
    })
}

/// Appends `v` in decimal without `fmt` machinery — the `modes` lines
/// are the longest part of a metrics snapshot, and checkpoint encoding
/// serializes one per capture under a guarded overhead budget.
fn push_decimal(out: &mut String, mut v: u64) {
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

/// Appends one mode as a compact token: `all`, `hp`, `one:3`,
/// `many:1+2`.
fn push_mode(out: &mut String, mode: &Mode) {
    match mode {
        Mode::WaitAll => out.push_str("all"),
        Mode::HighestPriority => out.push_str("hp"),
        Mode::SelectOne(port) => {
            out.push_str("one:");
            push_decimal(out, *port as u64);
        }
        Mode::SelectMany(ports) => {
            out.push_str("many:");
            for (i, port) in ports.iter().enumerate() {
                if i > 0 {
                    out.push('+');
                }
                push_decimal(out, *port as u64);
            }
        }
    }
}

fn mode_parse(token: &str) -> Result<Mode, SnapshotError> {
    let malformed = || SnapshotError::Malformed(format!("mode token {token:?}"));
    Ok(match token {
        "all" => Mode::WaitAll,
        "hp" => Mode::HighestPriority,
        _ => {
            if let Some(port) = token.strip_prefix("one:") {
                Mode::SelectOne(port.parse().map_err(|_| malformed())?)
            } else if let Some(ports) = token.strip_prefix("many:") {
                if ports.is_empty() {
                    Mode::SelectMany(Vec::new())
                } else {
                    Mode::SelectMany(
                        ports
                            .split('+')
                            .map(|p| p.parse().map_err(|_| malformed()))
                            .collect::<Result<_, _>>()?,
                    )
                }
            } else {
                return Err(malformed());
            }
        }
    })
}

/// An optional index as a token: the index itself, or `-` for `None`.
fn opt_str(value: Option<u64>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

fn opt_parse(token: &str, what: &str) -> Result<Option<u64>, SnapshotError> {
    if token == "-" {
        return Ok(None);
    }
    token
        .parse()
        .map(Some)
        .map_err(|_| SnapshotError::Malformed(format!("{what}={token}")))
}

impl Metrics {
    /// Writes every field into `writer` (see the module docs for the
    /// vocabulary: one `key=value` line per field, repeated
    /// `deadline_selection` / `modes` / `rebind` keys for the
    /// per-event lists).
    pub fn write_snapshot(&self, writer: &mut SnapshotWriter) {
        writer.field("iterations", self.iterations);
        writer.field("threads", self.threads);
        writer.field("effective_workers", self.effective_workers);
        writer.field("placement", placement_str(&self.placement));
        writer.field_list("firings", self.firings.iter().copied());
        writer.field_list("tokens_pushed", self.tokens_pushed.iter().copied());
        writer.field_list(
            "channel_high_water",
            self.channel_high_water.iter().copied(),
        );
        writer.field_list("channel_capacity", self.channel_capacity.iter().copied());
        writer.field("total_tokens", self.total_tokens);
        writer.field("elapsed_ns", self.elapsed.as_nanos() as u64);
        writer.field_f64("tokens_per_sec", self.tokens_per_sec);
        writer.field("deadline_misses", self.deadline_misses);
        writer.field("vote_failures", self.vote_failures);
        for selection in &self.deadline_selections {
            writer.field(
                "deadline_selection",
                format_args!(
                    "{},{},{},{}",
                    selection.transaction.0,
                    opt_str(selection.selected_channel.map(|c| c.0 as u64)),
                    opt_str(selection.selected_priority.map(u64::from)),
                    selection.at.as_nanos()
                ),
            );
        }
        let mut scratch = String::new();
        for modes in &self.mode_sequences {
            scratch.clear();
            for (i, mode) in modes.iter().enumerate() {
                if i > 0 {
                    scratch.push(' ');
                }
                push_mode(&mut scratch, mode);
            }
            writer.field("modes", &scratch);
        }
        writer.field_list("worker_firings", self.worker_firings.iter().copied());
        writer.field_list("worker_steals", self.worker_steals.iter().copied());
        for rebind in &self.rebinds {
            let pairs = rebind
                .binding
                .iter()
                .map(|(name, value)| format!("{name}:{value}"))
                .collect::<Vec<_>>()
                .join(" ");
            let counts = rebind
                .counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let capacities = rebind
                .capacities
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            writer.field(
                "rebind",
                format_args!("{};{pairs};{counts};{capacities}", rebind.iteration),
            );
        }
        let pinned = self
            .pinned_cores
            .iter()
            .map(|core| opt_str(core.map(|c| c as u64)))
            .collect::<Vec<_>>()
            .join(",");
        writer.field("pinned_cores", pinned);
        writer.field("arena_hits", self.arena_hits);
        writer.field("arena_misses", self.arena_misses);
        writer.field("arena_recycled", self.arena_recycled);
        writer.field("arena_retired", self.arena_retired);
    }

    /// Reads a snapshot written by [`Metrics::write_snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a required field is absent or fails to
    /// parse.
    pub fn read_snapshot(reader: &SnapshotReader) -> Result<Metrics, SnapshotError> {
        let mut deadline_selections = Vec::new();
        for line in reader.values("deadline_selection") {
            let parts: Vec<&str> = line.split(',').collect();
            let [transaction, channel, priority, at_ns] = parts[..] else {
                return Err(SnapshotError::Malformed(format!(
                    "deadline_selection={line}"
                )));
            };
            deadline_selections.push(DeadlineSelection {
                transaction: NodeId(
                    transaction.parse().map_err(|_| {
                        SnapshotError::Malformed(format!("deadline_selection={line}"))
                    })?,
                ),
                selected_channel: opt_parse(channel, "deadline_selection")?
                    .map(|c| ChannelId(c as usize)),
                selected_priority: opt_parse(priority, "deadline_selection")?.map(|p| p as u32),
                at: Duration::from_nanos(
                    at_ns.parse().map_err(|_| {
                        SnapshotError::Malformed(format!("deadline_selection={line}"))
                    })?,
                ),
            });
        }
        let mut mode_sequences = Vec::new();
        for line in reader.values("modes") {
            let modes = if line.is_empty() {
                Vec::new()
            } else {
                line.split(' ').map(mode_parse).collect::<Result<_, _>>()?
            };
            mode_sequences.push(modes);
        }
        let mut rebinds = Vec::new();
        for line in reader.values("rebind") {
            let parts: Vec<&str> = line.splitn(4, ';').collect();
            let [iteration, pairs, counts, capacities] = parts[..] else {
                return Err(SnapshotError::Malformed(format!("rebind={line}")));
            };
            let malformed = || SnapshotError::Malformed(format!("rebind={line}"));
            let mut binding = Binding::new();
            for pair in pairs.split(' ').filter(|p| !p.is_empty()) {
                let (name, value) = pair.split_once(':').ok_or_else(malformed)?;
                binding.set(name, value.parse().map_err(|_| malformed())?);
            }
            let parse_list = |text: &str| -> Result<Vec<u64>, SnapshotError> {
                if text.is_empty() {
                    return Ok(Vec::new());
                }
                text.split(',')
                    .map(|part| part.parse().map_err(|_| malformed()))
                    .collect()
            };
            rebinds.push(RebindEvent {
                iteration: iteration.parse().map_err(|_| malformed())?,
                binding,
                counts: parse_list(counts)?,
                capacities: parse_list(capacities)?,
            });
        }
        let pinned_raw = reader.raw("pinned_cores")?;
        let pinned_cores = if pinned_raw.is_empty() {
            Vec::new()
        } else {
            pinned_raw
                .split(',')
                .map(|token| opt_parse(token, "pinned_cores").map(|c| c.map(|v| v as usize)))
                .collect::<Result<_, _>>()?
        };
        Ok(Metrics {
            iterations: reader.u64("iterations")?,
            threads: reader.get("threads")?,
            effective_workers: reader.get("effective_workers")?,
            placement: placement_parse(reader.raw("placement")?)?,
            firings: reader.u64_list("firings")?,
            tokens_pushed: reader.u64_list("tokens_pushed")?,
            channel_high_water: reader.u64_list("channel_high_water")?,
            channel_capacity: reader.u64_list("channel_capacity")?,
            total_tokens: reader.u64("total_tokens")?,
            elapsed: Duration::from_nanos(reader.u64("elapsed_ns")?),
            tokens_per_sec: reader.f64("tokens_per_sec")?,
            deadline_misses: reader.u64("deadline_misses")?,
            vote_failures: reader.u64("vote_failures")?,
            deadline_selections,
            mode_sequences,
            worker_firings: reader.u64_list("worker_firings")?,
            worker_steals: reader.u64_list("worker_steals")?,
            rebinds,
            pinned_cores,
            arena_hits: reader.u64("arena_hits")?,
            arena_misses: reader.u64("arena_misses")?,
            arena_recycled: reader.u64("arena_recycled")?,
            arena_retired: reader.u64("arena_retired")?,
        })
    }

    /// The snapshot as one text document.
    pub fn to_snapshot(&self) -> String {
        let mut writer = SnapshotWriter::new();
        self.write_snapshot(&mut writer);
        writer.finish()
    }

    /// Parses a document produced by [`Metrics::to_snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a missing or malformed field.
    pub fn from_snapshot(text: &str) -> Result<Metrics, SnapshotError> {
        Metrics::read_snapshot(&SnapshotReader::parse(text)?)
    }

    /// Renders the run's aggregates in Prometheus text exposition
    /// format (counters and gauges prefixed `tpdf_run_`).
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::new();
        expo.counter(
            "tpdf_run_iterations_total",
            "Complete graph iterations executed",
            self.iterations,
        );
        expo.gauge(
            "tpdf_run_effective_workers",
            "Worker threads the run actually engaged",
            self.effective_workers as f64,
        );
        expo.counter(
            "tpdf_run_firings_total",
            "Total node firings",
            self.firings.iter().sum(),
        );
        expo.counter(
            "tpdf_run_tokens_total",
            "Tokens pushed onto all channels",
            self.total_tokens,
        );
        expo.gauge(
            "tpdf_run_tokens_per_second",
            "Token throughput of the run",
            self.tokens_per_sec,
        );
        expo.counter(
            "tpdf_run_deadline_misses_total",
            "Clock-driven Transaction firings that found no input at the deadline",
            self.deadline_misses,
        );
        expo.counter(
            "tpdf_run_vote_failures_total",
            "Transaction votes that failed to reach agreement",
            self.vote_failures,
        );
        for (worker, &firings) in self.worker_firings.iter().enumerate() {
            expo.counter_with(
                "tpdf_run_worker_firings_total",
                "Firings completed by each worker",
                ("worker", &worker.to_string()),
                firings,
            );
        }
        for (worker, &steals) in self.worker_steals.iter().enumerate() {
            expo.counter_with(
                "tpdf_run_worker_steals_total",
                "Firings acquired across the placement boundary",
                ("worker", &worker.to_string()),
                steals,
            );
        }
        expo.counter(
            "tpdf_run_arena_hits_total",
            "Firing slabs served from worker freelists without allocating",
            self.arena_hits,
        );
        expo.counter(
            "tpdf_run_arena_misses_total",
            "Firing-slab requests that fell back to the global allocator",
            self.arena_misses,
        );
        expo.counter(
            "tpdf_run_arena_recycled_total",
            "Firing slabs returned to worker freelists",
            self.arena_recycled,
        );
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        Metrics {
            iterations: 3,
            threads: 4,
            effective_workers: 2,
            placement: PlacementPolicy::Affinity(MappingStrategy::LoadBalanced),
            firings: vec![6, 12, 6],
            tokens_pushed: vec![12, 12],
            channel_high_water: vec![4, 2],
            channel_capacity: vec![8, 4],
            total_tokens: 24,
            elapsed: Duration::from_micros(1500),
            tokens_per_sec: 16_000.0,
            deadline_misses: 1,
            vote_failures: 2,
            deadline_selections: vec![
                DeadlineSelection {
                    transaction: NodeId(2),
                    selected_channel: Some(ChannelId(1)),
                    selected_priority: Some(3),
                    at: Duration::from_nanos(777),
                },
                DeadlineSelection {
                    transaction: NodeId(2),
                    selected_channel: None,
                    selected_priority: None,
                    at: Duration::from_nanos(900),
                },
            ],
            mode_sequences: vec![
                vec![Mode::WaitAll, Mode::SelectOne(1)],
                Vec::new(),
                vec![
                    Mode::HighestPriority,
                    Mode::SelectMany(vec![0, 2]),
                    Mode::SelectMany(Vec::new()),
                ],
            ],
            worker_firings: vec![14, 10],
            worker_steals: vec![3, 0],
            rebinds: vec![RebindEvent {
                iteration: 2,
                binding: Binding::from_pairs([("p", 4), ("q", -1)]),
                counts: vec![2, 4, 2],
                capacities: vec![8, 4],
            }],
            pinned_cores: vec![Some(0), None, Some(3)],
            arena_hits: 40,
            arena_misses: 8,
            arena_recycled: 44,
            arena_retired: 1,
        }
    }

    #[test]
    fn metrics_round_trip_exactly() {
        let metrics = sample();
        let text = metrics.to_snapshot();
        let back = Metrics::from_snapshot(&text).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn empty_collections_round_trip() {
        let mut metrics = sample();
        metrics.deadline_selections.clear();
        metrics.mode_sequences.clear();
        metrics.rebinds.clear();
        metrics.pinned_cores.clear();
        metrics.worker_steals.clear();
        let back = Metrics::from_snapshot(&metrics.to_snapshot()).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn malformed_fields_are_named() {
        assert!(matches!(
            Metrics::from_snapshot("iterations=1\n"),
            Err(SnapshotError::Missing(_))
        ));
        let mut text = sample().to_snapshot();
        text = text.replace("placement=affinity:load_balanced", "placement=magic");
        assert!(matches!(
            Metrics::from_snapshot(&text),
            Err(SnapshotError::Malformed(what)) if what.contains("placement")
        ));
    }

    #[test]
    fn prometheus_rendering_exposes_totals() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE tpdf_run_firings_total counter"));
        assert!(text.contains("tpdf_run_firings_total 24"));
        assert!(text.contains("tpdf_run_worker_firings_total{worker=\"1\"} 10"));
        assert!(text.ends_with('\n'));
    }
}
