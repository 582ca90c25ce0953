//! Static list scheduling of a canonical period onto the platform
//! (Section III-D).

use crate::mapping::{map_graph, node_workloads, Mapping, MappingStrategy};
use crate::platform::{PeId, Platform};
use crate::ManycoreError;
use tpdf_core::consistency::symbolic_repetition_vector;
use tpdf_core::graph::{NodeId, TpdfGraph};
use tpdf_core::schedule::{CanonicalPeriod, FiringId};
use tpdf_symexpr::Binding;

/// Configuration of the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerConfig {
    /// Mapping strategy used to assign nodes to clusters.
    pub mapping: MappingStrategy,
    /// When `true` (the default behaviour of the paper), one processing
    /// element of cluster 0 is reserved for control actors so a control
    /// firing never waits for a kernel to finish.
    pub dedicated_control_pe: bool,
}

impl SchedulerConfig {
    /// The paper's configuration: round-robin mapping and a dedicated
    /// control PE.
    pub fn paper_default() -> Self {
        SchedulerConfig {
            mapping: MappingStrategy::RoundRobin,
            dedicated_control_pe: true,
        }
    }
}

/// One scheduled firing of the canonical period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFiring {
    /// The firing in the canonical period.
    pub firing: FiringId,
    /// The node being fired.
    pub node: NodeId,
    /// Firing ordinal within the iteration.
    pub ordinal: u64,
    /// Processing element executing the firing.
    pub pe: PeId,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// The result of mapping one canonical period onto the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedSchedule {
    /// All scheduled firings, ordered by start time.
    pub entries: Vec<ScheduledFiring>,
    /// Completion time of the last firing.
    pub makespan: u64,
    /// Sum of all execution times (the single-core makespan).
    pub sequential_time: u64,
    /// Number of processing elements of the platform.
    pub pe_count: usize,
    /// The node-to-cluster mapping that was used.
    pub mapping: Mapping,
}

impl MappedSchedule {
    /// Speedup over a single-core execution.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.sequential_time as f64 / self.makespan as f64
    }

    /// Average utilisation of the platform (busy time / available time).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.pe_count == 0 {
            return 0.0;
        }
        let busy: u64 = self.entries.iter().map(|e| e.end - e.start).sum();
        busy as f64 / (self.makespan * self.pe_count as u64) as f64
    }

    /// The entries executed by one processing element, in time order.
    pub fn gantt_row(&self, pe: PeId) -> Vec<&ScheduledFiring> {
        self.entries.iter().filter(|e| e.pe == pe).collect()
    }

    /// Renders a compact textual Gantt chart (one line per used PE).
    pub fn display(&self, graph: &TpdfGraph) -> String {
        let mut lines = Vec::new();
        for pe in 0..self.pe_count {
            let row = self.gantt_row(PeId(pe));
            if row.is_empty() {
                continue;
            }
            let cells: Vec<String> = row
                .iter()
                .map(|e| {
                    format!(
                        "{}{}[{}..{}]",
                        graph.node(e.node).name,
                        e.ordinal + 1,
                        e.start,
                        e.end
                    )
                })
                .collect();
            lines.push(format!("PE{pe:>3}: {}", cells.join(" ")));
        }
        lines.join("\n")
    }
}

/// Maps one canonical period of `graph` onto `platform` with a list
/// scheduler implementing the paper's priority rules.
///
/// The ready list is ordered by (control-actor first, longest critical
/// path first); each firing is placed on the processing element of its
/// mapped cluster that allows the earliest start, taking into account
/// the NoC latency of inter-cluster dependencies. Control firings go to
/// the dedicated control PE when
/// [`SchedulerConfig::dedicated_control_pe`] is set.
///
/// # Errors
///
/// * [`ManycoreError::EmptyPlatform`] for an empty platform;
/// * [`ManycoreError::Analysis`] if the graph analysis or binding fails;
/// * [`ManycoreError::Unschedulable`] if the canonical period contains a
///   dependency cycle.
pub fn schedule_graph(
    graph: &TpdfGraph,
    binding: &Binding,
    platform: &Platform,
    config: SchedulerConfig,
) -> Result<MappedSchedule, ManycoreError> {
    if platform.pe_count() == 0 {
        return Err(ManycoreError::EmptyPlatform);
    }
    let repetition = symbolic_repetition_vector(graph)?;
    let counts = repetition.concrete(binding)?;
    let period = CanonicalPeriod::build_with(graph, &repetition, binding)?;
    schedule_period(graph, &period, &counts, platform, config)
}

/// Maps an already-built canonical period onto the platform.
///
/// # Errors
///
/// Same conditions as [`schedule_graph`] except analysis errors.
pub fn schedule_period(
    graph: &TpdfGraph,
    period: &CanonicalPeriod,
    counts: &[u64],
    platform: &Platform,
    config: SchedulerConfig,
) -> Result<MappedSchedule, ManycoreError> {
    // Workload per node = repetition count × execution time.
    let workloads = node_workloads(graph, counts);
    let mapping = map_graph(graph, platform, config.mapping, &workloads)?;

    // Bottom levels (critical-path-to-exit) for list-scheduling priority.
    let order = period
        .topological_order()
        .map_err(|e| ManycoreError::Unschedulable(e.to_string()))?;
    let mut bottom = vec![0u64; period.len()];
    for &fid in order.iter().rev() {
        let own = period.firing(fid).execution_time.max(1);
        let succ_max = period
            .successors(fid)
            .iter()
            .map(|s| bottom[s.0])
            .max()
            .unwrap_or(0);
        bottom[fid.0] = own + succ_max;
    }

    // Scheduling state.
    let mut finish: Vec<Option<(u64, PeId)>> = vec![None; period.len()];
    let mut pe_free = vec![0u64; platform.pe_count()];
    let control_pe = PeId(0);
    let mut entries = Vec::with_capacity(period.len());
    let mut remaining: Vec<FiringId> = order.clone();

    while !remaining.is_empty() {
        // Ready firings: all predecessors scheduled.
        let mut ready: Vec<FiringId> = remaining
            .iter()
            .copied()
            .filter(|f| {
                period
                    .predecessors(*f)
                    .iter()
                    .all(|p| finish[p.0].is_some())
            })
            .collect();
        if ready.is_empty() {
            return Err(ManycoreError::Unschedulable(
                "no ready firing although the period is incomplete".to_string(),
            ));
        }
        // Highest priority first: control actors, then longest bottom
        // level.
        ready.sort_by_key(|f| {
            let firing = period.firing(*f);
            (
                std::cmp::Reverse(firing.is_control),
                std::cmp::Reverse(bottom[f.0]),
            )
        });
        let fid = ready[0];
        remaining.retain(|&f| f != fid);
        let firing = period.firing(fid);

        // Candidate PEs: the dedicated control PE for control firings,
        // otherwise every PE of the node's mapped cluster.
        let candidates: Vec<PeId> = if firing.is_control && config.dedicated_control_pe {
            vec![control_pe]
        } else {
            let cluster = mapping.cluster_of(firing.node);
            platform
                .pes()
                .filter(|pe| pe.cluster == cluster)
                .map(|pe| pe.id)
                .collect()
        };

        // Earliest start on each candidate, accounting for message
        // latency from predecessors on other clusters.
        let mut best: Option<(u64, PeId)> = None;
        for pe in &candidates {
            let mut earliest = pe_free[pe.0];
            for p in period.predecessors(fid) {
                let (pred_end, pred_pe) = finish[p.0].expect("predecessor scheduled");
                let arrival = pred_end + platform.latency_between(pred_pe, *pe);
                earliest = earliest.max(arrival);
            }
            match best {
                None => best = Some((earliest, *pe)),
                Some((t, _)) if earliest < t => best = Some((earliest, *pe)),
                _ => {}
            }
        }
        let (start, pe) = best.expect("at least one candidate PE");
        let end = start + firing.execution_time.max(1);
        pe_free[pe.0] = end;
        finish[fid.0] = Some((end, pe));
        entries.push(ScheduledFiring {
            firing: fid,
            node: firing.node,
            ordinal: firing.ordinal,
            pe,
            start,
            end,
        });
    }

    entries.sort_by_key(|e| (e.start, e.pe));
    let makespan = entries.iter().map(|e| e.end).max().unwrap_or(0);
    let sequential_time = period.firings().map(|(_, f)| f.execution_time.max(1)).sum();
    Ok(MappedSchedule {
        entries,
        makespan,
        sequential_time,
        pe_count: platform.pe_count(),
        mapping,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpdf_core::examples::{figure2_graph, fork_join, ofdm_like_chain};

    fn binding(p: i64) -> Binding {
        Binding::from_pairs([("p", p)])
    }

    #[test]
    fn figure2_schedules_on_default_platform() {
        let g = figure2_graph();
        let platform = Platform::default();
        let result =
            schedule_graph(&g, &binding(2), &platform, SchedulerConfig::paper_default()).unwrap();
        assert_eq!(result.entries.len(), 18); // 2 + 8p with p = 2
        assert!(result.makespan > 0);
        // Parallel execution may pay NoC latency on the critical path,
        // but never more than one hop per dependency edge.
        let repetition = symbolic_repetition_vector(&g).unwrap();
        let period = CanonicalPeriod::build_with(&g, &repetition, &binding(2)).unwrap();
        let bound = result.sequential_time + platform.noc_latency() * period.edge_count() as u64;
        assert!(result.makespan <= bound);
        assert!(result.utilization() > 0.0 && result.utilization() <= 1.0);
    }

    #[test]
    fn dependencies_respected() {
        let g = figure2_graph();
        let platform = Platform::mppa_like(2, 2, 5);
        let result =
            schedule_graph(&g, &binding(3), &platform, SchedulerConfig::paper_default()).unwrap();
        let repetition = symbolic_repetition_vector(&g).unwrap();
        let period = CanonicalPeriod::build_with(&g, &repetition, &binding(3)).unwrap();
        let mut end_of = vec![0u64; period.len()];
        let mut pe_of = vec![PeId(0); period.len()];
        for e in &result.entries {
            end_of[e.firing.0] = e.end;
            pe_of[e.firing.0] = e.pe;
        }
        for e in &result.entries {
            for p in period.predecessors(e.firing) {
                let lat = platform.latency_between(pe_of[p.0], e.pe);
                assert!(
                    end_of[p.0] + lat <= e.start,
                    "dependency violated: {:?} -> {:?}",
                    p,
                    e.firing
                );
            }
        }
    }

    #[test]
    fn no_pe_overlap() {
        let g = ofdm_like_chain();
        let b = Binding::from_pairs([("beta", 3), ("N", 8), ("L", 1), ("M", 2)]);
        let platform = Platform::mppa_like(2, 4, 3);
        let result = schedule_graph(&g, &b, &platform, SchedulerConfig::paper_default()).unwrap();
        for pe in 0..platform.pe_count() {
            let row = result.gantt_row(PeId(pe));
            for w in row.windows(2) {
                assert!(w[0].end <= w[1].start, "overlap on PE {pe}");
            }
        }
    }

    #[test]
    fn control_firings_go_to_dedicated_pe() {
        let g = figure2_graph();
        let platform = Platform::mppa_like(2, 4, 5);
        let result =
            schedule_graph(&g, &binding(2), &platform, SchedulerConfig::paper_default()).unwrap();
        let c = g.node_by_name("C").unwrap();
        for e in result.entries.iter().filter(|e| e.node == c) {
            assert_eq!(e.pe, PeId(0));
        }
        let text = result.display(&g);
        assert!(text.contains("PE"));
    }

    #[test]
    fn more_parallelism_reduces_makespan() {
        let g = fork_join(8);
        let single = schedule_graph(
            &g,
            &Binding::new(),
            &Platform::single_core(),
            SchedulerConfig::default(),
        )
        .unwrap();
        let wide = schedule_graph(
            &g,
            &Binding::new(),
            &Platform::mppa_like(1, 16, 0),
            SchedulerConfig::default(),
        )
        .unwrap();
        assert!(wide.makespan <= single.makespan);
        assert_eq!(single.makespan, single.sequential_time);
    }

    #[test]
    fn mapping_strategies_all_schedule() {
        let g = ofdm_like_chain();
        let b = Binding::from_pairs([("beta", 2), ("N", 4), ("L", 1), ("M", 2)]);
        let platform = Platform::mppa_like(4, 2, 8);
        for strategy in [
            MappingStrategy::RoundRobin,
            MappingStrategy::Packed,
            MappingStrategy::LoadBalanced,
        ] {
            let config = SchedulerConfig {
                mapping: strategy,
                dedicated_control_pe: false,
            };
            let result = schedule_graph(&g, &b, &platform, config).unwrap();
            assert!(result.makespan > 0, "{strategy:?}");
        }
    }

    proptest! {
        /// The makespan stays between the critical path (lower bound) and
        /// the sequential time plus worst-case communication (upper
        /// bound), for any p and platform width.
        #[test]
        fn prop_makespan_bounds(p in 1i64..5, clusters in 1usize..4, pes in 1usize..4) {
            let g = figure2_graph();
            let platform = Platform::mppa_like(clusters, pes, 2);
            let result = schedule_graph(&g, &binding(p), &platform, SchedulerConfig::default()).unwrap();
            let repetition = symbolic_repetition_vector(&g).unwrap();
            let period = CanonicalPeriod::build_with(&g, &repetition, &binding(p)).unwrap();
            let cpl = period.critical_path_length().unwrap();
            prop_assert!(result.makespan >= cpl);
            let bound = result.sequential_time + platform.noc_latency() * period.edge_count() as u64;
            prop_assert!(result.makespan <= bound);
        }
    }
}
