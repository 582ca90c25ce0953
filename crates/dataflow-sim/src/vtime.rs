//! Virtual-time (discrete-event) execution with clock watchdogs and
//! deadline-driven Transaction selection.
//!
//! This engine implements the time-triggered semantics of TPDF
//! (Section II-B "Clock" and the edge-detection case study of
//! Section IV-A): a [`tpdf_core::KernelKind::Clock`] node emits a control
//! token every `period` time units; a Transaction kernel receiving such a
//! token fires immediately and selects, among its data inputs, the
//! highest-priority one whose tokens are already available — i.e. *the
//! best result produced before the deadline*.

use crate::channel::ChannelState;
use crate::SimError;
use std::collections::BTreeMap;
use tpdf_core::consistency::symbolic_repetition_vector;
use tpdf_core::graph::{ChannelId, NodeId, TpdfGraph};
use tpdf_symexpr::Binding;

/// Configuration of a timed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedConfig {
    /// Concrete parameter values.
    pub binding: Binding,
    /// Number of graph iterations to execute.
    pub iterations: u64,
    /// Hard stop (virtual time units) as a safety net against livelock.
    pub max_time: u64,
}

impl TimedConfig {
    /// Creates a configuration for one iteration with a generous time
    /// budget.
    pub fn new(binding: Binding) -> Self {
        TimedConfig {
            binding,
            iterations: 1,
            max_time: 1_000_000,
        }
    }

    /// Sets the number of iterations.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the maximum virtual time.
    pub fn with_max_time(mut self, max_time: u64) -> Self {
        self.max_time = max_time;
        self
    }
}

/// One executed firing in the timed trace (a Gantt-chart entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringEvent {
    /// The node that fired.
    pub node: NodeId,
    /// 0-based firing ordinal (across all iterations).
    pub ordinal: u64,
    /// Start time.
    pub start: u64,
    /// End time (start + execution time).
    pub end: u64,
}

/// Which input a deadline-driven Transaction kernel selected at a clock
/// tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineOutcome {
    /// The Transaction kernel.
    pub transaction: NodeId,
    /// Virtual time of the deadline (clock tick).
    pub deadline: u64,
    /// The data input channel whose result was selected, or `None` if no
    /// input had produced a result by the deadline.
    pub selected_channel: Option<ChannelId>,
    /// Priority of the selected channel (higher is better).
    pub selected_priority: Option<u32>,
}

/// The result of a timed simulation: the Gantt trace, the makespan and
/// the deadline decisions taken by Transaction kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedTrace {
    /// All executed firings, ordered by start time.
    pub events: Vec<FiringEvent>,
    /// Completion time of the last firing.
    pub makespan: u64,
    /// Deadline decisions of Transaction kernels driven by clocks.
    pub outcomes: Vec<DeadlineOutcome>,
    /// Firing counts per node.
    pub firings: Vec<u64>,
}

impl TimedTrace {
    /// Events of one node, in execution order.
    pub fn events_of(&self, node: NodeId) -> Vec<&FiringEvent> {
        self.events.iter().filter(|e| e.node == node).collect()
    }

    /// Average utilisation over `pe_count` processing elements (fraction
    /// of busy time), for reporting.
    pub fn utilization(&self, pe_count: u64) -> f64 {
        if self.makespan == 0 || pe_count == 0 {
            return 0.0;
        }
        let busy: u64 = self.events.iter().map(|e| e.end - e.start).sum();
        busy as f64 / (self.makespan * pe_count) as f64
    }
}

/// Discrete-event executor with unlimited processing elements (each node
/// is sequential with itself, different nodes run in parallel).
#[derive(Debug)]
pub struct TimedSimulator<'g> {
    graph: &'g TpdfGraph,
    config: TimedConfig,
}

impl<'g> TimedSimulator<'g> {
    /// Creates a timed simulator.
    pub fn new(graph: &'g TpdfGraph, config: TimedConfig) -> Self {
        TimedSimulator { graph, config }
    }

    /// Runs the simulation and returns the trace.
    ///
    /// Clock nodes ([`tpdf_core::KernelKind::Clock`]) ignore data
    /// availability and fire at every multiple of their period, emitting
    /// one control token per output control channel. Kernels with a
    /// control port fire as soon as a control token is present, selecting
    /// the highest-priority data input already available (deadline
    /// semantics). All other nodes fire in a data-driven way.
    ///
    /// # Errors
    ///
    /// * [`SimError::Analysis`] if the graph or binding is invalid;
    /// * [`SimError::Stalled`] if progress stops before the requested
    ///   iterations complete and no clock can unblock it.
    pub fn run(&self) -> Result<TimedTrace, SimError> {
        let binding = &self.config.binding;
        let repetition = symbolic_repetition_vector(self.graph)?;
        let per_iteration = repetition.concrete(binding)?;
        let targets: Vec<u64> = per_iteration
            .iter()
            .map(|c| c * self.config.iterations)
            .collect();

        let mut channels: Vec<ChannelState> = self
            .graph
            .channels()
            .map(|(_, c)| ChannelState::new(c.label.clone(), c.initial_tokens))
            .collect();
        let mut fired = vec![0u64; self.graph.node_count()];
        let mut busy_until: Vec<Option<u64>> = vec![None; self.graph.node_count()];
        let mut pending_start: Vec<Option<u64>> = vec![None; self.graph.node_count()];
        let mut events = Vec::new();
        let mut outcomes = Vec::new();
        // Pending control tokens per control channel with their emission
        // time (deadline).
        let mut control_tokens: BTreeMap<ChannelId, Vec<u64>> = BTreeMap::new();

        let clocks: Vec<(NodeId, u64)> = self
            .graph
            .nodes()
            .filter_map(|(id, n)| {
                n.kernel_kind()
                    .and_then(|k| k.clock_period())
                    .map(|p| (id, p))
            })
            .collect();
        let mut next_clock_tick: BTreeMap<NodeId, u64> =
            clocks.iter().map(|(id, p)| (*id, *p)).collect();

        let mut now = 0u64;
        loop {
            if fired.iter().zip(&targets).all(|(f, t)| f >= t) {
                break;
            }
            if now > self.config.max_time {
                return Err(SimError::Stalled {
                    blocked: vec![format!("max_time {} exceeded", self.config.max_time)],
                    at: now,
                });
            }

            // 1. Complete firings that end now.
            for (id, _) in self.graph.nodes() {
                if busy_until[id.0] == Some(now) {
                    busy_until[id.0] = None;
                    let start = pending_start[id.0].take().unwrap_or(now);
                    let ordinal = fired[id.0];
                    // Produce outputs at completion time.
                    for (cid, c) in self.graph.output_channels(id) {
                        let rate = c.production.concrete(ordinal, binding)?;
                        channels[cid.0].push(rate)?;
                        if c.is_control() {
                            control_tokens
                                .entry(cid)
                                .or_default()
                                .extend(std::iter::repeat_n(now, rate as usize));
                        }
                    }
                    fired[id.0] += 1;
                    events.push(FiringEvent {
                        node: id,
                        ordinal,
                        start,
                        end: now,
                    });
                }
            }

            // 2. Clock ticks at `now`: emit control tokens without
            //    consuming anything.
            for (clock, period) in &clocks {
                if next_clock_tick[clock] == now && fired[clock.0] < targets[clock.0] {
                    for (cid, c) in self.graph.output_channels(*clock) {
                        let rate = c.production.concrete(fired[clock.0], binding)?;
                        channels[cid.0].push(rate)?;
                        if c.is_control() {
                            control_tokens
                                .entry(cid)
                                .or_default()
                                .extend(std::iter::repeat_n(now, rate as usize));
                        }
                    }
                    events.push(FiringEvent {
                        node: *clock,
                        ordinal: fired[clock.0],
                        start: now,
                        end: now,
                    });
                    fired[clock.0] += 1;
                    next_clock_tick.insert(*clock, now + period);
                }
            }

            // 3. Start new firings for idle, ready nodes.
            for (id, node) in self.graph.nodes() {
                if busy_until[id.0].is_some() || fired[id.0] >= targets[id.0] {
                    continue;
                }
                if node.kernel_kind().map(|k| k.is_clock()).unwrap_or(false) {
                    continue; // clocks are handled by ticks
                }
                let ordinal = fired[id.0];
                if let Some(selection) =
                    self.ready_selection(id, ordinal, &channels, &control_tokens, binding)?
                {
                    // Consume inputs at start time.
                    if let Some(cp) = self.graph.control_port(id) {
                        let need = self
                            .graph
                            .channel(cp)
                            .consumption
                            .concrete(ordinal, binding)?;
                        if need > 0 {
                            channels[cp.0].pop(need);
                            let deadline = control_tokens
                                .get_mut(&cp)
                                .and_then(|v| {
                                    if v.is_empty() {
                                        None
                                    } else {
                                        Some(v.remove(0))
                                    }
                                })
                                .unwrap_or(now);
                            if self
                                .graph
                                .node(id)
                                .kernel_kind()
                                .map(|k| k.is_transaction())
                                .unwrap_or(false)
                            {
                                outcomes.push(DeadlineOutcome {
                                    transaction: id,
                                    deadline,
                                    selected_channel: selection.first().map(|(c, _)| *c),
                                    selected_priority: selection
                                        .first()
                                        .map(|(c, _)| self.graph.channel(*c).priority),
                                });
                            }
                        }
                    }
                    for (cid, rate) in &selection {
                        channels[cid.0].pop(*rate);
                    }
                    pending_start[id.0] = Some(now);
                    busy_until[id.0] = Some(now + node.execution_time.max(1));
                }
            }

            // 4. Advance time to the next interesting instant.
            let next_completion = busy_until.iter().flatten().copied().min();
            let next_tick = clocks
                .iter()
                .filter(|(id, _)| fired[id.0] < targets[id.0])
                .map(|(id, _)| next_clock_tick[id])
                .min();
            match (next_completion, next_tick) {
                (Some(a), Some(b)) => now = a.min(b),
                (Some(a), None) => now = a,
                (None, Some(b)) => now = b,
                (None, None) => {
                    if fired.iter().zip(&targets).all(|(f, t)| f >= t) {
                        break;
                    }
                    let blocked = self
                        .graph
                        .nodes()
                        .filter(|(id, _)| fired[id.0] < targets[id.0])
                        .map(|(_, n)| n.name.clone())
                        .collect();
                    return Err(SimError::Stalled { blocked, at: now });
                }
            }
        }

        events.sort_by_key(|e| (e.start, e.node));
        let makespan = events.iter().map(|e| e.end).max().unwrap_or(0);
        Ok(TimedTrace {
            events,
            makespan,
            outcomes,
            firings: fired,
        })
    }

    /// Returns the data-input selection for a ready node, or `None` if it
    /// cannot start now.
    fn ready_selection(
        &self,
        node: NodeId,
        ordinal: u64,
        channels: &[ChannelState],
        control_tokens: &BTreeMap<ChannelId, Vec<u64>>,
        binding: &Binding,
    ) -> Result<Option<Vec<(ChannelId, u64)>>, SimError> {
        // Control token must be present if the port consumes one.
        let has_control_port = if let Some(cp) = self.graph.control_port(node) {
            let need = self
                .graph
                .channel(cp)
                .consumption
                .concrete(ordinal, binding)?;
            if need > 0 {
                let available = control_tokens.get(&cp).map(|v| v.len() as u64).unwrap_or(0);
                if available < need {
                    return Ok(None);
                }
            }
            true
        } else {
            false
        };

        let inputs: Vec<(ChannelId, u64, u32)> = {
            let mut v = Vec::new();
            for (cid, c) in self.graph.data_input_channels(node) {
                v.push((cid, c.consumption.concrete(ordinal, binding)?, c.priority));
            }
            v
        };

        let is_transaction = self
            .graph
            .node(node)
            .kernel_kind()
            .map(|k| k.is_transaction())
            .unwrap_or(false);

        if has_control_port && is_transaction {
            // Deadline semantics: take the best available input; if
            // nothing is ready yet, fire with no data (empty result) so
            // the deadline is still honoured.
            let mut candidates: Vec<&(ChannelId, u64, u32)> = inputs
                .iter()
                .filter(|(cid, rate, _)| channels[cid.0].can_pop(*rate))
                .collect();
            candidates.sort_by_key(|(_, _, prio)| std::cmp::Reverse(*prio));
            return Ok(Some(
                candidates
                    .first()
                    .map(|(cid, rate, _)| vec![(*cid, *rate)])
                    .unwrap_or_default(),
            ));
        }

        // Ordinary dataflow readiness: every input must be available.
        for (cid, rate, _) in &inputs {
            if !channels[cid.0].can_pop(*rate) {
                return Ok(None);
            }
        }
        Ok(Some(inputs.into_iter().map(|(c, r, _)| (c, r)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdf_core::actors::KernelKind;
    use tpdf_core::examples::figure2_graph;
    use tpdf_core::graph::TpdfGraph;
    use tpdf_core::rate::RateSeq;

    /// A miniature edge-detection-style graph: a source feeding a fast
    /// and a slow detector, a clock-driven Transaction picking the best
    /// result available at the deadline.
    fn deadline_graph(fast_time: u64, slow_time: u64, period: u64) -> TpdfGraph {
        TpdfGraph::builder()
            .kernel_with("src", KernelKind::Regular, 1)
            .kernel_with("fast", KernelKind::Regular, fast_time)
            .kernel_with("slow", KernelKind::Regular, slow_time)
            .kernel_with("clock", KernelKind::Clock { period }, 0)
            .kernel_with("tran", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel("sink")
            .channel("src", "fast", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel("src", "slow", RateSeq::constant(1), RateSeq::constant(1), 0)
            .channel_with_priority(
                "fast",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                1,
            )
            .channel_with_priority(
                "slow",
                "tran",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
                2,
            )
            .control_channel("clock", "tran", RateSeq::constant(1), RateSeq::constant(1))
            .channel(
                "tran",
                "sink",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn untimed_graph_completes() {
        let g = figure2_graph();
        let trace = TimedSimulator::new(&g, TimedConfig::new(Binding::from_pairs([("p", 2)])))
            .run()
            .unwrap();
        assert_eq!(trace.firings, vec![2, 4, 2, 2, 4, 4]);
        assert!(trace.makespan > 0);
        assert!(trace.utilization(4) > 0.0);
    }

    #[test]
    fn deadline_picks_fast_result_when_slow_misses() {
        // Slow detector needs 1000 units but the deadline fires at 500:
        // the Transaction must select the lower-priority but available
        // fast result.
        let g = deadline_graph(200, 1000, 500);
        let trace = TimedSimulator::new(&g, TimedConfig::new(Binding::new()).with_max_time(10_000))
            .run()
            .unwrap();
        assert_eq!(trace.outcomes.len(), 1);
        let outcome = &trace.outcomes[0];
        assert_eq!(outcome.deadline, 500);
        let fast = g.node_by_name("fast").unwrap();
        let selected = outcome.selected_channel.unwrap();
        assert_eq!(g.channel(selected).source, fast);
        assert_eq!(outcome.selected_priority, Some(1));
    }

    #[test]
    fn deadline_picks_best_result_when_both_finish() {
        // Both detectors finish before the 500-unit deadline: the
        // higher-priority (better-quality) slow result wins.
        let g = deadline_graph(100, 300, 500);
        let trace = TimedSimulator::new(&g, TimedConfig::new(Binding::new()).with_max_time(10_000))
            .run()
            .unwrap();
        let outcome = &trace.outcomes[0];
        let slow = g.node_by_name("slow").unwrap();
        let selected = outcome.selected_channel.unwrap();
        assert_eq!(g.channel(selected).source, slow);
        assert_eq!(outcome.selected_priority, Some(2));
    }

    #[test]
    fn events_are_ordered_and_gantt_consistent() {
        let g = deadline_graph(50, 80, 200);
        let trace = TimedSimulator::new(&g, TimedConfig::new(Binding::new()).with_max_time(10_000))
            .run()
            .unwrap();
        for w in trace.events.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for e in &trace.events {
            assert!(e.end >= e.start);
        }
        let tran = g.node_by_name("tran").unwrap();
        assert_eq!(trace.events_of(tran).len(), 1);
    }

    #[test]
    fn stalled_graph_reports_error() {
        // A kernel waiting for data that never arrives (consumer-only
        // channel with no producer tokens and no initial tokens).
        let g = TpdfGraph::builder()
            .kernel("a")
            .kernel("b")
            .channel("b", "a", RateSeq::constant(0), RateSeq::constant(1), 0)
            .channel("a", "b", RateSeq::constant(1), RateSeq::constant(0), 0)
            .build()
            .unwrap();
        let result = TimedSimulator::new(&g, TimedConfig::new(Binding::new())).run();
        assert!(matches!(
            result,
            Err(SimError::Stalled { .. }) | Err(SimError::Analysis(_))
        ));
    }

    #[test]
    fn multiple_iterations_multiply_firings() {
        let g = deadline_graph(10, 20, 100);
        let trace = TimedSimulator::new(
            &g,
            TimedConfig::new(Binding::new())
                .with_iterations(3)
                .with_max_time(100_000),
        )
        .run()
        .unwrap();
        let sink = g.node_by_name("sink").unwrap();
        assert_eq!(trace.events_of(sink).len(), 3);
        assert_eq!(trace.outcomes.len(), 3);
    }
}
