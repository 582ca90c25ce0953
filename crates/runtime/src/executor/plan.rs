//! The compile step: graph + configuration → the immutable facts a
//! run executes from — per-node and per-channel tables and one
//! [`Plan`] per phase of the binding sequence.

use super::stall::ProgressBeacon;
use super::{CostTelemetry, Engine, RuntimeConfig};
use crate::RuntimeError;
use std::collections::BTreeSet;
use std::sync::Arc;
use tpdf_core::actors::KernelKind;
use tpdf_core::control::ModeSelector;
use tpdf_core::graph::{NodeId, TpdfGraph};
use tpdf_sim::engine::Simulator;
use tpdf_symexpr::Binding;

/// Static, per-node facts precomputed at executor construction.
#[derive(Debug)]
pub(super) struct NodeInfo {
    pub(super) name: Arc<str>,
    /// Control actor in the paper's sense (includes Clock kernels).
    pub(super) is_control_actor: bool,
    pub(super) is_clock: bool,
    pub(super) clock_period: u64,
    pub(super) is_transaction: bool,
    pub(super) votes_required: u32,
    pub(super) is_select_duplicate: bool,
    pub(super) control_port: Option<usize>,
    /// The control port is fed by a Clock (deadline semantics apply).
    pub(super) control_from_clock: bool,
    /// Data input channels in port order.
    pub(super) data_inputs: Vec<usize>,
    /// Data output channels in port order.
    pub(super) data_outputs: Vec<usize>,
    /// Control output channels.
    pub(super) control_outputs: Vec<usize>,
    /// Nodes whose readiness a firing of this node can change: itself,
    /// the consumers of its outputs, the producers of its inputs.
    pub(super) neighbors: Vec<usize>,
}

/// Static, binding-independent per-channel facts.
#[derive(Debug)]
pub(super) struct ChanInfo {
    pub(super) label: Arc<str>,
    pub(super) source: usize,
    pub(super) target: usize,
    pub(super) is_control: bool,
    pub(super) initial_tokens: u64,
    pub(super) priority: u32,
    /// The consuming node owns a control port (flush rule applies).
    pub(super) target_controlled: bool,
}

/// Everything an iteration's binding determines, precomputed per
/// distinct phase of the binding sequence at construction: repetition
/// counts, concrete rates and ring capacities. Plans are immutable;
/// the barrier switches the active plan index, and the budget
/// republication (`Release` stores Acquire-paired at the claim gate)
/// is what publishes the switch to the workers.
#[derive(Debug)]
pub(super) struct Plan {
    /// The effective binding of this phase.
    pub(super) binding: Binding,
    /// Repetition counts (indexed by node).
    pub(super) counts: Vec<u64>,
    /// Sum of `counts`: completions per iteration.
    pub(super) total_per_iter: u64,
    /// Concrete cyclo-static production rates (indexed by channel).
    pub(super) prod_rates: Vec<Vec<u64>>,
    /// Concrete cyclo-static consumption rates (indexed by channel).
    pub(super) cons_rates: Vec<Vec<u64>>,
    /// Ring capacities this phase requires (indexed by channel).
    pub(super) capacities: Vec<u64>,
}

impl Plan {
    pub(super) fn prod_rate(&self, chan: usize, ordinal: u64) -> u64 {
        let rates = &self.prod_rates[chan];
        rates[(ordinal as usize) % rates.len()]
    }

    pub(super) fn cons_rate(&self, chan: usize, ordinal: u64) -> u64 {
        let rates = &self.cons_rates[chan];
        rates[(ordinal as usize) % rates.len()]
    }

    /// Tokens produced on `chan` during one complete iteration of this
    /// plan.
    pub(super) fn production_per_iteration(&self, chan: usize, count: u64) -> u64 {
        (0..count).map(|k| self.prod_rate(chan, k)).sum()
    }
}

impl Engine {
    pub(super) fn new(
        graph: &TpdfGraph,
        config: RuntimeConfig,
        telemetry: Arc<CostTelemetry>,
    ) -> Result<Self, RuntimeError> {
        if config.iterations == 0 {
            return Err(RuntimeError::InvalidConfig(
                "at least one iteration must be requested".to_string(),
            ));
        }
        // `with_threads` clamps, but `threads` is a public field: a zero
        // slipping through would make `run` return an empty Ok no-op.
        if config.threads == 0 {
            return Err(RuntimeError::InvalidConfig(
                "at least one worker thread is required".to_string(),
            ));
        }
        let repetition = tpdf_core::consistency::symbolic_repetition_vector(graph)
            .map_err(|e| RuntimeError::Analysis(e.to_string()))?;

        // One execution plan per phase of the binding sequence.
        let phase_count = config.binding_sequence.len().max(1);
        let phase_bindings: Vec<Binding> = (0..phase_count as u64)
            .map(|k| config.binding_for(k))
            .collect();

        // Reference execution: per-channel high-water marks under the
        // same selector and bindings determine the data-ring
        // capacities. One iteration suffices only when the binding AND
        // every emitted mode are the same each iteration — firing
        // ordinals never reset, so an `Alternate` policy or a custom
        // selector can choose differently later and a ring sized from
        // iteration 0 could deadlock a rejected-then-full channel.
        // Otherwise the whole run is simulated, so every iteration's
        // occupancy is observed.
        let reference_iterations = if phase_count == 1 && config.constant_mode_sequence() {
            1
        } else {
            config.iterations
        };
        let reference = Simulator::new(graph, config.reference_sim_config())
            .map_err(|e| RuntimeError::Analysis(e.to_string()))?
            .run_iterations(reference_iterations)
            .map_err(|e| RuntimeError::Analysis(format!("reference sizing run failed: {e}")))?;

        let clock_sources: BTreeSet<NodeId> = graph
            .nodes()
            .filter(|(_, n)| matches!(n.kernel_kind(), Some(k) if k.is_clock()))
            .map(|(id, _)| id)
            .collect();
        let control_actor_ids: BTreeSet<NodeId> =
            graph.control_actors().map(|(id, _)| id).collect();

        let mut chans = Vec::with_capacity(graph.channel_count());
        for (id, chan) in graph.channels() {
            chans.push(ChanInfo {
                label: Arc::from(chan.label.as_str()),
                source: chan.source.0,
                target: chan.target.0,
                is_control: chan.is_control(),
                initial_tokens: chan.initial_tokens,
                priority: chan.priority,
                target_controlled: graph.control_port(chan.target).is_some(),
            });
            debug_assert_eq!(id.0, chans.len() - 1);
        }

        let mut nodes = Vec::with_capacity(graph.node_count());
        for (id, node) in graph.nodes() {
            let kind = node.kernel_kind();
            let control_port = graph.control_port(id).map(|c| c.0);
            let control_from_clock = graph
                .control_port(id)
                .map(|cp| clock_sources.contains(&graph.channel(cp).source))
                .unwrap_or(false);
            let data_inputs: Vec<usize> = graph.data_input_channels(id).map(|(c, _)| c.0).collect();
            let mut data_outputs = Vec::new();
            let mut control_outputs = Vec::new();
            for (c, chan) in graph.output_channels(id) {
                if chan.is_control() {
                    control_outputs.push(c.0);
                } else {
                    data_outputs.push(c.0);
                }
            }
            let mut neighbors = BTreeSet::new();
            neighbors.insert(id.0);
            for &c in data_outputs.iter().chain(&control_outputs) {
                neighbors.insert(chans[c].target);
            }
            for &c in &data_inputs {
                neighbors.insert(chans[c].source);
            }
            if let Some(cp) = control_port {
                neighbors.insert(chans[cp].source);
            }
            nodes.push(NodeInfo {
                name: Arc::from(node.name.as_str()),
                is_control_actor: control_actor_ids.contains(&id),
                is_clock: matches!(kind, Some(k) if k.is_clock()),
                clock_period: kind.and_then(|k| k.clock_period()).unwrap_or(0),
                is_transaction: matches!(kind, Some(k) if k.is_transaction()),
                votes_required: match kind {
                    Some(KernelKind::Transaction { votes_required }) => *votes_required,
                    _ => 0,
                },
                is_select_duplicate: matches!(kind, Some(k) if k.is_select_duplicate()),
                control_port,
                control_from_clock,
                data_inputs,
                data_outputs,
                control_outputs,
                neighbors: neighbors.into_iter().collect(),
            });
        }

        let mut plans = Vec::with_capacity(phase_count);
        for (phase, binding) in phase_bindings.iter().enumerate() {
            let counts = repetition
                .concrete(binding)
                .map_err(|e| RuntimeError::Analysis(e.to_string()))?;
            let mut prod_rates = Vec::with_capacity(chans.len());
            let mut cons_rates = Vec::with_capacity(chans.len());
            for (_, chan) in graph.channels() {
                let concretise =
                    |rates: &tpdf_core::rate::RateSeq| -> Result<Vec<u64>, RuntimeError> {
                        (0..rates.phases() as u64)
                            .map(|i| {
                                rates
                                    .concrete(i, binding)
                                    .map_err(|e| RuntimeError::Analysis(e.to_string()))
                            })
                            .collect()
                    };
                prod_rates.push(concretise(&chan.production)?);
                cons_rates.push(concretise(&chan.consumption)?);
            }
            let mut plan = Plan {
                binding: binding.clone(),
                total_per_iter: counts.iter().sum(),
                counts,
                prod_rates,
                cons_rates,
                capacities: Vec::new(),
            };
            // The reference high-water of this phase: the whole-run
            // marks for the single-phase case, the maximum over the
            // phase's iterations otherwise (zero when the sequence
            // outlives the requested iterations — such a phase never
            // executes).
            let phase_high_water = |chan: usize| -> u64 {
                if phase_count == 1 {
                    return reference.channel_high_water[chan];
                }
                reference
                    .per_iteration
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (*i).min(phase_count - 1) == phase)
                    .map(|(_, record)| record.channel_high_water[chan])
                    .max()
                    .unwrap_or(0)
            };
            plan.capacities = chans
                .iter()
                .enumerate()
                .map(|(i, info)| {
                    if info.is_control {
                        // Control tokens are produced and fully consumed
                        // within each iteration (rate consistency), so
                        // the per-iteration production bounds the
                        // occupancy exactly — no reference needed, no
                        // slack either.
                        (plan.production_per_iteration(i, plan.counts[info.source])
                            + info.initial_tokens)
                            .max(1)
                    } else {
                        phase_high_water(i)
                            .max(info.initial_tokens)
                            .max(1)
                            .saturating_mul(config.capacity_slack)
                    }
                })
                .collect();
            plans.push(plan);
        }

        let mut scan_order: Vec<usize> = (0..graph.node_count())
            .filter(|&n| nodes[n].is_control_actor)
            .collect();
        scan_order.extend((0..graph.node_count()).filter(|&n| !nodes[n].is_control_actor));
        let clock_nodes: Vec<usize> = (0..graph.node_count())
            .filter(|&n| nodes[n].is_clock)
            .collect();

        let selector = match &config.mode_selector {
            Some(selector) => Arc::clone(selector),
            None => Arc::new(config.control_policy.clone()) as Arc<dyn ModeSelector>,
        };
        let cost_units = plans
            .iter()
            .map(|plan| {
                graph
                    .nodes()
                    .map(|(id, n)| plan.counts[id.0] * n.execution_time.max(1))
                    .sum()
            })
            .max()
            .unwrap_or(0);
        let min_clock_period = nodes
            .iter()
            .filter(|n| n.is_clock && n.clock_period > 0)
            .map(|n| n.clock_period)
            .min();
        Ok(Engine {
            config,
            plans,
            nodes,
            chans,
            selector,
            scan_order,
            clock_nodes,
            telemetry,
            cost_units,
            min_clock_period,
            beacon: ProgressBeacon::new(),
        })
    }
}
