//! Minimum buffer sizing for TPDF vs CSDF implementations (Figure 8).
//!
//! The paper's cognitive-radio evaluation compares the minimum buffer
//! memory of one iteration between
//!
//! * the **TPDF implementation**, where the control actor dynamically
//!   selects one demapping path so that the edges of the unselected path
//!   are *removed* from the iteration, and
//! * the **CSDF baseline**, whose topology is static, so every edge must
//!   be buffered whether or not its data is used.
//!
//! [`tpdf_buffer_requirement`] computes the former by pruning the
//! unselected paths before sizing; [`csdf_buffer_requirement`] sizes the
//! fully connected graph. [`BufferComparison`] packages both with the
//! improvement percentage the paper reports (~29 % for the OFDM
//! demodulator).

use crate::SimError;
use std::collections::{BTreeMap, BTreeSet};
use tpdf_core::graph::{ChannelClass, NodeId, TpdfGraph};
use tpdf_csdf::schedule::SchedulePolicy;
use tpdf_symexpr::Binding;

/// Selection of one data-input port (by index) for each controlled kernel
/// (kernels owning a control port), keyed by kernel name.
pub type PortSelection = BTreeMap<String, usize>;

/// Outcome of the TPDF-vs-CSDF buffer comparison for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferComparison {
    /// Total buffer requirement of the TPDF implementation (tokens).
    pub tpdf_total: u64,
    /// Total buffer requirement of the CSDF baseline (tokens).
    pub csdf_total: u64,
    /// Relative improvement of TPDF over CSDF in percent.
    pub improvement_percent: f64,
}

impl BufferComparison {
    fn new(tpdf_total: u64, csdf_total: u64) -> Self {
        let improvement_percent = if csdf_total == 0 {
            0.0
        } else {
            100.0 * (csdf_total as f64 - tpdf_total as f64) / csdf_total as f64
        };
        BufferComparison {
            tpdf_total,
            csdf_total,
            improvement_percent,
        }
    }
}

/// Total minimum buffer requirement of one iteration of the **CSDF
/// baseline**: every channel of the graph is kept (static topology) and
/// sized with a buffer-minimising round-robin schedule.
///
/// # Errors
///
/// Returns [`SimError::Analysis`] if the graph or binding is invalid.
pub fn csdf_buffer_requirement(graph: &TpdfGraph, binding: &Binding) -> Result<u64, SimError> {
    let csdf = graph.to_csdf(binding)?;
    let report = tpdf_csdf::minimum_buffer_sizes(&csdf, SchedulePolicy::RoundRobin)?;
    Ok(report.total())
}

/// Total minimum buffer requirement of one iteration of the **TPDF
/// implementation**: the data-input ports rejected by the given selection
/// are removed, the branches that consequently can no longer reach a sink
/// are dropped (the paper's "removing unused edges"), and the pruned
/// graph is sized.
///
/// Kernels not named in `selection` keep all of their inputs.
///
/// # Errors
///
/// Returns [`SimError::Analysis`] if the graph or binding is invalid or
/// if pruning disconnects the graph in a way that prevents sizing.
pub fn tpdf_buffer_requirement(
    graph: &TpdfGraph,
    binding: &Binding,
    selection: &PortSelection,
) -> Result<u64, SimError> {
    let pruned = prune_unselected(graph, selection);
    let csdf = pruned.to_csdf(binding)?;
    let report = tpdf_csdf::minimum_buffer_sizes(&csdf, SchedulePolicy::RoundRobin)?;
    Ok(report.total())
}

/// Runs both sizings and returns the comparison.
///
/// # Errors
///
/// Same conditions as [`tpdf_buffer_requirement`] and
/// [`csdf_buffer_requirement`].
pub fn compare_buffers(
    graph: &TpdfGraph,
    binding: &Binding,
    selection: &PortSelection,
) -> Result<BufferComparison, SimError> {
    Ok(BufferComparison::new(
        tpdf_buffer_requirement(graph, binding, selection)?,
        csdf_buffer_requirement(graph, binding)?,
    ))
}

/// Builds the pruned TPDF graph in which, for every kernel named in
/// `selection`, only the selected data-input channel is kept, and every
/// node that can no longer reach one of the graph's original sinks is
/// removed together with its channels.
pub fn prune_unselected(graph: &TpdfGraph, selection: &PortSelection) -> TpdfGraph {
    // 1. Channels to drop because their target rejects them.
    let mut dropped: BTreeSet<usize> = BTreeSet::new();
    for (node, node_data) in graph.nodes() {
        let Some(&keep_port) = selection.get(&node_data.name) else {
            continue;
        };
        for (port, (cid, _)) in graph.data_input_channels(node).enumerate() {
            if port != keep_port {
                dropped.insert(cid.0);
            }
        }
    }

    // 2. Original sinks: nodes with no outgoing data channels.
    let sinks: BTreeSet<NodeId> = graph
        .nodes()
        .filter(|(id, _)| graph.data_output_channels(*id).next().is_none())
        .map(|(id, _)| id)
        .collect();

    // 3. Keep nodes that can still reach a sink through surviving data
    //    channels (control actors and clocks are always kept).
    let mut reaches_sink: BTreeSet<NodeId> = sinks.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for (cid, c) in graph.channels() {
            if dropped.contains(&cid.0) || c.class == ChannelClass::Control {
                continue;
            }
            if reaches_sink.contains(&c.target) && !reaches_sink.contains(&c.source) {
                reaches_sink.insert(c.source);
                changed = true;
            }
        }
    }
    let keep_node = |id: NodeId| -> bool {
        reaches_sink.contains(&id)
            || graph.node(id).is_control()
            || graph
                .node(id)
                .kernel_kind()
                .map(|k| k.is_clock())
                .unwrap_or(false)
    };

    // 4. Rebuild the graph with the surviving nodes and channels.
    let mut b = TpdfGraph::builder();
    for p in graph.parameters() {
        b = b.parameter(p);
    }
    for (id, n) in graph.nodes() {
        if !keep_node(id) {
            continue;
        }
        b = match &n.class {
            tpdf_core::graph::NodeClass::Control => b.control_with(&n.name, n.execution_time),
            tpdf_core::graph::NodeClass::Kernel(kind) => {
                b.kernel_with(&n.name, kind.clone(), n.execution_time)
            }
        };
    }
    for (cid, c) in graph.channels() {
        if dropped.contains(&cid.0) || !keep_node(c.source) || !keep_node(c.target) {
            continue;
        }
        let src = &graph.node(c.source).name;
        let dst = &graph.node(c.target).name;
        b = if c.is_control() {
            b.control_channel(src, dst, c.production.clone(), c.consumption.clone())
        } else {
            b.channel_with_priority(
                src,
                dst,
                c.production.clone(),
                c.consumption.clone(),
                c.initial_tokens,
                c.priority,
            )
        };
    }
    b.build().unwrap_or_else(|_| graph.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpdf_core::examples::{figure2_graph, ofdm_like_chain};

    fn ofdm_binding(beta: i64, n: i64) -> Binding {
        Binding::from_pairs([("beta", beta), ("N", n), ("L", 1), ("M", 2)])
    }

    #[test]
    fn pruning_removes_unselected_branch() {
        let g = ofdm_like_chain();
        // TRAN keeps only its QPSK input (port 0); the QAM branch dies.
        let selection = PortSelection::from([("TRAN".to_string(), 0)]);
        let pruned = prune_unselected(&g, &selection);
        assert!(pruned.node_by_name("QPSK").is_some());
        assert!(pruned.node_by_name("QAM").is_none());
        assert!(pruned.node_count() < g.node_count());
    }

    #[test]
    fn pruning_without_selection_is_identity_in_size() {
        let g = ofdm_like_chain();
        let pruned = prune_unselected(&g, &PortSelection::new());
        assert_eq!(pruned.node_count(), g.node_count());
        assert_eq!(pruned.channel_count(), g.channel_count());
    }

    #[test]
    fn tpdf_buffers_smaller_than_csdf() {
        let g = ofdm_like_chain();
        let binding = ofdm_binding(10, 64);
        let selection = PortSelection::from([("TRAN".to_string(), 0)]);
        let cmp = compare_buffers(&g, &binding, &selection).unwrap();
        assert!(cmp.tpdf_total < cmp.csdf_total, "{cmp:?}");
        assert!(cmp.improvement_percent > 0.0);
        assert!(cmp.improvement_percent < 100.0);
    }

    #[test]
    fn buffers_scale_with_vectorization_degree() {
        let g = ofdm_like_chain();
        let selection = PortSelection::from([("TRAN".to_string(), 0)]);
        let small = compare_buffers(&g, &ofdm_binding(10, 64), &selection).unwrap();
        let large = compare_buffers(&g, &ofdm_binding(40, 64), &selection).unwrap();
        // Figure 8: buffer size grows proportionally to β for both models.
        assert!(large.tpdf_total > small.tpdf_total);
        assert!(large.csdf_total > small.csdf_total);
        let ratio = large.csdf_total as f64 / small.csdf_total as f64;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "CSDF growth should be ~linear in β"
        );
    }

    #[test]
    fn figure2_comparison_without_control_pruning() {
        let g = figure2_graph();
        let binding = Binding::from_pairs([("p", 4)]);
        let cmp = compare_buffers(&g, &binding, &PortSelection::new()).unwrap();
        // Without pruning the two implementations coincide.
        assert_eq!(cmp.tpdf_total, cmp.csdf_total);
        assert_eq!(cmp.improvement_percent, 0.0);
    }

    #[test]
    fn figure2_pruned_selection_saves_memory() {
        let g = figure2_graph();
        let binding = Binding::from_pairs([("p", 6)]);
        let selection = PortSelection::from([("F".to_string(), 1)]);
        let cmp = compare_buffers(&g, &binding, &selection).unwrap();
        assert!(cmp.tpdf_total < cmp.csdf_total);
    }

    proptest! {
        /// TPDF buffers never exceed the CSDF baseline for the OFDM chain,
        /// whatever the parameters.
        #[test]
        fn prop_tpdf_never_worse(beta in 1i64..20, n_exp in 2u32..7) {
            let g = ofdm_like_chain();
            let n = 1i64 << n_exp;
            let binding = ofdm_binding(beta, n);
            let selection = PortSelection::from([("TRAN".to_string(), 0)]);
            let cmp = compare_buffers(&g, &binding, &selection).unwrap();
            prop_assert!(cmp.tpdf_total <= cmp.csdf_total);
        }
    }
}
