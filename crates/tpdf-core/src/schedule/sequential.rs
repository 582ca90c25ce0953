//! Single-processor sequential schedules for one TPDF iteration.

use crate::consistency::{symbolic_repetition_vector, SymbolicRepetition};
use crate::graph::{NodeId, TpdfGraph};
use crate::TpdfError;
use tpdf_symexpr::Binding;

/// One run-length-encoded entry of a sequential schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialEntry {
    /// The node to fire.
    pub node: NodeId,
    /// How many consecutive firings.
    pub count: u64,
}

/// A valid sequential schedule of one TPDF iteration under a concrete
/// parameter binding.
///
/// Control actors are given priority: whenever a control actor is ready
/// it is fired before any ready kernel, reflecting the scheduling rule of
/// Section III-D ("the control actor is scheduled for execution with the
/// highest priority").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequentialSchedule {
    entries: Vec<SequentialEntry>,
    binding: Binding,
}

impl SequentialSchedule {
    /// The run-length-encoded firing sequence.
    pub fn entries(&self) -> &[SequentialEntry] {
        &self.entries
    }

    /// The binding the schedule was computed for.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Expands the schedule into an explicit firing list.
    pub fn firings(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for e in &self.entries {
            for _ in 0..e.count {
                out.push(e.node);
            }
        }
        out
    }

    /// Total number of firings.
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Renders the schedule with node names, e.g. `A^2 B^6 C^3 …`.
    pub fn display(&self, graph: &TpdfGraph) -> String {
        let mut parts = Vec::new();
        for e in &self.entries {
            let name = &graph.node(e.node).name;
            if e.count == 1 {
                parts.push(name.clone());
            } else {
                parts.push(format!("{name}^{}", e.count));
            }
        }
        parts.join(" ")
    }
}

/// Builds a sequential schedule of one iteration of the graph under a
/// concrete binding.
///
/// The scheduler simulates the fully connected graph (every channel
/// present, the conservative view used by all static analyses): a node is
/// ready when all of its input channels hold enough tokens for its next
/// firing. Among ready nodes, control actors are always chosen first.
///
/// # Errors
///
/// * Errors from [`symbolic_repetition_vector`] (inconsistency, …);
/// * [`TpdfError::Binding`] / [`TpdfError::Symbolic`] if rates do not
///   evaluate under `binding`;
/// * [`TpdfError::Deadlock`] if the iteration cannot complete.
///
/// # Examples
///
/// ```
/// use tpdf_core::examples::figure2_graph;
/// use tpdf_core::schedule::sequential_schedule;
/// use tpdf_symexpr::Binding;
///
/// # fn main() -> Result<(), tpdf_core::TpdfError> {
/// let g = figure2_graph();
/// let s = sequential_schedule(&g, &Binding::from_pairs([("p", 1)]))?;
/// assert_eq!(s.total_firings(), 2 + 2 + 1 + 1 + 2 + 2);
/// # Ok(())
/// # }
/// ```
pub fn sequential_schedule(
    graph: &TpdfGraph,
    binding: &Binding,
) -> Result<SequentialSchedule, TpdfError> {
    let repetition = symbolic_repetition_vector(graph)?;
    sequential_schedule_with(graph, &repetition, binding)
}

/// As [`sequential_schedule`] but reuses an already-computed repetition
/// vector.
///
/// # Errors
///
/// Same conditions as [`sequential_schedule`].
pub fn sequential_schedule_with(
    graph: &TpdfGraph,
    repetition: &SymbolicRepetition,
    binding: &Binding,
) -> Result<SequentialSchedule, TpdfError> {
    let counts = repetition.concrete(binding)?;
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens).collect();
    let mut fired = vec![0u64; graph.node_count()];
    let mut entries: Vec<SequentialEntry> = Vec::new();
    let total: u64 = counts.iter().sum();
    let mut done = 0u64;

    // Control actors first, then kernels, to honour the priority rule.
    let mut order: Vec<NodeId> = graph.control_actors().map(|(id, _)| id).collect();
    order.extend(
        graph
            .nodes()
            .filter(|(_, n)| !n.is_control())
            .map(|(id, _)| id),
    );

    while done < total {
        let mut progressed = false;
        for &node in &order {
            if fired[node.0] >= counts[node.0] {
                continue;
            }
            let mut burst = 0u64;
            while fired[node.0] < counts[node.0]
                && is_ready(graph, node, fired[node.0], &tokens, binding)?
            {
                fire(graph, node, fired[node.0], &mut tokens, binding)?;
                fired[node.0] += 1;
                burst += 1;
                done += 1;
            }
            if burst > 0 {
                push_entry(&mut entries, node, burst);
                progressed = true;
            }
        }
        if !progressed {
            let blocked = graph
                .nodes()
                .filter(|(id, _)| fired[id.0] < counts[id.0])
                .map(|(_, n)| n.name.clone())
                .collect();
            return Err(TpdfError::Deadlock { blocked });
        }
    }

    Ok(SequentialSchedule {
        entries,
        binding: binding.clone(),
    })
}

fn push_entry(entries: &mut Vec<SequentialEntry>, node: NodeId, count: u64) {
    if let Some(last) = entries.last_mut() {
        if last.node == node {
            last.count += count;
            return;
        }
    }
    entries.push(SequentialEntry { node, count });
}

fn is_ready(
    graph: &TpdfGraph,
    node: NodeId,
    firing: u64,
    tokens: &[u64],
    binding: &Binding,
) -> Result<bool, TpdfError> {
    for (cid, c) in graph.input_channels(node) {
        if tokens[cid.0] < c.consumption.concrete(firing, binding)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn fire(
    graph: &TpdfGraph,
    node: NodeId,
    firing: u64,
    tokens: &mut [u64],
    binding: &Binding,
) -> Result<(), TpdfError> {
    for (cid, c) in graph.input_channels(node) {
        tokens[cid.0] -= c.consumption.concrete(firing, binding)?;
    }
    for (cid, c) in graph.output_channels(node) {
        tokens[cid.0] += c.production.concrete(firing, binding)?;
    }
    Ok(())
}

/// Renders the symbolic schedule string of Example 2,
/// `A^2 B^(2*p) C^(p) D^(p) E^(2*p) F^(2*p)`, by ordering the nodes as a
/// concrete schedule does and attaching their symbolic counts.
///
/// # Errors
///
/// Same conditions as [`sequential_schedule`]; `sample` must make every
/// count positive.
pub fn symbolic_schedule_string(
    graph: &TpdfGraph,
    repetition: &SymbolicRepetition,
    sample: &Binding,
) -> Result<String, TpdfError> {
    let schedule = sequential_schedule_with(graph, repetition, sample)?;
    let mut seen = Vec::new();
    for e in schedule.entries() {
        if !seen.contains(&e.node) {
            seen.push(e.node);
        }
    }
    let mut parts = Vec::new();
    for node in seen {
        let count = repetition.count(node);
        let name = &graph.node(node).name;
        match count.as_constant().and_then(|r| r.to_integer()) {
            Some(1) => parts.push(name.clone()),
            Some(c) => parts.push(format!("{name}^{c}")),
            None => parts.push(format!("{name}^({count})")),
        }
    }
    Ok(parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure2_graph, figure4b_graph, fork_join, ofdm_like_chain};
    use proptest::prelude::*;

    #[test]
    fn figure2_schedule_counts() {
        let g = figure2_graph();
        let binding = Binding::from_pairs([("p", 2)]);
        let s = sequential_schedule(&g, &binding).unwrap();
        // q = [2, 2p, p, p, 2p, 2p] with p = 2 -> 2+4+2+2+4+4 = 18.
        assert_eq!(s.total_firings(), 18);
        let mut per_node = vec![0u64; g.node_count()];
        for f in s.firings() {
            per_node[f.0] += 1;
        }
        assert_eq!(per_node, vec![2, 4, 2, 2, 4, 4]);
    }

    #[test]
    fn figure2_symbolic_schedule_string() {
        let g = figure2_graph();
        let q = symbolic_repetition_vector(&g).unwrap();
        let text = symbolic_schedule_string(&g, &q, &Binding::from_pairs([("p", 2)])).unwrap();
        assert!(text.contains("A^2"));
        assert!(text.contains("B^(2*p)"));
        assert!(text.contains("F^(2*p)"));
    }

    #[test]
    fn control_actor_fires_before_dependent_kernels() {
        let g = figure2_graph();
        let binding = Binding::from_pairs([("p", 1)]);
        let s = sequential_schedule(&g, &binding).unwrap();
        let firings = s.firings();
        let c = g.node_by_name("C").unwrap();
        let f = g.node_by_name("F").unwrap();
        let first_c = firings.iter().position(|&n| n == c).unwrap();
        let first_f = firings.iter().position(|&n| n == f).unwrap();
        assert!(first_c < first_f, "control actor must fire before F");
    }

    #[test]
    fn cyclic_graph_schedules() {
        let g = figure4b_graph();
        let binding = Binding::from_pairs([("p", 3)]);
        let s = sequential_schedule(&g, &binding).unwrap();
        // q = [2, 2p, 2p] with p = 3 -> 2 + 6 + 6 = 14 firings.
        assert_eq!(s.total_firings(), 14);
    }

    #[test]
    fn missing_binding_is_an_error() {
        let g = figure2_graph();
        assert!(sequential_schedule(&g, &Binding::new()).is_err());
    }

    #[test]
    fn ofdm_and_fork_join_schedule() {
        let binding = Binding::from_pairs([("beta", 2), ("N", 4), ("L", 1), ("M", 2)]);
        let s = sequential_schedule(&ofdm_like_chain(), &binding).unwrap();
        assert!(s.total_firings() > 0);
        // fork_join(3) has 8 nodes, each firing once per iteration.
        let s = sequential_schedule(&fork_join(3), &Binding::new()).unwrap();
        assert_eq!(s.total_firings(), 8);
    }

    #[test]
    fn display_uses_names() {
        let g = figure2_graph();
        let s = sequential_schedule(&g, &Binding::from_pairs([("p", 1)])).unwrap();
        let text = s.display(&g);
        assert!(text.contains('A'));
        assert!(text.contains('F'));
    }

    proptest! {
        /// For any p the schedule fires each node exactly its repetition
        /// count and the graph returns to its initial token distribution.
        #[test]
        fn prop_schedule_is_an_iteration(p in 1i64..6) {
            let g = figure2_graph();
            let binding = Binding::from_pairs([("p", p)]);
            let q = symbolic_repetition_vector(&g).unwrap();
            let counts = q.concrete(&binding).unwrap();
            let s = sequential_schedule(&g, &binding).unwrap();
            let mut per_node = vec![0u64; g.node_count()];
            let mut tokens: Vec<i64> = g.channels().map(|(_, c)| c.initial_tokens as i64).collect();
            let mut fired = vec![0u64; g.node_count()];
            for node in s.firings() {
                for (cid, c) in g.input_channels(node) {
                    tokens[cid.0] -= c.consumption.concrete(fired[node.0], &binding).unwrap() as i64;
                    prop_assert!(tokens[cid.0] >= 0, "negative channel occupancy");
                }
                for (cid, c) in g.output_channels(node) {
                    tokens[cid.0] += c.production.concrete(fired[node.0], &binding).unwrap() as i64;
                }
                fired[node.0] += 1;
                per_node[node.0] += 1;
            }
            prop_assert_eq!(per_node, counts);
            let initial: Vec<i64> = g.channels().map(|(_, c)| c.initial_tokens as i64).collect();
            prop_assert_eq!(tokens, initial, "graph must return to its initial state");
        }
    }
}
