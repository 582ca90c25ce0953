//! The canonical period: the partial order of all firings of one graph
//! iteration (Section III-D, Figure 5).

use crate::consistency::{symbolic_repetition_vector, SymbolicRepetition};
use crate::graph::{NodeId, TpdfGraph};
use crate::schedule::adf::actor_dependence;
use crate::TpdfError;
use std::collections::BTreeMap;
use tpdf_symexpr::Binding;

/// Identifier of a firing inside a [`CanonicalPeriod`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FiringId(pub usize);

/// One vertex of the canonical period: the `ordinal`-th firing of `node`
/// (`A1`, `A2`, `B1`, … in Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The node being fired.
    pub node: NodeId,
    /// 0-based firing ordinal within the iteration.
    pub ordinal: u64,
    /// Execution time of this firing (taken from the node).
    pub execution_time: u64,
    /// `true` when the node is a control actor (scheduled with the
    /// highest priority by the many-core scheduler).
    pub is_control: bool,
}

/// The canonical period of a TPDF graph for a concrete parameter binding:
/// a DAG whose vertices are the `q_j` firings of every node `a_j` and
/// whose edges are the data/control dependencies between those firings.
///
/// This is the partial order the ΣC tool-chain uses for the MPPA-256 and
/// that the paper reuses for TPDF (with control actors at the highest
/// priority and kernels woken by control tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalPeriod {
    firings: Vec<Firing>,
    /// Dependencies: `predecessors[i]` lists the firings that must finish
    /// before firing `i` may start.
    predecessors: Vec<Vec<FiringId>>,
    /// Reverse adjacency.
    successors: Vec<Vec<FiringId>>,
    index: BTreeMap<(NodeId, u64), FiringId>,
}

impl CanonicalPeriod {
    /// Builds the canonical period of `graph` under `binding`.
    ///
    /// For every channel and every consumer firing `n`, the Actor
    /// Dependence Function gives the minimal producer firing count `m`
    /// required; an edge is added from the `(m-1)`-th producer firing to
    /// the `n`-th consumer firing (no edge when `m = 0`, i.e. the demand
    /// is covered by initial tokens). Consecutive firings of the same
    /// node are also ordered (auto-concurrency is disabled, as in ΣC).
    ///
    /// # Errors
    ///
    /// * Errors from [`symbolic_repetition_vector`];
    /// * [`TpdfError::Binding`] if counts or rates do not evaluate.
    pub fn build(graph: &TpdfGraph, binding: &Binding) -> Result<Self, TpdfError> {
        let repetition = symbolic_repetition_vector(graph)?;
        Self::build_with(graph, &repetition, binding)
    }

    /// As [`CanonicalPeriod::build`] but reuses a repetition vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CanonicalPeriod::build`].
    pub fn build_with(
        graph: &TpdfGraph,
        repetition: &SymbolicRepetition,
        binding: &Binding,
    ) -> Result<Self, TpdfError> {
        let counts = repetition.concrete(binding)?;
        let mut firings = Vec::new();
        let mut index = BTreeMap::new();
        for (id, node) in graph.nodes() {
            for ordinal in 0..counts[id.0] {
                let fid = FiringId(firings.len());
                index.insert((id, ordinal), fid);
                firings.push(Firing {
                    node: id,
                    ordinal,
                    execution_time: node.execution_time,
                    is_control: node.is_control(),
                });
            }
        }
        let mut predecessors = vec![Vec::new(); firings.len()];

        // Sequential ordering of the firings of a single node.
        for (id, _) in graph.nodes() {
            for ordinal in 1..counts[id.0] {
                let cur = index[&(id, ordinal)];
                let prev = index[&(id, ordinal - 1)];
                predecessors[cur.0].push(prev);
            }
        }

        // Data/control dependencies via the Actor Dependence Function.
        for (cid, c) in graph.channels() {
            for n in 0..counts[c.target.0] {
                let needed = actor_dependence(graph, cid, n, binding)?;
                if needed == 0 {
                    continue;
                }
                let producer_ordinal = needed - 1;
                if producer_ordinal >= counts[c.source.0] {
                    return Err(TpdfError::Inconsistent {
                        detail: format!(
                            "firing {n} of `{}` needs {needed} firings of `{}`, but only {} occur per iteration",
                            graph.node(c.target).name,
                            graph.node(c.source).name,
                            counts[c.source.0]
                        ),
                    });
                }
                let dep = index[&(c.source, producer_ordinal)];
                let cur = index[&(c.target, n)];
                if !predecessors[cur.0].contains(&dep) {
                    predecessors[cur.0].push(dep);
                }
            }
        }

        let mut successors = vec![Vec::new(); firings.len()];
        for (i, preds) in predecessors.iter().enumerate() {
            for p in preds {
                successors[p.0].push(FiringId(i));
            }
        }

        Ok(CanonicalPeriod {
            firings,
            predecessors,
            successors,
            index,
        })
    }

    /// Number of firings (vertices).
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// Returns `true` if the period contains no firing.
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.predecessors.iter().map(Vec::len).sum()
    }

    /// Returns a firing by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn firing(&self, id: FiringId) -> &Firing {
        &self.firings[id.0]
    }

    /// Looks up the firing id of `(node, ordinal)`.
    pub fn firing_id(&self, node: NodeId, ordinal: u64) -> Option<FiringId> {
        self.index.get(&(node, ordinal)).copied()
    }

    /// Iterates over `(id, firing)` pairs.
    pub fn firings(&self) -> impl Iterator<Item = (FiringId, &Firing)> {
        self.firings
            .iter()
            .enumerate()
            .map(|(i, f)| (FiringId(i), f))
    }

    /// The firings that must complete before `id` can start.
    pub fn predecessors(&self, id: FiringId) -> &[FiringId] {
        &self.predecessors[id.0]
    }

    /// The firings that depend on `id`.
    pub fn successors(&self, id: FiringId) -> &[FiringId] {
        &self.successors[id.0]
    }

    /// Returns a topological order of the firings.
    ///
    /// # Errors
    ///
    /// Returns [`TpdfError::Deadlock`] if the dependency graph contains a
    /// cycle (which indicates an unschedulable iteration).
    pub fn topological_order(&self) -> Result<Vec<FiringId>, TpdfError> {
        let mut in_degree: Vec<usize> = self.predecessors.iter().map(Vec::len).collect();
        let mut ready: Vec<FiringId> = in_degree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| FiringId(i))
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(f) = ready.pop() {
            order.push(f);
            for &s in self.successors(f) {
                in_degree[s.0] -= 1;
                if in_degree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != self.len() {
            return Err(TpdfError::Deadlock {
                blocked: vec!["canonical period contains a dependency cycle".to_string()],
            });
        }
        Ok(order)
    }

    /// Length of the critical path through the period (sum of execution
    /// times along the longest dependency chain), i.e. the makespan lower
    /// bound with unlimited processing elements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CanonicalPeriod::topological_order`].
    pub fn critical_path_length(&self) -> Result<u64, TpdfError> {
        let order = self.topological_order()?;
        let mut finish = vec![0u64; self.len()];
        let mut best = 0;
        for f in order {
            let start = self
                .predecessors(f)
                .iter()
                .map(|p| finish[p.0])
                .max()
                .unwrap_or(0);
            finish[f.0] = start + self.firing(f).execution_time;
            best = best.max(finish[f.0]);
        }
        Ok(best)
    }

    /// Renders the vertices grouped by node, e.g. `A: A1 A2 / B: B1 B2 …`
    /// (mirrors the layout of Figure 5).
    pub fn display(&self, graph: &TpdfGraph) -> String {
        let mut by_node: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
        for (_, f) in self.firings() {
            by_node.entry(f.node).or_default().push(f.ordinal + 1);
        }
        let mut parts = Vec::new();
        for (node, ordinals) in by_node {
            let name = &graph.node(node).name;
            let list = ordinals
                .iter()
                .map(|o| format!("{name}{o}"))
                .collect::<Vec<_>>()
                .join(" ");
            parts.push(list);
        }
        parts.join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure2_graph, fork_join, ofdm_like_chain};

    fn figure2_period(p: i64) -> (TpdfGraph, CanonicalPeriod) {
        let g = figure2_graph();
        let binding = Binding::from_pairs([("p", p)]);
        let cp = CanonicalPeriod::build(&g, &binding).unwrap();
        (g, cp)
    }

    #[test]
    fn figure5_canonical_period_for_p1() {
        // Figure 5: for p = 1 the period contains A1 A2 B1 B2 C1 D1 E1 E2
        // F1 F2 = 10 firings.
        let (g, cp) = figure2_period(1);
        assert_eq!(cp.len(), 10);
        assert!(!cp.is_empty());
        let c = g.node_by_name("C").unwrap();
        assert!(cp.firing_id(c, 0).is_some());
        assert_eq!(cp.firing_id(c, 1), None, "C fires once when p = 1");
        let text = cp.display(&g);
        assert!(text.contains("A1 A2"));
        assert!(text.contains("F1 F2"));
    }

    #[test]
    fn control_firings_are_flagged() {
        let (g, cp) = figure2_period(1);
        let c = g.node_by_name("C").unwrap();
        let fid = cp.firing_id(c, 0).unwrap();
        assert!(cp.firing(fid).is_control);
        let a = g.node_by_name("A").unwrap();
        assert!(!cp.firing(cp.firing_id(a, 0).unwrap()).is_control);
    }

    #[test]
    fn f_depends_on_control_token() {
        // F's firings must depend on C's firing (the control token) —
        // Figure 5 shows F1/F2 fired immediately after receiving it.
        let (g, cp) = figure2_period(1);
        let c = g.node_by_name("C").unwrap();
        let f = g.node_by_name("F").unwrap();
        let c0 = cp.firing_id(c, 0).unwrap();
        let f0 = cp.firing_id(f, 0).unwrap();
        assert!(cp.predecessors(f0).contains(&c0));
        assert!(cp.successors(c0).contains(&f0));
    }

    #[test]
    fn period_scales_with_p() {
        let (_, cp1) = figure2_period(1);
        let (_, cp4) = figure2_period(4);
        assert_eq!(cp1.len(), 10);
        // q = [2, 2p, p, p, 2p, 2p] -> total = 2 + 8p.
        assert_eq!(cp4.len(), 2 + 8 * 4);
        assert!(cp4.edge_count() > cp1.edge_count());
    }

    #[test]
    fn topological_order_and_critical_path() {
        let (_, cp) = figure2_period(2);
        let order = cp.topological_order().unwrap();
        assert_eq!(order.len(), cp.len());
        // Dependencies must be respected by the order.
        let mut position = vec![0usize; cp.len()];
        for (i, f) in order.iter().enumerate() {
            position[f.0] = i;
        }
        for (fid, _) in cp.firings() {
            for p in cp.predecessors(fid) {
                assert!(position[p.0] < position[fid.0]);
            }
        }
        let cpl = cp.critical_path_length().unwrap();
        assert!(cpl >= 1);
        assert!(cpl <= cp.len() as u64);
    }

    #[test]
    fn other_examples_build_periods() {
        let binding = Binding::from_pairs([("beta", 2), ("N", 4), ("L", 1), ("M", 2)]);
        let g = ofdm_like_chain();
        let cp = CanonicalPeriod::build(&g, &binding).unwrap();
        assert!(cp.len() >= g.node_count());
        assert!(cp.topological_order().is_ok());

        let g = fork_join(4);
        let cp = CanonicalPeriod::build(&g, &Binding::new()).unwrap();
        assert_eq!(cp.len(), g.node_count());
    }

    #[test]
    fn missing_binding_fails() {
        let g = figure2_graph();
        assert!(CanonicalPeriod::build(&g, &Binding::new()).is_err());
    }
}
