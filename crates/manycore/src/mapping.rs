//! Actor-to-cluster mapping strategies.

use crate::platform::{ClusterId, Platform};
use crate::ManycoreError;
use tpdf_core::graph::{NodeId, TpdfGraph};

/// How actors are assigned to clusters before list scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingStrategy {
    /// Spread actors over clusters in declaration order (round robin).
    #[default]
    RoundRobin,
    /// Pack actors onto as few clusters as possible (fill each cluster's
    /// PEs before moving on), minimising NoC traffic at the cost of
    /// parallelism.
    Packed,
    /// Balance total execution time (repetition count × execution time)
    /// across clusters.
    LoadBalanced,
}

/// A mapping of graph nodes to clusters. Control actors are additionally
/// pinned to a dedicated cluster-0 PE by the scheduler, following
/// Figure 5 ("C1 is mapped onto a separate processing element").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    clusters: Vec<ClusterId>,
}

impl Mapping {
    /// The cluster assigned to a node.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.clusters[node.0]
    }

    /// Per-node cluster assignments, indexed by [`NodeId`].
    pub fn clusters(&self) -> &[ClusterId] {
        &self.clusters
    }

    /// Number of distinct clusters actually used.
    pub fn used_clusters(&self) -> usize {
        let mut seen: Vec<ClusterId> = self.clusters.clone();
        seen.sort();
        seen.dedup();
        seen.len()
    }

    /// The total workload of the most loaded cluster under this mapping
    /// (`workloads` indexed by [`NodeId`]; nodes beyond its length count
    /// as workload 1, mirroring [`map_graph`]).
    pub fn max_cluster_load(&self, workloads: &[u64]) -> u64 {
        let clusters = self
            .clusters
            .iter()
            .map(|c| c.0)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut load = vec![0u64; clusters];
        for (i, c) in self.clusters.iter().enumerate() {
            load[c.0] += workloads.get(i).copied().unwrap_or(1);
        }
        load.into_iter().max().unwrap_or(0)
    }
}

/// The total work of each node: repetition count × execution time — the
/// workload vector [`MappingStrategy::LoadBalanced`] balances. This is
/// the same extraction the list scheduler applies to a canonical
/// period, exposed so token-level executors (`tpdf-runtime`) can feed
/// the identical workloads into [`map_graph`] when pinning nodes to
/// worker threads.
pub fn node_workloads(graph: &TpdfGraph, counts: &[u64]) -> Vec<u64> {
    graph
        .nodes()
        .map(|(id, n)| counts.get(id.0).copied().unwrap_or(1) * n.execution_time.max(1))
        .collect()
}

/// Computes a node-to-cluster mapping for `graph` on `platform`.
///
/// `workloads` gives the total work of each node (repetition count ×
/// execution time); it is only used by
/// [`MappingStrategy::LoadBalanced`].
///
/// # Errors
///
/// Returns [`ManycoreError::EmptyPlatform`] if the platform has no PE.
pub fn map_graph(
    graph: &TpdfGraph,
    platform: &Platform,
    strategy: MappingStrategy,
    workloads: &[u64],
) -> Result<Mapping, ManycoreError> {
    if platform.pe_count() == 0 {
        return Err(ManycoreError::EmptyPlatform);
    }
    let n_clusters = platform.cluster_count();
    let clusters = match strategy {
        MappingStrategy::RoundRobin => (0..graph.node_count())
            .map(|i| ClusterId(i % n_clusters))
            .collect(),
        MappingStrategy::Packed => (0..graph.node_count())
            .map(|i| ClusterId((i / platform.pes_per_cluster()).min(n_clusters - 1)))
            .collect(),
        MappingStrategy::LoadBalanced => {
            let mut load = vec![0u64; n_clusters];
            let mut order: Vec<usize> = (0..graph.node_count()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(workloads.get(i).copied().unwrap_or(1)));
            let mut assignment = vec![ClusterId(0); graph.node_count()];
            for i in order {
                let (best, _) = load
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &l)| l)
                    .expect("at least one cluster");
                assignment[i] = ClusterId(best);
                load[best] += workloads.get(i).copied().unwrap_or(1);
            }
            // Greedy LPT can lose to plain round robin on adversarial
            // weight orders (the classic (4/3 − 1/3k)·OPT worst cases);
            // taking the better of the two makes LoadBalanced *never
            // worse* than RoundRobin — a guarantee the property suite
            // checks on random graphs.
            let round_robin: Vec<ClusterId> = (0..graph.node_count())
                .map(|i| ClusterId(i % n_clusters))
                .collect();
            let max_load = |clusters: &[ClusterId]| -> u64 {
                Mapping {
                    clusters: clusters.to_vec(),
                }
                .max_cluster_load(workloads)
            };
            if max_load(&assignment) <= max_load(&round_robin) {
                assignment
            } else {
                round_robin
            }
        }
    };
    Ok(Mapping { clusters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdf_core::examples::{figure2_graph, fork_join};

    #[test]
    fn round_robin_spreads() {
        let g = figure2_graph();
        let p = Platform::mppa_like(3, 2, 5);
        let m = map_graph(&g, &p, MappingStrategy::RoundRobin, &[]).unwrap();
        assert_eq!(m.clusters().len(), g.node_count());
        assert_eq!(m.used_clusters(), 3);
        assert_eq!(m.cluster_of(NodeId(0)), ClusterId(0));
        assert_eq!(m.cluster_of(NodeId(3)), ClusterId(0));
    }

    #[test]
    fn packed_fills_first_cluster() {
        let g = figure2_graph();
        let p = Platform::mppa_like(4, 8, 5);
        let m = map_graph(&g, &p, MappingStrategy::Packed, &[]).unwrap();
        assert_eq!(m.used_clusters(), 1);
    }

    #[test]
    fn packed_clamps_to_last_cluster() {
        let g = fork_join(10);
        let p = Platform::mppa_like(2, 3, 5);
        let m = map_graph(&g, &p, MappingStrategy::Packed, &[]).unwrap();
        assert!(m.clusters().iter().all(|c| c.0 < 2));
    }

    #[test]
    fn load_balanced_evens_out_work() {
        let g = fork_join(6);
        let p = Platform::mppa_like(2, 8, 5);
        // Give one node a huge workload: it must not share its cluster
        // with the other heavy node.
        let mut workloads = vec![1u64; g.node_count()];
        workloads[0] = 100;
        workloads[1] = 100;
        let m = map_graph(&g, &p, MappingStrategy::LoadBalanced, &workloads).unwrap();
        assert_ne!(m.cluster_of(NodeId(0)), m.cluster_of(NodeId(1)));
    }

    #[test]
    fn default_strategy_is_round_robin() {
        assert_eq!(MappingStrategy::default(), MappingStrategy::RoundRobin);
    }
}
