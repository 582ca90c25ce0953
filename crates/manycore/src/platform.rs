//! Clustered many-core platform model.

/// Identifier of a compute cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

/// Identifier of a processing element (global index across clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub usize);

/// One processing element of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingElement {
    /// Global identifier.
    pub id: PeId,
    /// The cluster the PE belongs to.
    pub cluster: ClusterId,
}

/// A clustered many-core platform: `clusters × pes_per_cluster`
/// processing elements connected by a network-on-chip.
///
/// Communication inside a cluster is modelled as free (shared memory);
/// communication between clusters costs `noc_latency` time units per
/// message, which the scheduler adds to inter-cluster dependencies. This
/// is a deliberately simple stand-in for the MPPA-256's DMA/NoC, enough
/// to exercise the paper's mapping and priority rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Platform {
    clusters: usize,
    pes_per_cluster: usize,
    noc_latency: u64,
}

impl Platform {
    /// Creates a platform with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` or `pes_per_cluster` is zero.
    pub fn new(clusters: usize, pes_per_cluster: usize, noc_latency: u64) -> Self {
        assert!(clusters > 0, "platform needs at least one cluster");
        assert!(pes_per_cluster > 0, "clusters need at least one PE");
        Platform {
            clusters,
            pes_per_cluster,
            noc_latency,
        }
    }

    /// An MPPA-256-like configuration: `clusters` compute clusters of
    /// `pes_per_cluster` cores each (the real chip has 16 × 16) and the
    /// given inter-cluster NoC latency.
    pub fn mppa_like(clusters: usize, pes_per_cluster: usize, noc_latency: u64) -> Self {
        Platform::new(clusters, pes_per_cluster, noc_latency)
    }

    /// The full 16 × 16 MPPA-256 configuration.
    pub fn mppa256(noc_latency: u64) -> Self {
        Platform::new(16, 16, noc_latency)
    }

    /// A single-core platform (useful as a sequential baseline).
    pub fn single_core() -> Self {
        Platform::new(1, 1, 0)
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters
    }

    /// Number of PEs per cluster.
    pub fn pes_per_cluster(&self) -> usize {
        self.pes_per_cluster
    }

    /// Total number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.clusters * self.pes_per_cluster
    }

    /// Inter-cluster message latency in time units.
    pub fn noc_latency(&self) -> u64 {
        self.noc_latency
    }

    /// Returns the processing element with the given global index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= pe_count()`.
    pub fn pe(&self, index: usize) -> ProcessingElement {
        assert!(index < self.pe_count(), "PE index out of range");
        ProcessingElement {
            id: PeId(index),
            cluster: ClusterId(index / self.pes_per_cluster),
        }
    }

    /// Iterates over every processing element.
    pub fn pes(&self) -> impl Iterator<Item = ProcessingElement> + '_ {
        (0..self.pe_count()).map(|i| self.pe(i))
    }

    /// Communication latency between two PEs: zero inside a cluster, the
    /// NoC latency across clusters.
    pub fn latency_between(&self, a: PeId, b: PeId) -> u64 {
        if self.pe(a.0).cluster == self.pe(b.0).cluster {
            0
        } else {
            self.noc_latency
        }
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::mppa_like(4, 4, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_pe_lookup() {
        let p = Platform::mppa_like(4, 16, 10);
        assert_eq!(p.cluster_count(), 4);
        assert_eq!(p.pes_per_cluster(), 16);
        assert_eq!(p.pe_count(), 64);
        assert_eq!(p.noc_latency(), 10);
        assert_eq!(p.pe(0).cluster, ClusterId(0));
        assert_eq!(p.pe(16).cluster, ClusterId(1));
        assert_eq!(p.pe(63).cluster, ClusterId(3));
        assert_eq!(p.pes().count(), 64);
    }

    #[test]
    fn mppa256_shape() {
        let p = Platform::mppa256(20);
        assert_eq!(p.pe_count(), 256);
    }

    #[test]
    fn latency_model() {
        let p = Platform::mppa_like(2, 2, 7);
        assert_eq!(p.latency_between(PeId(0), PeId(1)), 0);
        assert_eq!(p.latency_between(PeId(0), PeId(2)), 7);
        assert_eq!(p.latency_between(PeId(3), PeId(2)), 0);
    }

    #[test]
    fn single_core_platform() {
        let p = Platform::single_core();
        assert_eq!(p.pe_count(), 1);
        assert_eq!(p.latency_between(PeId(0), PeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = Platform::new(0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pe_out_of_range_panics() {
        let p = Platform::single_core();
        let _ = p.pe(1);
    }

    #[test]
    fn default_platform_is_nonempty() {
        assert!(Platform::default().pe_count() > 0);
    }
}
