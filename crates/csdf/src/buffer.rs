//! Minimum buffer-size computation for CSDF graphs.
//!
//! The paper's Figure 8 compares the minimum buffer size of one graph
//! iteration between TPDF and CSDF implementations of the OFDM
//! demodulator. For the CSDF side this module computes, per channel, the
//! maximum occupancy reached during a buffer-minimising schedule of one
//! iteration (a demand-driven round-robin schedule), which is the
//! standard "minimum buffer for a valid single-processor schedule"
//! metric.

use crate::graph::{ChannelId, CsdfGraph};
use crate::schedule::{single_processor_schedule, validate_firing_sequence, SchedulePolicy};
use crate::CsdfError;

/// Per-channel and aggregate buffer requirements of one graph iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferReport {
    per_channel: Vec<u64>,
    total: u64,
}

impl BufferReport {
    /// Maximum occupancy of each channel (indexed by [`ChannelId`]).
    pub fn per_channel(&self) -> &[u64] {
        &self.per_channel
    }

    /// Buffer requirement of one channel.
    pub fn channel(&self, id: ChannelId) -> u64 {
        self.per_channel[id.0]
    }

    /// Total buffer requirement (sum over channels).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Computes minimum buffer sizes for one iteration of `graph` under the
/// given scheduling policy.
///
/// [`SchedulePolicy::RoundRobin`] gives the buffer-minimising demand
/// style schedule used for the Figure 8 comparison;
/// [`SchedulePolicy::Greedy`] gives the larger buffers of a
/// run-to-completion schedule (useful as an upper bound).
///
/// # Errors
///
/// Propagates scheduling errors (inconsistent or deadlocked graphs).
///
/// # Examples
///
/// ```
/// use tpdf_csdf::{examples::figure1_graph, minimum_buffer_sizes};
/// use tpdf_csdf::schedule::SchedulePolicy;
///
/// # fn main() -> Result<(), tpdf_csdf::CsdfError> {
/// let report = minimum_buffer_sizes(&figure1_graph(), SchedulePolicy::RoundRobin)?;
/// assert!(report.total() > 0);
/// # Ok(())
/// # }
/// ```
pub fn minimum_buffer_sizes(
    graph: &CsdfGraph,
    policy: SchedulePolicy,
) -> Result<BufferReport, CsdfError> {
    let schedule = single_processor_schedule(graph, policy)?;
    let high_water = validate_firing_sequence(graph, &schedule.firings())?;
    let total = high_water.iter().sum();
    Ok(BufferReport {
        per_channel: high_water,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure1_graph, producer_consumer, unit_chain};
    use proptest::prelude::*;

    #[test]
    fn figure1_buffers() {
        let report = minimum_buffer_sizes(&figure1_graph(), SchedulePolicy::RoundRobin).unwrap();
        assert_eq!(report.per_channel().len(), 3);
        // Every channel must be able to hold at least its initial tokens.
        assert!(report.channel(ChannelId(1)) >= 2);
        assert_eq!(report.total(), report.per_channel().iter().sum::<u64>());
    }

    #[test]
    fn round_robin_never_exceeds_greedy_total_for_chain() {
        let g = unit_chain(6);
        let rr = minimum_buffer_sizes(&g, SchedulePolicy::RoundRobin).unwrap();
        let greedy = minimum_buffer_sizes(&g, SchedulePolicy::Greedy).unwrap();
        assert!(rr.total() <= greedy.total());
    }

    #[test]
    fn producer_consumer_buffer_is_at_least_burst() {
        let g = producer_consumer(8, 2);
        let report = minimum_buffer_sizes(&g, SchedulePolicy::RoundRobin).unwrap();
        // A single producer firing deposits 8 tokens at once.
        assert!(report.total() >= 8);
    }

    proptest! {
        /// Buffer bounds are positive for any consistent pair and the
        /// channel bound is at least max(production burst, initial tokens).
        #[test]
        fn prop_buffer_lower_bound(p in 1u64..16, c in 1u64..16, init in 0u64..8) {
            let g = crate::CsdfGraph::builder()
                .actor("P", &[1])
                .actor("C", &[1])
                .channel("P", "C", &[p], &[c], init)
                .build()
                .unwrap();
            let report = minimum_buffer_sizes(&g, SchedulePolicy::RoundRobin).unwrap();
            prop_assert!(report.channel(ChannelId(0)) >= p.max(init));
        }
    }
}
