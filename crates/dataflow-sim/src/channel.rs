//! FIFO channel state with occupancy tracking.

use crate::SimError;

/// Run-time state of one FIFO channel: current occupancy, high-water mark
/// and an optional capacity bound.
///
/// The simulator only tracks token *counts* (the analyses and the
/// buffer-sizing experiments of the paper are about counts, not values);
/// applications that need to process real data (FFT samples, image tiles)
/// do so in their own kernels and use the simulator for ordering and
/// sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelState {
    label: String,
    tokens: u64,
    high_water: u64,
    /// Highest occupancy since the last [`ChannelState::take_iteration_high_water`].
    iteration_high_water: u64,
    capacity: Option<u64>,
}

impl ChannelState {
    /// Creates a channel state with `initial` tokens and no capacity
    /// bound.
    pub fn new(label: impl Into<String>, initial: u64) -> Self {
        ChannelState {
            label: label.into(),
            tokens: initial,
            high_water: initial,
            iteration_high_water: initial,
            capacity: None,
        }
    }

    /// Creates a channel state with a capacity bound; pushes beyond the
    /// bound fail with [`SimError::CapacityExceeded`].
    pub fn bounded(label: impl Into<String>, initial: u64, capacity: u64) -> Self {
        ChannelState {
            label: label.into(),
            tokens: initial,
            high_water: initial,
            iteration_high_water: initial,
            capacity: Some(capacity),
        }
    }

    /// The channel label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Current number of tokens.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Highest occupancy observed so far.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Highest occupancy observed since the last call (or construction),
    /// then restarts the window at the current occupancy. The simulator
    /// calls this once per iteration boundary, which yields the
    /// *per-iteration* buffer requirement — what capacity re-derivation
    /// under a binding sequence needs.
    pub fn take_iteration_high_water(&mut self) -> u64 {
        let mark = self.iteration_high_water.max(self.tokens);
        self.iteration_high_water = self.tokens;
        mark
    }

    /// The configured capacity, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Returns `true` if at least `count` tokens are available.
    pub fn can_pop(&self, count: u64) -> bool {
        self.tokens >= count
    }

    /// Adds `count` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CapacityExceeded`] if a capacity is configured
    /// and would be exceeded.
    pub fn push(&mut self, count: u64) -> Result<(), SimError> {
        let next = self.tokens + count;
        if let Some(cap) = self.capacity {
            if next > cap {
                return Err(SimError::CapacityExceeded {
                    channel: self.label.clone(),
                    capacity: cap,
                    attempted: next,
                });
            }
        }
        self.tokens = next;
        self.high_water = self.high_water.max(next);
        self.iteration_high_water = self.iteration_high_water.max(next);
        Ok(())
    }

    /// Removes `count` tokens.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` tokens are available; callers must
    /// check [`ChannelState::can_pop`] first (the simulator does).
    pub fn pop(&mut self, count: u64) {
        assert!(
            self.tokens >= count,
            "channel {} underflow: {} < {count}",
            self.label,
            self.tokens
        );
        self.tokens -= count;
    }

    /// Discards every token currently stored (used when a control token
    /// rejects an input port: "the data tokens that are chosen or
    /// rejected").
    pub fn clear(&mut self) -> u64 {
        std::mem::take(&mut self.tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_pop_and_high_water() {
        let mut c = ChannelState::new("e1", 2);
        assert_eq!(c.tokens(), 2);
        assert_eq!(c.high_water(), 2);
        c.push(3).unwrap();
        assert_eq!(c.tokens(), 5);
        assert_eq!(c.high_water(), 5);
        assert!(c.can_pop(5));
        c.pop(4);
        assert_eq!(c.tokens(), 1);
        assert_eq!(c.high_water(), 5);
        assert_eq!(c.label(), "e1");
        assert_eq!(c.capacity(), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn pop_underflow_panics() {
        let mut c = ChannelState::new("e1", 0);
        c.pop(1);
    }

    #[test]
    fn capacity_enforced() {
        let mut c = ChannelState::bounded("e2", 1, 3);
        assert_eq!(c.capacity(), Some(3));
        c.push(2).unwrap();
        let err = c.push(1).unwrap_err();
        assert!(matches!(err, SimError::CapacityExceeded { .. }));
    }

    #[test]
    fn iteration_high_water_windows_reset() {
        let mut c = ChannelState::new("e4", 1);
        c.push(4).unwrap(); // occupancy 5
        c.pop(3); // occupancy 2
        assert_eq!(c.take_iteration_high_water(), 5);
        // New window starts at the current occupancy.
        c.push(1).unwrap(); // occupancy 3
        c.pop(2);
        assert_eq!(c.take_iteration_high_water(), 3);
        // A window with no pushes reports the standing occupancy.
        assert_eq!(c.take_iteration_high_water(), 1);
        // The global mark is unaffected by windowing.
        assert_eq!(c.high_water(), 5);
    }

    #[test]
    fn clear_discards_tokens() {
        let mut c = ChannelState::new("e3", 4);
        assert_eq!(c.clear(), 4);
        assert_eq!(c.tokens(), 0);
        assert_eq!(c.high_water(), 4);
    }

    proptest! {
        /// The high-water mark is monotone and never below the current
        /// occupancy.
        #[test]
        fn prop_high_water_invariant(ops in proptest::collection::vec((0u64..10, 0u64..10), 0..50)) {
            let mut c = ChannelState::new("e", 0);
            for (push, pop) in ops {
                c.push(push).unwrap();
                let pop = pop.min(c.tokens());
                c.pop(pop);
                prop_assert!(c.high_water() >= c.tokens());
            }
        }
    }
}
