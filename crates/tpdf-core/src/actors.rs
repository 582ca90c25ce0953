//! Special TPDF kernels: Select-duplicate, Transaction and Clock.

use std::fmt;

/// The kind of computation performed by a kernel node.
///
/// Besides ordinary [`KernelKind::Regular`] kernels, TPDF defines two
/// data-distribution kernels and a time source (Section II-B of the
/// paper):
///
/// * **Select-duplicate** — one input, `n` outputs; every input token is
///   copied to the currently enabled combination of outputs (chosen by a
///   control token). This is how a graph *forks* into alternative
///   data-paths.
/// * **Transaction** — `n` inputs, one output; atomically selects a
///   predefined number of tokens from one or several inputs. Combined
///   with a control actor it implements speculation, redundancy with
///   vote, *highest priority at a given deadline*, and selection of an
///   active data-path.
/// * **Clock** — a watchdog timer emitting a control token each time its
///   period elapses; it is a *control actor* kind and gives TPDF its
///   time-triggered semantics (e.g. the 500 ms deadline of the
///   edge-detection case study).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// An ordinary computation kernel.
    #[default]
    Regular,
    /// A 1 → n data-distribution kernel duplicating each input token to
    /// the enabled outputs.
    SelectDuplicate,
    /// An n → 1 transaction kernel atomically selecting tokens from its
    /// inputs according to its mode; `votes_required` is used by the
    /// redundancy-with-vote pattern (0 disables voting).
    Transaction {
        /// Number of agreeing inputs required by the redundancy-with-vote
        /// pattern; 0 means "no vote, plain selection".
        votes_required: u32,
    },
    /// A watchdog timer with the given period (in virtual time units)
    /// emitting a control token at each timeout.
    Clock {
        /// Timeout period in virtual-time units.
        period: u64,
    },
}

impl KernelKind {
    /// Returns `true` for the Transaction kernel.
    pub fn is_transaction(&self) -> bool {
        matches!(self, KernelKind::Transaction { .. })
    }

    /// Returns `true` for the Select-duplicate kernel.
    pub fn is_select_duplicate(&self) -> bool {
        matches!(self, KernelKind::SelectDuplicate)
    }

    /// Returns `true` for the Clock watchdog.
    pub fn is_clock(&self) -> bool {
        matches!(self, KernelKind::Clock { .. })
    }

    /// The watchdog period, if this is a clock.
    pub fn clock_period(&self) -> Option<u64> {
        match self {
            KernelKind::Clock { period } => Some(*period),
            _ => None,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKind::Regular => write!(f, "kernel"),
            KernelKind::SelectDuplicate => write!(f, "select-duplicate"),
            KernelKind::Transaction { votes_required } => {
                if *votes_required > 0 {
                    write!(f, "transaction(vote={votes_required})")
                } else {
                    write!(f, "transaction")
                }
            }
            KernelKind::Clock { period } => write!(f, "clock({period})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(KernelKind::Transaction { votes_required: 0 }.is_transaction());
        assert!(KernelKind::SelectDuplicate.is_select_duplicate());
        assert!(KernelKind::Clock { period: 500 }.is_clock());
        assert!(!KernelKind::Regular.is_transaction());
        assert_eq!(KernelKind::Clock { period: 500 }.clock_period(), Some(500));
        assert_eq!(KernelKind::Regular.clock_period(), None);
        assert_eq!(KernelKind::default(), KernelKind::Regular);
    }

    #[test]
    fn display() {
        assert_eq!(KernelKind::Regular.to_string(), "kernel");
        assert_eq!(KernelKind::SelectDuplicate.to_string(), "select-duplicate");
        assert_eq!(
            KernelKind::Transaction { votes_required: 0 }.to_string(),
            "transaction"
        );
        assert_eq!(
            KernelKind::Transaction { votes_required: 3 }.to_string(),
            "transaction(vote=3)"
        );
        assert_eq!(KernelKind::Clock { period: 500 }.to_string(), "clock(500)");
    }
}
