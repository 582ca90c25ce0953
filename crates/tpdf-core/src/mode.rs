//! Kernel modes and control tokens.

use std::fmt;

/// The operating mode a control token selects for a kernel (Definition 2
/// of the paper).
///
/// A kernel with a control port waits for one control token per firing;
/// the token carries a `Mode` describing *which data inputs (or outputs)
/// participate* in that firing. Unchosen inputs are not read (their
/// tokens are discarded at the end of the local iteration), which is how
/// TPDF expresses dynamic topology changes without breaking static
/// analysability.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Select exactly one data input (or output), identified by its port
    /// index among the kernel's data ports.
    SelectOne(usize),
    /// Select a subset of data inputs (or outputs) by port index.
    SelectMany(Vec<usize>),
    /// Select the available data input with the highest priority
    /// (`α` in Definition 2); used by the Transaction kernel to take the
    /// best result available at a deadline.
    HighestPriority,
    /// Wait until *all* data inputs are available (the default dataflow
    /// behaviour of kernels without control ports).
    #[default]
    WaitAll,
}

impl Mode {
    /// Returns `true` if the data port with the given index participates
    /// in a firing under this mode, given the total number of data ports.
    ///
    /// [`Mode::HighestPriority`] is resolved at run time by the
    /// scheduler/simulator, so this conservative static view reports all
    /// ports as potentially selected.
    pub fn selects(&self, port: usize, port_count: usize) -> bool {
        match self {
            Mode::SelectOne(p) => *p == port,
            Mode::SelectMany(ps) => ps.contains(&port),
            Mode::HighestPriority | Mode::WaitAll => port < port_count,
        }
    }

    /// Number of ports statically known to participate, if determinate.
    pub fn selected_count(&self, port_count: usize) -> usize {
        match self {
            Mode::SelectOne(_) => 1,
            Mode::SelectMany(ps) => ps.len(),
            Mode::HighestPriority => 1,
            Mode::WaitAll => port_count,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::SelectOne(p) => write!(f, "select({p})"),
            Mode::SelectMany(ps) => {
                write!(f, "select{{")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
            Mode::HighestPriority => write!(f, "highest-priority"),
            Mode::WaitAll => write!(f, "wait-all"),
        }
    }
}

/// A control token: the value carried by a control channel from a control
/// actor to a kernel's control port.
///
/// Besides the selected [`Mode`], a token optionally carries the virtual
/// time at which it was emitted (used by [`crate::actors::KernelKind::Clock`]
/// watchdogs to implement deadlines such as the 500 ms timeout of the
/// edge-detection case study).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlToken {
    /// The mode the receiving kernel must fire in.
    pub mode: Mode,
    /// Virtual emission time in time units (None when untimed).
    pub timestamp: Option<u64>,
}

impl ControlToken {
    /// Creates an untimed control token.
    pub fn new(mode: Mode) -> Self {
        ControlToken {
            mode,
            timestamp: None,
        }
    }

    /// Creates a control token emitted at `timestamp` (virtual time).
    pub fn at(mode: Mode, timestamp: u64) -> Self {
        ControlToken {
            mode,
            timestamp: Some(timestamp),
        }
    }
}

impl fmt::Display for ControlToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.timestamp {
            Some(t) => write!(f, "{}@{t}", self.mode),
            None => write!(f, "{}", self.mode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_selection() {
        assert!(Mode::SelectOne(2).selects(2, 4));
        assert!(!Mode::SelectOne(2).selects(1, 4));
        assert!(Mode::SelectMany(vec![0, 3]).selects(3, 4));
        assert!(!Mode::SelectMany(vec![0, 3]).selects(2, 4));
        assert!(Mode::WaitAll.selects(1, 4));
        assert!(!Mode::WaitAll.selects(4, 4));
        assert!(Mode::HighestPriority.selects(0, 4));
    }

    #[test]
    fn selected_counts() {
        assert_eq!(Mode::SelectOne(0).selected_count(4), 1);
        assert_eq!(Mode::SelectMany(vec![1, 2]).selected_count(4), 2);
        assert_eq!(Mode::HighestPriority.selected_count(4), 1);
        assert_eq!(Mode::WaitAll.selected_count(4), 4);
        assert_eq!(Mode::default(), Mode::WaitAll);
    }

    #[test]
    fn display() {
        assert_eq!(Mode::SelectOne(1).to_string(), "select(1)");
        assert_eq!(Mode::SelectMany(vec![0, 2]).to_string(), "select{0,2}");
        assert_eq!(Mode::HighestPriority.to_string(), "highest-priority");
        assert_eq!(Mode::WaitAll.to_string(), "wait-all");
        assert_eq!(ControlToken::new(Mode::WaitAll).to_string(), "wait-all");
        assert_eq!(
            ControlToken::at(Mode::HighestPriority, 500).to_string(),
            "highest-priority@500"
        );
    }

    #[test]
    fn token_constructors() {
        let t = ControlToken::new(Mode::SelectOne(0));
        assert_eq!(t.timestamp, None);
        let t = ControlToken::at(Mode::SelectOne(0), 42);
        assert_eq!(t.timestamp, Some(42));
    }
}
