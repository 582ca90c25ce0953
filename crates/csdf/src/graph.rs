//! CSDF graph representation and builder.

use crate::CsdfError;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an actor inside a [`CsdfGraph`] (index into the actor
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

/// Identifier of a channel inside a [`CsdfGraph`] (index into the channel
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A CSDF actor: a named computation with a cyclic execution sequence of
/// length `τ` (the phase count).
///
/// The per-phase production/consumption rates live on the channels
/// ([`CsdfChannel::production`] / [`CsdfChannel::consumption`]); the actor
/// only records its name, phase count and an optional per-phase execution
/// time used by schedulers and the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfActor {
    /// Human-readable unique name.
    pub name: String,
    /// Number of phases `τ` in the cyclic execution sequence.
    pub phases: usize,
    /// Execution time of each phase (arbitrary time units). Length is
    /// either `phases` or 1 (constant time).
    pub execution_times: Vec<u64>,
}

impl CsdfActor {
    /// Returns the execution time of the `n`-th firing.
    pub fn execution_time(&self, firing: usize) -> u64 {
        if self.execution_times.is_empty() {
            1
        } else {
            self.execution_times[firing % self.execution_times.len()]
        }
    }
}

/// A CSDF channel (directed FIFO edge) between two actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfChannel {
    /// Source (producing) actor.
    pub source: ActorId,
    /// Destination (consuming) actor.
    pub target: ActorId,
    /// Cyclic production rate sequence of the source actor on this
    /// channel; indexed by the source firing number modulo its length.
    pub production: Vec<u64>,
    /// Cyclic consumption rate sequence of the target actor on this
    /// channel; indexed by the target firing number modulo its length.
    pub consumption: Vec<u64>,
    /// Initial tokens present on the channel before the first firing.
    pub initial_tokens: u64,
    /// Optional label (e.g. `e2`).
    pub label: String,
}

impl CsdfChannel {
    /// Production rate of the source actor's `n`-th firing on this
    /// channel (`x_j(n mod τ_j)` in the paper).
    pub fn production_rate(&self, firing: u64) -> u64 {
        self.production[(firing as usize) % self.production.len()]
    }

    /// Consumption rate of the target actor's `n`-th firing on this
    /// channel (`y_j(n mod τ_j)` in the paper).
    pub fn consumption_rate(&self, firing: u64) -> u64 {
        self.consumption[(firing as usize) % self.consumption.len()]
    }

    /// Total tokens produced during the first `n` firings of the source
    /// actor (`X_j^u(n)` in the paper).
    pub fn total_produced(&self, n: u64) -> u64 {
        cumulative(&self.production, n)
    }

    /// Total tokens consumed during the first `n` firings of the target
    /// actor (`Y_j^u(n)` in the paper).
    pub fn total_consumed(&self, n: u64) -> u64 {
        cumulative(&self.consumption, n)
    }
}

fn cumulative(seq: &[u64], n: u64) -> u64 {
    let len = seq.len() as u64;
    if len == 0 {
        return 0;
    }
    let per_cycle: u64 = seq.iter().sum();
    let full = n / len;
    let rem = (n % len) as usize;
    full * per_cycle + seq[..rem].iter().sum::<u64>()
}

/// A Cyclo-Static Dataflow graph.
///
/// Use [`CsdfGraphBuilder`] (or [`CsdfGraph::builder`]) to construct one.
///
/// # Examples
///
/// ```
/// use tpdf_csdf::CsdfGraph;
///
/// # fn main() -> Result<(), tpdf_csdf::CsdfError> {
/// let g = CsdfGraph::builder()
///     .actor("A", &[1])
///     .actor("B", &[1, 1])
///     .channel("A", "B", &[2], &[1, 1], 0)
///     .build()?;
/// assert_eq!(g.actor_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfGraph {
    actors: Vec<CsdfActor>,
    channels: Vec<CsdfChannel>,
    names: BTreeMap<String, ActorId>,
}

impl CsdfGraph {
    /// Creates a new [`CsdfGraphBuilder`].
    pub fn builder() -> CsdfGraphBuilder {
        CsdfGraphBuilder::new()
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Returns the actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn actor(&self, id: ActorId) -> &CsdfActor {
        &self.actors[id.0]
    }

    /// Returns the channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn channel(&self, id: ChannelId) -> &CsdfChannel {
        &self.channels[id.0]
    }

    /// Looks an actor up by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.names.get(name).copied()
    }

    /// Iterates over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &CsdfActor)> {
        self.actors.iter().enumerate().map(|(i, a)| (ActorId(i), a))
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &CsdfChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// Channels produced by `actor`.
    pub fn output_channels(
        &self,
        actor: ActorId,
    ) -> impl Iterator<Item = (ChannelId, &CsdfChannel)> {
        self.channels().filter(move |(_, c)| c.source == actor)
    }

    /// Channels consumed by `actor`.
    pub fn input_channels(
        &self,
        actor: ActorId,
    ) -> impl Iterator<Item = (ChannelId, &CsdfChannel)> {
        self.channels().filter(move |(_, c)| c.target == actor)
    }

    /// Returns `true` if the graph is weakly connected (every actor is
    /// reachable from every other ignoring edge direction). Single-actor
    /// graphs are connected.
    pub fn is_connected(&self) -> bool {
        if self.actors.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.actors.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for c in &self.channels {
                let (a, b) = (c.source.0, c.target.0);
                if a == i && !seen[b] {
                    seen[b] = true;
                    stack.push(b);
                }
                if b == i && !seen[a] {
                    seen[a] = true;
                    stack.push(a);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Builder for [`CsdfGraph`].
///
/// Actor rate sequences are declared per channel; an actor's phase count
/// is declared with [`CsdfGraphBuilder::actor`] and each channel rate
/// sequence must have a length that divides (or equals) the declared
/// phase count — a common convention that keeps graphs well-formed while
/// allowing constant-rate shorthand like `&[1]`.
#[derive(Debug, Default, Clone)]
pub struct CsdfGraphBuilder {
    actors: Vec<CsdfActor>,
    names: BTreeMap<String, ActorId>,
    channels: Vec<PendingChannel>,
    error: Option<CsdfError>,
}

#[derive(Debug, Clone)]
struct PendingChannel {
    source: String,
    target: String,
    production: Vec<u64>,
    consumption: Vec<u64>,
    initial_tokens: u64,
}

impl CsdfGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor with the given per-phase execution times. The number
    /// of phases is the length of `execution_times`.
    pub fn actor(mut self, name: &str, execution_times: &[u64]) -> Self {
        if self.error.is_some() {
            return self;
        }
        if execution_times.is_empty() {
            self.error = Some(CsdfError::EmptyRateSequence(name.to_string()));
            return self;
        }
        if self.names.contains_key(name) {
            self.error = Some(CsdfError::DuplicateActor(name.to_string()));
            return self;
        }
        let id = ActorId(self.actors.len());
        self.names.insert(name.to_string(), id);
        self.actors.push(CsdfActor {
            name: name.to_string(),
            phases: execution_times.len(),
            execution_times: execution_times.to_vec(),
        });
        self
    }

    /// Adds a channel from `source` to `target` with cyclic production
    /// and consumption rate sequences and a number of initial tokens.
    pub fn channel(
        mut self,
        source: &str,
        target: &str,
        production: &[u64],
        consumption: &[u64],
        initial_tokens: u64,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        if production.is_empty() || consumption.is_empty() {
            self.error = Some(CsdfError::EmptyRateSequence(format!("{source}->{target}")));
            return self;
        }
        self.channels.push(PendingChannel {
            source: source.to_string(),
            target: target.to_string(),
            production: production.to_vec(),
            consumption: consumption.to_vec(),
            initial_tokens,
        });
        self
    }

    /// Finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if an actor is duplicated or missing, if a rate
    /// sequence is empty, or if the graph has no actors.
    pub fn build(self) -> Result<CsdfGraph, CsdfError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.actors.is_empty() {
            return Err(CsdfError::EmptyGraph);
        }
        let mut channels = Vec::with_capacity(self.channels.len());
        for (i, pc) in self.channels.into_iter().enumerate() {
            let source = *self
                .names
                .get(&pc.source)
                .ok_or_else(|| CsdfError::UnknownActor(pc.source.clone()))?;
            let target = *self
                .names
                .get(&pc.target)
                .ok_or_else(|| CsdfError::UnknownActor(pc.target.clone()))?;
            channels.push(CsdfChannel {
                source,
                target,
                production: pc.production,
                consumption: pc.consumption,
                initial_tokens: pc.initial_tokens,
                label: format!("e{}", i + 1),
            });
        }
        Ok(CsdfGraph {
            actors: self.actors,
            channels,
            names: self.names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> CsdfGraph {
        CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1, 2])
            .channel("A", "B", &[2], &[1, 1], 3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds() {
        let g = simple();
        assert_eq!(g.actor_count(), 2);
        assert_eq!(g.channel_count(), 1);
        assert_eq!(g.actor_by_name("A"), Some(ActorId(0)));
        assert_eq!(g.actor_by_name("missing"), None);
        assert_eq!(g.channel(ChannelId(0)).initial_tokens, 3);
        assert_eq!(g.channel(ChannelId(0)).label, "e1");
        assert!(g.is_connected());
    }

    #[test]
    fn builder_errors() {
        assert!(matches!(
            CsdfGraph::builder().build(),
            Err(CsdfError::EmptyGraph)
        ));
        assert!(matches!(
            CsdfGraph::builder()
                .actor("A", &[1])
                .actor("A", &[1])
                .build(),
            Err(CsdfError::DuplicateActor(_))
        ));
        assert!(matches!(
            CsdfGraph::builder()
                .actor("A", &[1])
                .channel("A", "B", &[1], &[1], 0)
                .build(),
            Err(CsdfError::UnknownActor(_))
        ));
        assert!(matches!(
            CsdfGraph::builder().actor("A", &[]).build(),
            Err(CsdfError::EmptyRateSequence(_))
        ));
        assert!(matches!(
            CsdfGraph::builder()
                .actor("A", &[1])
                .actor("B", &[1])
                .channel("A", "B", &[], &[1], 0)
                .build(),
            Err(CsdfError::EmptyRateSequence(_))
        ));
    }

    #[test]
    fn cyclic_rate_access() {
        let g = simple();
        let c = g.channel(ChannelId(0));
        assert_eq!(c.production_rate(0), 2);
        assert_eq!(c.production_rate(5), 2);
        assert_eq!(c.consumption_rate(0), 1);
        assert_eq!(c.consumption_rate(1), 1);
        assert_eq!(c.total_produced(3), 6);
        assert_eq!(c.total_consumed(3), 3);
    }

    #[test]
    fn cumulative_rates_match_paper_notation() {
        // Actor with rate sequence [1, 0, 1] as a1 on e1 in Figure 1.
        let seq = vec![1u64, 0, 1];
        assert_eq!(cumulative(&seq, 0), 0);
        assert_eq!(cumulative(&seq, 1), 1);
        assert_eq!(cumulative(&seq, 2), 1);
        assert_eq!(cumulative(&seq, 3), 2);
        assert_eq!(cumulative(&seq, 6), 4);
        assert_eq!(cumulative(&seq, 7), 5);
    }

    #[test]
    fn execution_time_cycles() {
        let a = CsdfActor {
            name: "A".into(),
            phases: 2,
            execution_times: vec![3, 7],
        };
        assert_eq!(a.execution_time(0), 3);
        assert_eq!(a.execution_time(1), 7);
        assert_eq!(a.execution_time(2), 3);
    }

    #[test]
    fn connectivity() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .actor("C", &[1])
            .channel("A", "B", &[1], &[1], 0)
            .build()
            .unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn input_output_channel_iterators() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .actor("C", &[1])
            .channel("A", "B", &[1], &[1], 0)
            .channel("A", "C", &[1], &[1], 0)
            .channel("B", "C", &[1], &[1], 0)
            .build()
            .unwrap();
        let a = g.actor_by_name("A").unwrap();
        let c = g.actor_by_name("C").unwrap();
        assert_eq!(g.output_channels(a).count(), 2);
        assert_eq!(g.input_channels(a).count(), 0);
        assert_eq!(g.input_channels(c).count(), 2);
    }
}
