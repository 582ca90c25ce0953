//! Single-processor scheduling of CSDF graphs (PASS construction).

use crate::graph::{ActorId, CsdfGraph};
use crate::repetition::{repetition_vector, RepetitionVector};
use crate::CsdfError;
use std::fmt;

/// One entry of a sequential schedule: fire `actor` `count` times in a
/// row (the string `(a3)^2` of the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The actor to fire.
    pub actor: ActorId,
    /// The number of consecutive firings.
    pub count: u64,
}

/// A Periodic Admissible Sequential Schedule (PASS) for one iteration of
/// a CSDF graph.
///
/// A valid schedule fires every actor exactly as many times as its
/// repetition count without ever driving a channel negative; repeating it
/// forever keeps every buffer bounded (Definition 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
    repetition: RepetitionVector,
}

impl Schedule {
    /// The run-length-encoded firing sequence.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// The repetition vector the schedule realises.
    pub fn repetition(&self) -> &RepetitionVector {
        &self.repetition
    }

    /// Expands the schedule to an explicit firing list.
    pub fn firings(&self) -> Vec<ActorId> {
        let mut out = Vec::new();
        for e in &self.entries {
            for _ in 0..e.count {
                out.push(e.actor);
            }
        }
        out
    }

    /// Total number of firings in one iteration.
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Renders the schedule with actor names, e.g. `(a3)^2 (a1)^3 (a2)^2`.
    pub fn display<'a>(&'a self, graph: &'a CsdfGraph) -> ScheduleDisplay<'a> {
        ScheduleDisplay {
            schedule: self,
            graph,
        }
    }
}

/// Helper returned by [`Schedule::display`].
#[derive(Debug)]
pub struct ScheduleDisplay<'a> {
    schedule: &'a Schedule,
    graph: &'a CsdfGraph,
}

impl fmt::Display for ScheduleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.schedule.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let name = &self.graph.actor(e.actor).name;
            if e.count == 1 {
                write!(f, "{name}")?;
            } else {
                write!(f, "({name})^{}", e.count)?;
            }
        }
        Ok(())
    }
}

/// Scheduling policies for [`single_processor_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Fire each ready actor as many times in a row as data allows
    /// ("run-to-completion"), which tends to minimise context switches.
    #[default]
    Greedy,
    /// Fire ready actors one firing at a time in round-robin order,
    /// which tends to minimise buffer sizes.
    RoundRobin,
}

/// Builds a single-processor PASS for one iteration of the graph.
///
/// The scheduler simulates channel occupancy symbolically: an actor is
/// *ready* when all of its input channels hold enough tokens for its next
/// firing and it has not yet exhausted its repetition count.
///
/// # Errors
///
/// * Errors from [`repetition_vector`] (inconsistency, disconnection).
/// * [`CsdfError::Deadlock`] if no admissible schedule exists.
///
/// # Examples
///
/// ```
/// use tpdf_csdf::{examples::figure1_graph, single_processor_schedule};
/// use tpdf_csdf::schedule::SchedulePolicy;
///
/// # fn main() -> Result<(), tpdf_csdf::CsdfError> {
/// let g = figure1_graph();
/// let s = single_processor_schedule(&g, SchedulePolicy::Greedy)?;
/// assert_eq!(s.display(&g).to_string(), "(a3)^2 (a1)^3 (a2)^2");
/// # Ok(())
/// # }
/// ```
pub fn single_processor_schedule(
    graph: &CsdfGraph,
    policy: SchedulePolicy,
) -> Result<Schedule, CsdfError> {
    let repetition = repetition_vector(graph)?;
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens).collect();
    let mut fired: Vec<u64> = vec![0; graph.actor_count()];
    let mut entries: Vec<ScheduleEntry> = Vec::new();

    let total: u64 = repetition.total_firings();
    let mut done = 0u64;

    while done < total {
        let mut progressed = false;
        for (id, _) in graph.actors() {
            if fired[id.0] >= repetition.count(id) {
                continue;
            }
            let mut burst = 0u64;
            loop {
                if fired[id.0] >= repetition.count(id) || !is_ready(graph, id, fired[id.0], &tokens)
                {
                    break;
                }
                fire(graph, id, fired[id.0], &mut tokens);
                fired[id.0] += 1;
                burst += 1;
                done += 1;
                if matches!(policy, SchedulePolicy::RoundRobin) {
                    break;
                }
            }
            if burst > 0 {
                progressed = true;
                push_entry(&mut entries, id, burst);
            }
        }
        if !progressed {
            let blocked = graph
                .actors()
                .filter(|(id, _)| fired[id.0] < repetition.count(*id))
                .map(|(_, a)| a.name.clone())
                .collect();
            return Err(CsdfError::Deadlock { blocked });
        }
    }

    Ok(Schedule {
        entries,
        repetition,
    })
}

fn push_entry(entries: &mut Vec<ScheduleEntry>, actor: ActorId, count: u64) {
    if let Some(last) = entries.last_mut() {
        if last.actor == actor {
            last.count += count;
            return;
        }
    }
    entries.push(ScheduleEntry { actor, count });
}

fn is_ready(graph: &CsdfGraph, actor: ActorId, firing: u64, tokens: &[u64]) -> bool {
    graph
        .input_channels(actor)
        .all(|(cid, c)| tokens[cid.0] >= c.consumption_rate(firing))
}

fn fire(graph: &CsdfGraph, actor: ActorId, firing: u64, tokens: &mut [u64]) {
    for (cid, c) in graph.input_channels(actor) {
        tokens[cid.0] -= c.consumption_rate(firing);
    }
    for (cid, c) in graph.output_channels(actor) {
        tokens[cid.0] += c.production_rate(firing);
    }
}

/// Validates that a firing sequence is admissible (never drives a channel
/// negative) and returns the per-channel maximum occupancy observed.
///
/// # Errors
///
/// Returns [`CsdfError::Deadlock`] naming the first actor whose firing
/// would underflow one of its input channels.
pub fn validate_firing_sequence(
    graph: &CsdfGraph,
    firings: &[ActorId],
) -> Result<Vec<u64>, CsdfError> {
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens).collect();
    let mut high_water = tokens.clone();
    let mut fired = vec![0u64; graph.actor_count()];
    for &actor in firings {
        if !is_ready(graph, actor, fired[actor.0], &tokens) {
            return Err(CsdfError::Deadlock {
                blocked: vec![graph.actor(actor).name.clone()],
            });
        }
        fire(graph, actor, fired[actor.0], &mut tokens);
        fired[actor.0] += 1;
        for (i, &t) in tokens.iter().enumerate() {
            if t > high_water[i] {
                high_water[i] = t;
            }
        }
    }
    Ok(high_water)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{downsample_chain, figure1_graph, producer_consumer};
    use crate::CsdfGraph;
    use proptest::prelude::*;

    #[test]
    fn figure1_schedule_matches_paper() {
        let g = figure1_graph();
        let s = single_processor_schedule(&g, SchedulePolicy::Greedy).unwrap();
        assert_eq!(s.display(&g).to_string(), "(a3)^2 (a1)^3 (a2)^2");
        assert_eq!(s.total_firings(), 7);
    }

    #[test]
    fn round_robin_schedule_is_valid() {
        let g = figure1_graph();
        let s = single_processor_schedule(&g, SchedulePolicy::RoundRobin).unwrap();
        assert_eq!(s.total_firings(), 7);
        assert!(validate_firing_sequence(&g, &s.firings()).is_ok());
    }

    #[test]
    fn deadlocked_cycle_detected() {
        // Two-actor cycle with no initial tokens deadlocks.
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .channel("A", "B", &[1], &[1], 0)
            .channel("B", "A", &[1], &[1], 0)
            .build()
            .unwrap();
        assert!(matches!(
            single_processor_schedule(&g, SchedulePolicy::Greedy),
            Err(CsdfError::Deadlock { .. })
        ));
    }

    #[test]
    fn cycle_with_tokens_schedules() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .channel("A", "B", &[1], &[1], 0)
            .channel("B", "A", &[1], &[1], 1)
            .build()
            .unwrap();
        let s = single_processor_schedule(&g, SchedulePolicy::Greedy).unwrap();
        assert_eq!(s.total_firings(), 2);
    }

    #[test]
    fn schedule_returns_to_initial_state() {
        let g = figure1_graph();
        let s = single_processor_schedule(&g, SchedulePolicy::Greedy).unwrap();
        // Replaying the schedule twice must also be admissible (the graph
        // returns to its initial state after each iteration).
        let mut firings = s.firings();
        firings.extend(s.firings());
        assert!(validate_firing_sequence(&g, &firings).is_ok());
    }

    #[test]
    fn invalid_sequence_rejected() {
        let g = producer_consumer(1, 1);
        let consumer_first = vec![ActorId(1)];
        assert!(validate_firing_sequence(&g, &consumer_first).is_err());
    }

    #[test]
    fn schedule_display_single_firing() {
        let g = downsample_chain(2, 2);
        let s = single_processor_schedule(&g, SchedulePolicy::Greedy).unwrap();
        let text = s.display(&g).to_string();
        assert!(text.contains("s2"));
        assert!(!text.contains("(s2)^1"));
    }

    proptest! {
        /// Every schedule produced for a random producer/consumer pair is
        /// admissible and fires each actor exactly its repetition count.
        #[test]
        fn prop_schedules_are_admissible(p in 1u64..12, c in 1u64..12, policy in 0..2usize) {
            let g = producer_consumer(p, c);
            let policy = if policy == 0 { SchedulePolicy::Greedy } else { SchedulePolicy::RoundRobin };
            let s = single_processor_schedule(&g, policy).unwrap();
            prop_assert!(validate_firing_sequence(&g, &s.firings()).is_ok());
            let mut per_actor = vec![0u64; g.actor_count()];
            for f in s.firings() { per_actor[f.0] += 1; }
            prop_assert_eq!(per_actor.as_slice(), s.repetition().counts());
        }

        /// Greedy and round-robin schedules fire identical actor counts.
        #[test]
        fn prop_policies_agree_on_counts(stages in 1usize..5, factor in 1u64..4) {
            let g = downsample_chain(stages, factor);
            let a = single_processor_schedule(&g, SchedulePolicy::Greedy).unwrap();
            let b = single_processor_schedule(&g, SchedulePolicy::RoundRobin).unwrap();
            prop_assert_eq!(a.repetition().counts(), b.repetition().counts());
            prop_assert_eq!(a.total_firings(), b.total_firings());
        }
    }
}
