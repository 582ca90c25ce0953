//! Topology matrix and repetition-vector computation (Theorem 1).

use crate::graph::{ActorId, CsdfGraph};
use crate::CsdfError;
use tpdf_symexpr::{denominator_lcm, numerator_gcd, Rational};

/// The repetition vector `q` of a consistent CSDF graph: the number of
/// firings of each actor in one graph iteration.
///
/// Following Theorem 1 of the paper, `q = P · r` where `P` is the
/// diagonal matrix of phase counts `τ_j` and `r` is the smallest positive
/// integer solution of `Γ · r = 0` for the topology matrix `Γ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    counts: Vec<u64>,
    cycle_counts: Vec<u64>,
}

impl RepetitionVector {
    /// Per-actor firing counts `q_j` (indexed by [`ActorId`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-actor cycle counts `r_j = q_j / τ_j` (number of complete
    /// cyclic sequences executed per iteration).
    pub fn cycle_counts(&self) -> &[u64] {
        &self.cycle_counts
    }

    /// Firing count of one actor.
    pub fn count(&self, actor: ActorId) -> u64 {
        self.counts[actor.0]
    }

    /// Total number of firings in one iteration.
    pub fn total_firings(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of actors covered.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Computes the repetition vector of a connected, consistent CSDF graph.
///
/// The algorithm propagates rational firing ratios along channels (a
/// standard union-find-free breadth-first traversal), then verifies every
/// balance equation and normalises the solution to the smallest positive
/// integer vector.
///
/// # Errors
///
/// * [`CsdfError::EmptyGraph`] for graphs without actors.
/// * [`CsdfError::NotConnected`] if the graph has several weakly
///   connected components.
/// * [`CsdfError::Inconsistent`] if the balance equations only admit the
///   trivial solution.
///
/// # Examples
///
/// ```
/// use tpdf_csdf::examples::figure1_graph;
/// use tpdf_csdf::repetition_vector;
///
/// # fn main() -> Result<(), tpdf_csdf::CsdfError> {
/// let q = repetition_vector(&figure1_graph())?;
/// assert_eq!(q.counts(), &[3, 2, 2]);
/// # Ok(())
/// # }
/// ```
pub fn repetition_vector(graph: &CsdfGraph) -> Result<RepetitionVector, CsdfError> {
    if graph.actor_count() == 0 {
        return Err(CsdfError::EmptyGraph);
    }
    if !graph.is_connected() {
        return Err(CsdfError::NotConnected);
    }

    let n = graph.actor_count();
    // Rational cycle-count ratios r_j (per full cyclic sequence).
    let mut ratios: Vec<Option<Rational>> = vec![None; n];
    ratios[0] = Some(Rational::ONE);

    // Propagate along channels until a fixed point.
    let mut changed = true;
    while changed {
        changed = false;
        for (_, c) in graph.channels() {
            let produced = c.total_produced(cycle_len(graph, c.source)) as i128;
            let consumed = c.total_consumed(cycle_len(graph, c.target)) as i128;
            // Balance per full cycle: r_src * produced_per_cycle == r_dst * consumed_per_cycle
            match (ratios[c.source.0], ratios[c.target.0]) {
                (Some(rs), None) => {
                    if consumed == 0 {
                        if produced != 0 {
                            return Err(CsdfError::Inconsistent {
                                detail: format!(
                                    "channel {} produces tokens that are never consumed",
                                    c.label
                                ),
                            });
                        }
                        continue;
                    }
                    ratios[c.target.0] = Some(rs * Rational::new(produced, consumed));
                    changed = true;
                }
                (None, Some(rt)) => {
                    if produced == 0 {
                        if consumed != 0 {
                            return Err(CsdfError::Inconsistent {
                                detail: format!(
                                    "channel {} consumes tokens that are never produced",
                                    c.label
                                ),
                            });
                        }
                        continue;
                    }
                    ratios[c.source.0] = Some(rt * Rational::new(consumed, produced));
                    changed = true;
                }
                _ => {}
            }
        }
    }

    let ratios: Vec<Rational> = ratios
        .into_iter()
        .map(|r| r.ok_or(CsdfError::NotConnected))
        .collect::<Result<_, _>>()?;

    // Verify every balance equation with the propagated ratios.
    for (_, c) in graph.channels() {
        let produced = c.total_produced(cycle_len(graph, c.source)) as i128;
        let consumed = c.total_consumed(cycle_len(graph, c.target)) as i128;
        let lhs = ratios[c.source.0] * Rational::from_integer(produced);
        let rhs = ratios[c.target.0] * Rational::from_integer(consumed);
        if lhs != rhs {
            return Err(CsdfError::Inconsistent {
                detail: format!(
                    "balance equation violated on channel {} ({} != {})",
                    c.label, lhs, rhs
                ),
            });
        }
    }

    // Normalise to the smallest positive integer vector.
    let lcm = denominator_lcm(&ratios);
    let scaled: Vec<Rational> = ratios
        .iter()
        .map(|r| *r * Rational::from_integer(lcm))
        .collect();
    let gcd = numerator_gcd(&scaled).max(1);
    let cycle_counts: Vec<u64> = scaled
        .iter()
        .map(|r| {
            let v = r.to_integer().expect("scaled ratios are integers") / gcd;
            if v <= 0 {
                0
            } else {
                v as u64
            }
        })
        .collect();

    if cycle_counts.contains(&0) {
        return Err(CsdfError::Inconsistent {
            detail: "the only solution of the balance equations is trivial".to_string(),
        });
    }

    let counts: Vec<u64> = cycle_counts
        .iter()
        .enumerate()
        .map(|(i, &r)| r * graph.actor(ActorId(i)).phases as u64)
        .collect();

    Ok(RepetitionVector {
        counts,
        cycle_counts,
    })
}

fn cycle_len(graph: &CsdfGraph, actor: ActorId) -> u64 {
    graph.actor(actor).phases as u64
}

/// Returns the topology matrix `Γ` of the graph as a dense
/// channels × actors matrix of `i128` (Equation 3 of the paper): entry
/// `(u, j)` is `+X_j^u(τ_j)` if actor `j` produces on channel `u`,
/// `-Y_j^u(τ_j)` if it consumes from it, and 0 otherwise.
pub fn topology_matrix(graph: &CsdfGraph) -> Vec<Vec<i128>> {
    let n = graph.actor_count();
    let mut rows = Vec::with_capacity(graph.channel_count());
    for (_, c) in graph.channels() {
        let mut row = vec![0i128; n];
        let tau_src = cycle_len(graph, c.source);
        let tau_dst = cycle_len(graph, c.target);
        row[c.source.0] += c.total_produced(tau_src) as i128;
        row[c.target.0] -= c.total_consumed(tau_dst) as i128;
        rows.push(row);
    }
    rows
}

/// Verifies that `Γ · r = 0` for the cycle-count vector of a repetition
/// vector; used by tests and property checks.
pub fn satisfies_balance_equations(graph: &CsdfGraph, rv: &RepetitionVector) -> bool {
    let gamma = topology_matrix(graph);
    gamma.iter().all(|row| {
        row.iter()
            .zip(rv.cycle_counts())
            .map(|(g, &r)| g * r as i128)
            .sum::<i128>()
            == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure1_graph, producer_consumer};
    use crate::CsdfGraph;
    use proptest::prelude::*;

    #[test]
    fn figure1_repetition_vector() {
        // The paper: q = [3, 2, 2]^T for the graph of Figure 1.
        let q = repetition_vector(&figure1_graph()).unwrap();
        assert_eq!(q.counts(), &[3, 2, 2]);
        assert_eq!(q.total_firings(), 7);
        assert!(satisfies_balance_equations(&figure1_graph(), &q));
    }

    #[test]
    fn sdf_chain() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .actor("C", &[1])
            .channel("A", "B", &[2], &[3], 0)
            .channel("B", "C", &[1], &[2], 0)
            .build()
            .unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.counts(), &[3, 2, 1]);
    }

    #[test]
    fn inconsistent_graph_detected() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .channel("A", "B", &[2], &[3], 0)
            .channel("A", "B", &[1], &[1], 0)
            .build()
            .unwrap();
        assert!(matches!(
            repetition_vector(&g),
            Err(CsdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .actor("B", &[1])
            .build()
            .unwrap();
        assert!(matches!(
            repetition_vector(&g),
            Err(CsdfError::NotConnected)
        ));
    }

    #[test]
    fn self_loop_consistent() {
        let g = CsdfGraph::builder()
            .actor("A", &[1])
            .channel("A", "A", &[1], &[1], 1)
            .build()
            .unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.counts(), &[1]);
    }

    #[test]
    fn producer_consumer_scales() {
        let g = producer_consumer(4, 6);
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.counts(), &[3, 2]);
    }

    #[test]
    fn topology_matrix_shape() {
        let g = figure1_graph();
        let m = topology_matrix(&g);
        assert_eq!(m.len(), g.channel_count());
        assert_eq!(m[0].len(), g.actor_count());
    }

    #[test]
    fn cyclo_static_phases_counted() {
        // Actor A has 2 phases producing [1,1]; B one phase consuming [2].
        let g = CsdfGraph::builder()
            .actor("A", &[1, 1])
            .actor("B", &[1])
            .channel("A", "B", &[1, 1], &[2], 0)
            .build()
            .unwrap();
        let q = repetition_vector(&g).unwrap();
        // r = [1, 1]; q = [2*1, 1*1] = [2, 1]
        assert_eq!(q.cycle_counts(), &[1, 1]);
        assert_eq!(q.counts(), &[2, 1]);
    }

    proptest! {
        /// For random consistent two-actor graphs A -[a]->[b] B the
        /// repetition vector must satisfy q_A * a == q_B * b and be
        /// minimal (gcd of cycle counts is 1).
        #[test]
        fn prop_two_actor_balance(a in 1u64..30, b in 1u64..30, tokens in 0u64..10) {
            let g = CsdfGraph::builder()
                .actor("A", &[1])
                .actor("B", &[1])
                .channel("A", "B", &[a], &[b], tokens)
                .build()
                .unwrap();
            let q = repetition_vector(&g).unwrap();
            prop_assert_eq!(q.count(ActorId(0)) * a, q.count(ActorId(1)) * b);
            let g0 = tpdf_symexpr::gcd(q.cycle_counts()[0] as u128, q.cycle_counts()[1] as u128);
            prop_assert_eq!(g0, 1);
        }

        /// Random chains of up to 6 actors are always consistent and the
        /// balance equations hold for every channel.
        #[test]
        fn prop_chain_balance(rates in proptest::collection::vec((1u64..8, 1u64..8), 1..6)) {
            let mut builder = CsdfGraph::builder().actor("a0", &[1]);
            for i in 1..=rates.len() {
                builder = builder.actor(&format!("a{i}"), &[1]);
            }
            for (i, (p, c)) in rates.iter().enumerate() {
                builder = builder.channel(&format!("a{i}"), &format!("a{}", i + 1), &[*p], &[*c], 0);
            }
            let g = builder.build().unwrap();
            let q = repetition_vector(&g).unwrap();
            prop_assert!(satisfies_balance_equations(&g, &q));
            prop_assert!(q.counts().iter().all(|&c| c > 0));
        }
    }
}
