//! Rate consistency: symbolic balance equations and the parametric
//! repetition vector (Section III-A of the paper).

use crate::graph::{NodeId, TpdfGraph};
use crate::TpdfError;
use std::collections::BTreeMap;
use tpdf_symexpr::{Binding, Monomial, Poly, Rational};

/// The symbolic repetition vector of a TPDF graph.
///
/// `cycle_counts()[j]` is the symbolic number of complete cyclic
/// sequences (`r_j`) and `counts()[j]` the symbolic number of firings
/// (`q_j = τ_j · r_j`) of node `j` in one graph iteration. For the graph
/// of Figure 2 the counts are `[2, 2p, p, p, 2p, 2p]` (Example 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicRepetition {
    cycle_counts: Vec<Poly>,
    counts: Vec<Poly>,
    phases: Vec<u64>,
}

impl SymbolicRepetition {
    /// Symbolic firing counts `q_j`, indexed by [`NodeId`].
    pub fn counts(&self) -> &[Poly] {
        &self.counts
    }

    /// Symbolic cycle counts `r_j = q_j / τ_j`, indexed by [`NodeId`].
    pub fn cycle_counts(&self) -> &[Poly] {
        &self.cycle_counts
    }

    /// Phase counts `τ_j` used for each node.
    pub fn phases(&self) -> &[u64] {
        &self.phases
    }

    /// Symbolic firing count of one node.
    pub fn count(&self, node: NodeId) -> &Poly {
        &self.counts[node.0]
    }

    /// Symbolic cycle count of one node.
    pub fn cycle_count(&self, node: NodeId) -> &Poly {
        &self.cycle_counts[node.0]
    }

    /// Firing count of a node looked up by name.
    pub fn count_by_name(&self, graph: &TpdfGraph, name: &str) -> Option<&Poly> {
        graph.node_by_name(name).map(|id| self.count(id))
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Evaluates the repetition vector under a concrete binding.
    ///
    /// # Errors
    ///
    /// Returns an error if a parameter is unbound or a count does not
    /// evaluate to a positive integer.
    pub fn concrete(&self, binding: &Binding) -> Result<Vec<u64>, TpdfError> {
        let mut out = Vec::with_capacity(self.counts.len());
        for c in &self.counts {
            let v = c.eval_unsigned(binding)?;
            if v == 0 {
                return Err(TpdfError::Binding(format!(
                    "repetition count `{c}` evaluates to zero"
                )));
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Total number of firings in one iteration under a binding.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SymbolicRepetition::concrete`].
    pub fn total_firings(&self, binding: &Binding) -> Result<u64, TpdfError> {
        Ok(self.concrete(binding)?.iter().sum())
    }
}

/// Computes the phase count `τ_j` of every node: the least common
/// multiple of the phase counts of all rate sequences attached to it.
pub fn node_phases(graph: &TpdfGraph) -> Vec<u64> {
    let mut phases = vec![1u64; graph.node_count()];
    for (_, c) in graph.channels() {
        let s = c.source.0;
        let t = c.target.0;
        phases[s] = tpdf_symexpr::lcm(phases[s] as u128, c.production.phases() as u128) as u64;
        phases[t] = tpdf_symexpr::lcm(phases[t] as u128, c.consumption.phases() as u128) as u64;
    }
    phases
}

/// Solves the symbolic balance equations of a TPDF graph and returns its
/// parametric repetition vector (Theorem 1 generalised to symbolic
/// rates, Section III-A).
///
/// The matrix is generated "by considering the parametric rates and by
/// ignoring all possible configurations of the graph": every channel —
/// data or control, selected or not — contributes one balance equation,
/// exactly as the paper prescribes.
///
/// # Errors
///
/// * [`TpdfError::EmptyGraph`] / [`TpdfError::NotConnected`] for
///   structural problems;
/// * [`TpdfError::Inconsistent`] if a balance equation is violated for
///   some parameter valuation or the system cannot be solved
///   symbolically.
///
/// # Examples
///
/// ```
/// use tpdf_core::consistency::symbolic_repetition_vector;
/// use tpdf_core::examples::figure2_graph;
///
/// # fn main() -> Result<(), tpdf_core::TpdfError> {
/// let g = figure2_graph();
/// let q = symbolic_repetition_vector(&g)?;
/// assert_eq!(q.count_by_name(&g, "A").unwrap().to_string(), "2");
/// assert_eq!(q.count_by_name(&g, "F").unwrap().to_string(), "2*p");
/// # Ok(())
/// # }
/// ```
pub fn symbolic_repetition_vector(graph: &TpdfGraph) -> Result<SymbolicRepetition, TpdfError> {
    if graph.node_count() == 0 {
        return Err(TpdfError::EmptyGraph);
    }
    if !graph.is_connected() {
        return Err(TpdfError::NotConnected);
    }

    let phases = node_phases(graph);
    let n = graph.node_count();
    let mut ratios: Vec<Option<Poly>> = vec![None; n];
    ratios[0] = Some(Poly::one());

    // Propagate ratios along channels until a fixed point is reached.
    let mut changed = true;
    while changed {
        changed = false;
        for (_, c) in graph.channels() {
            let produced = c.production.cumulative(phases[c.source.0]);
            let consumed = c.consumption.cumulative(phases[c.target.0]);
            match (ratios[c.source.0].clone(), ratios[c.target.0].clone()) {
                (Some(rs), None) => {
                    if consumed.is_zero() {
                        if !produced.is_zero() {
                            return Err(TpdfError::Inconsistent {
                                detail: format!(
                                    "channel {} produces `{produced}` but its consumer never reads",
                                    c.label
                                ),
                            });
                        }
                        continue;
                    }
                    if produced == consumed {
                        // Matched rates (common for multi-term polynomial
                        // rates such as β·(N+L)): the ratio carries over.
                        ratios[c.target.0] = Some(rs);
                        changed = true;
                        continue;
                    }
                    let r = (rs * produced).checked_div(&consumed).map_err(|_| {
                        TpdfError::Inconsistent {
                            detail: format!(
                                "cannot solve the balance equation of channel {} symbolically",
                                c.label
                            ),
                        }
                    })?;
                    ratios[c.target.0] = Some(r);
                    changed = true;
                }
                (None, Some(rt)) => {
                    if produced.is_zero() {
                        if !consumed.is_zero() {
                            return Err(TpdfError::Inconsistent {
                                detail: format!(
                                    "channel {} consumes `{consumed}` but its producer never writes",
                                    c.label
                                ),
                            });
                        }
                        continue;
                    }
                    if produced == consumed {
                        ratios[c.source.0] = Some(rt);
                        changed = true;
                        continue;
                    }
                    let r = (rt * consumed).checked_div(&produced).map_err(|_| {
                        TpdfError::Inconsistent {
                            detail: format!(
                                "cannot solve the balance equation of channel {} symbolically",
                                c.label
                            ),
                        }
                    })?;
                    ratios[c.source.0] = Some(r);
                    changed = true;
                }
                _ => {}
            }
        }
    }

    let ratios: Vec<Poly> = ratios
        .into_iter()
        .map(|r| r.ok_or(TpdfError::NotConnected))
        .collect::<Result<_, _>>()?;

    // Verify every balance equation symbolically.
    for (_, c) in graph.channels() {
        let produced = c.production.cumulative(phases[c.source.0]);
        let consumed = c.consumption.cumulative(phases[c.target.0]);
        let lhs = ratios[c.source.0].clone() * produced;
        let rhs = ratios[c.target.0].clone() * consumed;
        if lhs != rhs {
            return Err(TpdfError::Inconsistent {
                detail: format!(
                    "balance equation violated on channel {}: {} != {}",
                    c.label, lhs, rhs
                ),
            });
        }
    }

    let cycle_counts = normalize(&ratios)?;
    let counts: Vec<Poly> = cycle_counts
        .iter()
        .enumerate()
        .map(|(i, r)| r.clone() * Poly::from_integer(phases[i] as i64))
        .collect();

    Ok(SymbolicRepetition {
        cycle_counts,
        counts,
        phases,
    })
}

/// Normalises a rational symbolic solution to the minimal positive
/// integer-coefficient solution: clears denominators, divides by the
/// common integer factor, and removes parametric factors common to all
/// entries (Section III-A: "eliminating all the coefficients or
/// parametric factors common to all solutions").
fn normalize(ratios: &[Poly]) -> Result<Vec<Poly>, TpdfError> {
    // 1. Least common multiple of all coefficient denominators.
    let mut lcm: i128 = 1;
    for p in ratios {
        for m in p.terms() {
            lcm = tpdf_symexpr::lcm(lcm as u128, m.coeff().denom() as u128) as i128;
        }
    }
    let scaled: Vec<Poly> = ratios
        .iter()
        .map(|p| p.scale(Rational::from_integer(lcm)))
        .collect();

    // 2. Greatest common divisor of all (now integer) coefficients.
    let mut gcd: u128 = 0;
    for p in &scaled {
        for m in p.terms() {
            gcd = tpdf_symexpr::gcd(gcd, m.coeff().numer().unsigned_abs());
        }
    }
    let gcd = gcd.max(1) as i128;

    // 3. Parameter exponents common to *all* monomials of *all* entries
    //    (only removable if shared everywhere, e.g. [p, 2p] -> [1, 2]).
    let mut common: Option<BTreeMap<String, u32>> = None;
    for p in &scaled {
        for m in p.terms() {
            let vars: BTreeMap<String, u32> = m.vars().map(|(k, v)| (k.to_string(), v)).collect();
            common = Some(match common {
                None => vars,
                Some(prev) => prev
                    .into_iter()
                    .filter_map(|(k, e)| vars.get(&k).map(|e2| (k, e.min(*e2))))
                    .filter(|(_, e)| *e > 0)
                    .collect(),
            });
        }
    }
    let common = common.unwrap_or_default();
    let divisor = Poly::from_monomial(Monomial::from_parts(Rational::from_integer(gcd), common));

    scaled
        .iter()
        .map(|p| {
            p.checked_div(&divisor)
                .map_err(|e| TpdfError::Inconsistent {
                    detail: format!("normalisation failed: {e}"),
                })
        })
        .collect()
}

/// Checks that every control-port consumption rate is 0 or 1, as required
/// by Definition 2 (`R_k(m, c, n) ∈ {0, 1}`).
///
/// # Errors
///
/// Returns [`TpdfError::Inconsistent`] naming the offending channel.
pub fn validate_control_rates(graph: &TpdfGraph) -> Result<(), TpdfError> {
    for (_, c) in graph.channels() {
        if !c.is_control() {
            continue;
        }
        for rate in c.consumption.iter() {
            match rate.as_constant() {
                Some(v) if v == Rational::ZERO || v == Rational::ONE => {}
                _ => {
                    return Err(TpdfError::Inconsistent {
                        detail: format!(
                            "control channel {} has consumption rate `{rate}`; control ports must read 0 or 1 token",
                            c.label
                        ),
                    })
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{figure2_graph, figure4a_graph, ofdm_like_chain};
    use crate::graph::TpdfGraph;
    use crate::rate::RateSeq;
    use proptest::prelude::*;

    #[test]
    fn figure2_repetition_vector_matches_example2() {
        let g = figure2_graph();
        let q = symbolic_repetition_vector(&g).unwrap();
        let expect = [
            ("A", "2"),
            ("B", "2*p"),
            ("C", "p"),
            ("D", "p"),
            ("E", "2*p"),
            ("F", "2*p"),
        ];
        for (name, value) in expect {
            assert_eq!(
                q.count_by_name(&g, name).unwrap().to_string(),
                value,
                "count of {name}"
            );
        }
        // Cycle counts: F has two phases, so r_F = p.
        let f = g.node_by_name("F").unwrap();
        assert_eq!(q.cycle_count(f).to_string(), "p");
        assert_eq!(q.phases()[f.0], 2);
    }

    #[test]
    fn figure2_concrete_counts() {
        let g = figure2_graph();
        let q = symbolic_repetition_vector(&g).unwrap();
        let binding = Binding::from_pairs([("p", 3)]);
        let counts = q.concrete(&binding).unwrap();
        // Order of declaration: A, B, C, D, E, F.
        assert_eq!(counts, vec![2, 6, 3, 3, 6, 6]);
        assert_eq!(q.total_firings(&binding).unwrap(), 26);
    }

    #[test]
    fn unbound_parameter_rejected() {
        let g = figure2_graph();
        let q = symbolic_repetition_vector(&g).unwrap();
        assert!(q.concrete(&Binding::new()).is_err());
    }

    #[test]
    fn figure4a_is_consistent() {
        let g = figure4a_graph();
        let q = symbolic_repetition_vector(&g).unwrap();
        assert_eq!(q.count_by_name(&g, "A").unwrap().to_string(), "2");
        assert_eq!(q.count_by_name(&g, "B").unwrap().to_string(), "2*p");
        assert_eq!(q.count_by_name(&g, "C").unwrap().to_string(), "2*p");
    }

    #[test]
    fn inconsistent_graph_detected() {
        let g = TpdfGraph::builder()
            .parameter("p")
            .kernel("A")
            .kernel("B")
            .channel("A", "B", RateSeq::param("p"), RateSeq::constant(1), 0)
            .channel("A", "B", RateSeq::constant(1), RateSeq::constant(1), 0)
            .build()
            .unwrap();
        assert!(matches!(
            symbolic_repetition_vector(&g),
            Err(TpdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = TpdfGraph::builder()
            .kernel("A")
            .kernel("B")
            .build()
            .unwrap();
        assert!(matches!(
            symbolic_repetition_vector(&g),
            Err(TpdfError::NotConnected)
        ));
    }

    #[test]
    fn empty_graph_detected() {
        let g = TpdfGraph::builder().kernel("A").build().unwrap();
        let q = symbolic_repetition_vector(&g).unwrap();
        assert_eq!(q.counts().len(), 1);
        assert_eq!(q.count(NodeId(0)).to_string(), "1");
    }

    #[test]
    fn parametric_factors_are_removed() {
        // Both actors fire a multiple of p times; the common factor p must
        // be removed from the repetition vector.
        let g = TpdfGraph::builder()
            .parameter("p")
            .kernel("A")
            .kernel("B")
            .channel("A", "B", RateSeq::constant(2), RateSeq::constant(1), 0)
            .build()
            .unwrap();
        let q = symbolic_repetition_vector(&g).unwrap();
        assert_eq!(q.count_by_name(&g, "A").unwrap().to_string(), "1");
        assert_eq!(q.count_by_name(&g, "B").unwrap().to_string(), "2");
    }

    #[test]
    fn ofdm_chain_is_consistent() {
        let g = ofdm_like_chain();
        let q = symbolic_repetition_vector(&g).unwrap();
        let binding = Binding::from_pairs([("beta", 2), ("N", 8), ("L", 1), ("M", 2)]);
        let counts = q.concrete(&binding).unwrap();
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn control_rate_validation() {
        let good = figure2_graph();
        assert!(validate_control_rates(&good).is_ok());
        let bad = TpdfGraph::builder()
            .control("C")
            .kernel("K")
            .control_channel("C", "K", RateSeq::constant(1), RateSeq::constant(2))
            .build()
            .unwrap();
        assert!(validate_control_rates(&bad).is_err());
    }

    #[test]
    fn node_phase_computation() {
        let g = figure2_graph();
        let phases = node_phases(&g);
        let f = g.node_by_name("F").unwrap();
        assert_eq!(phases[f.0], 2);
        let a = g.node_by_name("A").unwrap();
        assert_eq!(phases[a.0], 1);
    }

    proptest! {
        /// Random parametric producer/consumer chains are consistent and
        /// the symbolic solution matches the concrete CSDF solution for
        /// every binding of p.
        #[test]
        fn prop_matches_concrete_csdf(prod in 1u64..6, cons in 1u64..6, p in 1i64..6) {
            let g = TpdfGraph::builder()
                .parameter("p")
                .kernel("A")
                .kernel("B")
                .kernel("C")
                .channel("A", "B", RateSeq::param("p"), RateSeq::constant(cons), 0)
                .channel("B", "C", RateSeq::constant(prod), RateSeq::constant(1), 0)
                .build()
                .unwrap();
            let q = symbolic_repetition_vector(&g).unwrap();
            let binding = Binding::from_pairs([("p", p)]);
            let symbolic: Vec<u64> = q.concrete(&binding).unwrap();

            let csdf = g.to_csdf(&binding).unwrap();
            let concrete = tpdf_csdf::repetition_vector(&csdf).unwrap();
            // The symbolic solution must satisfy the same balance
            // equations; it may be an integer multiple of the minimal
            // concrete solution (when the parameter value introduces a
            // common factor that is only visible numerically).
            let ratio = symbolic[0] / concrete.counts()[0].max(1);
            prop_assert!(ratio >= 1);
            for (s, c) in symbolic.iter().zip(concrete.counts()) {
                prop_assert_eq!(*s, c * ratio);
            }
        }

        /// The symbolic balance equations hold after evaluation for any
        /// parameter value.
        #[test]
        fn prop_balance_equations_hold(p in 1i64..10) {
            let g = figure2_graph();
            let q = symbolic_repetition_vector(&g).unwrap();
            let binding = Binding::from_pairs([("p", p)]);
            let counts = q.concrete(&binding).unwrap();
            let phases = node_phases(&g);
            for (_, c) in g.channels() {
                let prod = c.production.concrete_cumulative(phases[c.source.0], &binding).unwrap();
                let cons = c.consumption.concrete_cumulative(phases[c.target.0], &binding).unwrap();
                let r_src = counts[c.source.0] / phases[c.source.0];
                let r_dst = counts[c.target.0] / phases[c.target.0];
                prop_assert_eq!(r_src * prod, r_dst * cons);
            }
        }
    }
}
