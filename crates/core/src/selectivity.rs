//! Fragment selectivity (Definition 5 and Algorithm 2, line 18).
//!
//! The selectivity of a fragment is its average minimum superimposed
//! distance to the database, with the singular `d(g, G) = ∞` cases
//! (structure absent, or distance beyond the range-query horizon) cut
//! off at `λσ`:
//!
//! `w(g) = Σ_{G ∈ T} min(d(g, G), λσ)/n + (n − |T|)/n · λσ`
//!
//! At `λ = 1` this is exactly line 18 of Algorithm 2. Figure 11 sweeps
//! `λ` and finds performance insensitive above 1 and degraded below —
//! the figures binary reproduces that as Figure 11 (`DESIGN.md` §5).
//!
//! **Evaluation order.** The matched sum `Σ min(d, λσ)` is taken as
//! each distinct capped distance times its multiplicity, the products
//! added in ascending distance order ([`HitTally`]); then the missing
//! graphs' term is added and the total divided by `n`. The search never
//! holds a probe's distances as a list: its range queries fold their
//! hits into bits and learn, per emitted cost, how many hits are new
//! (`FragmentIndex::range_query_hits`), which is exactly that
//! run-length form. [`selectivity`] over a hit list sorts its
//! distances into the same runs, so the weight of a list and the
//! funnel's weight of the same hits are equal to the f64 bit, whatever
//! order the list is in. With integer-valued distances (edge-Hamming,
//! every count the benchmark and `pruning_fingerprint` pin) every
//! product and partial sum is exact and the value is the plain sum.

use pis_graph::GraphId;
use pis_index::HitTally;

/// Computes `w(g)` from a fragment's range-query hits, in any order.
///
/// * `hits` — `(graph, d(g, G))` pairs with `d ≤ σ` (range-query
///   output);
/// * `database_size` — `n`;
/// * `sigma` — the query threshold `σ`;
/// * `lambda` — the cutoff multiplier.
pub fn selectivity(hits: &[(GraphId, f64)], database_size: usize, sigma: f64, lambda: f64) -> f64 {
    let mut distances: Vec<f64> = hits.iter().map(|&(_, d)| d).collect();
    selectivity_of(&HitTally::of_costs(lambda * sigma, &mut distances), database_size)
}

/// Definition 5 over a probe's tallied hits, capped at the tally's
/// cutoff `λσ`: the funnel's weight of a range query
/// (`FragmentIndex::range_query_hits`), and [`selectivity`]'s.
pub fn selectivity_of(tally: &HitTally, database_size: usize) -> f64 {
    let hits = tally.hits();
    assert!(database_size >= hits, "more hits than database graphs");
    if database_size == 0 {
        return 0.0;
    }
    let missing = (database_size - hits) as f64 * tally.cutoff();
    (tally.matched() + missing) / database_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(ds: &[f64]) -> Vec<(GraphId, f64)> {
        ds.iter().enumerate().map(|(i, &d)| (GraphId(i as u32), d)).collect()
    }

    #[test]
    fn matches_line_18_at_lambda_one() {
        // n = 4, two hits at distance 1 and 2, sigma = 3.
        let w = selectivity(&hits(&[1.0, 2.0]), 4, 3.0, 1.0);
        assert!((w - (1.0 + 2.0 + 2.0 * 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_containment_everywhere_gives_zero() {
        // Fragment contained exactly (d = 0) in every graph: no pruning
        // power, w = 0 (Example 4's single-edge case).
        let w = selectivity(&hits(&[0.0, 0.0, 0.0]), 3, 2.0, 1.0);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn absent_fragment_maximizes_selectivity() {
        let w = selectivity(&[], 10, 2.0, 1.0);
        assert_eq!(w, 2.0);
        // Lambda scales the ceiling.
        assert_eq!(selectivity(&[], 10, 2.0, 2.0), 4.0);
    }

    #[test]
    fn small_lambda_caps_matched_distances() {
        // sigma = 4, lambda = 0.5 -> cutoff 2: a hit at distance 3 only
        // contributes 2.
        let w = selectivity(&hits(&[3.0]), 1, 4.0, 0.5);
        assert_eq!(w, 2.0);
    }

    #[test]
    fn lambda_above_one_changes_only_the_missing_term() {
        let h = hits(&[1.0, 2.0]);
        let w1 = selectivity(&h, 4, 3.0, 1.0);
        let w2 = selectivity(&h, 4, 3.0, 2.0);
        assert!(w2 > w1);
        // Matched contributions unchanged (1+2), missing doubled.
        assert!((w2 - (3.0 + 2.0 * 6.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database() {
        assert_eq!(selectivity(&[], 0, 2.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "more hits")]
    fn hit_count_bounded_by_database() {
        let _ = selectivity(&hits(&[0.0, 0.0]), 1, 1.0, 1.0);
    }
}
