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

use pis_graph::{GraphBitSet, GraphId};
use pis_index::row_hits;

/// Computes `w(g)` from a fragment's range-query hits.
///
/// * `hits` — `(graph, d(g, G))` pairs with `d ≤ σ` (range-query
///   output);
/// * `database_size` — `n`;
/// * `sigma` — the query threshold `σ`;
/// * `lambda` — the cutoff multiplier.
pub fn selectivity(hits: &[(GraphId, f64)], database_size: usize, sigma: f64, lambda: f64) -> f64 {
    selectivity_of(hits.iter().map(|&(_, d)| d), database_size, sigma, lambda)
}

/// The funnel's one pass over a completed probe's minima row
/// (`pis_index::FragmentIndex::range_query_row`; `graphs` is the
/// row's class): returns `w(g)` and leaves the hit set `T` in `mask`
/// (re-sized to the database first), Algorithm 2's lines 17 and 18 read
/// off the same cells. The weight is [`selectivity`] of the row's
/// [`row_hits`] — the same additions in the same order, because it is
/// the same sum.
pub fn read_out_row(
    graphs: &[GraphId],
    row: &[f64],
    database_size: usize,
    sigma: f64,
    lambda: f64,
    mask: &mut GraphBitSet,
) -> f64 {
    mask.reset(database_size);
    let marked = row_hits(graphs, row).map(|(g, d)| {
        mask.insert(g);
        d
    });
    selectivity_of(marked, database_size, sigma, lambda)
}

/// Definition 5 over the hit distances, summed in the order given.
fn selectivity_of(
    distances: impl Iterator<Item = f64>,
    database_size: usize,
    sigma: f64,
    lambda: f64,
) -> f64 {
    let cutoff = lambda * sigma;
    let mut hits = 0usize;
    let matched: f64 = distances
        .map(|d| {
            hits += 1;
            d.min(cutoff)
        })
        .sum();
    assert!(database_size >= hits, "more hits than database graphs");
    if database_size == 0 {
        return 0.0;
    }
    let missing = (database_size - hits) as f64 * cutoff;
    (matched + missing) / database_size as f64
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
    fn row_read_out_is_selectivity_of_the_rows_hits() {
        // Five graphs, a class of four of them, two cells without a hit.
        let graphs = [GraphId(0), GraphId(2), GraphId(3), GraphId(4)];
        let row = [0.25, f64::INFINITY, 0.1, 0.7];
        let mut mask = GraphBitSet::new(0);
        let w = read_out_row(&graphs, &row, 5, 0.75, 1.0, &mut mask);
        let list: Vec<(GraphId, f64)> = row_hits(&graphs, &row).collect();
        assert_eq!(list, vec![(GraphId(0), 0.25), (GraphId(3), 0.1), (GraphId(4), 0.7)]);
        assert_eq!(w.to_bits(), selectivity(&list, 5, 0.75, 1.0).to_bits());
        assert_eq!(mask.universe(), 5);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![GraphId(0), GraphId(3), GraphId(4)]);
    }

    #[test]
    #[should_panic(expected = "more hits")]
    fn hit_count_bounded_by_database() {
        let _ = selectivity(&hits(&[0.0, 0.0]), 1, 1.0, 1.0);
    }
}
