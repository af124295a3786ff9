//! Definition 5's matched term, summed in one fixed order.
//!
//! A fragment's selectivity (Definition 5, Algorithm 2 line 18) sums
//! `min(d(g, G), λσ)` over its hits `T`. A range query that keeps its
//! hits as bits ([`crate::FragmentIndex::range_query_hits`]) never holds
//! that sum's terms as a list: the trie fold learns, per emitted cost,
//! how many hits it newly covered. [`HitTally`] is the one evaluator of
//! the sum both forms use: every distinct capped cost times its
//! multiplicity, the products added in ascending cost order. A hit list
//! reaches the same order by sorting its costs first
//! ([`HitTally::of_costs`]), so the fold and the list agree to the f64
//! bit, and neither depends on the order its hits arrive in. For
//! integer-valued costs (edge-Hamming, unit matrices) every product and
//! partial sum below 2⁵³ is exact, so the value is the plain sum in any
//! order.

use crate::flat_trie::FlatTrie;

/// Definition 5's matched term over a range query's hits, fed cost
/// runs in ascending order: its hit count and `Σ min(d, cutoff)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitTally {
    /// The cap `λσ` every cost is cut off at.
    cutoff: f64,
    /// Hits counted so far, the open run's included.
    hits: usize,
    /// Sum of `cost × count` over the runs already closed.
    closed: f64,
    /// The open run: its capped cost and how many hits share it.
    cost: f64,
    run: usize,
}

impl HitTally {
    /// An empty tally capping costs at `cutoff`.
    pub fn new(cutoff: f64) -> Self {
        HitTally { cutoff, hits: 0, closed: 0.0, cost: 0.0, run: 0 }
    }

    /// The tally of `costs` in any order: sorted in place, then added
    /// one hit at a time.
    pub fn of_costs(cutoff: f64, costs: &mut [f64]) -> Self {
        costs.sort_unstable_by(|&a, &b| FlatTrie::fold_order(a, b));
        let mut tally = HitTally::new(cutoff);
        for &d in costs.iter() {
            tally.add(d, 1);
        }
        tally
    }

    /// Counts `count` hits at distance `cost`. Costs must arrive in
    /// non-decreasing [`FlatTrie::fold_order`]; a cost equal in value to
    /// the open run's (`-0.0` ties `+0.0`) joins it.
    pub fn add(&mut self, cost: f64, count: usize) {
        if count == 0 {
            return;
        }
        let capped = cost.min(self.cutoff);
        if self.run > 0 && FlatTrie::fold_order(capped, self.cost).is_ne() {
            debug_assert!(FlatTrie::fold_order(self.cost, capped).is_lt(), "costs must ascend");
            self.closed += self.cost * self.run as f64;
            self.run = 0;
        }
        if self.run == 0 {
            self.cost = capped;
        }
        self.run += count;
        self.hits += count;
    }

    /// The cap `λσ`.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Hits counted, `|T|`.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// `Σ_{G ∈ T} min(d(g, G), λσ)`, each distinct capped cost times its
    /// multiplicity, added in ascending cost order.
    pub fn matched(&self) -> f64 {
        self.closed + self.cost * self.run as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_equal_costs_sum_as_products() {
        let mut t = HitTally::new(2.0);
        for (cost, count) in [(0.0, 3), (-0.0, 1), (0.5, 2), (0.5, 0), (1.0, 4), (3.0, 2)] {
            t.add(cost, count);
        }
        assert_eq!(t.hits(), 12);
        // 0·4 + 0.5·2 + 1·4 + 2·2 (3.0 capped at 2).
        assert_eq!(t.matched(), 9.0);
        assert_eq!(HitTally::new(1.0).matched().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn the_order_of_a_list_does_not_matter() {
        // Sums that a left-to-right fold rounds differently per order.
        let mut costs = [0.1, 0.7, 0.1, 0.3, 0.7, 0.2, 0.1, 0.3];
        let sorted = HitTally::of_costs(1.0, &mut costs.clone());
        costs.reverse();
        let reversed = HitTally::of_costs(1.0, &mut costs);
        assert_eq!(sorted.matched().to_bits(), reversed.matched().to_bits());
        let mut by_runs = HitTally::new(1.0);
        for (cost, count) in [(0.1, 3), (0.2, 1), (0.3, 2), (0.7, 2)] {
            by_runs.add(cost, count);
        }
        assert_eq!(by_runs, sorted);
    }
}
