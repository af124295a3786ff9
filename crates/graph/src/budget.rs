//! Query budgets and cooperative cancellation.
//!
//! A [`QueryBudget`] bounds one search by wall-clock deadline, by a
//! cooperative work-unit budget, and/or by an external cancellation
//! token. Long-running loops across the PIS crates call
//! [`BudgetState::checkpoint`] at natural units of work (a trie level,
//! a branch-and-bound node, a DFS expansion batch); when the budget is
//! exhausted the loop unwinds cooperatively and the caller degrades its
//! result instead of erroring.
//!
//! The default budget is unlimited, and the unlimited fast path is one
//! relaxed boolean load — searches without a budget pay nothing
//! measurable (the bench harness' `budget` line measures this rather
//! than asserting it).
//!
//! Trip state is *sticky*: once any checkpoint reports exhaustion,
//! every later checkpoint of the same query reports it too, so a trip
//! observed deep in one phase unwinds every enclosing loop without
//! re-deriving the decision. The first tripping site is recorded for
//! diagnostics.

// Search hot path: panic-free outside tests (DESIGN.md §6.11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a budget checkpoint lives (and where a trip was first seen).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointSite {
    /// The flat-trie range-query descent (per frontier level).
    RangeDescent,
    /// The exact-MWIS branch-and-bound (per branch node).
    Partition,
    /// The structure-check matcher (per candidate batch).
    StructureCheck,
    /// The verification DFS (per expansion batch).
    Verify,
    /// The kNN doubling-round driver (per round).
    Knn,
}

impl CheckpointSite {
    /// Every site, in declaration order.
    pub const ALL: [CheckpointSite; 5] = [
        CheckpointSite::RangeDescent,
        CheckpointSite::Partition,
        CheckpointSite::StructureCheck,
        CheckpointSite::Verify,
        CheckpointSite::Knn,
    ];

    /// Stable name, shared with the failpoint registry.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointSite::RangeDescent => "range-descent",
            CheckpointSite::Partition => "partition",
            CheckpointSite::StructureCheck => "structure-check",
            CheckpointSite::Verify => "verify",
            CheckpointSite::Knn => "knn",
        }
    }
}

/// Per-query resource limits. The default is unlimited.
#[derive(Clone, Debug, Default)]
pub struct QueryBudget {
    /// Wall-clock limit, measured from the start of the query.
    pub time_limit: Option<Duration>,
    /// Cooperative work-unit limit (trie levels + B&B nodes + DFS
    /// expansion batches — the units [`BudgetState::checkpoint`] is
    /// fed). Deterministic, unlike the wall clock.
    pub node_limit: Option<u64>,
    /// External cancellation token: set it to `true` from any thread to
    /// stop the query at its next checkpoint.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Whether any limit or token is set.
    pub fn is_limited(&self) -> bool {
        self.time_limit.is_some() || self.node_limit.is_some() || self.cancel.is_some()
    }
}

/// Counters a truncated search reports back (see `Completeness` in
/// pis-core).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BudgetStats {
    /// Checkpoints consulted.
    pub checkpoints: u64,
    /// Work units charged.
    pub work_units: u64,
}

/// Marker error for a budget-interrupted computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query budget exhausted")
    }
}

impl std::error::Error for Interrupted {}

/// Resolved, shareable run-state of one query's budget: the deadline is
/// fixed at construction, and counters are atomics so parallel workers
/// checkpoint against the same state without locks.
#[derive(Debug)]
pub struct BudgetState {
    /// `false` for the unlimited budget: checkpoints return after one
    /// branch, and none of the fields below are ever written.
    enabled: bool,
    deadline: Option<Instant>,
    node_limit: u64,
    cancel: Option<Arc<AtomicBool>>,
    nodes: AtomicU64,
    checkpoints: AtomicU64,
    tripped: AtomicBool,
    /// `0` = not tripped; otherwise 1 + index into
    /// [`CheckpointSite::ALL`] of the first tripping site.
    trip_site: AtomicU32,
}

static UNLIMITED: BudgetState = BudgetState {
    enabled: false,
    deadline: None,
    node_limit: u64::MAX,
    cancel: None,
    nodes: AtomicU64::new(0),
    checkpoints: AtomicU64::new(0),
    tripped: AtomicBool::new(false),
    trip_site: AtomicU32::new(0),
};

impl BudgetState {
    /// Starts a query under `budget`: the wall-clock deadline (if any)
    /// begins now.
    pub fn new(budget: &QueryBudget) -> BudgetState {
        BudgetState {
            enabled: budget.is_limited() || cfg!(feature = "failpoints"),
            deadline: budget.time_limit.map(|t| Instant::now() + t),
            node_limit: budget.node_limit.unwrap_or(u64::MAX),
            cancel: budget.cancel.clone(),
            nodes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trip_site: AtomicU32::new(0),
        }
    }

    /// The shared unlimited state — the no-budget fast path. Its
    /// counters are never written (checkpoints return on the `enabled`
    /// branch), so sharing one static across queries is sound.
    pub fn unlimited() -> &'static BudgetState {
        &UNLIMITED
    }

    /// Charges `units` of work at `site` and reports whether the query
    /// may continue (`false` = budget exhausted, unwind cooperatively).
    /// Sticky: once exhausted, stays exhausted.
    #[inline]
    pub fn checkpoint(&self, site: CheckpointSite, units: u64) -> bool {
        if !self.enabled {
            return true;
        }
        self.slow_checkpoint(site, units)
    }

    #[cold]
    fn slow_checkpoint(&self, site: CheckpointSite, units: u64) -> bool {
        #[cfg(feature = "failpoints")]
        if let Some(action) = failpoints::consult(site.name()) {
            match action {
                failpoints::Action::Trip => {
                    self.trip(site);
                    return false;
                }
                #[expect(
                    clippy::panic,
                    reason = "fault-injection tier: compiled only under the test-only `failpoints` feature; panicking is the point (exercises the pool's panic containment)"
                )]
                failpoints::Action::Panic => {
                    panic!("failpoint panic at {}", site.name());
                }
            }
        }
        if self.tripped.load(Ordering::Relaxed) {
            return false;
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        let nodes = self.nodes.fetch_add(units, Ordering::Relaxed) + units;
        if nodes > self.node_limit {
            self.trip(site);
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(site);
                return false;
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                self.trip(site);
                return false;
            }
        }
        true
    }

    fn trip(&self, site: CheckpointSite) {
        self.tripped.store(true, Ordering::Relaxed);
        let token = CheckpointSite::ALL.iter().position(|&s| s == site).unwrap_or(0) as u32 + 1;
        // Keep the *first* tripping site under concurrent trips.
        let _ = self.trip_site.compare_exchange(0, token, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Whether any checkpoint has reported exhaustion.
    pub fn is_tripped(&self) -> bool {
        self.enabled && self.tripped.load(Ordering::Relaxed)
    }

    /// The first site that observed exhaustion, if any.
    pub fn trip_site(&self) -> Option<CheckpointSite> {
        match self.trip_site.load(Ordering::Relaxed) {
            0 => None,
            t => Some(CheckpointSite::ALL[(t - 1) as usize]),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BudgetStats {
        BudgetStats {
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            work_units: self.nodes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let state = BudgetState::unlimited();
        for _ in 0..10_000 {
            assert!(state.checkpoint(CheckpointSite::Verify, 1_000));
        }
        assert!(!state.is_tripped());
        assert_eq!(state.trip_site(), None);
    }

    #[test]
    fn default_budget_is_unlimited() {
        let budget = QueryBudget::default();
        assert!(!budget.is_limited());
        #[cfg(not(feature = "failpoints"))]
        {
            let state = BudgetState::new(&budget);
            assert!(state.checkpoint(CheckpointSite::Partition, u64::MAX));
            assert_eq!(state.stats(), BudgetStats::default());
        }
    }

    #[test]
    fn node_limit_trips_sticky_and_records_first_site() {
        let budget = QueryBudget { node_limit: Some(5), ..QueryBudget::default() };
        let state = BudgetState::new(&budget);
        assert!(state.checkpoint(CheckpointSite::RangeDescent, 3));
        assert!(!state.checkpoint(CheckpointSite::Partition, 3), "6 > 5 trips");
        assert!(state.is_tripped());
        assert_eq!(state.trip_site(), Some(CheckpointSite::Partition));
        assert!(
            !state.checkpoint(CheckpointSite::Verify, 0),
            "sticky: later checkpoints keep failing"
        );
        assert_eq!(state.trip_site(), Some(CheckpointSite::Partition), "first site wins");
        let stats = state.stats();
        assert_eq!(stats.checkpoints, 2, "post-trip checkpoints are not counted");
        assert_eq!(stats.work_units, 6);
    }

    #[test]
    fn cancellation_token_trips() {
        let cancel = Arc::new(AtomicBool::new(false));
        let budget = QueryBudget { cancel: Some(cancel.clone()), ..QueryBudget::default() };
        let state = BudgetState::new(&budget);
        assert!(state.checkpoint(CheckpointSite::Knn, 1));
        cancel.store(true, Ordering::Relaxed);
        assert!(!state.checkpoint(CheckpointSite::Knn, 1));
        assert_eq!(state.trip_site(), Some(CheckpointSite::Knn));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let budget =
            QueryBudget { time_limit: Some(Duration::from_nanos(1)), ..QueryBudget::default() };
        let state = BudgetState::new(&budget);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!state.checkpoint(CheckpointSite::Verify, 1));
        assert!(state.is_tripped());
    }

    #[test]
    fn site_names_are_stable() {
        for site in CheckpointSite::ALL {
            assert!(!site.name().is_empty());
        }
        assert_eq!(CheckpointSite::Verify.name(), "verify");
    }
}
