//! # PIS — Partition-based Graph Index and Search
//!
//! A full Rust implementation of *"Searching Substructures with
//! Superimposed Distance"* (Yan, Zhu, Han, Yu — ICDE 2006): similarity
//! search over graph databases where the query must appear as a
//! subgraph **and** the labels/weights superimposed on that occurrence
//! must stay within a distance budget `σ`.
//!
//! This facade re-exports the workspace crates and offers a one-stop
//! [`PisSystem`] for common use:
//!
//! ```
//! use pis::prelude::*;
//!
//! // A toy database of labeled rings.
//! let db: Vec<LabeledGraph> = (0..4u32)
//!     .map(|i| {
//!         let mut b = GraphBuilder::new();
//!         let vs = b.add_vertices(6, VertexAttr::labeled(Label(0)));
//!         for k in 0..6 {
//!             let label = Label(if k == 0 { i } else { 1 });
//!             b.add_edge(vs[k], vs[(k + 1) % 6], EdgeAttr::labeled(label)).unwrap();
//!         }
//!         b.build()
//!     })
//!     .collect();
//!
//! let system = PisSystem::builder().exhaustive_features(3).build(db);
//! let query = system.database()[1].clone();
//! let hits = system.search(&query, 1.0);
//! assert!(hits.answers.len() >= 2); // rings within one edge mutation
//! ```
//!
//! ## Crate map
//!
//! | Crate | Paper section | Contents |
//! |-------|---------------|----------|
//! | [`graph`] | §2 | labeled graphs, subgraph matching, DFS codes, enumeration |
//! | [`distance`] | §2 | mutation & linear distances, brute oracle |
//! | [`mining`] | §4 | gSpan, gIndex, GraphGrep path features |
//! | [`index`] | §4 | fragment index: a label trie per class (a posting list under LD) |
//! | [`partition`] | §5 | overlapping-relation graph, MWIS solvers |
//! | [`core`] | §3–6 | Algorithm 2, verification, baselines |
//! | [`datasets`] | §7 | synthetic chemical generator, SDF, queries |

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod durable;

pub use durable::{check_store, DurableSystem, RecoveryReport, StoreCheckReport};
pub use pis_core as core;
pub use pis_datasets as datasets;
pub use pis_distance as distance;
pub use pis_graph as graph;
pub use pis_index as index;
pub use pis_mining as mining;
pub use pis_partition as partition;

use std::cell::RefCell;

use pis_core::{BaselineOutcome, KnnOutcome, PisConfig, PisSearcher, SearchOutcome, SearchScratch};
use pis_distance::{LinearDistance, MutationDistance};
use pis_graph::{GraphId, LabeledGraph};
use pis_index::{FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::{FeatureSet, GindexConfig, MineStats};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::{DurableSystem, FeatureSource, PisSystem, PisSystemBuilder, RecoveryReport};
    pub use pis_core::{
        BudgetStats, Completeness, KnnOutcome, Neighbor, PartitionAlgo, PisConfig, QueryBudget,
        QueryError, SearchOutcome, SearchScratch, SearchStats, TruncationPhase, VerifyScratch,
        VerifyStats,
    };
    pub use pis_datasets::{DatasetStats, MoleculeConfig, MoleculeGenerator};
    pub use pis_distance::{LinearDistance, MutationDistance, ScoreMatrix, SuperimposedDistance};
    pub use pis_graph::{
        EdgeAttr, EdgeId, GraphBuilder, GraphId, Label, LabeledGraph, VertexAttr, VertexId,
    };
    pub use pis_index::IndexDistance;
    pub use pis_mining::GindexConfig;
}

/// How index features are selected (Section 4, step 1).
#[derive(Clone, Debug)]
pub enum FeatureSource {
    /// Discriminative frequent structures (gIndex, the paper's default).
    GIndex(GindexConfig),
    /// Path structures up to the given length (GraphGrep).
    Paths(usize),
    /// Every structure up to the given edge count (exact; small
    /// databases only).
    Exhaustive(usize),
}

impl Default for FeatureSource {
    fn default() -> Self {
        FeatureSource::GIndex(GindexConfig::default())
    }
}

impl FeatureSource {
    /// Selects the features of `database`, with the miner's work
    /// counters when the source mines them (gIndex's gSpan run).
    ///
    /// gIndex mines a strided sample of at most
    /// [`pis_mining::gindex::MINING_SAMPLE`] graphs and label-erases only
    /// that sample; its counters are the sample's. Paths and exhaustive
    /// selection read a label-erased copy of the whole database, which
    /// lives for the selection only: it is gone before an index build's
    /// own peak.
    pub fn select(&self, database: &[LabeledGraph]) -> (FeatureSet, Option<MineStats>) {
        let erased = || database.iter().map(LabeledGraph::erase_labels).collect::<Vec<_>>();
        match self {
            FeatureSource::GIndex(cfg) => {
                let (features, stats) = pis_mining::select_features_with_stats(database, cfg);
                (features, Some(stats))
            }
            FeatureSource::Paths(len) => (pis_mining::paths::path_features(&erased(), *len), None),
            FeatureSource::Exhaustive(max) => {
                (pis_mining::exhaustive::exhaustive_features(&erased(), *max), None)
            }
        }
    }
}

/// Builder for [`PisSystem`].
#[derive(Clone, Debug, Default)]
pub struct PisSystemBuilder {
    distance: Option<IndexDistance>,
    features: FeatureSource,
    index_config: IndexConfig,
    search_config: PisConfig,
}

impl PisSystemBuilder {
    /// A builder with the paper's defaults: edge-Hamming mutation
    /// distance (a trie per class), gIndex features, greedy partition.
    pub fn new() -> Self {
        PisSystemBuilder::default()
    }

    /// Use a mutation distance (categorical labels).
    pub fn mutation_distance(mut self, md: MutationDistance) -> Self {
        self.distance = Some(IndexDistance::Mutation(md));
        self
    }

    /// Use a linear distance (numeric weights).
    pub fn linear_distance(mut self, ld: LinearDistance) -> Self {
        self.distance = Some(IndexDistance::Linear(ld));
        self
    }

    /// Select features with gIndex (discriminative frequent structures).
    pub fn gindex_features(mut self, config: GindexConfig) -> Self {
        self.features = FeatureSource::GIndex(config);
        self
    }

    /// Select GraphGrep path features up to `max_len` edges.
    pub fn path_features(mut self, max_len: usize) -> Self {
        self.features = FeatureSource::Paths(max_len);
        self
    }

    /// Index every structure up to `max_edges` edges (small databases).
    pub fn exhaustive_features(mut self, max_edges: usize) -> Self {
        self.features = FeatureSource::Exhaustive(max_edges);
        self
    }

    /// Override search-time configuration (λ, ε, partition algorithm).
    pub fn search_config(mut self, config: PisConfig) -> Self {
        self.search_config = config;
        self
    }

    /// Override index build options.
    pub fn index_config(mut self, config: IndexConfig) -> Self {
        self.index_config = config;
        self
    }

    /// Mines features, builds the fragment index and assembles the
    /// system.
    pub fn build(self, database: Vec<LabeledGraph>) -> PisSystem {
        let distance = self
            .distance
            .unwrap_or_else(|| IndexDistance::Mutation(MutationDistance::edge_hamming()));
        let (features, _) = self.features.select(&database);
        let index = FragmentIndex::build(&database, features, distance, &self.index_config);
        PisSystem { database, index, config: self.search_config }
    }
}

thread_local! {
    /// The funnel scratch [`PisSystem`]'s query entries run through: one
    /// per calling thread, kept warm across queries (DESIGN.md §6.2).
    static THREAD_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Runs `f` on the calling thread's [`SearchScratch`], or on a fresh one
/// if that is already in use further up the stack.
fn with_thread_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SearchScratch::new()),
    })
}

/// An assembled PIS deployment: the database, its fragment index and a
/// search configuration.
pub struct PisSystem {
    pub(crate) database: Vec<LabeledGraph>,
    pub(crate) index: FragmentIndex,
    pub(crate) config: PisConfig,
}

impl PisSystem {
    /// Starts a builder.
    pub fn builder() -> PisSystemBuilder {
        PisSystemBuilder::new()
    }

    /// The indexed database.
    pub fn database(&self) -> &[LabeledGraph] {
        &self.database
    }

    /// The underlying fragment index.
    pub fn index(&self) -> &FragmentIndex {
        &self.index
    }

    /// The search configuration.
    pub fn config(&self) -> &PisConfig {
        &self.config
    }

    /// A searcher bound to this system's index, database and
    /// configuration — the typed query path. Hold one (plus a
    /// [`SearchScratch`]) to run many queries
    /// without re-allocating the funnel's internal state, and to get
    /// invalid input back as a [`QueryError`](pis_core::QueryError).
    pub fn searcher(&self) -> PisSearcher<'_> {
        PisSearcher::new(&self.index, &self.database, self.config.clone())
    }

    /// Answers an SSSD query: all graphs within superimposed distance
    /// `sigma` of `query` (Definition 2), via Algorithm 2 plus
    /// verification.
    ///
    /// # Panics
    /// Panics with the [`QueryError`](pis_core::QueryError) message if
    /// `sigma` is not finite and non-negative or the query carries a
    /// non-finite weight; [`PisSystem::searcher`] returns the error
    /// instead.
    pub fn search(&self, query: &LabeledGraph, sigma: f64) -> SearchOutcome {
        self.search_with(query, sigma, self.config.clone())
    }

    /// Runs the search with an overridden configuration. A per-call
    /// budget is `search_with(q, sigma, PisConfig { budget,
    /// ..system.config().clone() })`.
    ///
    /// # Panics
    /// On the same input as [`PisSystem::search`].
    pub fn search_with(
        &self,
        query: &LabeledGraph,
        sigma: f64,
        config: PisConfig,
    ) -> SearchOutcome {
        with_thread_scratch(|scratch| {
            PisSearcher::new(&self.index, &self.database, config).search(query, sigma, scratch)
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finds the `k` structurally matching graphs nearest to `query`
    /// (top-k form of SSSD, via progressive radius widening).
    ///
    /// # Panics
    /// Panics with the [`QueryError`](pis_core::QueryError) message if
    /// the query carries a non-finite weight; [`PisSystem::searcher`]
    /// returns the error instead.
    pub fn knn(&self, query: &LabeledGraph, k: usize) -> KnnOutcome {
        with_thread_scratch(|scratch| self.searcher().knn(query, k, scratch))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The structure-only baseline (Section 2).
    pub fn topo_prune(&self, query: &LabeledGraph, sigma: f64) -> BaselineOutcome {
        pis_core::topo_prune(&self.index, &self.database, query, sigma)
    }

    /// The full-scan baseline.
    pub fn naive_scan(&self, query: &LabeledGraph, sigma: f64) -> BaselineOutcome {
        pis_core::naive_scan(&self.database, query, self.index.distance().as_dyn(), sigma)
    }

    /// Fetches a graph by id.
    pub fn graph(&self, id: GraphId) -> &LabeledGraph {
        &self.database[id.index()]
    }

    /// Adds a graph to the live system (database + index), returning its
    /// id. The feature set is fixed at build time — mined features keep
    /// indexing new arrivals, which preserves correctness (features only
    /// ever *filter*); re-mine and rebuild periodically if the data
    /// distribution drifts.
    ///
    /// The graph's entries land in each class's pending structure, which
    /// answers exactly as the merged class would and merges itself once
    /// it is full ([`FragmentIndex::insert_graph_pending`]).
    pub fn insert_graph(&mut self, graph: LabeledGraph) -> GraphId {
        let gid = self.index.insert_graph_pending(&graph);
        self.database.push(graph);
        debug_assert_eq!(self.database.len(), self.index.graph_count());
        gid
    }

    /// Merges every class's pending structure into its frozen one.
    pub fn compact(&mut self) {
        self.index.compact();
    }

    /// Assembles a system from a database and an index built over it.
    /// To persist one and get it back, use [`DurableSystem::create`] and
    /// [`DurableSystem::open`].
    pub fn from_parts(
        database: Vec<LabeledGraph>,
        index: FragmentIndex,
        config: PisConfig,
    ) -> std::io::Result<PisSystem> {
        if database.len() != index.graph_count() {
            return Err(std::io::Error::other(format!(
                "database holds {} graphs but the index was built over {}",
                database.len(),
                index.graph_count()
            )));
        }
        Ok(PisSystem { database, index, config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pis_graph::{EdgeAttr, GraphBuilder, Label, VertexAttr};

    fn tiny_db() -> Vec<LabeledGraph> {
        (0..3u32)
            .map(|i| {
                let mut b = GraphBuilder::new();
                let vs = b.add_vertices(4, VertexAttr::labeled(Label(0)));
                for k in 0..4 {
                    let label = Label(if k == 0 { i } else { 0 });
                    b.add_edge(vs[k], vs[(k + 1) % 4], EdgeAttr::labeled(label)).unwrap();
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn builder_defaults_are_the_papers() {
        let system = PisSystem::builder().exhaustive_features(3).build(tiny_db());
        assert!(system.index().distance().is_mutation());
        assert_eq!(system.database().len(), 3);
        assert_eq!(system.config().lambda, 1.0);
    }

    #[test]
    fn graph_accessor_round_trips() {
        let db = tiny_db();
        let system = PisSystem::builder().exhaustive_features(2).build(db.clone());
        for (i, g) in db.iter().enumerate() {
            assert_eq!(system.graph(GraphId(i as u32)), g);
        }
    }

    #[test]
    fn facade_budgeted_and_validated_entry_points() {
        let db = tiny_db();
        let system = PisSystem::builder().exhaustive_features(3).build(db.clone());
        let q = db[0].clone();

        // The typed path rejects bad sigma; a valid call matches `search`.
        let searcher = system.searcher();
        let mut scratch = pis_core::SearchScratch::new();
        assert!(matches!(
            searcher.search(&q, f64::NAN, &mut scratch),
            Err(pis_core::QueryError::InvalidSigma(_))
        ));
        let exact = system.search(&q, 1.0);
        let tried = searcher.search(&q, 1.0, &mut scratch).expect("valid query");
        assert_eq!(tried.answers, exact.answers);
        assert!(tried.completeness.is_exact());

        // A per-call budget is a config override: an exhausted one
        // truncates soundly (answers ⊆ exact).
        let starved = PisConfig {
            budget: pis_core::QueryBudget { node_limit: Some(1), ..Default::default() },
            ..system.config().clone()
        };
        let truncated = system.search_with(&q, 1.0, starved.clone());
        assert!(!truncated.completeness.is_exact());
        assert!(truncated.answers.iter().all(|g| exact.answers.contains(g)));

        // kNN mirrors the same pair.
        let knn = system.knn(&q, 2);
        let tried = searcher.knn(&q, 2, &mut scratch).expect("valid query");
        assert_eq!(tried.neighbors, knn.neighbors);
        let truncated = PisSearcher::new(system.index(), system.database(), starved)
            .knn(&q, 2, &mut scratch)
            .expect("valid query");
        assert!(truncated.certified_radius <= knn.radius);
    }

    #[test]
    fn facade_queries_reuse_or_replace_the_thread_scratch() {
        // Back-to-back queries share the thread's scratch; a query made
        // while it is held (re-entrantly) runs on a fresh one. Either
        // way the answers are a fresh scratch's.
        let db = tiny_db();
        let system = PisSystem::builder().exhaustive_features(3).build(db.clone());
        let fresh = |q: &LabeledGraph| {
            system.searcher().search(q, 1.0, &mut SearchScratch::new()).expect("valid query")
        };
        for q in &db {
            assert_eq!(system.search(q, 1.0).answers, fresh(q).answers);
            let nested = with_thread_scratch(|_held| system.search(q, 1.0));
            assert_eq!(nested.answers, fresh(q).answers);
            assert_eq!(
                system.knn(q, 2).neighbors,
                with_thread_scratch(|_| system.knn(q, 2)).neighbors
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn search_panics_on_invalid_sigma() {
        let db = tiny_db();
        let system = PisSystem::builder().exhaustive_features(3).build(db.clone());
        let _ = system.search(&db[0], f64::NAN);
    }

    #[test]
    fn feature_sources_build_nonempty_indexes() {
        for source in [
            FeatureSource::Exhaustive(2),
            FeatureSource::Paths(2),
            FeatureSource::GIndex(GindexConfig {
                max_edges: 2,
                min_support_fraction: 0.3,
                ..GindexConfig::default()
            }),
        ] {
            let mut builder = PisSystem::builder();
            builder.features = source;
            let system = builder.build(tiny_db());
            assert!(!system.index().features().is_empty());
        }
    }
}
