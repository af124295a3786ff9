//! The traced run: spans recorded from outside the program, around
//! calls into each layer's public functions.
//!
//! The program has no spans of its own yet, so a layer's time is
//! measured by *replaying* its calls the way `PisSearcher::search_into`
//! issues them: one parent span runs the real `PisSystem::search`, and
//! sibling replays run the prune-only funnel, fragment enumeration, the
//! range descents (with the searcher's sibling grouping), selectivity,
//! the partition, the structure check and verification. Replay spans
//! carry their *logical* parent, and a parent's self time is its
//! duration minus its children's. Replays are serial busy time; where
//! the searcher fans work out across its pool the children can sum to
//! more than the parent. Every replay's outputs are compared with the
//! real search's, so a replay that drifts from the program's order of
//! work fails the run instead of mis-attributing time.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use pis::core::selectivity::selectivity;
use pis::index::{
    decode_snapshot, encode_snapshot, load_snapshot, write_snapshot, FragmentBuffer,
    FragmentVectorRef, RangeScratch, Wal,
};
use pis::partition::{greedy_mwis_with, OverlapGraph, PartitionScratch};
use pis::prelude::*;

use crate::harness::{mean, mutation_distance, time_ms, Check};
use crate::json::Json;
use crate::spec::{PENALTY_QUERIES, PROBE_WAL_TAIL};

/// One recorded interval. `parent` is the span that (logically) caused
/// it; spans of one query share `query`.
pub(crate) struct Span {
    parent: Option<u32>,
    name: &'static str,
    query: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; its id is its position in the span list.
    pub(crate) fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: Option<u32>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span { parent, name, query, start_ns: 0, end_ns: 0 });
        // Clock read last, so the bookkeeping above stays outside.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    pub(crate) fn end(&mut self, id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub(crate) fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, query);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub(crate) fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub(crate) fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// `[id, parent, name, query, start_ns, end_ns]` rows.
    pub(crate) fn to_json(&self) -> Json {
        let opt = |v: Option<u32>| v.map_or(Json::Null, |x| Json::Num(f64::from(x)));
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Arr(vec![
                        Json::Num(id as f64),
                        opt(s.parent),
                        Json::str(s.name),
                        opt(s.query),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                    ])
                })
                .collect(),
        )
    }
}

/// Work counts summed over the traced queries (they repeat exactly for
/// a seed).
#[derive(Default)]
pub(crate) struct FunnelCounts {
    pub(crate) traced: u64,
    pub(crate) topo: u64,
    pub(crate) fragments: u64,
    pub(crate) unique_probes: u64,
    pub(crate) range_hits: u64,
    pub(crate) pool_size: u64,
    pub(crate) partition_size: u64,
    pub(crate) cand_after_intersection: u64,
    pub(crate) cand_after_partition: u64,
    pub(crate) structure_calls: u64,
    pub(crate) structure_kept: u64,
    pub(crate) verify_calls: u64,
    pub(crate) answers: u64,
    /// Database graphs summed over the traced queries (the base of
    /// `core.candidate_share`; the database grows on `ingest_2k`).
    pub(crate) graphs_seen: u64,
}

/// Buffers the replays reuse across queries, like the searcher's own
/// `SearchScratch` does.
#[derive(Default)]
struct FunnelScratch {
    fragments: FragmentBuffer,
    range: RangeScratch,
    memo: HashMap<Vec<u64>, usize>,
    /// Fragment index that first produced each unique probe.
    unique: Vec<usize>,
    /// Unique-probe slot of each fragment.
    slot_of: Vec<usize>,
    hits: Vec<Vec<(GraphId, f64)>>,
    weights: Vec<f64>,
    pool: Vec<usize>,
    overlap: OverlapGraph,
    partition: PartitionScratch,
    selection: Vec<usize>,
    verify: VerifyScratch,
}

/// Everything a traced run accumulates.
pub(crate) struct TraceCtx {
    pub(crate) tracer: Tracer,
    pub(crate) counts: FunnelCounts,
    /// Summed untraced latency of the traced queries (the same call, no
    /// span).
    pub(crate) plain_ms: f64,
    /// The share of it spent on the queries `topo_prune` also ran on.
    pub(crate) plain_topo_ms: f64,
    scratch: FunnelScratch,
}

impl TraceCtx {
    pub(crate) fn new() -> TraceCtx {
        TraceCtx {
            tracer: Tracer::new(),
            counts: FunnelCounts::default(),
            plain_ms: 0.0,
            plain_topo_ms: 0.0,
            scratch: FunnelScratch::default(),
        }
    }
}

/// What a traced search hands back to the pass.
pub(crate) struct TracedSearch {
    pub(crate) outcome: SearchOutcome,
    pub(crate) plain_ms: f64,
    /// `naive_scan`'s answers on the same database state.
    pub(crate) oracle: Vec<GraphId>,
}

/// Runs one query untraced, then traced with every layer replayed.
pub(crate) fn trace_search(
    ctx: &mut TraceCtx,
    system: &PisSystem,
    query: &LabeledGraph,
    qi: usize,
    sigma: f64,
    with_topo: bool,
    check: &mut Check,
) -> TracedSearch {
    let TraceCtx { tracer: tr, counts, scratch: sc, plain_ms: plain_total, plain_topo_ms } = ctx;
    let q = Some(qi as u32);
    let index = system.index();
    let db = system.database();
    let config = system.config();
    let prune_config = PisConfig { verify: false, structure_check: false, ..config.clone() };

    // The same call with and without a span around it. Whichever runs
    // second finds the query's data in cache, so the order alternates.
    let plain = (counts.traced % 2 == 0).then(|| time_ms(|| system.search(query, sigma)));
    let root = tr.begin("query", None, q);
    let search = tr.begin("core.search", Some(root), q);
    let outcome = system.search(query, sigma);
    tr.end(search);
    let (plain, plain_ms) = plain.unwrap_or_else(|| time_ms(|| system.search(query, sigma)));

    let prune = tr.begin("core.prune", Some(search), q);
    let pruned = system.search_with(query, sigma, prune_config);
    tr.end(prune);

    tr.span("index.enumerate", Some(prune), q, || {
        index.enumerate_query_fragments_into(query, &mut sc.fragments);
    });
    let fragments = &sc.fragments;

    // Probe dedup by `(feature, vector)`, first occurrence wins — the
    // searcher's `assign_slot`. Its cost stays in `core.prune_self_ms`.
    sc.memo.clear();
    sc.unique.clear();
    sc.slot_of.clear();
    for fi in 0..fragments.len() {
        let mut key = vec![u64::from(fragments.feature(fi).0)];
        match fragments.vector(fi) {
            FragmentVectorRef::Labels(v) => key.extend(v.iter().map(|l| u64::from(l.0))),
            FragmentVectorRef::Weights(v) => key.extend(v.iter().map(|w| w.to_bits())),
        }
        let next = sc.unique.len();
        let slot = *sc.memo.entry(key).or_insert(next);
        if slot == next {
            sc.unique.push(fi);
        }
        sc.slot_of.push(slot);
    }
    let unique = &sc.unique;
    if sc.hits.len() < unique.len() {
        sc.hits.resize_with(unique.len(), Vec::new);
    }

    // Consecutive unique probes of one feature descend as a batch, lone
    // probes take the scalar descent (`for_each_sibling_group`).
    let range_span = tr.begin("index.range", Some(prune), q);
    let mut s = 0;
    while s < unique.len() {
        let feature = fragments.feature(unique[s]);
        let mut e = s + 1;
        while e < unique.len() && fragments.feature(unique[e]) == feature {
            e += 1;
        }
        if e - s == 1 {
            index.range_query_normalized_into(
                feature,
                fragments.vector(unique[s]),
                sigma,
                &mut sc.range,
                &mut sc.hits[s],
            );
        } else {
            index.range_query_batch_normalized_into(
                feature,
                e - s,
                |i| fragments.vector(unique[s + i]),
                sigma,
                &mut sc.range,
                &mut sc.hits[s..e],
            );
        }
        s = e;
    }
    tr.end(range_span);
    let hits = &sc.hits[..unique.len()];

    tr.span("core.selectivity", Some(prune), q, || {
        sc.weights.clear();
        sc.weights.extend(hits.iter().map(|h| selectivity(h, db.len(), sigma, config.lambda)));
    });

    sc.pool.clear();
    sc.pool.extend((0..fragments.len()).filter(|&fi| sc.weights[sc.slot_of[fi]] > config.epsilon));
    tr.span("partition.mwis", Some(prune), q, || {
        sc.overlap.rebuild_from_sets(
            &mut sc.partition,
            sc.pool.iter().map(|&fi| (sc.weights[sc.slot_of[fi]], fragments.vertices(fi))),
        );
        greedy_mwis_with(&sc.overlap, &mut sc.partition, &mut sc.selection);
    });

    let survivors: Vec<GraphId> = tr.span("core.structure", Some(search), q, || {
        sc.verify.begin_query(query);
        let keep = |g: &&GraphId| sc.verify.contains_structure(query, &db[g.index()]);
        pruned.candidates.iter().filter(keep).copied().collect()
    });

    let distance = mutation_distance(system);
    let answers: Vec<GraphId> = tr.span("core.verify", Some(search), q, || {
        sc.verify.begin_query(query);
        let within = |g: &&GraphId| {
            sc.verify.distance_within(query, &db[g.index()], distance, sigma).is_some()
        };
        survivors.iter().filter(within).copied().collect()
    });

    let oracle = tr.span("baseline.naive", Some(root), q, || system.naive_scan(query, sigma));
    if with_topo {
        let topo = tr.span("baseline.topo", Some(root), q, || system.topo_prune(query, sigma));
        check.that(topo.answers == oracle.answers, || {
            format!("query {qi}: topo_prune disagrees with naive_scan")
        });
        counts.topo += 1;
        *plain_topo_ms += plain_ms;
    }
    tr.end(root);

    // A replay that no longer does the program's work must not be
    // trusted with its time.
    let stats = &outcome.stats;
    let drift = [
        ("answers", answers == outcome.answers && plain.answers == outcome.answers),
        ("fragments", fragments.len() == stats.query_fragments),
        ("pool", sc.pool.len() == stats.fragments_in_pool),
        ("partition", sc.selection.len() == stats.partition_size),
        ("prune candidates", pruned.candidates.len() == stats.candidates_after_partition),
        ("structure survivors", survivors.len() == stats.candidates_after_structure),
    ];
    for (what, same) in drift {
        check.that(same, || format!("query {qi}: replay drifted from the search ({what})"));
    }

    counts.traced += 1;
    counts.fragments += fragments.len() as u64;
    counts.unique_probes += unique.len() as u64;
    counts.range_hits += hits.iter().map(|h| h.len() as u64).sum::<u64>();
    counts.pool_size += stats.fragments_in_pool as u64;
    counts.partition_size += stats.partition_size as u64;
    counts.cand_after_intersection += stats.candidates_after_intersection as u64;
    counts.cand_after_partition += stats.candidates_after_partition as u64;
    counts.structure_calls += pruned.candidates.len() as u64;
    counts.structure_kept += survivors.len() as u64;
    counts.verify_calls += survivors.len() as u64;
    counts.answers += answers.len() as u64;
    counts.graphs_seen += db.len() as u64;
    *plain_total += plain_ms;
    TracedSearch { outcome, plain_ms, oracle: oracle.answers }
}

/// Counts the durable-layer probe reports besides its spans.
pub(crate) struct ProbeCounts {
    pub(crate) wal_bytes_per_insert: f64,
    pub(crate) wal_fsyncs: usize,
    pub(crate) pending_entries_peak: usize,
    pub(crate) pending_penalty: f64,
    pub(crate) penalty_queries: usize,
}

/// Exercises the durable write path on a copy of `system` and replays
/// each of its layers: snapshot encode/decode, `DurableSystem` inserts,
/// compaction and reopen (`probe.*` spans — kept apart from the
/// `durable.*` spans of `ingest_2k`'s pass, which time other operations
/// on another store), then the same arrivals through `Wal::append` and
/// `FragmentIndex::insert_graph_pending` alone, `FragmentIndex::compact`,
/// `write_snapshot`, `load_snapshot` and `Wal::open`. Runs on every
/// workload, so the write-path layers have a row at every database size.
pub(crate) fn durable_probe(
    tr: &mut Tracer,
    mut system: PisSystem,
    arrivals: &[LabeledGraph],
    queries: &[LabeledGraph],
    sigma: f64,
    dir: &Path,
    check: &mut Check,
) -> Result<ProbeCounts, String> {
    let err = |e: pis::index::PersistError| e.to_string();
    let config = system.config().clone();
    let (burst, tail) = arrivals.split_at(arrivals.len() - PROBE_WAL_TAIL);
    let queries = &queries[..queries.len().min(PENALTY_QUERIES)];
    // Snapshots hold frozen structures only (a reopened `ingest_2k`
    // store still has its replayed WAL tail pending).
    system.compact();
    let base = system.database().len();

    let bytes = tr
        .span("index.snapshot_encode", None, None, || {
            encode_snapshot(system.index(), system.database())
        })
        .map_err(err)?;
    drop(system);
    let (index, database) =
        tr.span("index.snapshot_decode", None, None, || decode_snapshot(&bytes)).map_err(err)?;

    // The client's view: a durable store taking a burst of inserts.
    let copy = PisSystem::from_parts(database, index, config.clone()).map_err(|e| e.to_string())?;
    let store_dir = dir.join("probe-store");
    let mut store = DurableSystem::create(&store_dir, copy).map_err(err)?;
    for g in burst {
        let inserted = tr.span("probe.insert", None, None, || store.insert_graph(g.clone()));
        check.that(inserted.is_ok(), || "probe insert failed".to_string());
    }
    let search_all = |store: &DurableSystem| -> f64 {
        mean(queries.iter().map(|q| time_ms(|| store.system().search(q, sigma)).1))
    };
    let pending_ms = search_all(&store);
    tr.span("probe.compact", None, None, || store.compact()).map_err(err)?;
    let compacted_ms = search_all(&store);
    for g in tail {
        let inserted = tr.span("probe.insert", None, None, || store.insert_graph(g.clone()));
        check.that(inserted.is_ok(), || "probe insert failed".to_string());
    }
    drop(store);
    let reopened =
        tr.span("probe.reopen", None, None, || DurableSystem::open(&store_dir, config.clone()));
    let reopened = reopened.map_err(err)?;
    check.that(
        reopened.report().wal_records_replayed == tail.len()
            && reopened.system().database().len() == base + arrivals.len(),
        || "probe store reopened with the wrong graph or replay count".to_string(),
    );
    drop(reopened);

    // The same burst through the write-ahead log alone.
    let log = dir.join("probe-wal.log");
    let (mut wal, _) = Wal::open(&log).map_err(err)?;
    let empty = wal.committed_len();
    for (i, g) in burst.iter().enumerate() {
        let gid = GraphId((base + i) as u32);
        tr.span("wal.append", None, None, || wal.append(gid, g)).map_err(err)?;
    }
    let wal_bytes_per_insert = (wal.committed_len() - empty) as f64 / burst.len() as f64;
    drop(wal);
    let (_, replay) = tr.span("wal.replay", None, None, || Wal::open(&log)).map_err(err)?;
    check.that(replay.records.len() == burst.len(), || {
        "scratch WAL replayed the wrong record count".to_string()
    });

    // ... and through the index layer alone, on a second decoded copy.
    let (mut index, mut database) =
        tr.span("index.snapshot_decode", None, None, || decode_snapshot(&bytes)).map_err(err)?;
    let mut pending_entries_peak = 0;
    for g in burst {
        tr.span("index.insert_pending", None, None, || index.insert_graph_pending(g));
        database.push(g.clone());
        pending_entries_peak = pending_entries_peak.max(index.pending_entries());
    }
    tr.span("index.compact", None, None, || index.compact());
    let snapshot = dir.join("probe-snapshot.pis");
    tr.span("snapshot.write", None, None, || write_snapshot(&snapshot, &mut index, &database))
        .map_err(err)?;
    let (loaded, _) =
        tr.span("snapshot.load", None, None, || load_snapshot(&snapshot)).map_err(err)?;
    check.that(loaded.total_entries() == index.total_entries(), || {
        "snapshot round trip changed the entry count".to_string()
    });

    Ok(ProbeCounts {
        wal_bytes_per_insert,
        wal_fsyncs: burst.len(),
        pending_entries_peak,
        pending_penalty: pending_ms / compacted_ms,
        penalty_queries: queries.len(),
    })
}
