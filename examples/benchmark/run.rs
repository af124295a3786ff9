//! One run of one workload: untraced (the end-to-end metrics) or traced
//! (the per-layer metrics). Same inputs, same operations, same checks.

use std::path::Path;

use pis::index::{encode_snapshot, FragmentIndex, IndexConfig, IndexDistance};
use pis::prelude::*;

use crate::harness::{
    gindex_config, mean, median, mutation_distance, peak_rss_mb, percentile, repeat_timed, Check,
    Inputs, ScratchDir,
};
use crate::json::Json;
use crate::pass::{check_searches, plan, run_pass, Op, Store};
use crate::spec::{Scale, Workload, MIN_ATTRIBUTED_SHARE, MIN_TRACED_FOR_SHARE, REOPEN_CHECKS};
use crate::trace::{durable_probe, TraceCtx};

/// A reported number and how many samples stand behind it.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) samples: usize,
}

/// Everything one run produced.
pub(crate) struct RunResult {
    pub(crate) workload: &'static str,
    pub(crate) traced: bool,
    pub(crate) metrics: Vec<Metric>,
    pub(crate) check: Check,
    /// The traced run's spans.
    pub(crate) spans: Option<Json>,
}

fn persist_err(e: pis::index::PersistError) -> String {
    e.to_string()
}

/// Operations that search for `count` stride-sampled timed queries.
fn sampled_searches(inputs: &Inputs, count: usize) -> Vec<Op> {
    let stride = (inputs.queries.len() / count.max(1)).max(1);
    (0..inputs.queries.len())
        .step_by(stride)
        .take(count)
        .map(|query| Op::Search { query, traced: false, topo: false })
        .collect()
}

/// After a writing workload's pass: the recovered store must hold
/// every graph with exactly the WAL tail replayed, and
/// [`REOPEN_CHECKS`] sampled searches on it must equal `naive_scan`
/// over all of it.
fn check_recovery(
    store: Store,
    w: &Workload,
    scale: Scale,
    inputs: &Inputs,
    check: &mut Check,
) -> Result<Store, String> {
    let Store::Durable(recovered, _) = &store else { return Ok(store) };
    let (graphs, tail) = (w.graphs_at(scale) + w.inserts_at(scale), w.inserts_at(scale) / 4);
    let (held, replayed) =
        (recovered.system().database().len(), recovered.report().wal_records_replayed);
    check.that(held == graphs && replayed == tail, || {
        format!("recovered {held} graphs ({replayed} replayed), expected {graphs} ({tail})")
    });
    let ops = sampled_searches(inputs, REOPEN_CHECKS);
    let (store, log) = run_pass(store, &ops, inputs, w.sigma, None, check)?;
    check_searches(store.system(), &log.records, &inputs.queries, w.sigma, check);
    Ok(store)
}

/// Size of the store's snapshot: the file a durable store last wrote,
/// or what an in-memory system would write.
fn snapshot_bytes(store: &Store) -> Result<u64, String> {
    match store {
        Store::Mem(system) => encode_snapshot(system.index(), system.database())
            .map(|bytes| bytes.len() as u64)
            .map_err(persist_err),
        Store::Durable(_, dir) => std::fs::metadata(dir.join(pis::durable::SNAPSHOT_FILE))
            .map(|meta| meta.len())
            .map_err(|e| format!("cannot stat the snapshot: {e}")),
    }
}

/// Builds what the pass drives from a freshly built system: the system
/// itself, or a durable store created around it on a writing workload.
fn into_store(system: PisSystem, w: &Workload, dir: &ScratchDir) -> Result<Store, String> {
    if w.inserts == 0 {
        return Ok(Store::Mem(system));
    }
    let store_dir = dir.path().join("store");
    let durable = DurableSystem::create(&store_dir, system).map_err(persist_err)?;
    Ok(Store::Durable(durable, store_dir))
}

/// `small_q24` only: sampled queries against `sssd_brute`, an oracle
/// that shares no code with the program's verifier.
fn check_brute(system: &PisSystem, w: &Workload, inputs: &Inputs, check: &mut Check) {
    let distance = mutation_distance(system);
    for op in sampled_searches(inputs, w.brute_checks) {
        let Op::Search { query, .. } = op else { continue };
        let q = &inputs.queries[query];
        let brute = pis::distance::oracle::sssd_brute(system.database(), q, distance, w.sigma);
        let answers: Vec<usize> =
            system.search(q, w.sigma).answers.iter().map(|g| g.index()).collect();
        check.that(answers == brute, || {
            format!("query {query}: {} answers, sssd_brute has {}", answers.len(), brute.len())
        });
    }
}

/// The untraced run: set-up (repeated, median reported), warm-up, the
/// timed pass, then the oracle.
pub(crate) fn run_untraced(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let dir = ScratchDir::create(out_dir, w.name)?;
    let mut check = Check::default();

    // generate + mine + build, plus the first snapshot on a writing
    // workload. Each repeat drops the previous system first.
    let (built, setup_s) = repeat_timed(w.setup_reps, || -> Result<(Inputs, Store), String> {
        let inputs = Inputs::generate(w, seed, scale);
        let system =
            PisSystem::builder().gindex_features(gindex_config()).build(inputs.initial().to_vec());
        Ok((inputs, into_store(system, w, &dir)?))
    });
    let (inputs, store) = built?;

    for q in &inputs.warmup {
        store.system().search(q, w.sigma);
    }
    let ops = plan(w, scale, false);
    let (store, log) = run_pass(store, &ops, &inputs, w.sigma, None, &mut check)?;
    let rss_mb = peak_rss_mb()?;

    check_searches(store.system(), &log.records, &inputs.queries, w.sigma, &mut check);
    check_brute(store.system(), w, &inputs, &mut check);
    let store = check_recovery(store, w, scale, &inputs, &mut check)?;

    let searches = log.search_ms.len();
    let inserts = log.insert_ms.len();
    let mut metrics = Vec::new();
    let mut row = |name, value, samples| metrics.push(Metric { name, value, samples });
    row("setup_s", median(&setup_s), setup_s.len());
    row("query_p50_ms", median(&log.search_ms), searches);
    row("query_p95_ms", percentile(&log.search_ms, 0.95), searches);
    row("ops_per_s", ops.len() as f64 / log.wall_s, ops.len());
    row("snapshot_bytes", snapshot_bytes(&store)? as f64, 1);
    row("peak_rss_mb", rss_mb, 1);
    // The write path, where the pass wrote (`spec::WRITE_PATH`).
    if inserts > 0 {
        row("insert_p50_ms", median(&log.insert_ms), inserts);
        row("insert_p95_ms", percentile(&log.insert_ms, 0.95), inserts);
        row("inserts_per_s", inserts as f64 / (log.insert_ms.iter().sum::<f64>() / 1e3), inserts);
        row("compact_s", log.compact_s.iter().sum(), log.compact_s.len());
        row("reopen_s", log.reopen_s.iter().sum(), log.reopen_s.len());
    }
    Ok(RunResult { workload: w.name, traced: false, metrics, check, spans: None })
}

/// The traced run: the same inputs and operations with spans around
/// every client call, every [`crate::spec::TRACE_STRIDE`]-th search
/// replayed layer by layer, and the durable-layer probe at the end.
pub(crate) fn run_traced(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let dir = ScratchDir::create(out_dir, w.name)?;
    let mut check = Check::default();
    let mut ctx = TraceCtx::new();
    let tr = &mut ctx.tracer;

    // Set-up once, layer by layer — the calls `PisSystemBuilder::build`
    // makes, in its order.
    let inputs = tr.span("datasets.generate", None, None, || Inputs::generate(w, seed, scale));
    let database = inputs.initial().to_vec();
    let structures: Vec<LabeledGraph> = database.iter().map(LabeledGraph::erase_labels).collect();
    let features = tr.span("mining.select_features", None, None, || {
        pis::mining::select_features(&structures, &gindex_config())
    });
    let feature_count = features.len();
    let distance = IndexDistance::Mutation(MutationDistance::edge_hamming());
    let index = tr.span("index.build", None, None, || {
        FragmentIndex::build(&database, features, distance, &IndexConfig::default())
    });
    let entries = index.total_entries();
    let system =
        PisSystem::from_parts(database, index, PisConfig::default()).map_err(|e| e.to_string())?;
    let store = into_store(system, w, &dir)?;

    for q in &inputs.warmup {
        store.system().search(q, w.sigma);
    }
    let ops = plan(w, scale, true);
    let (store, log) = run_pass(store, &ops, &inputs, w.sigma, Some(&mut ctx), &mut check)?;
    check_searches(store.system(), &log.records, &inputs.queries, w.sigma, &mut check);
    let system = check_recovery(store, w, scale, &inputs, &mut check)?.into_system();
    let burst = &inputs.arrivals()[w.inserts_at(scale)..];
    let probe = durable_probe(
        &mut ctx.tracer,
        system,
        burst,
        &inputs.queries,
        w.sigma,
        dir.path(),
        &mut check,
    )?;

    let t = &ctx.tracer;
    let c = &ctx.counts;
    let traced = c.traced as f64;
    let per_query = |name: &str| t.total_ms(name) / traced;
    let per_count = |count: u64| count as f64 / traced;
    let mean_of = |name: &str| mean(t.durations_ms(name));
    let seconds = |name: &str| mean_of(name) / 1e3;

    let search = per_query("core.search");
    let prune = per_query("core.prune");
    let enumerate = per_query("index.enumerate");
    let range = per_query("index.range");
    let select = per_query("core.selectivity");
    let mwis = per_query("partition.mwis");
    let structure = per_query("core.structure");
    let verify = per_query("core.verify");
    let attributed = (prune + structure + verify) / search;
    check.that(c.traced < MIN_TRACED_FOR_SHARE || attributed >= MIN_ATTRIBUTED_SHARE, || {
        format!("trace.attributed_share is {attributed:.3}, below {MIN_ATTRIBUTED_SHARE}")
    });
    // The client's write calls: the pass's own on a writing workload,
    // the probe's elsewhere — never both, they time different operations
    // on different stores.
    let [insert, compact, reopen] = if w.inserts > 0 {
        ["durable.insert", "durable.compact", "durable.reopen"]
    } else {
        ["probe.insert", "probe.compact", "probe.reopen"]
    };
    let inserts = t.durations_ms(insert);
    let pending = t.durations_ms("index.insert_pending");

    let n = c.traced as usize;
    let topo = c.topo as usize;
    let spans_of = |name: &str| t.durations_ms(name).len();
    let ratio = |part: u64, whole: u64| part as f64 / (whole as f64).max(1.0);
    let mut metrics = Vec::new();
    let mut row = |name, value, samples| metrics.push(Metric { name, value, samples });
    row("datasets.generate_s", seconds("datasets.generate"), 1);
    row("mining.select_features_s", seconds("mining.select_features"), 1);
    row("mining.features", feature_count as f64, 1);
    row("index.build_s", seconds("index.build"), 1);
    row("index.entries", entries as f64, 1);
    row("index.snapshot_encode_s", seconds("index.snapshot_encode"), 1);
    row("index.snapshot_decode_s", seconds("index.snapshot_decode"), 2);
    row("core.search_ms", search, n);
    row("core.prune_ms", prune, n);
    row("index.enumerate_ms", enumerate, n);
    row("index.fragments", per_count(c.fragments), n);
    row("index.unique_probes", per_count(c.unique_probes), n);
    row("index.range_ms", range, n);
    row("index.range_hits", per_count(c.range_hits), n);
    row("core.selectivity_ms", select, n);
    row("partition.mwis_ms", mwis, n);
    row("partition.pool_size", per_count(c.pool_size), n);
    row("partition.size", per_count(c.partition_size), n);
    row("core.prune_self_ms", prune - (enumerate + range + select + mwis), n);
    row("core.structure_ms", structure, n);
    row("core.structure_calls", per_count(c.structure_calls), n);
    row("core.structure_keep_ratio", ratio(c.structure_kept, c.structure_calls), n);
    row("core.verify_ms", verify, n);
    row("core.verify_calls", per_count(c.verify_calls), n);
    row("core.verify_hit_ratio", ratio(c.answers, c.verify_calls), n);
    row("core.search_self_ms", search - prune - structure - verify, n);
    row("core.cand_after_intersection", per_count(c.cand_after_intersection), n);
    row("core.cand_after_partition", per_count(c.cand_after_partition), n);
    row("core.answers", per_count(c.answers), n);
    row("core.candidate_share", ratio(c.verify_calls, c.graphs_seen), n);
    row("baseline.naive_ms", mean_of("baseline.naive"), n);
    row("baseline.topo_ms", mean_of("baseline.topo"), topo);
    row("baseline.vs_naive", ctx.plain_ms / t.total_ms("baseline.naive"), n);
    row("baseline.vs_topo", ctx.plain_topo_ms / t.total_ms("baseline.topo"), topo);
    row("trace.attributed_share", attributed, n);
    row("trace.overhead_share", t.total_ms("core.search") / ctx.plain_ms - 1.0, n);
    row("durable.insert_p50_ms", median(&inserts), inserts.len());
    row("durable.insert_p95_ms", percentile(&inserts, 0.95), inserts.len());
    row(
        "durable.inserts_per_s",
        inserts.len() as f64 / (inserts.iter().sum::<f64>() / 1e3),
        inserts.len(),
    );
    row("durable.compact_ms", mean_of(compact), spans_of(compact));
    row("durable.reopen_ms", mean_of(reopen), spans_of(reopen));
    row("wal.append_ms", median(&t.durations_ms("wal.append")), probe.wal_fsyncs);
    row("wal.bytes_per_insert", probe.wal_bytes_per_insert, probe.wal_fsyncs);
    row("wal.fsyncs", probe.wal_fsyncs as f64, 1);
    row("wal.replay_ms", mean_of("wal.replay"), 1);
    row("index.insert_pending_ms", mean(pending.iter().copied()), pending.len());
    row("index.insert_pending_max_ms", percentile(&pending, 1.0), pending.len());
    row("index.pending_entries_peak", probe.pending_entries_peak as f64, 1);
    row("index.compact_ms", mean_of("index.compact"), 1);
    row("snapshot.write_ms", mean_of("snapshot.write"), 1);
    row("snapshot.load_ms", mean_of("snapshot.load"), 1);
    row("ingest.query_pending_penalty", probe.pending_penalty, probe.penalty_queries);
    let spans = Some(ctx.tracer.to_json());
    Ok(RunResult { workload: w.name, traced: true, metrics, check, spans })
}
