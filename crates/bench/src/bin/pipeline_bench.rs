//! Machine-readable end-to-end pipeline benchmark — the perf
//! trajectory's data source.
//!
//! Times the optimized candidate funnel ([`PisSearcher::search_with_scratch`])
//! against the seed pipeline kept as executable specification
//! ([`PisSearcher::search_reference`]) on the same Q16 workload the
//! Criterion `bench_pipeline` uses, and writes the results as JSON:
//!
//! ```text
//! cargo run --release -p pis-bench --bin pipeline_bench -- \
//!     [--scale smoke|bench|default|full] [--iters N] [--out PATH]
//!
//!   --scale  smoke  = 100 graphs (CI);  bench = 200 graphs, the
//!            Criterion bench_pipeline setting (default);  default /
//!            full = the harness scales (2 000 / 10 000 graphs)
//!   --iters  timing repetitions per experiment (default 5; the JSON
//!            records min and mean)
//!   --out    output path (default BENCH_pipeline.json)
//! ```
//!
//! Every experiment row carries its candidate/answer total, so the JSON
//! doubles as a correctness fingerprint: optimized and reference rows
//! at the same sigma must report identical counts.
//!
//! Besides the end-to-end experiments, a `partition` row per sigma
//! isolates the partition stage of the optimized prune runs (building
//! the overlapping-relation graph `Q̃` + MWIS selection, timed by
//! `SearchScratch::take_partition_nanos`) so `perf_gate` can watch this
//! stage alone; its count fingerprint is the pis_prune candidate total.
//! A `verification` row per sigma does the same for the verification
//! stage of the optimized full runs (timed by
//! `SearchScratch::take_verify_stats`); its count fingerprint is
//! `verify calls + answers`.
//!
//! The durability layer is measured too: `durability_load` rows time a
//! full store load from the legacy text format versus the checksummed
//! binary snapshot (same content: database + index; count fingerprint =
//! entries + graphs), and `pending_scan` rows time the prune pipeline
//! with 0 / a few / a merge-threshold's worth of LSM pending inserts
//! stacked on a frozen base. A `durability` summary line carries
//! `pending_count_drift` — pending-buffer answers versus post-compaction
//! answers, gated to zero by `perf_gate`.

use std::fmt::Write as _;
use std::time::Instant;

use pis_bench::pipeline_workload::{MAX_FRAGMENT_EDGES, QUERY_EDGES, SIGMAS};
use pis_bench::{pipeline_workload, ExperimentScale, TestBed};
use pis_core::{
    naive_scan, topo_prune, Completeness, PisConfig, PisSearcher, QueryBudget, SearchScratch,
    DEFAULT_PARALLEL_FRAGMENT_THRESHOLD, DEFAULT_PARALLEL_VERIFY_THRESHOLD,
};
use pis_distance::MutationDistance;
use pis_graph::io::{parse_database, write_database};
use pis_graph::LabeledGraph;
use pis_index::{
    decode_snapshot, encode_snapshot, load_index, save_index, FragmentIndex, IndexConfig,
};

/// Criterion `bench_pipeline` wall times of the *seed* pipeline,
/// measured at the `bench` scale immediately before the funnel rework
/// landed (commit f01dbf4) — the perf trajectory's first recorded
/// point. `(name, sigma, ms_per_iter)`; one iter = the whole query set.
const PRE_REWORK_CRITERION_MS: [(&str, f64, f64); 6] = [
    ("pis_prune", 1.0, 16.23),
    ("pis_prune", 2.0, 25.33),
    ("pis_prune", 4.0, 45.83),
    ("pis_full", 1.0, 27.14),
    ("pis_full", 2.0, 49.02),
    ("pis_full", 4.0, 74.34),
];

/// Optimized-funnel wall times at the `bench` scale immediately before
/// the flat-trie arena landed (PR 2's committed `BENCH_pipeline.json`,
/// commit 9005382) — the perf trajectory's second recorded point.
const PRE_FLAT_TRIE_MS: [(&str, f64, f64); 6] = [
    ("pis_prune", 1.0, 8.073),
    ("pis_prune", 2.0, 12.570),
    ("pis_prune", 4.0, 19.742),
    ("pis_full", 1.0, 9.928),
    ("pis_full", 2.0, 16.823),
    ("pis_full", 4.0, 26.798),
];

/// Optimized-funnel wall times at the `bench` scale immediately before
/// the mask-native partition stage landed (PR 3's committed
/// `BENCH_pipeline.json`, commit c62e6f3) — the perf trajectory's third
/// recorded point.
const PRE_MASK_PARTITION_MS: [(&str, f64, f64); 6] = [
    ("pis_prune", 1.0, 4.586),
    ("pis_prune", 2.0, 6.409),
    ("pis_prune", 4.0, 9.128),
    ("pis_full", 1.0, 6.916),
    ("pis_full", 2.0, 10.356),
    ("pis_full", 4.0, 16.837),
];

/// Optimized-funnel wall times at the `bench` scale immediately before
/// the batched multi-probe range descent landed (PR 4's committed
/// `BENCH_pipeline.json`, commit ccb898f) — the perf trajectory's
/// fourth recorded point.
const PRE_BATCHED_DESCENT_MS: [(&str, f64, f64); 6] = [
    ("pis_prune", 1.0, 2.978),
    ("pis_prune", 2.0, 4.601),
    ("pis_prune", 4.0, 7.656),
    ("pis_full", 1.0, 4.670),
    ("pis_full", 2.0, 8.019),
    ("pis_full", 4.0, 15.267),
];

/// Optimized-funnel wall times at the `bench` scale immediately before
/// the bound-propagating verifier landed (PR 5's committed
/// `BENCH_pipeline.json`, commit bb8990a) — the perf trajectory's fifth
/// recorded point.
const PRE_BOUNDED_VERIFY_MS: [(&str, f64, f64); 6] = [
    ("pis_prune", 1.0, 2.271),
    ("pis_prune", 2.0, 3.526),
    ("pis_prune", 4.0, 5.599),
    ("pis_full", 1.0, 4.138),
    ("pis_full", 2.0, 7.756),
    ("pis_full", 4.0, 12.219),
];

fn main() {
    let mut scale_name = "bench".to_string();
    let mut iters = 5usize;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale_name = argv.get(i).expect("--scale needs a value").clone();
            }
            "--iters" => {
                i += 1;
                iters = argv.get(i).expect("--iters needs a value").parse().expect("iters: usize");
            }
            "--out" => {
                i += 1;
                out_path = argv.get(i).expect("--out needs a value").clone();
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    let scale = match scale_name.as_str() {
        "smoke" => ExperimentScale { db_size: 100, query_count: 4, ..ExperimentScale::smoke() },
        "bench" => pipeline_workload::scale(),
        "default" => ExperimentScale::default_scale(),
        "full" => ExperimentScale::full(),
        other => panic!("unknown scale '{other}'"),
    };

    eprintln!("[pipeline_bench] building testbed (db={} graphs)...", scale.db_size);
    let bed = TestBed::build(&scale, MAX_FRAGMENT_EDGES);
    let queries = bed.query_set(QUERY_EDGES);
    let md = MutationDistance::edge_hamming();

    let prune_cfg = PisConfig { verify: false, structure_check: false, ..PisConfig::default() };
    let pruner = PisSearcher::new(&bed.index, &bed.db, prune_cfg.clone());
    let full = PisSearcher::new(&bed.index, &bed.db, PisConfig::default());

    let mut rows: Vec<Row> = Vec::new();
    for sigma in SIGMAS {
        let mut scratch = SearchScratch::new();
        rows.push(measure("pis_prune", "optimized", sigma, iters, || {
            queries
                .iter()
                .map(|q| pruner.search_with_scratch(q, sigma, &mut scratch).candidates.len())
                .sum()
        }));
        // The partition phase (building Q̃ + MWIS) of the same prune
        // runs, timed by the scratch's internal phase counter. Its count
        // fingerprint is the pis_prune candidate total, so the perf gate
        // cross-checks it like any other row.
        let mut scratch = SearchScratch::new();
        rows.push(measure_phase("partition", "optimized", sigma, iters, || {
            let count = queries
                .iter()
                .map(|q| pruner.search_with_scratch(q, sigma, &mut scratch).candidates.len())
                .sum();
            (count, scratch.take_partition_nanos() as f64 / 1e6)
        }));
        // The range-query phase of the same prune runs. Its count
        // fingerprint is the total range-query hits over the query set
        // (distinct (probe, graph) pairs — machine-independent, and
        // identical between the batched and the per-probe descent), so
        // a count drift flags a behavior change in the phase itself.
        let mut scratch = SearchScratch::new();
        rows.push(measure_phase("range_query", "optimized", sigma, iters, || {
            for q in queries.iter() {
                pruner.search_with_scratch(q, sigma, &mut scratch);
            }
            let (nanos, hits) = scratch.take_range_query_stats();
            (hits as usize, nanos as f64 / 1e6)
        }));
        let mut scratch = SearchScratch::new();
        rows.push(measure("pis_full", "optimized", sigma, iters, || {
            queries
                .iter()
                .map(|q| full.search_with_scratch(q, sigma, &mut scratch).answers.len())
                .sum()
        }));
        // The verification phase of the same full runs, timed by the
        // verifier's internal stats counter (wall time inside
        // `VerifyScratch` on the serial path; summed across workers when
        // the batch goes parallel). Its count fingerprint is the
        // machine-independent pair `verify calls + answers`, so a drift
        // in either the candidates reaching verification or the verified
        // answers flags a behavior change in the phase itself.
        let mut scratch = SearchScratch::new();
        rows.push(measure_phase("verification", "optimized", sigma, iters, || {
            let answers: usize = queries
                .iter()
                .map(|q| full.search_with_scratch(q, sigma, &mut scratch).answers.len())
                .sum();
            let stats = scratch.take_verify_stats();
            (stats.calls as usize + answers, stats.nanos as f64 / 1e6)
        }));
        rows.push(measure("pis_prune", "reference", sigma, iters, || {
            queries.iter().map(|q| pruner.search_reference(q, sigma).candidates.len()).sum()
        }));
        rows.push(measure("pis_full", "reference", sigma, iters, || {
            queries.iter().map(|q| full.search_reference(q, sigma).answers.len()).sum()
        }));
        rows.push(measure("topo_prune", "baseline", sigma, iters, || {
            queries.iter().map(|q| topo_prune(&bed.index, &bed.db, q, sigma).answers.len()).sum()
        }));
        rows.push(measure("naive_scan", "baseline", sigma, iters, || {
            queries.iter().map(|q| naive_scan(&bed.db, q, &md, sigma).answers.len()).sum()
        }));
    }
    check_fingerprints(&rows);
    let durability = measure_durability(&bed, &queries, &prune_cfg, iters, &mut rows);
    eprintln!(
        "[pipeline_bench] durability: text load {:.2}ms vs binary {:.2}ms ({:.1}x), \
         pending count drift {}",
        durability.text_load_ms,
        durability.binary_load_ms,
        durability.text_load_ms / durability.binary_load_ms,
        durability.pending_count_drift
    );
    let budget = measure_budget(&full, &queries, iters);
    eprintln!(
        "[pipeline_bench] budget: {:.0}ns/query overhead enabled-vs-disabled, \
         count drift {}, {} checkpoints / {} work units on tripped runs",
        budget.overhead_ns_per_query,
        budget.enabled_count_drift,
        budget.tripped_checkpoints,
        budget.tripped_work_units
    );

    let json = render_json(&scale, &queries, iters, &rows, &budget, &durability);
    std::fs::write(&out_path, &json).expect("cannot write benchmark JSON");
    println!("{json}");
    eprintln!("[pipeline_bench] wrote {out_path}");
}

struct Row {
    name: &'static str,
    variant: &'static str,
    sigma: f64,
    min_ms: f64,
    mean_ms: f64,
    /// Candidate (prune rows) or answer (full rows) total over the
    /// query set — the correctness fingerprint.
    count: usize,
}

/// Times `iters` wall-clocked runs of `work` (after one warm-up) and
/// records the count the last run produced.
fn measure(
    name: &'static str,
    variant: &'static str,
    sigma: f64,
    iters: usize,
    mut work: impl FnMut() -> usize,
) -> Row {
    measure_phase(name, variant, sigma, iters, || {
        let t = Instant::now();
        let count = work();
        (count, t.elapsed().as_secs_f64() * 1e3)
    })
}

/// Shared measurement loop: `work` returns `(count, ms)` per run —
/// wall-clocked by [`measure`], or self-reported for sub-phases whose
/// time the workload tracks itself (the partition rows).
fn measure_phase(
    name: &'static str,
    variant: &'static str,
    sigma: f64,
    iters: usize,
    mut work: impl FnMut() -> (usize, f64),
) -> Row {
    let (mut count, _) = work(); // warm-up
    let mut min_ms = f64::INFINITY;
    let mut total_ms = 0.0;
    for _ in 0..iters.max(1) {
        let (c, ms) = work();
        count = c;
        min_ms = min_ms.min(ms);
        total_ms += ms;
    }
    eprintln!("[pipeline_bench] {name}/{variant} sigma={sigma}: {min_ms:.2}ms (count {count})");
    Row { name, variant, sigma, min_ms, mean_ms: total_ms / iters.max(1) as f64, count }
}

/// The JSON `budget` line: what the budget machinery costs and does on
/// this workload.
struct BudgetLine {
    /// Per-query overhead (min over iters) of an enabled but
    /// never-tripping budget over the disabled default — the price of
    /// checkpoint accounting when a caller sets any limit.
    overhead_ns_per_query: f64,
    /// Total answer-count difference between those two runs. Must be
    /// zero — an unlimited budget may not change behavior; `perf_gate`
    /// fails on any other value.
    enabled_count_drift: u64,
    /// Checkpoints consulted across deliberately tripped runs (a small
    /// node budget), summed over the query set.
    tripped_checkpoints: u64,
    /// Work units charged across those tripped runs.
    tripped_work_units: u64,
}

/// Measures the budget machinery on the full pipeline at the largest
/// sigma (the most checkpoints per query).
fn measure_budget(full: &PisSearcher<'_>, queries: &[LabeledGraph], iters: usize) -> BudgetLine {
    let sigma = *SIGMAS.last().expect("sigma set is non-empty");
    let disabled = QueryBudget::unlimited();
    let enabled = QueryBudget { node_limit: Some(u64::MAX), ..QueryBudget::default() };
    let mut scratch = SearchScratch::new();
    let mut run = |budget: &QueryBudget| -> (usize, f64) {
        let t = Instant::now();
        let answers = queries
            .iter()
            .map(|q| {
                full.search_budgeted_with_scratch(q, sigma, budget, &mut scratch).answers.len()
            })
            .sum();
        (answers, t.elapsed().as_nanos() as f64)
    };
    run(&disabled); // warm-up
    let mut disabled_ns = f64::INFINITY;
    let mut enabled_ns = f64::INFINITY;
    let mut drift = 0u64;
    for _ in 0..iters.max(1) {
        let (a, ns) = run(&disabled);
        disabled_ns = disabled_ns.min(ns);
        let (b, ns) = run(&enabled);
        enabled_ns = enabled_ns.min(ns);
        drift += a.abs_diff(b) as u64;
    }
    // Deliberately tripped runs: the truncated outcomes report how many
    // checkpoints were consulted on the way down.
    let tripping = QueryBudget { node_limit: Some(64), ..QueryBudget::default() };
    let mut tripped_checkpoints = 0u64;
    let mut tripped_work_units = 0u64;
    for q in queries {
        let outcome = full.search_budgeted_with_scratch(q, sigma, &tripping, &mut scratch);
        if let Completeness::Truncated { stats, .. } = outcome.completeness {
            tripped_checkpoints += stats.checkpoints;
            tripped_work_units += stats.work_units;
        }
    }
    BudgetLine {
        overhead_ns_per_query: (enabled_ns - disabled_ns) / queries.len().max(1) as f64,
        enabled_count_drift: drift,
        tripped_checkpoints,
        tripped_work_units,
    }
}

/// The JSON `durability` line: what the persistence layer costs on this
/// workload.
struct DurabilityLine {
    /// Min wall time to load the full store (database + index) from the
    /// legacy line-oriented text format.
    text_load_ms: f64,
    /// Min wall time to load the same store from the checksummed binary
    /// snapshot (header/table validation + CRC sweep included).
    binary_load_ms: f64,
    /// Serialized size of the text store (database + index files).
    text_bytes: usize,
    /// Serialized size of the binary snapshot.
    snapshot_bytes: usize,
    /// LSM pending inserts in the `pending_small` / `pending_threshold`
    /// scan rows.
    pending_small: usize,
    pending_threshold: usize,
    /// Total candidate-count difference between prune runs answered from
    /// the frozen-base + pending buffer and the same store after
    /// compaction, summed over every sigma. The LSM contract says the
    /// buffer is invisible to answers, so this must be zero; `perf_gate`
    /// fails on any other value.
    pending_count_drift: u64,
}

/// Measures the durability layer: text-vs-binary load time (appended to
/// `rows` as `durability_load` so the committed snapshot cross-checks
/// the entry counts) and the query-time cost of an LSM pending buffer
/// at three fill levels (`pending_scan` rows), plus the
/// pending-vs-compacted answer drift.
fn measure_durability(
    bed: &TestBed,
    queries: &[LabeledGraph],
    prune_cfg: &PisConfig,
    iters: usize,
    rows: &mut Vec<Row>,
) -> DurabilityLine {
    // --- Load-path comparison: same content, two formats. ---
    let db_text = write_database(&bed.db);
    let mut index_text = Vec::new();
    save_index(&bed.index, &mut index_text).expect("text serialization");
    let snapshot = encode_snapshot(&bed.index, &bed.db).expect("snapshot encodes");
    // Count fingerprint for both variants: entries + graphs, so a format
    // that silently drops content can't pass the gate.
    let text_row = measure_phase("durability_load", "text", 0.0, iters, || {
        let t = Instant::now();
        let db = parse_database(&db_text).expect("text database round-trip");
        let idx = load_index(&index_text[..]).expect("text index round-trip");
        (idx.total_entries() + db.len(), t.elapsed().as_secs_f64() * 1e3)
    });
    let binary_row = measure_phase("durability_load", "binary", 0.0, iters, || {
        let t = Instant::now();
        let (idx, db) = decode_snapshot(&snapshot).expect("snapshot round-trip");
        (idx.total_entries() + db.len(), t.elapsed().as_secs_f64() * 1e3)
    });
    assert_eq!(text_row.count, binary_row.count, "the two formats must load the same store");
    let (text_load_ms, binary_load_ms) = (text_row.min_ms, binary_row.min_ms);
    let text_bytes = db_text.len() + index_text.len();
    let snapshot_bytes = snapshot.len();
    rows.push(text_row);
    rows.push(binary_row);

    // --- Pending-scan overhead: rebuild the same index with the last k
    // graphs held back and LSM-inserted, so the frozen structures cover
    // n-k graphs and every query pays a k-graph pending scan per class.
    let n = bed.db.len();
    let pending_small = (n / 16).max(1);
    let pending_threshold = (n / 4).max(2);
    let base = |k: usize| -> FragmentIndex {
        // A threshold the fills below never reach, so the buffer stays
        // resident for the duration of the measurement.
        let cfg = IndexConfig { merge_threshold: usize::MAX, ..IndexConfig::default() };
        let mut idx = FragmentIndex::build(
            &bed.db[..n - k],
            bed.index.features().clone(),
            bed.index.distance().clone(),
            &cfg,
        );
        for g in &bed.db[n - k..] {
            idx.insert_graph_pending(g);
        }
        idx
    };
    let sigma = SIGMAS[SIGMAS.len() / 2];
    let mut fill_counts = Vec::new();
    for (variant, k) in [
        ("pending0", 0),
        ("pending_small", pending_small),
        ("pending_threshold", pending_threshold),
    ] {
        let idx = base(k);
        let searcher = PisSearcher::new(&idx, &bed.db, prune_cfg.clone());
        let mut scratch = SearchScratch::new();
        let row = measure("pending_scan", variant, sigma, iters, || {
            queries
                .iter()
                .map(|q| searcher.search_with_scratch(q, sigma, &mut scratch).candidates.len())
                .sum()
        });
        fill_counts.push(row.count);
        rows.push(row);
    }
    assert!(
        fill_counts.windows(2).all(|w| w[0] == w[1]),
        "pending fill level changed the candidate set: {fill_counts:?}"
    );

    // --- Drift check: the fullest pending buffer versus the same store
    // compacted, across every sigma.
    let mut idx = base(pending_threshold);
    let answers = |idx: &FragmentIndex| -> Vec<usize> {
        let searcher = PisSearcher::new(idx, &bed.db, prune_cfg.clone());
        let mut scratch = SearchScratch::new();
        SIGMAS
            .iter()
            .map(|&s| {
                queries
                    .iter()
                    .map(|q| searcher.search_with_scratch(q, s, &mut scratch).candidates.len())
                    .sum()
            })
            .collect()
    };
    let pending_answers = answers(&idx);
    idx.compact();
    assert_eq!(idx.pending_entries(), 0, "compaction must drain the buffer");
    let compacted_answers = answers(&idx);
    let pending_count_drift =
        pending_answers.iter().zip(&compacted_answers).map(|(a, b)| a.abs_diff(*b) as u64).sum();

    DurabilityLine {
        text_load_ms,
        binary_load_ms,
        text_bytes,
        snapshot_bytes,
        pending_small,
        pending_threshold,
        pending_count_drift,
    }
}

/// Optimized and reference rows of the same experiment must agree on
/// their candidate/answer totals, and the partition-phase rows (which
/// run the same prune traversal) must reproduce the pis_prune
/// fingerprints exactly.
fn check_fingerprints(rows: &[Row]) {
    for a in rows.iter().filter(|r| r.variant == "optimized") {
        // The range_query and verification phase rows have no in-run
        // twin (their counts are phase statistics, not candidate/answer
        // totals); `perf_gate` cross-checks them against the committed
        // snapshot instead.
        if a.name == "range_query" || a.name == "verification" {
            continue;
        }
        let twin_name = if a.name == "partition" { "pis_prune" } else { a.name };
        let twin_variant = if a.name == "partition" { "optimized" } else { "reference" };
        let b = rows
            .iter()
            .find(|r| r.variant == twin_variant && r.name == twin_name && r.sigma == a.sigma)
            .expect("every optimized row has a fingerprint twin");
        assert_eq!(
            a.count, b.count,
            "fingerprint mismatch between {}/{} and {}/{} at sigma {}",
            a.name, a.variant, twin_name, twin_variant, a.sigma
        );
    }
}

fn render_json(
    scale: &ExperimentScale,
    queries: &[LabeledGraph],
    iters: usize,
    rows: &[Row],
    budget: &BudgetLine,
    durability: &DurabilityLine,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"pipeline\",");
    let _ = writeln!(
        s,
        "  \"scale\": {{\"db_size\": {}, \"queries\": {}, \"query_edges\": {}, \"max_fragment_edges\": {}, \"seed\": {}}},",
        scale.db_size,
        queries.len(),
        QUERY_EDGES,
        MAX_FRAGMENT_EDGES,
        scale.seed
    );
    let _ = writeln!(s, "  \"iters\": {iters},");
    // The parallel break-even thresholds the run searched with, so a
    // build that changed the constants stays identifiable from the
    // artifact alone.
    let _ = writeln!(
        s,
        "  \"thresholds\": {{\"parallel_fragment\": {DEFAULT_PARALLEL_FRAGMENT_THRESHOLD}, \"parallel_verify\": {DEFAULT_PARALLEL_VERIFY_THRESHOLD}}},"
    );
    // The budget machinery, measured rather than asserted: overhead of
    // enabled-but-unlimited over disabled, behavior drift between the
    // two (gated to zero by `perf_gate`), and checkpoint counters from
    // tripped runs.
    let _ = writeln!(
        s,
        "  \"budget\": {{\"overhead_ns_per_query\": {:.0}, \"enabled_count_drift\": {}, \"tripped_checkpoints\": {}, \"tripped_work_units\": {}}},",
        budget.overhead_ns_per_query,
        budget.enabled_count_drift,
        budget.tripped_checkpoints,
        budget.tripped_work_units
    );
    // The durability layer, measured the same way: load time per format,
    // serialized sizes, the pending fill levels the scan rows used, and
    // the pending-vs-compacted answer drift (gated to zero).
    let _ = writeln!(
        s,
        "  \"durability\": {{\"text_load_ms\": {:.3}, \"binary_load_ms\": {:.3}, \"text_bytes\": {}, \"snapshot_bytes\": {}, \"pending_small\": {}, \"pending_threshold\": {}, \"pending_count_drift\": {}}},",
        durability.text_load_ms,
        durability.binary_load_ms,
        durability.text_bytes,
        durability.snapshot_bytes,
        durability.pending_small,
        durability.pending_threshold,
        durability.pending_count_drift
    );
    s.push_str("  \"experiments\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"variant\": \"{}\", \"sigma\": {}, \"min_ms\": {:.3}, \"mean_ms\": {:.3}, \"count\": {}}}{}",
            r.name, r.variant, r.sigma, r.min_ms, r.mean_ms, r.count, comma
        );
    }
    s.push_str("  ],\n");
    // Convenience summary: optimized-vs-reference speedups per sigma.
    s.push_str("  \"speedup_vs_reference\": {\n");
    for (ni, name) in ["pis_prune", "pis_full"].iter().enumerate() {
        let _ = write!(s, "    \"{name}\": {{");
        for (si, sigma) in SIGMAS.iter().enumerate() {
            let opt = rows
                .iter()
                .find(|r| r.name == *name && r.variant == "optimized" && r.sigma == *sigma)
                .expect("row exists");
            let reference = rows
                .iter()
                .find(|r| r.name == *name && r.variant == "reference" && r.sigma == *sigma)
                .expect("row exists");
            let comma = if si + 1 == SIGMAS.len() { "" } else { ", " };
            let _ = write!(s, "\"{}\": {:.2}{}", sigma, reference.min_ms / opt.min_ms, comma);
        }
        let _ = writeln!(s, "}}{}", if ni == 0 { "," } else { "" });
    }
    // At the scale the recorded baselines were measured at, also report
    // the speedup against each prior PR's committed numbers (same
    // machine class and workload).
    if scale.db_size == pipeline_workload::scale().db_size {
        s.push_str("  },\n");
        baseline_section(&mut s, "pre_rework_baseline", &PRE_REWORK_CRITERION_MS, rows, true);
        baseline_section(&mut s, "pre_flat_trie_baseline", &PRE_FLAT_TRIE_MS, rows, true);
        baseline_section(&mut s, "pre_mask_partition_baseline", &PRE_MASK_PARTITION_MS, rows, true);
        baseline_section(
            &mut s,
            "pre_batched_descent_baseline",
            &PRE_BATCHED_DESCENT_MS,
            rows,
            true,
        );
        baseline_section(
            &mut s,
            "pre_bounded_verify_baseline",
            &PRE_BOUNDED_VERIFY_MS,
            rows,
            false,
        );
    } else {
        s.push_str("  }\n");
    }
    s.push_str("}\n");
    s
}

/// Renders one `"name": {experiment: {sigma: {baseline_ms, now_ms,
/// speedup}}}` block comparing the current optimized rows against a
/// recorded baseline table.
fn baseline_section(
    s: &mut String,
    section: &str,
    table: &[(&str, f64, f64)],
    rows: &[Row],
    trailing_comma: bool,
) {
    let _ = writeln!(s, "  \"{section}\": {{");
    for (ni, name) in ["pis_prune", "pis_full"].iter().enumerate() {
        let _ = write!(s, "    \"{name}\": {{");
        for (si, sigma) in SIGMAS.iter().enumerate() {
            let baseline_ms = table
                .iter()
                .find(|(n, sg, _)| n == name && sg == sigma)
                .map(|(_, _, ms)| *ms)
                .expect("baseline recorded for every experiment");
            let opt = rows
                .iter()
                .find(|r| r.name == *name && r.variant == "optimized" && r.sigma == *sigma)
                .expect("row exists");
            let comma = if si + 1 == SIGMAS.len() { "" } else { ", " };
            let _ = write!(
                s,
                "\"{}\": {{\"baseline_ms\": {:.2}, \"now_ms\": {:.2}, \"speedup\": {:.2}}}{}",
                sigma,
                baseline_ms,
                opt.min_ms,
                baseline_ms / opt.min_ms,
                comma
            );
        }
        let _ = writeln!(s, "}}{}", if ni == 0 { "," } else { "" });
    }
    let _ = writeln!(s, "  }}{}", if trailing_comma { "," } else { "" });
}
