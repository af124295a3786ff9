//! Shared plumbing: seeded inputs, set-up, timing and statistics
//! helpers, the failure ledger, and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pis::datasets::sample_query_set;
use pis::index::IndexDistance;
use pis::prelude::*;

use crate::spec::{
    Scale, Workload, CORPUS_SEED, MAX_FEATURES, MAX_FRAGMENT_EDGES, MIN_SUPPORT, PROBE_WAL_TAIL,
    WARMUP_QUERIES,
};

/// Everything a run feeds the program.
///
/// The corpus — the indexed database and the graphs that arrive later —
/// is the same for every seed, like the paper's one AIDS sample; the
/// seed draws the queries. A seeded corpus was tried first: a 2 000-graph
/// database holds two 150–220-vertex macro-molecules on average, give or
/// take two, and that alone moved `loose_2k`'s median latency by 17 %
/// between seeds, against 7 % between runs of one seed.
pub(crate) struct Inputs {
    /// The indexed database followed by the arrivals (durable inserts,
    /// then the traced run's probe burst).
    graphs: Vec<LabeledGraph>,
    initial: usize,
    pub(crate) warmup: Vec<LabeledGraph>,
    /// The timed queries, each a distinct sample.
    pub(crate) queries: Vec<LabeledGraph>,
}

impl Inputs {
    pub(crate) fn generate(w: &Workload, seed: u64, scale: Scale) -> Inputs {
        let initial = w.graphs_at(scale);
        let arrivals = w.inserts_at(scale) + w.probe_inserts + PROBE_WAL_TAIL;
        let graphs = MoleculeGenerator::new(MoleculeConfig::default())
            .database(initial + arrivals, CORPUS_SEED);
        let mut warmup = sample_query_set(
            &graphs[..initial],
            w.query_edges,
            WARMUP_QUERIES + w.searches_at(scale),
            seed ^ w.query_edges as u64,
        );
        let queries = warmup.split_off(WARMUP_QUERIES);
        Inputs { graphs, initial, warmup, queries }
    }

    /// The graphs indexed at set-up.
    pub(crate) fn initial(&self) -> &[LabeledGraph] {
        &self.graphs[..self.initial]
    }

    /// The graphs that arrive after set-up.
    pub(crate) fn arrivals(&self) -> &[LabeledGraph] {
        &self.graphs[self.initial..]
    }
}

/// The feature selection every workload indexes with.
pub(crate) fn gindex_config() -> GindexConfig {
    GindexConfig {
        max_edges: MAX_FRAGMENT_EDGES,
        max_features: MAX_FEATURES,
        min_support_fraction: MIN_SUPPORT,
        ..GindexConfig::default()
    }
}

/// The system's mutation distance (every workload builds with the
/// facade's default, edge-Hamming).
pub(crate) fn mutation_distance(system: &PisSystem) -> &MutationDistance {
    match system.index().distance() {
        IndexDistance::Mutation(md) => md,
        IndexDistance::Linear(_) => unreachable!("the benchmark builds mutation-distance systems"),
    }
}

/// Operations attempted and failed, with one line per failure.
#[derive(Default)]
pub(crate) struct Check {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
}

impl Check {
    /// Records one checked operation; `what` is only rendered on failure.
    pub(crate) fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Operations whose result was wrong or `Err`, over operations
    /// attempted.
    pub(crate) fn failed_share(&self) -> f64 {
        self.failed as f64 / (self.attempted as f64).max(1.0)
    }
}

/// Runs `f`, returning its result and its wall time in milliseconds.
pub(crate) fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

pub(crate) fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    sum / n.max(1) as f64
}

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=1`).
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` `reps` times and returns the last result with every
/// duration in seconds. The count is fixed per workload, not adapted to
/// the clock: the allocator keeps what a repeat freed, so `peak_rss_mb`
/// would otherwise depend on how many set-ups happened to fit.
pub(crate) fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    loop {
        let (out, ms) = time_ms(&mut f);
        seconds.push(ms / 1e3);
        if seconds.len() >= reps {
            return (out, seconds);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`). The watermark —
/// and the allocator's hold on freed memory — last as long as the
/// process, which is why every run gets a process of its own.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A per-process scratch directory under the output directory (runs
/// read and write only inside their checkout), removed on drop.
pub(crate) struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub(crate) fn create(out_dir: &Path, tag: &str) -> Result<ScratchDir, String> {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
