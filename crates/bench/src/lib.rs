//! Benchmark harness for the PIS evaluation (Section 7).
//!
//! [`TestBed`] assembles the evaluation setting — synthetic AIDS-like
//! database, gIndex features, fragment index — and the measurement
//! helpers reproduce the paper's protocol: query sets `Qm`, candidate
//! counts `Yt` (topoPrune) and `Yp` (PIS), bucketing by `Yt`
//! (`Q<300 … Q>5k`, thresholds scaled to the database size), and
//! reduction ratios. The `figures` binary drives everything.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::time::{Duration, Instant};

use pis_core::{PisConfig, PisSearcher, SearchScratch};
use pis_datasets::{sample_query_set, MoleculeConfig, MoleculeGenerator};
use pis_distance::MutationDistance;
use pis_graph::{GraphId, LabeledGraph};
use pis_index::{FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::{select_features, GindexConfig};

/// Scale of an experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentScale {
    /// Number of database graphs.
    pub db_size: usize,
    /// Queries per query set.
    pub query_count: usize,
    /// RNG seed shared by generation and sampling.
    pub seed: u64,
    /// gIndex feature budget.
    pub max_features: usize,
    /// gIndex minimum support fraction for 1-edge structures.
    pub min_support_fraction: f64,
}

impl ExperimentScale {
    /// Tiny scale for CI smoke runs.
    pub fn smoke() -> Self {
        ExperimentScale {
            db_size: 150,
            query_count: 8,
            seed: 20060403, // ICDE'06 opening day
            max_features: 300,
            min_support_fraction: 0.02,
        }
    }

    /// Default harness scale (candidate ratios are scale-stable; see
    /// `DESIGN.md` §4.5).
    pub fn default_scale() -> Self {
        ExperimentScale { db_size: 2000, query_count: 25, ..ExperimentScale::smoke() }
    }

    /// The paper's full 10 000-graph setting.
    pub fn full() -> Self {
        ExperimentScale { db_size: 10_000, query_count: 40, ..ExperimentScale::smoke() }
    }
}

/// The canonical end-to-end pipeline workload of the pinned pruning
/// fingerprint (`tests/pruning_fingerprint.rs`).
pub mod pipeline_workload {
    use super::ExperimentScale;

    /// Indexed fragment size.
    pub const MAX_FRAGMENT_EDGES: usize = 5;
    /// Query edge count (the paper's Q16 set).
    pub const QUERY_EDGES: usize = 16;
    /// Thresholds swept.
    pub const SIGMAS: [f64; 3] = [1.0, 2.0, 4.0];

    /// The scale the fingerprint runs at.
    pub fn scale() -> ExperimentScale {
        ExperimentScale { db_size: 200, query_count: 5, ..ExperimentScale::smoke() }
    }
}

/// A built evaluation environment.
pub struct TestBed {
    /// The synthetic database.
    pub db: Vec<LabeledGraph>,
    /// Fragment index (edge-Hamming mutation distance).
    pub index: FragmentIndex,
    /// The scale it was built at.
    pub scale: ExperimentScale,
    /// Wall time spent building the index.
    pub build_time: Duration,
}

impl TestBed {
    /// Generates the database and builds the index with fragments of at
    /// most `max_fragment_edges` edges (the paper's default is 5;
    /// Figure 12 sweeps 4–6).
    pub fn build(scale: &ExperimentScale, max_fragment_edges: usize) -> TestBed {
        let generator = MoleculeGenerator::new(MoleculeConfig::default());
        let db = generator.database(scale.db_size, scale.seed);
        TestBed::from_db(db, scale, max_fragment_edges)
    }

    /// Builds a testbed over an existing database.
    pub fn from_db(
        db: Vec<LabeledGraph>,
        scale: &ExperimentScale,
        max_fragment_edges: usize,
    ) -> TestBed {
        let structures: Vec<LabeledGraph> = db.iter().map(LabeledGraph::erase_labels).collect();
        let features = select_features(
            &structures,
            &GindexConfig {
                max_edges: max_fragment_edges,
                max_features: scale.max_features,
                min_support_fraction: scale.min_support_fraction,
                ..GindexConfig::default()
            },
        );
        let start = Instant::now();
        let index = FragmentIndex::build(
            &db,
            features,
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let build_time = start.elapsed();
        TestBed { db, index, scale: scale.clone(), build_time }
    }

    /// Samples the paper's query set `Qm`.
    pub fn query_set(&self, m: usize) -> Vec<LabeledGraph> {
        sample_query_set(&self.db, m, self.scale.query_count, self.scale.seed ^ m as u64)
    }
}

/// Measurements for one query.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// topoPrune candidate count (structure-containing graphs).
    pub yt: usize,
    /// PIS candidate count per sigma, restricted to structure-containing
    /// graphs so `yp ≤ yt` (both feed the same verifier; `DESIGN.md` §3).
    pub yp: Vec<usize>,
    /// PIS pruning wall time per sigma (excludes verification).
    pub prune_time: Vec<Duration>,
}

/// Runs topoPrune and PIS (at each `sigma`, with `config` as the base
/// search configuration) over a query set.
///
/// # Panics
/// Panics if a `sigma` is not finite and non-negative.
pub fn measure_queries(
    bed: &TestBed,
    queries: &[LabeledGraph],
    sigmas: &[f64],
    config: &PisConfig,
) -> Vec<QueryMeasurement> {
    // Pruning-only runs: no verification, and the structure check is
    // left to the Yt-set intersection below (topoPrune already computed
    // the exact containment set).
    let prune_config = PisConfig { verify: false, structure_check: false, ..config.clone() };
    let searcher = PisSearcher::new(&bed.index, &bed.db, prune_config);
    let mut scratch = SearchScratch::new();
    queries
        .iter()
        .map(|q| {
            let topo = pis_core::topo_prune(&bed.index, &bed.db, q, f64::INFINITY);
            let topo_set: std::collections::HashSet<GraphId> =
                topo.candidates.iter().copied().collect();
            let mut yp = Vec::with_capacity(sigmas.len());
            let mut prune_time = Vec::with_capacity(sigmas.len());
            for &sigma in sigmas {
                let start = Instant::now();
                let outcome =
                    searcher.search(q, sigma, &mut scratch).unwrap_or_else(|e| panic!("{e}"));
                prune_time.push(start.elapsed());
                yp.push(outcome.candidates.iter().filter(|g| topo_set.contains(g)).count());
            }
            QueryMeasurement { yt: topo.candidates.len(), yp, prune_time }
        })
        .collect()
}

/// The paper's `Yt` buckets, scaled from the 10 000-graph setting to the
/// actual database size: `Q<300, Q750, Q1.5k, Q3k, Q5k, Q>5k`.
#[derive(Clone, Debug)]
pub struct BucketSpec {
    /// Upper bounds of all buckets except the open-ended last.
    pub bounds: Vec<usize>,
    /// Human-readable bucket names (paper notation).
    pub names: Vec<&'static str>,
}

impl BucketSpec {
    /// Buckets scaled to `db_size`.
    pub fn paper(db_size: usize) -> BucketSpec {
        let scale = db_size as f64 / 10_000.0;
        let bounds = [300.0, 750.0, 1500.0, 3000.0, 5000.0]
            .iter()
            .map(|b| (b * scale).round().max(1.0) as usize)
            .collect();
        BucketSpec { bounds, names: vec!["Q<300", "Q750", "Q1.5k", "Q3k", "Q5k", "Q>5k"] }
    }

    /// The bucket index of a `Yt` value.
    pub fn bucket_of(&self, yt: usize) -> usize {
        self.bounds.iter().position(|&b| yt < b).unwrap_or(self.bounds.len())
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Always false; bucket specs have at least one bucket.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Per-bucket averages: the series the paper plots.
#[derive(Clone, Debug)]
pub struct BucketedSeries {
    /// Bucket names.
    pub names: Vec<&'static str>,
    /// Queries per bucket.
    pub counts: Vec<usize>,
    /// Average `Yt` per bucket.
    pub avg_yt: Vec<f64>,
    /// Average `Yp` per bucket, one row per sigma.
    pub avg_yp: Vec<Vec<f64>>,
}

impl BucketedSeries {
    /// The reduction ratio `Yt / Yp` per bucket for sigma row `s`
    /// (`f64::NAN` for empty buckets).
    pub fn reduction_ratio(&self, s: usize) -> Vec<f64> {
        self.avg_yt
            .iter()
            .zip(&self.avg_yp[s])
            .map(|(&yt, &yp)| {
                if yp > 0.0 {
                    yt / yp
                } else if yt > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NAN
                }
            })
            .collect()
    }
}

/// Buckets measurements by `Yt` and averages per bucket.
pub fn bucketize(
    measurements: &[QueryMeasurement],
    spec: &BucketSpec,
    sigma_count: usize,
) -> BucketedSeries {
    let k = spec.len();
    let mut counts = vec![0usize; k];
    let mut sum_yt = vec![0f64; k];
    let mut sum_yp = vec![vec![0f64; k]; sigma_count];
    for m in measurements {
        let b = spec.bucket_of(m.yt);
        counts[b] += 1;
        sum_yt[b] += m.yt as f64;
        for (s, &yp) in m.yp.iter().enumerate() {
            sum_yp[s][b] += yp as f64;
        }
    }
    let avg = |sum: &[f64], counts: &[usize]| -> Vec<f64> {
        sum.iter().zip(counts).map(|(&s, &c)| if c > 0 { s / c as f64 } else { f64::NAN }).collect()
    };
    let avg_yt = avg(&sum_yt, &counts);
    let avg_yp = sum_yp.iter().map(|row| avg(row, &counts)).collect();
    BucketedSeries { names: spec.names.clone(), counts, avg_yt, avg_yp }
}

/// Renders an aligned text table (the harness's output format).
pub fn render_table(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("## {title}\n");
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
    };
    out.push_str(&line(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float for tables (two decimals, `-` for NaN).
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_scale_with_db_size() {
        let full = BucketSpec::paper(10_000);
        assert_eq!(full.bounds, vec![300, 750, 1500, 3000, 5000]);
        let small = BucketSpec::paper(1000);
        assert_eq!(small.bounds, vec![30, 75, 150, 300, 500]);
        assert_eq!(small.bucket_of(0), 0);
        assert_eq!(small.bucket_of(100), 2);
        assert_eq!(small.bucket_of(10_000), 5);
        assert_eq!(small.len(), 6);
    }

    #[test]
    fn bucketize_averages() {
        let spec = BucketSpec::paper(10_000);
        let ms = vec![
            QueryMeasurement { yt: 100, yp: vec![10], prune_time: vec![Duration::ZERO] },
            QueryMeasurement { yt: 200, yp: vec![30], prune_time: vec![Duration::ZERO] },
            QueryMeasurement { yt: 6000, yp: vec![3000], prune_time: vec![Duration::ZERO] },
        ];
        let series = bucketize(&ms, &spec, 1);
        assert_eq!(series.counts[0], 2);
        assert_eq!(series.avg_yt[0], 150.0);
        assert_eq!(series.avg_yp[0][0], 20.0);
        assert_eq!(series.counts[5], 1);
        let ratios = series.reduction_ratio(0);
        assert!((ratios[0] - 7.5).abs() < 1e-12);
        assert!(ratios[1].is_nan());
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "demo",
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "200".into()]],
        );
        assert!(t.contains("## demo"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn fmt_f64_special_cases() {
        assert_eq!(fmt_f64(f64::NAN), "-");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(1.234), "1.23");
    }

    #[test]
    fn smoke_testbed_round_trip() {
        let scale = ExperimentScale { db_size: 40, query_count: 3, ..ExperimentScale::smoke() };
        let bed = TestBed::build(&scale, 3);
        assert_eq!(bed.db.len(), 40);
        assert!(!bed.index.features().is_empty());
        let queries = bed.query_set(6);
        assert_eq!(queries.len(), 3);
        let ms = measure_queries(&bed, &queries, &[1.0, 2.0], &PisConfig::default());
        for m in &ms {
            assert_eq!(m.yp.len(), 2);
            // Yp <= Yt by construction, and monotone in sigma.
            assert!(m.yp[0] <= m.yt);
            assert!(m.yp[1] <= m.yt);
            assert!(m.yp[0] <= m.yp[1]);
        }
    }
}
