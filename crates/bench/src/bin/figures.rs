//! Regenerates every figure of the paper's evaluation (Section 7) plus
//! the ablations listed in `DESIGN.md` §5.
//!
//! ```text
//! cargo run --release -p pis-bench --bin figures -- [--exp LIST] [--scale S] [--out DIR]
//!
//!   --exp    comma list of e0,fig8,fig9,fig10,fig11,fig12,a1,a4 (default: all)
//!   --scale  smoke | default | full          (default: default = 2000 graphs)
//!   --out    output directory               (default: bench_results)
//! ```
//!
//! Every experiment prints its table and writes `<out>/<exp>.txt`; the
//! tables are the source data of EXPERIMENTS.md.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pis_bench::{
    bucketize, fmt_f64, measure_queries, render_table, BucketSpec, BucketedSeries, ExperimentScale,
    QueryMeasurement, TestBed,
};
use pis_core::{PartitionAlgo, PisConfig, PisSearcher, SearchScratch};
use pis_datasets::{AtomVocabulary, BondVocabulary, DatasetStats, MoleculeGenerator};
use pis_distance::MutationDistance;
use pis_graph::LabeledGraph;
use pis_index::{FragmentIndex, IndexConfig, IndexDistance};
use pis_mining::paths::path_features;

/// Fragment-size default for Figures 8–11 (Figure 12 sweeps 4–6).
const DEFAULT_FRAGMENT_EDGES: usize = 6;

fn main() {
    let args = Args::parse();
    fs::create_dir_all(&args.out).expect("cannot create output directory");
    let mut runner = Runner { args, bed6: None, fig8: None };
    let exps = runner.args.exps.clone();
    for exp in &exps {
        let started = Instant::now();
        let report = match exp.as_str() {
            "e0" => runner.exp_e0(),
            "fig8" => runner.exp_fig8(),
            "fig9" => runner.exp_fig9(),
            "fig10" => runner.exp_fig10(),
            "fig11" => runner.exp_fig11(),
            "fig12" => runner.exp_fig12(),
            "a1" => runner.exp_a1(),
            "a4" => runner.exp_a4(),
            other => {
                eprintln!("unknown experiment '{other}' (skipped)");
                continue;
            }
        };
        let stamped = format!("{report}\n[{exp} took {:?}]\n", started.elapsed());
        println!("{stamped}");
        let path = runner.args.out.join(format!("{exp}.txt"));
        fs::write(&path, &stamped).expect("cannot write experiment output");
    }
}

struct Args {
    exps: Vec<String>,
    scale: ExperimentScale,
    out: PathBuf,
}

impl Args {
    fn parse() -> Args {
        let mut exps: Vec<String> =
            vec!["e0", "fig8", "fig9", "fig10", "fig11", "fig12", "a1", "a4"]
                .into_iter()
                .map(String::from)
                .collect();
        let mut scale = ExperimentScale::default_scale();
        let mut out = PathBuf::from("bench_results");
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--exp" => {
                    i += 1;
                    let list = argv.get(i).expect("--exp needs a value");
                    if list != "all" {
                        exps = list.split(',').map(|s| s.trim().to_string()).collect();
                    }
                }
                "--scale" => {
                    i += 1;
                    scale = match argv.get(i).expect("--scale needs a value").as_str() {
                        "smoke" => ExperimentScale::smoke(),
                        "default" => ExperimentScale::default_scale(),
                        "full" => ExperimentScale::full(),
                        other => panic!("unknown scale '{other}'"),
                    };
                }
                "--out" => {
                    i += 1;
                    out = PathBuf::from(argv.get(i).expect("--out needs a value"));
                }
                other => panic!("unknown argument '{other}'"),
            }
            i += 1;
        }
        Args { exps, scale, out }
    }
}

struct Runner {
    args: Args,
    /// Cached testbed at the default fragment size (built lazily, shared
    /// by fig8–fig11 and the ablations).
    bed6: Option<TestBed>,
    /// Cached Q16 measurements shared by fig8/fig9.
    fig8: Option<(Vec<QueryMeasurement>, BucketSpec)>,
}

impl Runner {
    fn bed6(&mut self) -> &TestBed {
        if self.bed6.is_none() {
            let t = Instant::now();
            let bed = TestBed::build(&self.args.scale, DEFAULT_FRAGMENT_EDGES);
            eprintln!(
                "[setup] db={} features={} entries={} built in {:?}",
                bed.db.len(),
                bed.index.features().len(),
                bed.index.total_entries(),
                t.elapsed()
            );
            self.bed6 = Some(bed);
        }
        self.bed6.as_ref().expect("just built")
    }

    fn fig8_data(&mut self) -> &(Vec<QueryMeasurement>, BucketSpec) {
        if self.fig8.is_none() {
            let bed = self.bed6();
            let spec = BucketSpec::paper(bed.db.len());
            let queries = bed.query_set(16);
            let ms = measure_queries(bed, &queries, &[1.0, 2.0, 4.0], &PisConfig::default());
            self.fig8 = Some((ms, spec));
        }
        self.fig8.as_ref().expect("just built")
    }

    /// E0 — dataset statistics (the evaluation-setup paragraph).
    fn exp_e0(&mut self) -> String {
        let generator = MoleculeGenerator::default();
        let db = generator.database(self.args.scale.db_size, self.args.scale.seed);
        let stats = DatasetStats::compute(&db);
        let mut out = String::from(
            "# E0 — dataset statistics (paper: 10k graphs, avg 25V/27E, max 214V/217E)\n",
        );
        out.push_str(&stats.render(&AtomVocabulary::default(), &BondVocabulary::default()));
        out
    }

    /// Figure 8 — candidate counts for Q16.
    fn exp_fig8(&mut self) -> String {
        let (ms, spec) = self.fig8_data();
        let series = bucketize(ms, spec, 3);
        let mut report = series_table(
            "Figure 8 — structure query with 16 edges (avg candidate count)",
            &series,
            &["topoPrune", "PIS s=1", "PIS s=2", "PIS s=4"],
            false,
        );
        let mean_prune: Duration = ms.iter().flat_map(|m| m.prune_time.iter()).sum::<Duration>()
            / (ms.len() * 3).max(1) as u32;
        let _ = writeln!(report, "mean PIS pruning time per query: {mean_prune:?} (paper: <1s)");
        report
    }

    /// Figure 9 — reduction ratio for Q16.
    fn exp_fig9(&mut self) -> String {
        let (ms, spec) = self.fig8_data();
        let series = bucketize(ms, spec, 3);
        series_table(
            "Figure 9 — candidate reduction ratio Yt/Yp, Q16",
            &series,
            &["PIS s=1", "PIS s=2", "PIS s=4"],
            true,
        )
    }

    /// Figure 10 — reduction ratio for Q24, sigma 1/3/5.
    fn exp_fig10(&mut self) -> String {
        let bed = self.bed6();
        let spec = BucketSpec::paper(bed.db.len());
        let queries = bed.query_set(24);
        let ms = measure_queries(bed, &queries, &[1.0, 3.0, 5.0], &PisConfig::default());
        let series = bucketize(&ms, &spec, 3);
        series_table(
            "Figure 10 — candidate reduction ratio Yt/Yp, Q24",
            &series,
            &["PIS s=1", "PIS s=3", "PIS s=5"],
            true,
        )
    }

    /// Figure 11 — cutoff (lambda) sensitivity at Q16, sigma = 2.
    fn exp_fig11(&mut self) -> String {
        let bed = self.bed6();
        let spec = BucketSpec::paper(bed.db.len());
        let queries = bed.query_set(16);
        let lambdas = [0.5, 1.0, 2.0];
        let mut per_lambda: Vec<BucketedSeries> = Vec::new();
        for &lambda in &lambdas {
            let cfg = PisConfig { lambda, ..PisConfig::default() };
            let ms = measure_queries(bed, &queries, &[2.0], &cfg);
            per_lambda.push(bucketize(&ms, &spec, 1));
        }
        let headers: Vec<String> =
            ["bucket", "queries", "l=0.5", "l=1", "l=2"].iter().map(ToString::to_string).collect();
        let mut rows = Vec::new();
        for b in 0..spec.len() {
            let mut row =
                vec![per_lambda[0].names[b].to_string(), per_lambda[0].counts[b].to_string()];
            for series in &per_lambda {
                row.push(fmt_f64(series.reduction_ratio(0)[b]));
            }
            rows.push(row);
        }
        let mut report = render_table(
            "Figure 11 — cutoff value sensitivity (reduction ratio, Q16, sigma=2)",
            &headers,
            &rows,
        );
        let _ = writeln!(
            report,
            "expected shape: l=1 and l=2 coincide; l=0.5 is never better (paper Fig. 11)"
        );
        report
    }

    /// Figure 12 — maximum indexed fragment size 4/5/6.
    fn exp_fig12(&mut self) -> String {
        let spec = BucketSpec::paper(self.args.scale.db_size);
        let sizes = [4usize, 5, 6];
        let mut per_size: Vec<BucketedSeries> = Vec::new();
        let mut counts_row = None;
        for &size in &sizes {
            let bed = TestBed::build(&self.args.scale, size);
            let queries = bed.query_set(16);
            let ms = measure_queries(&bed, &queries, &[2.0], &PisConfig::default());
            let series = bucketize(&ms, &spec, 1);
            counts_row.get_or_insert_with(|| series.counts.clone());
            per_size.push(series);
        }
        let headers: Vec<String> = ["bucket", "queries", "size=4", "size=5", "size=6"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut rows = Vec::new();
        for b in 0..spec.len() {
            let mut row = vec![
                per_size[0].names[b].to_string(),
                counts_row.as_ref().expect("at least one size ran")[b].to_string(),
            ];
            for series in &per_size {
                row.push(fmt_f64(series.reduction_ratio(0)[b]));
            }
            rows.push(row);
        }
        let mut report = render_table(
            "Figure 12 — pruning vs max indexed fragment size (reduction ratio, Q16, sigma=2)",
            &headers,
            &rows,
        );
        let _ = writeln!(report, "expected shape: larger fragments prune harder (paper Fig. 12)");
        report
    }

    /// A1 — partition algorithm ablation: Greedy vs EnhancedGreedy(2) vs
    /// exact MWIS.
    fn exp_a1(&mut self) -> String {
        let bed = self.bed6();
        // Small queries keep the exact solver tractable (the
        // overlapping-relation graph grows with the fragment count).
        let queries = bed.query_set(8);
        let algos = [
            ("Greedy", PartitionAlgo::Greedy),
            ("Enhanced(2)", PartitionAlgo::EnhancedGreedy(2)),
            ("Exact", PartitionAlgo::Exact),
        ];
        let sigma = 2.0;
        let mut rows = Vec::new();
        let mut skipped = 0usize;
        // Probe fragment counts first so the exact solver never sees an
        // oversized overlapping-relation graph.
        let probe = PisSearcher::new(
            &bed.index,
            &bed.db,
            PisConfig { verify: false, structure_check: false, ..PisConfig::default() },
        );
        let mut scratch = SearchScratch::new();
        let usable: Vec<&LabeledGraph> = queries
            .iter()
            .filter(|q| {
                let frags = probe
                    .search(q, sigma, &mut scratch)
                    .expect("sigma 2 is valid")
                    .stats
                    .fragments_in_pool;
                if frags <= 100 {
                    true
                } else {
                    skipped += 1;
                    false
                }
            })
            .collect();
        for (name, algo) in algos {
            let cfg = PisConfig {
                partition: algo,
                verify: false,
                structure_check: false,
                ..PisConfig::default()
            };
            let searcher = PisSearcher::new(&bed.index, &bed.db, cfg);
            let mut weight = 0.0;
            let mut size = 0usize;
            let mut candidates = 0usize;
            let t = Instant::now();
            for q in &usable {
                let o = searcher.search(q, sigma, &mut scratch).expect("sigma 2 is valid");
                weight += o.stats.partition_weight;
                size += o.stats.partition_size;
                candidates += o.stats.candidates_after_partition;
            }
            let n = usable.len().max(1);
            rows.push(vec![
                name.to_string(),
                fmt_f64(weight / n as f64),
                fmt_f64(size as f64 / n as f64),
                fmt_f64(candidates as f64 / n as f64),
                format!("{:?}", t.elapsed() / n as u32),
            ]);
        }
        let headers: Vec<String> =
            ["algorithm", "avg partition weight", "avg |P|", "avg candidates", "avg time/query"]
                .iter()
                .map(ToString::to_string)
                .collect();
        let mut report =
            render_table("A1 — partition algorithm ablation (Q8, sigma=2)", &headers, &rows);
        let _ = writeln!(
            report,
            "{} of {} queries skipped for the exact solver (>100 fragments); paper: greedy ≈ enhanced on real data",
            skipped,
            queries.len()
        );
        report
    }

    /// A4 — feature-source ablation: gIndex structures vs GraphGrep
    /// paths.
    fn exp_a4(&mut self) -> String {
        let sigma = 2.0;
        let bed = self.bed6();
        let queries = bed.query_set(16);
        let gindex_ms = measure_queries(bed, &queries, &[sigma], &PisConfig::default());

        // Same database, path features only.
        let structures: Vec<LabeledGraph> = bed.db.iter().map(LabeledGraph::erase_labels).collect();
        let features = path_features(&structures, DEFAULT_FRAGMENT_EDGES);
        let path_index = FragmentIndex::build(
            &bed.db,
            features,
            IndexDistance::Mutation(MutationDistance::edge_hamming()),
            &IndexConfig::default(),
        );
        let path_bed = TestBed {
            db: bed.db.clone(),
            index: path_index,
            scale: bed.scale.clone(),
            build_time: Duration::ZERO,
        };
        let path_ms = measure_queries(&path_bed, &queries, &[sigma], &PisConfig::default());

        let spec = BucketSpec::paper(bed.db.len());
        let g = bucketize(&gindex_ms, &spec, 1);
        let p = bucketize(&path_ms, &spec, 1);
        let headers: Vec<String> = ["bucket", "queries", "gIndex ratio", "paths ratio"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut rows = Vec::new();
        for b in 0..spec.len() {
            rows.push(vec![
                g.names[b].to_string(),
                g.counts[b].to_string(),
                fmt_f64(g.reduction_ratio(0)[b]),
                fmt_f64(p.reduction_ratio(0)[b]),
            ]);
        }
        let mut report = render_table(
            "A4 — feature source ablation (reduction ratio, Q16, sigma=2)",
            &headers,
            &rows,
        );
        let _ = writeln!(
            report,
            "gIndex features: {} classes; path features: {} classes",
            bed.index.features().len(),
            path_bed.index.features().len()
        );
        report
    }
}

/// Renders a bucket table: counts + one column per series row.
fn series_table(
    title: &str,
    series: &BucketedSeries,
    columns: &[&str],
    ratios_only: bool,
) -> String {
    let mut headers: Vec<String> = vec!["bucket".into(), "queries".into()];
    headers.extend(columns.iter().map(ToString::to_string));
    let mut rows = Vec::new();
    for b in 0..series.names.len() {
        let mut row = vec![series.names[b].to_string(), series.counts[b].to_string()];
        if ratios_only {
            for s in 0..series.avg_yp.len() {
                row.push(fmt_f64(series.reduction_ratio(s)[b]));
            }
        } else {
            row.push(fmt_f64(series.avg_yt[b]));
            for s in 0..series.avg_yp.len() {
                row.push(fmt_f64(series.avg_yp[s][b]));
            }
        }
        rows.push(row);
    }
    render_table(title, &headers, &rows)
}
