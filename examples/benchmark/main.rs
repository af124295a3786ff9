//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run of the same inputs.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- ARGS
//!
//!   --workload NAME   tight_10k | loose_2k | small_q24 | ingest_2k
//!   --all             every workload, one after the other (each run in
//!                     a child process of its own)
//!   --seed N          input seed (default 20060403)
//!   --trace [0|1]     traced run: per-layer metrics and trace.json
//!   --out FILE        result file (default bench_results/benchmark-*.json)
//!   --seconds 10      what the driver passes; the work of a run is fixed,
//!                     so no other value is accepted
//!   --smoke           all workloads at 1/20 size, traced and untraced,
//!                     plus validation against BENCHMARK.json
//!   --compare A B     check the end-to-end metrics of result files B
//!                     against the bounds around those of A (each a
//!                     comma-separated list; medians over all their runs)
//! ```
//!
//! Every run prints `metric <workload> <name> <value> <unit>` lines and
//! ends with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`) — the line the benchmark driver reads. README.md in this
//! directory documents workloads, metrics and caveats.

mod harness;
mod json;
mod pass;
mod report;
mod run;
mod spec;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::ScratchDir;
use run::RunResult;
use spec::{Scale, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};

/// Parsed command line.
struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        traced: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut rest = argv.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value =
            |what: &str| rest.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::by_name(&name).ok_or(format!("unknown workload '{name}'"))?;
                args.workloads.push(w);
            }
            "--all" => args.workloads = WORKLOADS.iter().collect(),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                if value("a number")?.parse() != Ok(RUN_SECONDS) {
                    return Err(format!("a run is sized for --seconds {RUN_SECONDS} and no other"));
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                let given = rest.next_if(|s| matches!(s.as_str(), "0" | "1"));
                args.traced = given.is_none_or(|s| s == "1");
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value("two file lists")?, value("two file lists")?));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !args.smoke && args.compare.is_none() && args.workloads.is_empty() {
        return Err("give --workload NAME, --all, --smoke or --compare A B".to_string());
    }
    Ok(args)
}

/// Runs one workload, prints its result, and returns it.
fn run_one(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    eprintln!("[benchmark] {} seed {seed}{}", w.name, if traced { " (traced)" } else { "" });
    let result = if traced {
        run::run_traced(w, seed, scale, out_dir)?
    } else {
        run::run_untraced(w, seed, scale, out_dir)?
    };
    report::validate_metrics(&result)?;
    report::print_result(&result);
    Ok(result)
}

/// `--smoke`: every workload at 1/20 size, untraced then traced, then
/// the declarations against `BENCHMARK.json`.
fn smoke(seed: u64, out_dir: &Path) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            ok &= run_one(w, seed, Scale::Smoke, traced, out_dir)?.check.failed == 0;
        }
    }
    report::validate_declarations()?;
    let verdict = if ok { "no failures" } else { "FAILURES above" };
    println!("smoke: every declared metric reported once, BENCHMARK.json matches, {verdict}");
    Ok(ok)
}

/// Several workloads (`--all`): each in a child process of its own —
/// `peak_rss_mb` is a per-process watermark and the allocator keeps
/// what an earlier workload freed — writing into a directory of its
/// own, folded into one result file at the end.
fn run_children(args: &Args, out: &Path, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let scratch = ScratchDir::create(out_dir, "runs")?;
    let mut parts = Vec::new();
    for w in &args.workloads {
        let part = scratch.path().join(w.name).join("result.json");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot start a run of {}: {e}", w.name))?;
        // 1 is a run with failed checks: its results are written.
        if !matches!(status.code(), Some(0 | 1)) {
            return Err(format!("the run of {} ended with {status}", w.name));
        }
        parts.push(part);
    }
    report::merge_results(&parts, out)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return report::compare(a, b);
    }
    let default_out = PathBuf::from("bench_results").join(format!(
        "benchmark-{}{}.json",
        if args.workloads.len() == 1 { args.workloads[0].name } else { "all" },
        if args.traced { "-trace" } else { "" }
    ));
    let out = args.out.clone().unwrap_or(default_out);
    let out_dir = out.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    if args.smoke {
        return smoke(args.seed, out_dir);
    }
    if args.workloads.len() > 1 {
        return run_children(&args, &out, out_dir);
    }
    let result = run_one(args.workloads[0], args.seed, Scale::Full, args.traced, out_dir)?;
    report::write_result(&out, args.seed, &result)?;
    Ok(result.check.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
