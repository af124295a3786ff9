//! Printing and persisting results, `--compare`, and the `--smoke`
//! self-validation against `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use pis::graph::ScopedPool;

use crate::harness::median;
use crate::json::Json;
use crate::run::{Metric, RunResult};
use crate::spec::{
    Better, MetricDecl, Workload, END_TO_END, EXACT_IN_COMPARE, P95_MIN_SAMPLES, PER_LAYER,
    WORKLOADS, WRITE_PATH,
};

/// The metrics a run of this kind reports on every workload — the
/// driver's result line.
fn declared(traced: bool) -> &'static [MetricDecl] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Every metric `result` must report: the declared ones, and the write
/// path's where an untraced run wrote.
fn expected(result: &RunResult) -> Vec<&'static MetricDecl> {
    let writes =
        !result.traced && Workload::by_name(result.workload).is_some_and(|w| w.inserts > 0);
    let extra: &[MetricDecl] = if writes { &WRITE_PATH } else { &[] };
    declared(result.traced).iter().chain(extra).collect()
}

/// Checks that `result` holds every expected metric exactly once and
/// nothing else.
pub(crate) fn validate_metrics(result: &RunResult) -> Result<(), String> {
    let decls = expected(result);
    for d in &decls {
        let n = result.metrics.iter().filter(|m| m.name == d.name).count();
        if n != 1 {
            return Err(format!("{}: metric {} reported {n} times", result.workload, d.name));
        }
    }
    match result.metrics.iter().find(|m| decls.iter().all(|d| d.name != m.name)) {
        Some(m) => Err(format!("{}: metric {} is not declared", result.workload, m.name)),
        None => Ok(()),
    }
}

fn unit_of(result: &RunResult, name: &str) -> &'static str {
    expected(result).iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

/// `{name: {value, unit, samples}}` for every metric of a run (the
/// result file), or `{name: {value, unit}}` for the declared ones (the
/// driver's line).
fn metrics_json(result: &RunResult, for_driver: bool) -> Json {
    let declared = declared(result.traced);
    let entry = |m: &Metric| {
        let mut fields =
            vec![("value", Json::Num(m.value)), ("unit", Json::str(unit_of(result, m.name)))];
        if !for_driver {
            fields.push(("samples", Json::Num(m.samples as f64)));
        }
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    Json::Obj(
        result
            .metrics
            .iter()
            .filter(|m| !for_driver || declared.iter().any(|d| d.name == m.name))
            .map(|m| (m.name.to_string(), entry(m)))
            .collect(),
    )
}

/// Prints every metric by name with its unit and sample count, every
/// failure, and — as the last line — the driver's result object.
pub(crate) fn print_result(result: &RunResult) {
    let w = result.workload;
    for m in &result.metrics {
        println!("metric {w} {} {} {}", m.name, m.value, unit_of(result, m.name));
        println!("samples {w} {} {}", m.name, m.samples);
    }
    for failure in &result.check.failures {
        println!("failure {w} {failure}");
    }
    println!("metric {w} failed_share {} fraction", result.check.failed_share());
    println!("samples {w} failed_share {}", result.check.attempted);
    let line = Json::obj([
        ("correct", Json::Bool(result.check.failed == 0)),
        ("attempted", Json::Num(result.check.attempted as f64)),
        ("failed", Json::Num(result.check.failed as f64)),
        ("metrics", metrics_json(result, true)),
    ]);
    println!("{line}");
}

/// The machine a set of runs was measured on.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("pool_workers", Json::Num(ScopedPool::default().workers() as f64)),
        ("client_threads", Json::Num(1.0)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Path of the span file that belongs to a result file.
fn trace_path(result_path: &Path) -> PathBuf {
    result_path.with_file_name("trace.json")
}

/// Writes a run's result file and, for a traced run, its spans beside
/// it as `trace.json`.
pub(crate) fn write_result(path: &Path, seed: u64, r: &RunResult) -> Result<(), String> {
    let run = Json::obj([
        ("workload", Json::str(r.workload)),
        ("trace", Json::Bool(r.traced)),
        ("correct", Json::Bool(r.check.failed == 0)),
        ("attempted", Json::Num(r.check.attempted as f64)),
        ("failed", Json::Num(r.check.failed as f64)),
        ("failed_share", Json::Num(r.check.failed_share())),
        ("failures", Json::Arr(r.check.failures.iter().map(|f| Json::str(f)).collect())),
        ("metrics", metrics_json(r, false)),
    ]);
    let doc = Json::obj([
        ("benchmark", Json::str("pis")),
        ("seed", Json::Num(seed as f64)),
        ("environment", environment()),
        ("runs", Json::Arr(vec![run])),
    ]);
    write_json(path, &doc)?;
    if let Some(spans) = &r.spans {
        let doc = Json::obj([
            ("columns", Json::str("id, parent, name, query, start_ns, end_ns")),
            ("workloads", Json::Obj(vec![(r.workload.to_string(), spans.clone())])),
        ]);
        write_json(&trace_path(path), &doc)?;
    }
    Ok(())
}

/// Folds the result files of single-run child processes (and their
/// span files) into one result file; returns whether every run was
/// correct.
pub(crate) fn merge_results(parts: &[PathBuf], out: &Path) -> Result<bool, String> {
    let mut merged: Option<Json> = None;
    let mut runs = Vec::new();
    let mut traces: Option<Json> = None;
    let mut spans = Vec::new();
    for part in parts {
        let doc = read_json(part)?;
        runs.extend_from_slice(doc.get("runs").map_or(&[][..], Json::as_arr));
        merged.get_or_insert(doc);
        if let Ok(doc) = read_json(&trace_path(part)) {
            spans.extend_from_slice(doc.get("workloads").map_or(&[][..], Json::members));
            traces.get_or_insert(doc);
        }
    }
    let correct = runs.iter().all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let mut merged = merged.ok_or("no runs to merge")?;
    merged.set("runs", Json::Arr(runs));
    write_json(out, &merged)?;
    if let Some(mut traces) = traces {
        traces.set("workloads", Json::Obj(spans));
        write_json(&trace_path(out), &traces)?;
    }
    Ok(correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every run of `workload` in a comma-separated list of result files.
fn runs_of(files: &str, workload: &str) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for file in files.split(',') {
        let doc = read_json(Path::new(file))?;
        let of_workload = |r: &&Json| r.get("workload").and_then(Json::as_str) == Some(workload);
        runs.extend(
            doc.get("runs").map_or(&[][..], Json::as_arr).iter().filter(of_workload).cloned(),
        );
    }
    Ok(runs)
}

/// Median of `metric` over the untraced runs among `runs`.
fn untraced_median(runs: &[Json], metric: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

fn worst_failed_share(runs: &[Json]) -> f64 {
    runs.iter().filter_map(|r| r.get("failed_share")?.as_f64()).fold(0.0, f64::max)
}

/// `--compare a b`: is any end-to-end metric of the runs in files `b`
/// worse than in files `a` by more than its bound (the runs of a
/// workload on one side are reduced to their median), or has `b` more
/// failures? [`EXACT_IN_COMPARE`] metrics may not worsen at all. Returns
/// whether `b` holds up.
pub(crate) fn compare(a: &str, b: &str) -> Result<bool, String> {
    let mut ok = true;
    let mut compared = 0;
    for w in &WORKLOADS {
        let (base, change) = (runs_of(a, w.name)?, runs_of(b, w.name)?);
        for d in END_TO_END.iter().chain(&WRITE_PATH) {
            let (Some(x), Some(y)) =
                (untraced_median(&base, d.name), untraced_median(&change, d.name))
            else {
                continue;
            };
            let worse = match d.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let bound = if EXACT_IN_COMPARE.contains(&d.name) { 0.0 } else { d.bound };
            let breach = worse > bound;
            ok &= !breach;
            compared += 1;
            println!(
                "compare {} {} {x} -> {y} {} worse by {:.2}% (bound {:.0}%) {}",
                w.name,
                d.name,
                d.unit,
                worse * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
        let (fa, fb) = (worst_failed_share(&base), worst_failed_share(&change));
        let breach = fb > fa;
        ok &= !breach;
        println!(
            "compare {} failed_share {fa} -> {fb} (exact) {}",
            w.name,
            if breach { "BREACH" } else { "ok" }
        );
    }
    if compared == 0 {
        return Err("the two sides share no untraced run of any workload".to_string());
    }
    Ok(ok)
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks one metric table of `BENCHMARK.json` against its twin here.
fn check_table(doc: &Json, key: &str, decls: &[MetricDecl], bounded: bool) -> Result<(), String> {
    let rows = doc.get(key).map_or(&[][..], Json::as_arr);
    if rows.len() != decls.len() {
        return Err(format!("BENCHMARK.json {key}: {} rows, {} declared", rows.len(), decls.len()));
    }
    for (row, d) in rows.iter().zip(decls) {
        let field = |k: &str| row.get(k).and_then(Json::as_str);
        let same = field("name") == Some(d.name)
            && field("unit") == Some(d.unit)
            && field("better") == Some(d.better.name())
            && (!bounded || row.get("bound").and_then(Json::as_f64) == Some(d.bound))
            && row.members().len() == if bounded { 4 } else { 3 };
        if !same {
            return Err(format!("BENCHMARK.json {key}: row {row} does not match {}", d.name));
        }
        if !is_name(d.name) {
            return Err(format!("{key}: {} is not a valid metric name", d.name));
        }
    }
    Ok(())
}

/// `--smoke`'s self-validation: `BENCHMARK.json` (in the working
/// directory) declares exactly what this program reports, and the
/// full-size sample counts support a p95.
pub(crate) fn validate_declarations() -> Result<(), String> {
    let doc = read_json(Path::new("BENCHMARK.json"))?;
    check_table(&doc, "end_to_end", &END_TO_END, true)?;
    check_table(&doc, "per_layer", &PER_LAYER, false)?;
    let listed = doc.get("workloads").map_or(&[][..], Json::as_arr);
    let same = listed.len() == WORKLOADS.len()
        && listed.iter().zip(&WORKLOADS).all(|(row, w)| {
            row.get("name").and_then(Json::as_str) == Some(w.name)
                && row.get("why").and_then(Json::as_str) == Some(w.why)
        });
    if !same {
        return Err("BENCHMARK.json workloads do not match the program's".to_string());
    }
    let thin =
        |w: &&Workload| w.searches < P95_MIN_SAMPLES || (1..P95_MIN_SAMPLES).contains(&w.inserts);
    if let Some(w) = WORKLOADS.iter().find(thin) {
        return Err(format!("{}: too few timed searches or inserts for a p95", w.name));
    }
    Ok(())
}
