//! `pis` — command-line interface to the PIS graph search system.
//!
//! ```text
//! pis generate --count 1000 --seed 42 --out db.lg [--weighted]
//! pis import   screen.sdf --out db.lg
//! pis stats    db.lg
//! pis sample   db.lg --edges 16 --count 5 --seed 7 --out queries.lg
//! pis build    db.lg --out store/ [--max-edges 5] [--features gindex|paths|exhaustive]
//! pis search   store/ --query queries.lg --sigma 2 [--baseline topo|naive]
//! pis knn      store/ --query queries.lg -k 5
//! pis compact  store/
//! pis check    store/
//! pis dot      db.lg --graph 3
//! ```
//!
//! `.lg` files are the `pis_graph::io` text format, the interchange
//! form of graph databases and query sets. An index has one persisted
//! form, the durable store `build` writes: a directory holding a
//! checksummed binary snapshot (index *and* database) plus a
//! write-ahead log. `search` and `knn` open it (replaying the log),
//! `compact` merges and rotates it, `check` verifies it read-only.
//! Every subcommand prints to stdout; a reader that closes the pipe
//! early ends the run quietly, with status 0.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pis::datasets::sdf::parse_sdf;
use pis::datasets::{sample_query_set, AtomVocabulary, BondVocabulary, DatasetStats};
use pis::graph::io::{parse_database, to_dot, write_database};
use pis::index::{FragmentIndex, IndexConfig, IndexDistance};
use pis::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match run(&args, &mut stdout).and_then(|()| stdout.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`pis search … | head -1`) closes
        // the pipe once it has what it wanted: nothing went wrong.
        Err(Failure::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            // `eprintln!` panics when stderr's reader has gone; the exit
            // status still says what happened.
            let mut stderr = std::io::stderr().lock();
            let _ = match failure {
                Failure::Output(e) => writeln!(stderr, "error: cannot write output: {e}"),
                Failure::Message(message) => writeln!(stderr, "error: {message}\n{USAGE}"),
            };
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped early.
enum Failure {
    /// Bad input or a failed operation, told to the user with the usage.
    Message(String),
    /// Writing to stdout failed. Every other I/O error is turned into a
    /// message where it happens, so a bare `?` on an `io::Error` means
    /// stdout.
    Output(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Output(e)
    }
}

const USAGE: &str = "\
usage:
  pis generate --count N [--seed S] [--weighted] --out DB.lg
  pis import   FILE.sdf --out DB.lg
  pis stats    DB.lg
  pis sample   DB.lg --edges M [--count N] [--seed S] --out QUERIES.lg
  pis build    DB.lg --out DIR [--max-edges L] [--min-support F]
               [--features gindex|paths|exhaustive]
  pis search   DIR --query QUERIES.lg --sigma S [--baseline topo|naive]
               [--explain] [--time-limit-ms T] [--node-limit N]
  pis knn      DIR --query QUERIES.lg -k K [--time-limit-ms T] [--node-limit N]
  pis compact  DIR
  pis check    DIR
  pis dot      DB.lg [--graph I]";

/// Builds a [`QueryBudget`] from the shared `--time-limit-ms` /
/// `--node-limit` flags (unlimited when neither is given).
fn parse_budget(flags: &Flags<'_>) -> Result<QueryBudget, String> {
    let mut budget = QueryBudget::unlimited();
    if let Some(ms) = flags.value("time-limit-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("invalid --time-limit-ms: '{ms}'"))?;
        budget.time_limit = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = flags.value("node-limit") {
        let n: u64 = n.parse().map_err(|_| format!("invalid --node-limit: '{n}'"))?;
        budget.node_limit = Some(n);
    }
    Ok(budget)
}

fn run(args: &[String], stdout: &mut impl Write) -> Result<(), Failure> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| "missing subcommand".to_string())?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "generate" => cmd_generate(&rest, stdout),
        "import" => cmd_import(&rest, stdout),
        "stats" => cmd_stats(&rest, stdout),
        "sample" => cmd_sample(&rest, stdout),
        "build" => cmd_build(&rest, stdout),
        "search" => cmd_search(&rest, stdout),
        "knn" => cmd_knn(&rest, stdout),
        "compact" => cmd_compact(&rest, stdout),
        "check" => cmd_check(&rest, stdout),
        "dot" => cmd_dot(&rest, stdout),
        "--help" | "-h" | "help" => {
            writeln!(stdout, "{USAGE}")?;
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'").into()),
    }
}

/// Minimal flag parser: positional args plus `--flag value` / `--flag`,
/// each checked against the flags its subcommand accepts.
struct Flags<'a> {
    positional: Vec<&'a str>,
    named: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(
        args: &[&'a String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Self, String> {
        let mut flags = Flags { positional: Vec::new(), named: Vec::new() };
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(name) = a.strip_prefix('-').map(|s| s.trim_start_matches('-')) {
                if value_flags.contains(&name) {
                    i += 1;
                    let value =
                        args.get(i).ok_or_else(|| format!("flag --{name} needs a value"))?;
                    flags.named.push((name, Some(value.as_str())));
                } else if bool_flags.contains(&name) {
                    flags.named.push((name, None));
                } else {
                    // A typo or a retired flag must not silently run
                    // the default behaviour.
                    return Err(format!("unknown flag {a}"));
                }
            } else {
                flags.positional.push(a);
            }
            i += 1;
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.named.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.named.iter().any(|(n, _)| *n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name}: '{v}'")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional.get(idx).copied().ok_or_else(|| format!("missing {what}"))
    }
}

fn load_db(path: &str) -> Result<Vec<LabeledGraph>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_database(&text).map_err(|e| format!("{path}: {e}"))
}

/// Opens the durable store at `dir` with the query budget from the
/// shared flags, and says so in one line when recovery had work to do
/// (WAL records replayed, a torn tail cut).
fn open_store(
    dir: &Path,
    budget: QueryBudget,
    stdout: &mut impl Write,
) -> Result<DurableSystem, Failure> {
    let config = PisConfig { budget, ..PisConfig::default() };
    let store = DurableSystem::open(dir, config)
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let report = store.report();
    if !report.clean() {
        writeln!(
            stdout,
            "recovery: {} WAL records replayed, {} already in the snapshot, \
             {} torn tail bytes truncated",
            report.wal_records_replayed, report.wal_records_skipped, report.torn_tail_bytes
        )?;
    }
    Ok(store)
}

fn cmd_generate(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["count", "seed", "out"], &["weighted"])?;
    let count: usize = flags.num("count", 1000)?;
    let seed: u64 = flags.num("seed", 42)?;
    let out = PathBuf::from(flags.required("out")?);
    let config = MoleculeConfig { weighted: flags.has("weighted"), ..MoleculeConfig::default() };
    let db = MoleculeGenerator::new(config).database(count, seed);
    std::fs::write(&out, write_database(&db)).map_err(|e| e.to_string())?;
    writeln!(stdout, "wrote {} molecules to {}", db.len(), out.display())?;
    Ok(())
}

fn cmd_import(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["out"], &[])?;
    let input = flags.positional(0, "input .sdf file")?;
    let out = PathBuf::from(flags.required("out")?);
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let load = parse_sdf(&text, &AtomVocabulary::default(), &BondVocabulary::default());
    std::fs::write(&out, write_database(&load.molecules)).map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "imported {} molecules ({} records skipped) into {}",
        load.molecules.len(),
        load.skipped,
        out.display()
    )?;
    Ok(())
}

fn cmd_stats(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &[], &[])?;
    let db = load_db(flags.positional(0, "database file")?)?;
    let stats = DatasetStats::compute(&db);
    write!(stdout, "{}", stats.render(&AtomVocabulary::default(), &BondVocabulary::default()))?;
    Ok(())
}

fn cmd_sample(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["edges", "count", "seed", "out"], &[])?;
    let db = load_db(flags.positional(0, "database file")?)?;
    let edges: usize = flags.num("edges", 16)?;
    let count: usize = flags.num("count", 5)?;
    let seed: u64 = flags.num("seed", 7)?;
    let out = PathBuf::from(flags.required("out")?);
    let queries = sample_query_set(&db, edges, count, seed);
    std::fs::write(&out, write_database(&queries)).map_err(|e| e.to_string())?;
    writeln!(stdout, "sampled {count} Q{edges} queries into {}", out.display())?;
    Ok(())
}

fn cmd_build(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["out", "max-edges", "features", "min-support"], &[])?;
    let db_path = flags.positional(0, "database file")?;
    let db = load_db(db_path)?;
    let out = PathBuf::from(flags.required("out")?);
    let max_edges: usize = flags.num("max-edges", 5)?;
    let min_support: f64 = flags.num("min-support", 0.02)?;
    let source = match flags.value("features").unwrap_or("gindex") {
        "gindex" => FeatureSource::GIndex(GindexConfig {
            max_edges,
            min_support_fraction: min_support,
            ..GindexConfig::default()
        }),
        "paths" => FeatureSource::Paths(max_edges),
        "exhaustive" => FeatureSource::Exhaustive(max_edges),
        other => return Err(format!("unknown feature source '{other}'").into()),
    };
    let start = Instant::now();
    let (features, mine_stats) = source.select(&db);
    let mined_in = start.elapsed();
    let weighted = db.iter().any(|g| g.total_weight() != 0.0);
    let distance = if weighted {
        IndexDistance::Linear(LinearDistance::edges_only())
    } else {
        IndexDistance::Mutation(MutationDistance::edge_hamming())
    };
    let start = Instant::now();
    let index = FragmentIndex::build(&db, features, distance, &IndexConfig::default());
    let built_in = start.elapsed();
    let (graphs, feature_count, entries) =
        (db.len(), index.features().len(), index.total_entries());
    // The snapshot rotates atomically: a kill mid-save must not leave a
    // torn store where a previous good one stood.
    let start = Instant::now();
    let system =
        PisSystem::from_parts(db, index, PisConfig::default()).map_err(|e| e.to_string())?;
    DurableSystem::create(&out, system).map_err(|e| e.to_string())?;
    let saved_in = start.elapsed();
    let bytes =
        std::fs::metadata(out.join(pis::durable::SNAPSHOT_FILE)).map_err(|e| e.to_string())?.len();
    // Only the gSpan miner keeps embedding lists to count, and it mines
    // a sample of a large database: the rows are the sample's.
    let mining_work = mine_stats.map_or(String::new(), |s| {
        format!(
            " (gSpan on {} of {graphs} graphs: {} embedding rows, peak {} live)",
            s.graphs, s.rows_copied, s.peak_live_rows
        )
    });
    writeln!(
        stdout,
        "indexed {graphs} graphs: mined {feature_count} features in {mined_in:?}{mining_work}; \
         built {entries} entries in {built_in:?}; saved {bytes} bytes to {} in {saved_in:?}",
        out.display()
    )?;
    Ok(())
}

fn cmd_search(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(
        args,
        &["query", "sigma", "baseline", "time-limit-ms", "node-limit"],
        &["explain"],
    )?;
    let dir = PathBuf::from(flags.positional(0, "durable directory")?);
    let queries = load_db(flags.required("query")?)?;
    let sigma: f64 = flags.num("sigma", 2.0)?;
    let explain = flags.has("explain");
    let store = open_store(&dir, parse_budget(&flags)?, stdout)?;
    let system = store.system();
    // One searcher and one scratch serve every query of the run.
    let searcher = system.searcher();
    let mut scratch = SearchScratch::new();
    for (qi, q) in queries.iter().enumerate() {
        let start = Instant::now();
        let (answers, distances, candidates) = match flags.value("baseline") {
            None => {
                let o = searcher
                    .search(q, sigma, &mut scratch)
                    .map_err(|e| format!("query {qi}: {e}"))?;
                if explain {
                    write!(stdout, "{}", pis::core::explain(&o, system.index(), sigma))?;
                }
                if let Completeness::Truncated { phase, .. } = &o.completeness {
                    writeln!(
                        stdout,
                        "query {qi}: budget exhausted in {} — answers below are verified, \
                         {} candidates left undecided",
                        phase.name(),
                        o.possible.len()
                    )?;
                }
                (o.answers, o.answer_distances, o.candidates.len())
            }
            // Both baselines measure with the distance the store was
            // built with, like the search they are compared against.
            Some("topo") => {
                let o = system.topo_prune(q, sigma);
                (o.answers, Vec::new(), o.candidates.len())
            }
            Some("naive") => {
                let o = system.naive_scan(q, sigma);
                (o.answers, Vec::new(), o.candidates.len())
            }
            Some(other) => return Err(format!("unknown baseline '{other}'").into()),
        };
        writeln!(
            stdout,
            "query {qi} ({}V/{}E): {} answers from {} candidates in {:?}",
            q.vertex_count(),
            q.edge_count(),
            answers.len(),
            candidates,
            start.elapsed()
        )?;
        for (i, g) in answers.iter().enumerate() {
            match distances.get(i) {
                Some(d) => writeln!(stdout, "  {g} (distance {d})")?,
                None => writeln!(stdout, "  {g}")?,
            }
        }
    }
    Ok(())
}

fn cmd_knn(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["query", "k", "time-limit-ms", "node-limit"], &[])?;
    let dir = PathBuf::from(flags.positional(0, "durable directory")?);
    let queries = load_db(flags.required("query")?)?;
    let k: usize = flags.num("k", 5)?;
    let store = open_store(&dir, parse_budget(&flags)?, stdout)?;
    // One searcher and one scratch serve every query of the run.
    let searcher = store.system().searcher();
    let mut scratch = SearchScratch::new();
    for (qi, q) in queries.iter().enumerate() {
        let start = Instant::now();
        let knn = searcher.knn(q, k, &mut scratch).map_err(|e| format!("query {qi}: {e}"))?;
        writeln!(
            stdout,
            "query {qi}: {} neighbors (radius {}) in {:?}",
            knn.neighbors.len(),
            knn.radius,
            start.elapsed()
        )?;
        if let Completeness::Truncated { .. } = &knn.completeness {
            writeln!(
                stdout,
                "query {qi}: budget exhausted — neighbors are best-so-far, \
                 certified up to radius {}",
                knn.certified_radius
            )?;
        }
        for n in &knn.neighbors {
            writeln!(stdout, "  {} distance {}", n.graph, n.distance)?;
        }
    }
    Ok(())
}

fn cmd_compact(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &[], &[])?;
    let dir = PathBuf::from(flags.positional(0, "durable directory")?);
    let start = Instant::now();
    let mut store = open_store(&dir, QueryBudget::unlimited(), stdout)?;
    if store.report().clean() {
        writeln!(stdout, "recovery: clean (snapshot covers every acknowledged insert)")?;
    }
    let pending = store.pending_entries();
    store.compact().map_err(|e| e.to_string())?;
    writeln!(
        stdout,
        "compacted {}: {pending} pending entries merged, {} graphs durable, \
         WAL truncated to {} bytes in {:?}",
        dir.display(),
        store.system().database().len(),
        store.wal_len(),
        start.elapsed()
    )?;
    let merges = store.system().index().merge_stats();
    writeln!(
        stdout,
        "merge work (recovery + compaction): {} class merges, {} entries rewritten",
        merges.merges, merges.entries_rewritten
    )?;
    Ok(())
}

fn cmd_check(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &[], &[])?;
    let dir = PathBuf::from(flags.positional(0, "durable directory")?);
    let start = Instant::now();
    let report =
        pis::check_store(&dir).map_err(|e| format!("store {} is corrupt: {e}", dir.display()))?;
    writeln!(stdout, "checking {}", dir.display())?;
    writeln!(
        stdout,
        "  snapshot: {} bytes, all section and footer checksums valid",
        report.snapshot_bytes
    )?;
    writeln!(
        stdout,
        "  index:    {} classes, {} frozen + {} pending entries, all invariants hold",
        report.index.classes, report.index.frozen_entries, report.index.pending_entries
    )?;
    writeln!(
        stdout,
        "  wal:      {} bytes, {} records ({} replayable, {} already in the snapshot), \
         {} torn tail bytes",
        report.wal_bytes,
        report.wal_records,
        report.wal_replayed,
        report.wal_skipped,
        report.torn_tail_bytes
    )?;
    writeln!(
        stdout,
        "  replay:   {} graphs after WAL replay ({} class merges, {} entries rewritten), \
         invariants re-verified",
        report.graphs, report.merges.merges, report.merges.entries_rewritten
    )?;
    writeln!(stdout, "ok: store is consistent ({:?})", start.elapsed())?;
    Ok(())
}

fn cmd_dot(args: &[&String], stdout: &mut impl Write) -> Result<(), Failure> {
    let flags = Flags::parse(args, &["graph"], &[])?;
    let db = load_db(flags.positional(0, "database file")?)?;
    let idx: usize = flags.num("graph", 0)?;
    let g = db.get(idx).ok_or_else(|| format!("graph {idx} out of range (db has {})", db.len()))?;
    write!(stdout, "{}", to_dot(g, &format!("g{idx}")))?;
    Ok(())
}
