//! Integration tests of the `pis` CLI binary: the full
//! generate → build → sample → search/knn → compact/check pipeline
//! through the public command-line surface, on the one durable store
//! `build` writes.

use std::path::{Path, PathBuf};
use std::process::Command;

use pis::graph::io::parse_database;
use pis::prelude::*;

fn pis() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pis"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pis-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary must run");
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Runs a command that must fail cleanly: exit code 1 and an `error:`
/// line, never a panic. Returns its stderr.
fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary must run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

/// The answer ids `pis search` printed, one list per query.
fn answer_ids(out: &str) -> Vec<Vec<String>> {
    let mut per_query: Vec<Vec<String>> = Vec::new();
    for line in out.lines() {
        if line.starts_with("query ") && line.contains(" answers from ") {
            per_query.push(Vec::new());
        } else if let Some(id) = line.strip_prefix("  g") {
            let id = id.split(' ').next().expect("split yields a first token");
            per_query.last_mut().expect("ids follow a query line").push(format!("g{id}"));
        }
    }
    per_query
}

fn generate_build_sample(dir: &Path, count: &str, seed: &str, weighted: bool) -> [String; 3] {
    let path = |name: &str| dir.join(name).to_str().expect("utf8 temp path").to_string();
    let (db, store, queries) = (path("db.lg"), path("store"), path("queries.lg"));
    let mut generate = pis();
    generate.args(["generate", "--count", count, "--seed", seed, "--out", &db]);
    if weighted {
        generate.arg("--weighted");
    }
    let out = run_ok(&mut generate);
    assert!(out.contains(&format!("wrote {count} molecules")));
    let out = run_ok(pis().args([
        "build",
        &db,
        "--out",
        &store,
        "--max-edges",
        "4",
        "--min-support",
        "0.05",
    ]));
    assert!(out.contains(&format!("indexed {count} graphs")));
    let out =
        run_ok(pis().args([
            "sample", &db, "--edges", "8", "--count", "2", "--seed", "3", "--out", &queries,
        ]));
    assert!(out.contains("sampled 2 Q8 queries"));
    [db, store, queries]
}

#[test]
fn full_pipeline() {
    let dir = tmp_dir("pipeline");
    let [db, store, queries] = generate_build_sample(&dir, "60", "5", false);

    // stats
    let out = run_ok(pis().args(["stats", &db]));
    assert!(out.contains("graphs: 60"));
    assert!(out.contains("atoms:"));

    // search (PIS), straight from the store `build` wrote
    let search = |sigma: &str, extra: &[&str]| {
        run_ok(pis().args(["search", &store, "--query", &queries, "--sigma", sigma]).args(extra))
    };
    let out = search("1", &[]);
    assert!(out.contains("query 0"));
    assert!(out.contains("answers"));
    assert!(!out.contains("recovery:"), "a fresh store opens clean: {out}");

    // search with explain plan
    let explained = search("1", &["--explain"]);
    assert!(explained.contains("candidate funnel"));
    assert!(explained.contains("partition"));

    // search (baselines agree on the answers)
    assert_eq!(answer_ids(&out).len(), 2);
    assert_eq!(answer_ids(&out), answer_ids(&search("1", &["--baseline", "topo"])));
    assert_eq!(answer_ids(&out), answer_ids(&search("1", &["--baseline", "naive"])));

    // knn
    let out = run_ok(pis().args(["knn", &store, "--query", &queries, "--k", "3"]));
    assert!(out.contains("neighbors"));

    // An acknowledged insert made through the library sits in the WAL
    // only; the CLI must replay it and answer with it. The inserted
    // graph copies one that contains query 0 exactly, so it is itself an
    // answer at sigma 0.
    let query = parse_database(&std::fs::read_to_string(&queries).unwrap()).unwrap().remove(0);
    let mut durable = DurableSystem::open(Path::new(&store), PisConfig::default()).unwrap();
    let source = durable.system().search(&query, 0.0).answers[0];
    let copy = durable.system().graph(source).clone();
    let inserted = durable.insert_graph(copy).unwrap();
    assert_eq!(inserted.index(), 60);
    drop(durable);
    let out = search("0", &[]);
    assert!(out.contains("recovery: 1 WAL records replayed"), "{out}");
    assert!(answer_ids(&out)[0].contains(&"g60".to_string()), "{out}");

    // compact folds the WAL into a fresh snapshot; check verifies it.
    let out = run_ok(pis().args(["compact", &store]));
    assert!(out.contains("recovery: 1 WAL records replayed"), "{out}");
    assert!(out.contains("61 graphs durable"), "{out}");
    let out = run_ok(pis().args(["check", &store]));
    assert!(out.contains("61 graphs after WAL replay"), "{out}");
    assert!(out.contains("ok: store is consistent"), "{out}");
    let out = search("0", &[]);
    assert!(!out.contains("recovery:"), "{out}");
    assert!(answer_ids(&out)[0].contains(&"g60".to_string()), "{out}");

    // dot
    let out = run_ok(pis().args(["dot", &db, "--graph", "0"]));
    assert!(out.starts_with("graph g0 {"));
    assert!(out.contains(" -- "));

    std::fs::remove_dir_all(&dir).ok();
}

/// On weighted data the store is built with the linear distance, and
/// both baselines must measure with it too. `--baseline naive` used to
/// scan with the edge-Hamming mutation distance whatever the index held:
/// 1 and 4 answers here instead of 22 and 20. `check` counts the
/// store's classes and names no structure kind: every class is a trie
/// (a posting list under the linear distance).
#[test]
fn baselines_use_the_stores_distance_on_weighted_data() {
    let dir = tmp_dir("weighted");
    let [_, store, queries] = generate_build_sample(&dir, "40", "7", true);
    let search = |extra: &[&str]| {
        let out = run_ok(
            pis().args(["search", &store, "--query", &queries, "--sigma", "0.5"]).args(extra),
        );
        answer_ids(&out)
    };
    let answers = search(&[]);
    assert_eq!(answers.iter().map(Vec::len).collect::<Vec<_>>(), [22, 20]);
    assert_eq!(answers, search(&["--baseline", "topo"]));
    assert_eq!(answers, search(&["--baseline", "naive"]));
    let out = run_ok(pis().args(["check", &store]));
    let classes: usize = out
        .split(" classes, ")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("check prints a class count: {out}"));
    assert!(classes > 0, "{out}");
    assert!(!out.contains("r-tree") && !out.contains("vp-tree"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `search` decides `d ≤ σ`, then prints each answer's distance, which
/// is the oracle's on a labeled (edge-Hamming) store.
#[test]
fn search_prints_the_oracle_distance_of_each_answer() {
    use pis::distance::oracle::min_superimposed_distance_brute;
    let dir = tmp_dir("distances");
    let [db, store, queries] = generate_build_sample(&dir, "40", "13", false);
    let read = |path: &str| parse_database(&std::fs::read_to_string(path).unwrap()).unwrap();
    let (db, queries_db) = (read(&db), read(&queries));
    let out = run_ok(pis().args(["search", &store, "--query", &queries, "--sigma", "3"]));
    let md = MutationDistance::edge_hamming();
    let (mut qi, mut printed, mut positive) = (0, 0, 0);
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("query ") {
            qi = rest.split(' ').next().unwrap().parse::<usize>().unwrap();
        } else if let Some(answer) = line.strip_prefix("  g") {
            let (id, distance) = answer
                .strip_suffix(')')
                .and_then(|a| a.split_once(" (distance "))
                .unwrap_or_else(|| panic!("an answer line prints its distance: {line}"));
            let g: usize = id.parse().unwrap();
            let d: f64 = distance.parse().unwrap();
            let brute = min_superimposed_distance_brute(&queries_db[qi], &db[g], &md);
            assert_eq!(brute, Some(d), "query {qi} graph {g}");
            printed += 1;
            positive += usize::from(d > 0.0);
        }
    }
    assert!(positive > 0 && printed > positive, "{printed} answers, {positive} above 0: {out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `build` selects features by gIndex, by paths or exhaustively, and
/// each store answers a search as the naive scan does.
#[test]
fn every_feature_source_answers_like_the_naive_scan() {
    let dir = tmp_dir("sources");
    let [db, _, queries] = generate_build_sample(&dir, "30", "9", false);
    for source in ["gindex", "paths", "exhaustive"] {
        let store = format!("{db}.{source}");
        let out = run_ok(
            pis()
                .args(["build", &db, "--out", &store, "--max-edges", "3"])
                .args(["--features", source]),
        );
        assert!(out.contains("indexed 30 graphs"), "{source}: {out}");
        let search = |extra: &[&str]| {
            let args = ["search", &store, "--query", &queries, "--sigma", "2"];
            answer_ids(&run_ok(pis().args(args).args(extra)))
        };
        let answers = search(&[]);
        assert_eq!(answers.len(), 2, "{source}");
        assert_eq!(answers, search(&["--baseline", "naive"]), "{source}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Outside input never panics `search` or `knn`: a directory that is not
/// a store, and a store whose snapshot has one flipped byte, are typed
/// errors. (A database and an index that disagree — the pair `knn` used
/// to assert on — cannot be expressed any more: the store holds both.)
#[test]
fn bad_stores_are_errors_not_panics() {
    let dir = tmp_dir("badstore");
    let [_, store, queries] = generate_build_sample(&dir, "20", "9", false);
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let snapshot = Path::new(&store).join("snapshot.pis");
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x04;
    std::fs::write(&snapshot, &bytes).unwrap();
    for subcommand in ["search", "knn"] {
        let stderr =
            run_err(pis().args([subcommand, empty.to_str().unwrap(), "--query", &queries]));
        assert!(stderr.contains("cannot open store"), "{stderr}");
        let stderr = run_err(pis().args([subcommand, &store, "--query", &queries]));
        assert!(stderr.contains("corrupt"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn import_sdf() {
    let dir = tmp_dir("import");
    let sdf = dir.join("mol.sdf");
    let db = dir.join("db.lg");
    std::fs::write(
        &sdf,
        "m\n\n\n  3  2  0  0  0  0  0  0  0  0999 V2000\n\
         0 0 0 C 0\n0 0 0 C 0\n0 0 0 O 0\n  1  2  1  0\n  2  3  2  0\nM  END\n$$$$\n",
    )
    .unwrap();
    let out = run_ok(pis().args(["import", sdf.to_str().unwrap(), "--out", db.to_str().unwrap()]));
    assert!(out.contains("imported 1 molecules"));
    let out = run_ok(pis().args(["stats", db.to_str().unwrap()]));
    assert!(out.contains("graphs: 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported() {
    let out = pis().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // The retired text-index converter is an unknown subcommand too.
    let stderr = run_err(pis().args(["snapshot", "db.lg", "--out", "store"]));
    assert!(stderr.contains("unknown subcommand 'snapshot'"), "{stderr}");

    let out = pis().args(["stats", "/nonexistent/db.lg"]).output().expect("binary runs");
    assert!(!out.status.success());

    let out = pis().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // A flag the subcommand does not know — retired (`--shards`,
    // `--index`) or misspelt — is an error, never silently the default
    // behaviour. Flags are checked before any file is opened.
    let common = ["store", "--query", "q.lg"];
    for (subcommand, flag) in [
        ("search", vec!["--shards", "4"]),
        ("knn", vec!["--shards", "4"]),
        ("search", vec!["--index", "x.pis"]),
        ("knn", vec!["--index", "x.pis"]),
        ("search", vec!["--explian"]),
    ] {
        let out = pis().arg(subcommand).args(common).args(&flag).output().expect("binary runs");
        assert!(!out.status.success(), "{subcommand} {flag:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {}", flag[0])), "{stderr}");
    }

    // A threshold the search rejects is the query's typed error, on a
    // real store with real queries.
    let dir = tmp_dir("badsigma");
    let [_, store, queries] = generate_build_sample(&dir, "20", "9", false);
    for sigma in ["nan", "-1"] {
        let stderr = run_err(pis().args(["search", &store, "--query", &queries, "--sigma", sigma]));
        assert!(stderr.contains("error: query 0: invalid sigma"), "{stderr}");
    }

    // A non-finite weight is a parse error naming its line, not a panic
    // in the index build.
    let db = dir.join("weighted.lg");
    run_ok(
        pis().args(["generate", "--count", "12", "--seed", "3", "--weighted", "--out"]).arg(&db),
    );
    let text = std::fs::read_to_string(&db).expect("read the database");
    for bad in ["inf", "NaN"] {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let graph_5 = lines.iter().position(|l| l == "t 5").expect("graph 5");
        let edge =
            graph_5 + lines[graph_5..].iter().position(|l| l.starts_with("e ")).expect("edge");
        let fields: Vec<&str> = lines[edge].split_whitespace().take(4).collect();
        lines[edge] = format!("{} {bad}", fields.join(" "));
        let bad_db = dir.join(format!("{bad}.lg"));
        std::fs::write(&bad_db, lines.join("\n")).expect("write the database");
        let stderr = run_err(
            pis()
                .arg("build")
                .arg(&bad_db)
                .arg("--out")
                .arg(dir.join("bad"))
                .args(["--max-edges", "3"]),
        );
        assert!(stderr.contains(&format!("line {}", edge + 1)), "{bad}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = run_ok(pis().args(["help"]));
    assert!(out.contains("usage:"));
    assert!(out.contains("pis build"));
}

/// A reader that closes the pipe early (`pis search … | head -1`) ends
/// the run quietly: status 0 and no panic, with stdout's read end closed
/// before `pis` writes a byte. A socket stands in for the pipe; writing
/// to either once its reader is gone fails the same way (`EPIPE`).
#[cfg(unix)]
#[test]
fn closed_stdout_ends_quietly() {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let dir = tmp_dir("closed-stdout");
    let [db, store, _] = generate_build_sample(&dir, "40", "7", false);
    for args in [
        vec!["search", &store, "--query", &db, "--sigma", "1"],
        vec!["knn", &store, "--query", &db, "-k", "3"],
        vec!["help"],
    ] {
        let (reader, writer) = UnixStream::pair().expect("socket pair");
        drop(reader);
        let out = pis()
            .args(&args)
            .stdout(Stdio::from(OwnedFd::from(writer)))
            .output()
            .expect("binary must run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A failing command whose stderr reader has gone still exits 1: the
/// error and the usage go nowhere, and nothing panics (a panic exits
/// 101). The panic message cannot be read back here, so the status is
/// the check.
#[test]
fn closed_stderr_fails_quietly() {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    for args in [vec!["frobnicate"], vec!["search", "no-such-store", "--sigma", "1"]] {
        let (reader, writer) = UnixStream::pair().expect("socket pair");
        drop(reader);
        let out = pis()
            .args(&args)
            .stderr(Stdio::from(OwnedFd::from(writer)))
            .output()
            .expect("binary must run");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {:?}", out.status);
    }
}
