//! Integration tests of the `pis` CLI binary: the full
//! generate → build → sample → search/knn/stats/dot pipeline through
//! the public command-line surface.

use std::path::PathBuf;
use std::process::Command;

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

#[test]
fn full_pipeline() {
    let dir = tmp_dir("pipeline");
    let db = dir.join("db.lg");
    let index = dir.join("index.pis");
    let queries = dir.join("queries.lg");

    // generate
    let out = run_ok(pis().args([
        "generate",
        "--count",
        "60",
        "--seed",
        "5",
        "--out",
        db.to_str().unwrap(),
    ]));
    assert!(out.contains("wrote 60 molecules"));

    // stats
    let out = run_ok(pis().args(["stats", db.to_str().unwrap()]));
    assert!(out.contains("graphs: 60"));
    assert!(out.contains("atoms:"));

    // build
    let out = run_ok(pis().args([
        "build",
        db.to_str().unwrap(),
        "--out",
        index.to_str().unwrap(),
        "--max-edges",
        "4",
        "--min-support",
        "0.05",
    ]));
    assert!(out.contains("indexed 60 graphs"));

    // sample queries
    let out = run_ok(pis().args([
        "sample",
        db.to_str().unwrap(),
        "--edges",
        "8",
        "--count",
        "2",
        "--seed",
        "3",
        "--out",
        queries.to_str().unwrap(),
    ]));
    assert!(out.contains("sampled 2 Q8 queries"));

    // search (PIS)
    let out = run_ok(pis().args([
        "search",
        db.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--query",
        queries.to_str().unwrap(),
        "--sigma",
        "1",
    ]));
    assert!(out.contains("query 0"));
    assert!(out.contains("answers"));

    // search with explain plan
    let explained = run_ok(pis().args([
        "search",
        db.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--query",
        queries.to_str().unwrap(),
        "--sigma",
        "1",
        "--explain",
    ]));
    assert!(explained.contains("candidate funnel"));
    assert!(explained.contains("partition"));

    // search (baselines agree on answer counts)
    let topo = run_ok(pis().args([
        "search",
        db.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--query",
        queries.to_str().unwrap(),
        "--sigma",
        "1",
        "--baseline",
        "topo",
    ]));
    let pis_counts: Vec<&str> = out.lines().filter(|l| l.contains("answers from")).collect();
    let topo_counts: Vec<&str> = topo.lines().filter(|l| l.contains("answers from")).collect();
    assert_eq!(pis_counts.len(), topo_counts.len());
    for (p, t) in pis_counts.iter().zip(&topo_counts) {
        let answers =
            |s: &str| s.split("): ").nth(1).and_then(|x| x.split(' ').next().map(String::from));
        assert_eq!(answers(p), answers(t), "PIS and topoPrune answer counts differ");
    }

    // knn
    let out = run_ok(pis().args([
        "knn",
        db.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--query",
        queries.to_str().unwrap(),
        "--k",
        "3",
    ]));
    assert!(out.contains("neighbors"));

    // dot
    let out = run_ok(pis().args(["dot", db.to_str().unwrap(), "--graph", "0"]));
    assert!(out.starts_with("graph g0 {"));
    assert!(out.contains(" -- "));

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

    let out = pis().args(["stats", "/nonexistent/db.lg"]).output().expect("binary runs");
    assert!(!out.status.success());

    let out = pis().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // A flag the subcommand does not know — retired (`--shards`) or
    // misspelt — is an error, never silently the default behaviour.
    // Flags are checked before any file is opened.
    let common = ["db.lg", "--index", "index.pis", "--query", "q.lg"];
    for (subcommand, flag) in [
        ("search", vec!["--shards", "4"]),
        ("knn", vec!["--shards", "4"]),
        ("search", vec!["--explian"]),
    ] {
        let out = pis().arg(subcommand).args(common).args(&flag).output().expect("binary runs");
        assert!(!out.status.success(), "{subcommand} {flag:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {}", flag[0])), "{stderr}");
    }
}

#[test]
fn help_prints_usage() {
    let out = run_ok(pis().args(["help"]));
    assert!(out.contains("usage:"));
    assert!(out.contains("pis build"));
}
