//! The timed pass: one thread, one client, closed loop — the next
//! operation is issued when the previous one has returned. (The program
//! itself may fan a single search out across its `ScopedPool`.)

use std::path::PathBuf;
use std::time::Instant;

use pis::graph::ScopedPool;
use pis::prelude::*;

use crate::harness::{mutation_distance, time_ms, Check, Inputs};
use crate::spec::{Scale, Workload, SEARCHES_PER_INSERT, TOPO_STRIDE, TRACE_STRIDE};
use crate::trace::{trace_search, TraceCtx};

/// One client operation.
pub(crate) enum Op {
    /// Search for timed query `query`; a traced run also replays its
    /// layers (`traced`) and runs `topo_prune` on it (`topo`).
    Search { query: usize, traced: bool, topo: bool },
    /// Durably insert arrival `arrival`.
    Insert { arrival: usize },
    /// Compact the durable store.
    Compact,
    /// Drop the durable store and recover it from its directory.
    Reopen,
}

/// The operations of workload `w`, in order. A traced run of a read-only
/// workload keeps every [`TRACE_STRIDE`]-th query; on a writing workload
/// it keeps every operation (the interleaving is the workload) and
/// traces every [`TRACE_STRIDE`]-th search. A writing workload ends with
/// recovery: the last quarter of its inserts is still in the WAL.
pub(crate) fn plan(w: &Workload, scale: Scale, traced_run: bool) -> Vec<Op> {
    let search = |query: usize| {
        let traced = traced_run && query % TRACE_STRIDE == 0;
        Op::Search { query, traced, topo: traced && (query / TRACE_STRIDE) % TOPO_STRIDE == 0 }
    };
    let inserts = w.inserts_at(scale);
    if inserts == 0 {
        let step = if traced_run { TRACE_STRIDE } else { 1 };
        return (0..w.searches_at(scale)).step_by(step).map(search).collect();
    }
    // Compact after each quarter but the last, which stays in the WAL
    // for recovery to replay.
    let quarter = inserts / 4;
    let mut ops = Vec::new();
    for i in 0..inserts {
        ops.push(Op::Insert { arrival: i });
        ops.extend((0..SEARCHES_PER_INSERT).map(|k| search(i * SEARCHES_PER_INSERT + k)));
        if (i + 1) % quarter == 0 && i + 1 < inserts {
            ops.push(Op::Compact);
        }
    }
    ops.push(Op::Reopen);
    ops
}

/// What the pass drives: the in-memory system, or the durable store
/// around it on a writing workload.
pub(crate) enum Store {
    Mem(PisSystem),
    /// The store and the directory it recovers from.
    Durable(DurableSystem, PathBuf),
}

impl Store {
    pub(crate) fn system(&self) -> &PisSystem {
        match self {
            Store::Mem(system) => system,
            Store::Durable(store, _) => store.system(),
        }
    }

    pub(crate) fn into_system(self) -> PisSystem {
        match self {
            Store::Mem(system) => system,
            Store::Durable(store, _) => store.into_system(),
        }
    }

    fn durable(&mut self) -> &mut DurableSystem {
        match self {
            Store::Durable(store, _) => store,
            Store::Mem(_) => unreachable!("read-only workloads plan no writes"),
        }
    }
}

/// One search of the pass, kept for the oracle.
pub(crate) struct SearchRecord {
    query: usize,
    /// Database size when the search ran (the database only appends, so
    /// the state it saw is this prefix of the final database).
    db_len: usize,
    answers: Vec<GraphId>,
    exact: bool,
    /// `naive_scan`'s answers, when the traced run already computed them.
    oracle: Option<Vec<GraphId>>,
}

/// Client-side timings of one pass, one entry per operation.
#[derive(Default)]
pub(crate) struct PassLog {
    pub(crate) records: Vec<SearchRecord>,
    pub(crate) search_ms: Vec<f64>,
    pub(crate) insert_ms: Vec<f64>,
    pub(crate) compact_s: Vec<f64>,
    pub(crate) reopen_s: Vec<f64>,
    pub(crate) wall_s: f64,
}

/// Times a write on the client's clock, inside a span when the run is
/// traced.
fn timed<T>(trace: Option<&mut TraceCtx>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match trace {
        Some(ctx) => time_ms(|| ctx.tracer.span(name, None, None, f)),
        None => time_ms(f),
    }
}

/// Runs `ops` against `store` and hands it back (recovered, if the
/// pass reopened it). With `trace` set, client calls are wrapped in spans
/// and traced searches are replayed layer by layer.
pub(crate) fn run_pass(
    mut store: Store,
    ops: &[Op],
    inputs: &Inputs,
    sigma: f64,
    mut trace: Option<&mut TraceCtx>,
    check: &mut Check,
) -> Result<(Store, PassLog), String> {
    let mut log = PassLog::default();
    let started = Instant::now();
    for op in ops {
        match *op {
            Op::Search { query, traced, topo } => {
                let system = store.system();
                let q = &inputs.queries[query];
                let db_len = system.database().len();
                let (outcome, ms, oracle) = match trace.as_deref_mut() {
                    Some(ctx) if traced => {
                        let t = trace_search(ctx, system, q, query, sigma, topo, check);
                        (t.outcome, t.plain_ms, Some(t.oracle))
                    }
                    _ => {
                        let (outcome, ms) = time_ms(|| system.search(q, sigma));
                        (outcome, ms, None)
                    }
                };
                log.search_ms.push(ms);
                log.records.push(SearchRecord {
                    query,
                    db_len,
                    exact: outcome.completeness.is_exact(),
                    answers: outcome.answers,
                    oracle,
                });
            }
            Op::Insert { arrival } => {
                let graph = inputs.arrivals()[arrival].clone();
                let store = store.durable();
                let (inserted, ms) =
                    timed(trace.as_deref_mut(), "durable.insert", || store.insert_graph(graph));
                log.insert_ms.push(ms);
                check.that(inserted.is_ok(), || format!("insert {arrival} failed: {inserted:?}"));
            }
            Op::Compact => {
                let store = store.durable();
                let (compacted, ms) =
                    timed(trace.as_deref_mut(), "durable.compact", || store.compact());
                log.compact_s.push(ms / 1e3);
                check.that(compacted.is_ok(), || format!("compaction failed: {compacted:?}"));
            }
            Op::Reopen => {
                let Store::Durable(old, dir) = store else {
                    unreachable!("read-only workloads plan no recovery")
                };
                drop(old);
                let (reopened, ms) = timed(trace.as_deref_mut(), "durable.reopen", || {
                    DurableSystem::open(&dir, PisConfig::default())
                });
                log.reopen_s.push(ms / 1e3);
                store = Store::Durable(reopened.map_err(|e| format!("reopen failed: {e}"))?, dir);
            }
        }
    }
    log.wall_s = started.elapsed().as_secs_f64();
    Ok((store, log))
}

/// The oracle: every recorded search must have been `Exact` and equal
/// `naive_scan` on the database state it saw. Runs after the pass, off
/// the clock, across all cores.
pub(crate) fn check_searches(
    system: &PisSystem,
    records: &[SearchRecord],
    queries: &[LabeledGraph],
    sigma: f64,
    check: &mut Check,
) {
    let db = system.database();
    let distance = mutation_distance(system);
    let expected = ScopedPool::default().map(records, 2, |_, r| match &r.oracle {
        Some(answers) => answers.clone(),
        None => pis::core::naive_scan(&db[..r.db_len], &queries[r.query], distance, sigma).answers,
    });
    for (r, expected) in records.iter().zip(expected) {
        check.that(r.exact && r.answers == expected, || {
            format!(
                "query {}: {} answers ({}), naive_scan has {} over {} graphs",
                r.query,
                r.answers.len(),
                if r.exact { "exact" } else { "not exact" },
                expected.len(),
                r.db_len
            )
        });
    }
}
