//! Determinism properties of the `Session` API: `run_batch` at any
//! thread count must return exactly the points-to sets and client
//! verdicts of one query at a time through `Session::points_to` — on
//! generated workload graphs, for warm and budget-starved configurations
//! alike — plus compile-time `Send`/`Sync` assertions for the session
//! types.

use dynsum::cfl::{CtxId, Outcome};
use dynsum::pag::ObjId;
use dynsum::{
    ClientKind, EngineConfig, EngineKind, QueryHandle, QueryResult, Session, SessionQuery,
    SummaryShard,
};
use dynsum_clients::{queries_for, verdict};
use dynsum_workloads::{generate, GeneratorOptions, Workload, PROFILES};
use proptest::prelude::*;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn session_types_cross_threads() {
    // Session is shareable (&Session goes to every worker), handles and
    // detached shards move into/out of workers, queries are shared refs.
    assert_send::<Session<'static>>();
    assert_sync::<Session<'static>>();
    assert_send::<QueryHandle<'static, 'static>>();
    assert_send::<SummaryShard>();
    assert_send::<SessionQuery<'static>>();
    assert_sync::<SessionQuery<'static>>();
}

/// The byte-level identity we claim: resolution flag plus the sorted
/// `(object, allocation context)` pairs. Context ids are comparable
/// because context pools are per-query scratch. An isolated engine
/// panic (an empty, unresolved answer on every path alike) fails
/// instead of comparing equal.
fn fingerprint(r: &QueryResult) -> (bool, Vec<(ObjId, CtxId)>) {
    assert_ne!(r.outcome, Outcome::Panicked, "engine panic");
    (r.resolved, r.pts.iter().collect())
}

/// Runs the NullDeref stream sequentially — a session answering one
/// query at a time — then on `Session::run_batch` at 1/2/4 threads,
/// asserting identical fingerprints and verdicts throughout.
fn check_workload(w: &Workload, config: EngineConfig) -> usize {
    let queries = queries_for(ClientKind::NullDeref, &w.info);
    let mut engine = Session::with_config(&w.pag, EngineKind::DynSum, config);
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| {
            let r = engine.points_to(q.var);
            (verdict(&w.pag, q, &r), fingerprint(&r))
        })
        .collect();
    let unresolved = sequential.iter().filter(|(_, (ok, _))| !ok).count();

    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    for threads in [1usize, 2, 4] {
        let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
        let results = session.run_batch(&batch, threads);
        assert_eq!(results.len(), sequential.len());
        for ((q, (want_verdict, want_fp)), r) in queries.iter().zip(&sequential).zip(&results) {
            assert_eq!(
                &fingerprint(r),
                want_fp,
                "{}: threads={threads} diverged on {q:?}",
                w.name
            );
            assert_eq!(verdict(&w.pag, q, r), *want_verdict);
        }
        assert_eq!(
            session.summary_count(),
            engine.summary_count(),
            "{}: merged cache must cover exactly the sequential key set",
            w.name
        );
    }
    unresolved
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm-path determinism on random generator graphs.
    #[test]
    fn run_batch_matches_sequential_on_generated_graphs(
        seed in 0u64..500,
        pidx in 0usize..PROFILES.len(),
    ) {
        let w = generate(
            &PROFILES[pidx],
            &GeneratorOptions { scale: 0.01, seed, ..GeneratorOptions::default() },
        );
        check_workload(&w, EngineConfig::default());
    }
}

/// Budget starvation is the hard case: over-budget queries return
/// *partial* sets, and those must also be thread-count-independent
/// (deterministic reuse accounting guarantees it).
#[test]
fn tight_budgets_stay_deterministic_across_thread_counts() {
    let w = generate(
        dynsum_workloads::BenchmarkProfile::find("bloat").unwrap(),
        &GeneratorOptions {
            scale: 0.05,
            seed: 7,
            ..GeneratorOptions::default()
        },
    );
    let mut starved_somewhere = false;
    for budget in [300, 1500, 10_000] {
        let config = EngineConfig {
            budget,
            ..EngineConfig::default()
        };
        starved_somewhere |= check_workload(&w, config) > 0;
    }
    assert!(
        starved_somewhere,
        "test must exercise over-budget partial results to mean anything"
    );
}

/// The memorization-free and static engines parallelize trivially; spot
/// check STASUM (shared frozen store) batches against the sequential
/// reference, a cold STASUM session answering one query at a time.
#[test]
fn stasum_sessions_match_legacy_engine() {
    let w = generate(
        dynsum_workloads::BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 3,
            ..GeneratorOptions::default()
        },
    );
    let queries = queries_for(ClientKind::SafeCast, &w.info);
    let mut reference = Session::new(&w.pag, EngineKind::StaSum);
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| fingerprint(&reference.points_to(q.var)))
        .collect();
    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    let mut session = Session::new(&w.pag, EngineKind::StaSum);
    assert_eq!(session.summary_count(), reference.summary_count());
    for threads in [1usize, 3] {
        let results = session.run_batch(&batch, threads);
        for (want, r) in sequential.iter().zip(&results) {
            assert_eq!(&fingerprint(r), want, "threads={threads}");
        }
    }
}
