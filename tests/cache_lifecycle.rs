//! Lifecycle properties of the size-capped, handle-reusing `Session`
//! cache: eviction at any cap (including 0) leaves every query result
//! byte-identical to the uncapped sequential run at any thread count;
//! hit/miss accounting balances exactly against per-query stats; warm
//! worker reuse and invalidation fencing behave across batches.

use dynsum::cfl::{CtxId, QueryControl};
use dynsum::pag::ObjId;
use dynsum::{
    split_batches, ClientKind, DemandPointsTo, DynSum, EngineConfig, EngineKind, QueryResult,
    Session, SessionQuery,
};
use dynsum_clients::queries_for;
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions, PROFILES};
use proptest::prelude::*;

/// The byte-level identity we claim: resolution flag plus the sorted
/// `(object, allocation context)` pairs.
fn fingerprint(r: &QueryResult) -> (bool, Vec<(ObjId, CtxId)>) {
    (r.resolved, r.pts.iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism claim under eviction: evicting arbitrarily —
    /// random cap, including cap 0 — mid-stream at 1/2/4 threads leaves
    /// every query result byte-identical to the uncapped sequential
    /// run.
    #[test]
    fn eviction_never_changes_results(
        seed in 0u64..500,
        pidx in 0usize..PROFILES.len(),
        cap in 0usize..48,
    ) {
        let w = generate(
            &PROFILES[pidx],
            &GeneratorOptions { scale: 0.01, seed, ..GeneratorOptions::default() },
        );
        let queries = queries_for(ClientKind::NullDeref, &w.info);
        let uncapped: Vec<_> = {
            let mut engine = DynSum::new(&w.pag);
            queries
                .iter()
                .map(|q| fingerprint(&engine.points_to(q.var)))
                .collect()
        };
        let config = EngineConfig {
            max_cached_summaries: Some(cap),
            ..EngineConfig::default()
        };
        let batch: Vec<SessionQuery<'_>> =
            queries.iter().map(|q| SessionQuery::new(q.var)).collect();
        for threads in [1usize, 2, 4] {
            let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
            // Several batches over the same session: eviction happens
            // mid-stream, between and within batches.
            let mid = batch.len() / 2;
            let mut results = session.run_batch(&batch[..mid], threads);
            results.extend(session.run_batch(&batch[mid..], threads));
            prop_assert_eq!(results.len(), uncapped.len());
            for (i, (r, want)) in results.iter().zip(&uncapped).enumerate() {
                prop_assert_eq!(
                    &fingerprint(r),
                    want,
                    "{}: cap={} threads={} diverged on query {}",
                    w.name,
                    cap,
                    threads,
                    i
                );
            }
            prop_assert!(
                session.summary_count() <= cap,
                "cap {} not enforced: {} cached",
                cap,
                session.summary_count()
            );
        }
    }
}

/// `stats().hits + misses` equals total lookups — each shard lookup is
/// counted exactly once even when it is served by the shared cache and
/// the shard merges later, across warm-worker batch reuse.
#[test]
fn lookup_accounting_balances_on_generated_workloads() {
    let w = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.02,
            seed: 11,
            ..GeneratorOptions::default()
        },
    );
    let queries = queries_for(ClientKind::NullDeref, &w.info);
    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    for threads in [1usize, 2, 4] {
        let mut session = Session::new(&w.pag, EngineKind::DynSum);
        let mut per_query_lookups = 0u64;
        for _ in 0..3 {
            for r in session.run_batch(&batch, threads) {
                per_query_lookups += r.stats.cache_hits + r.stats.cache_misses;
            }
        }
        let stats = session.cache_stats();
        assert_eq!(
            stats.lookups(),
            per_query_lookups,
            "threads={threads}: hits {} + misses {} != per-query lookups",
            stats.hits,
            stats.misses
        );
        assert!(stats.hits > 0, "warm batches must hit the shared cache");
    }
}

/// Worker scratch persists across batches and the determinism guarantee
/// survives the reuse (warm pools, snapshot-backed field stacks).
#[test]
fn warm_worker_reuse_stays_deterministic() {
    let w = generate(
        BenchmarkProfile::find("bloat").unwrap(),
        &GeneratorOptions {
            scale: 0.02,
            seed: 3,
            ..GeneratorOptions::default()
        },
    );
    let queries = queries_for(ClientKind::NullDeref, &w.info);
    let sequential: Vec<_> = {
        let mut engine = DynSum::new(&w.pag);
        queries
            .iter()
            .map(|q| fingerprint(&engine.points_to(q.var)))
            .collect()
    };
    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    let mut session = Session::new(&w.pag, EngineKind::DynSum);
    for round in 0..3 {
        let results = session.run_batch(&batch, 4);
        for (r, want) in results.iter().zip(&sequential) {
            assert_eq!(&fingerprint(r), want, "round {round}");
        }
        assert_eq!(session.warm_workers(), 4, "round {round}");
    }
    // The merged cache covers exactly the sequential key set even after
    // three rounds of warm reuse (nothing double-merged, nothing lost).
    let mut engine = DynSum::new(&w.pag);
    for q in &queries {
        engine.points_to(q.var);
    }
    assert_eq!(session.summary_count(), engine.summary_count());
}

/// Invalidation mid-stream: outstanding shards cannot resurrect evicted
/// methods, later batches repopulate them, and results never change.
#[test]
fn invalidation_between_batches_is_safe_and_exact() {
    let w = generate(
        BenchmarkProfile::find("jython").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 5,
            ..GeneratorOptions::default()
        },
    );
    let queries = queries_for(ClientKind::NullDeref, &w.info);
    let batch: Vec<SessionQuery<'_>> = queries.iter().map(|q| SessionQuery::new(q.var)).collect();
    let mut session = Session::new(&w.pag, EngineKind::DynSum);
    // Detach a cold shard first (the session cache is still empty, so
    // every summary the queries need lands in it), *then* populate the
    // shared cache — the shard is now a stale duplicate of it.
    let stale_shard = {
        let mut h = session.handle();
        for q in &queries {
            h.points_to(q.var);
        }
        h.into_summaries()
    };
    assert!(!stale_shard.is_empty());
    let first = session.run_batch(&batch, 2);
    let full = session.summary_count();
    assert!(full > 0);
    let method = {
        let mut probe = Session::new(&w.pag, EngineKind::DynSum);
        probe.run_batch(&batch, 1);
        w.pag
            .methods()
            .map(|(m, _)| m)
            .find(|&m| probe.invalidate_method(m) > 0)
            .expect("some method has summaries")
    };
    let evicted = session.invalidate_method(method);
    assert!(evicted > 0);
    session.absorb(stale_shard);
    assert!(
        session.stale_rejections() > 0,
        "the stale shard must be fenced"
    );
    assert_eq!(
        session.summary_count(),
        full - evicted,
        "fenced entries stay out; everything else deduplicates"
    );
    // Results after invalidation are still byte-identical.
    let second = session.run_batch(&batch, 2);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
    assert_eq!(session.summary_count(), full, "method fully repopulated");
}

/// At one thread the work counters are as deterministic as the answers:
/// `run_batch(…, 1)` (a recycled worker shard) and a fresh handle's
/// `query_with` + `absorb` give equal per-query `QueryStats` and equal
/// `CacheStats` under any cap, because both merge a shard in key order —
/// the clock ring's order, and so what the cap evicts, no longer depends
/// on the shard map's capacity history. (At more than one thread, which
/// worker computes which summary is a race, so counters stay
/// schedule-dependent there; answers never are.)
#[test]
fn one_thread_counters_do_not_depend_on_the_merge_path() {
    let w = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.02,
            seed: 3397,
            ..GeneratorOptions::default()
        },
    );
    // The paper's §5.3 stream: each client's queries in ten batches.
    let batches: Vec<Vec<SessionQuery<'_>>> = [
        ClientKind::SafeCast,
        ClientKind::NullDeref,
        ClientKind::FactoryM,
    ]
    .into_iter()
    .flat_map(|kind| split_batches(queries_for(kind, &w.info), 10))
    .map(|b| b.iter().map(|q| SessionQuery::new(q.var)).collect())
    .collect();
    let working_set = {
        let mut session = Session::new(&w.pag, EngineKind::DynSum);
        for b in &batches {
            session.run_batch(b, 1);
        }
        session.summary_count()
    };
    assert!(working_set >= 80, "working set too small: {working_set}");
    for cap in [1, 20, working_set / 4, working_set / 2] {
        let config = EngineConfig {
            max_cached_summaries: Some(cap),
            ..EngineConfig::default()
        };
        let mut by_batch = Session::with_config(&w.pag, EngineKind::DynSum, config);
        let mut by_handle = Session::with_config(&w.pag, EngineKind::DynSum, config);
        for (i, b) in batches.iter().enumerate() {
            let want = by_batch.run_batch(b, 1);
            let mut h = by_handle.handle();
            let got: Vec<QueryResult> = b
                .iter()
                .map(|q| h.query_with(q.var, q.satisfied, &QueryControl::default()))
                .collect();
            let shard = h.into_summaries();
            by_handle.absorb(shard);
            for (j, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    fingerprint(a),
                    fingerprint(b),
                    "cap {cap} batch {i} query {j}"
                );
                assert_eq!(a.stats, b.stats, "cap {cap} batch {i} query {j}");
            }
            assert_eq!(
                by_batch.cache_stats(),
                by_handle.cache_stats(),
                "cap {cap} after batch {i}"
            );
            assert_eq!(by_batch.summary_count(), by_handle.summary_count());
        }
    }
}
