//! Cross-engine equivalence and oracle soundness on random PAGs.
//!
//! The paper's central precision claim is that DYNSUM loses nothing:
//! *"DYNSUM can deliver the same precision as REFINEPTS"* (§4.4), and all
//! context-sensitive demand engines compute `L_FT ∩ R_RP` reachability.
//! These properties are checked here on randomly generated, structurally
//! valid PAGs:
//!
//! 1. DYNSUM == NOREFINE == REFINEPTS == STASUM (object sets, whenever
//!    every engine resolves within budget);
//! 2. DYNSUM with the summary cache == DYNSUM without it (reuse is
//!    precision-free);
//! 3. every context-sensitive answer ⊆ the Andersen whole-program
//!    solution (context sensitivity only removes objects);
//! 4. the context-insensitive demand engine == Andersen exactly
//!    (`L_FT` reachability ≡ inclusion-based points-to);
//! 5. a session answering one query at a time (`Session::points_to`)
//!    does exactly the work of the same stream run as one batch, for
//!    every engine kind.

use std::collections::BTreeSet;

use dynsum_andersen::Andersen;
use dynsum_cfl::{Outcome, QueryResult};
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::{ObjId, Pag, PagBuilder, VarId};
use proptest::prelude::*;

/// A generable program shape. All indices are taken modulo the respective
/// arena sizes, so any instance is constructible.
#[derive(Debug, Clone)]
struct Spec {
    methods: usize,
    locals_per: usize,
    globals: usize,
    fields: usize,
    objs: Vec<(usize, usize)>,
    assigns: Vec<(usize, usize, usize)>,
    loads: Vec<(usize, usize, usize, usize)>,
    stores: Vec<(usize, usize, usize, usize)>,
    gassigns: Vec<(bool, usize, usize, usize)>,
    calls: Vec<(usize, usize, usize, usize, usize, usize)>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let idx = 0usize..32;
    (
        (1usize..=3, 2usize..=4, 0usize..=2, 1usize..=2),
        proptest::collection::vec((idx.clone(), idx.clone()), 1..6),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone()), 0..6),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone(), idx.clone()), 0..4),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone(), idx.clone()), 0..4),
        proptest::collection::vec((any::<bool>(), idx.clone(), idx.clone(), idx.clone()), 0..3),
        proptest::collection::vec(
            (
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx,
            ),
            0..4,
        ),
    )
        .prop_map(
            |(
                (methods, locals_per, globals, fields),
                objs,
                assigns,
                loads,
                stores,
                gassigns,
                calls,
            )| {
                Spec {
                    methods,
                    locals_per,
                    globals,
                    fields,
                    objs,
                    assigns,
                    loads,
                    stores,
                    gassigns,
                    calls,
                }
            },
        )
}

/// Materializes a spec into a valid PAG plus the query set (all locals of
/// method 0 and all globals).
fn build(spec: &Spec) -> (Pag, Vec<VarId>) {
    let mut b = PagBuilder::new();
    let mut methods = Vec::new();
    let mut locals: Vec<Vec<VarId>> = Vec::new();
    for m in 0..spec.methods {
        let mid = b.add_method(&format!("m{m}"), None).unwrap();
        methods.push(mid);
        let mut ls = Vec::new();
        for l in 0..spec.locals_per {
            ls.push(b.add_local(&format!("v_{m}_{l}"), mid, None).unwrap());
        }
        locals.push(ls);
    }
    let mut globals = Vec::new();
    for g in 0..spec.globals {
        globals.push(b.add_global(&format!("g{g}"), None).unwrap());
    }
    let mut fields = Vec::new();
    for f in 0..spec.fields {
        fields.push(b.field(&format!("f{f}")));
    }

    for (i, &(m, l)) in spec.objs.iter().enumerate() {
        let m = m % spec.methods;
        let l = l % spec.locals_per;
        let o = b.add_obj(&format!("o{i}"), None, Some(methods[m])).unwrap();
        b.add_new(o, locals[m][l]).unwrap();
    }
    for &(m, s, d) in &spec.assigns {
        let m = m % spec.methods;
        let (s, d) = (s % spec.locals_per, d % spec.locals_per);
        if s != d {
            b.add_assign(locals[m][s], locals[m][d]).unwrap();
        }
    }
    for &(m, f, base, dst) in &spec.loads {
        let m = m % spec.methods;
        b.add_load(
            fields[f % spec.fields],
            locals[m][base % spec.locals_per],
            locals[m][dst % spec.locals_per],
        )
        .unwrap();
    }
    for &(m, f, src, base) in &spec.stores {
        let m = m % spec.methods;
        b.add_store(
            fields[f % spec.fields],
            locals[m][src % spec.locals_per],
            locals[m][base % spec.locals_per],
        )
        .unwrap();
    }
    for &(to_global, m, l, g) in &spec.gassigns {
        if spec.globals == 0 {
            continue;
        }
        let m = m % spec.methods;
        let l = locals[m][l % spec.locals_per];
        let g = globals[g % spec.globals];
        if to_global {
            b.add_assign(l, g).unwrap();
        } else {
            b.add_assign(g, l).unwrap();
        }
    }
    for (i, &(caller, callee, actual, formal, ret, dst)) in spec.calls.iter().enumerate() {
        let caller = caller % spec.methods;
        let callee = callee % spec.methods;
        let site = b.add_call_site(&format!("cs{i}"), methods[caller]).unwrap();
        if caller == callee {
            // Self-call: a call-graph cycle, traversed context-free.
            b.set_recursive(site, true).unwrap();
        }
        b.add_entry(
            site,
            locals[caller][actual % spec.locals_per],
            locals[callee][formal % spec.locals_per],
        )
        .unwrap();
        b.add_exit(
            site,
            locals[callee][ret % spec.locals_per],
            locals[caller][dst % spec.locals_per],
        )
        .unwrap();
    }

    let mut queries: Vec<VarId> = locals[0].clone();
    queries.extend(globals.iter().copied());
    (b.finish(), queries)
}

fn test_config() -> EngineConfig {
    EngineConfig {
        budget: 200_000,
        max_field_depth: 8,
        max_ctx_depth: 32,
        ..EngineConfig::default()
    }
}

fn objset(r: &QueryResult) -> BTreeSet<ObjId> {
    r.pts.objects()
}

fn session(pag: &Pag, kind: EngineKind, config: EngineConfig) -> Session<'_> {
    Session::with_config(pag, kind, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_and_respect_oracle(spec in spec_strategy()) {
        let (pag, queries) = build(&spec);
        prop_assert!(dynsum_pag::validate(&pag).is_empty());

        let oracle = Andersen::analyze(&pag);
        let config = test_config();
        let mut dynsum = session(&pag, EngineKind::DynSum, config);
        let mut dynsum_nocache = session(
            &pag,
            EngineKind::DynSum,
            EngineConfig { cache_summaries: false, ..config },
        );
        let mut norefine = session(&pag, EngineKind::NoRefine, config);
        let mut refinepts = session(&pag, EngineKind::RefinePts, config);
        let mut stasum = session(&pag, EngineKind::StaSum, config);
        let mut ci = session(
            &pag,
            EngineKind::NoRefine,
            EngineConfig { context_sensitive: false, ..config },
        );

        for &v in &queries {
            let rd = dynsum.points_to(v);
            let rdn = dynsum_nocache.points_to(v);
            let rn = norefine.points_to(v);
            let rr = refinepts.points_to(v);
            let rs = stasum.points_to(v);
            let rc = ci.points_to(v);
            // A session isolates an engine panic as an empty, unresolved
            // answer, which every check below would let through.
            for r in [&rd, &rdn, &rn, &rr, &rs, &rc] {
                prop_assert_ne!(r.outcome, Outcome::Panicked, "engine panic on {:?}", v);
            }

            // (1) + (2): full cross-engine agreement when all resolve.
            if rd.resolved && rdn.resolved && rn.resolved && rr.resolved && rs.resolved {
                let d = objset(&rd);
                prop_assert_eq!(&d, &objset(&rdn), "cache changed precision for {:?}", v);
                prop_assert_eq!(&d, &objset(&rn), "DYNSUM != NOREFINE for {:?}", v);
                prop_assert_eq!(&d, &objset(&rr), "DYNSUM != REFINEPTS for {:?}", v);
                prop_assert_eq!(&d, &objset(&rs), "DYNSUM != STASUM for {:?}", v);
            }

            // (3): context-sensitive answers never exceed the oracle.
            let oracle_set: BTreeSet<ObjId> = oracle.var_pts(v).iter().copied().collect();
            if rd.resolved {
                prop_assert!(
                    objset(&rd).is_subset(&oracle_set),
                    "DYNSUM exceeded the Andersen oracle for {:?}", v
                );
            }

            // (4): context-insensitive demand == Andersen, exactly.
            if rc.resolved {
                prop_assert_eq!(
                    objset(&rc), oracle_set,
                    "context-insensitive demand != Andersen for {:?}", v
                );
            }
        }
    }

    #[test]
    fn summary_reuse_only_reduces_work(spec in spec_strategy()) {
        let (pag, queries) = build(&spec);
        let config = test_config();
        let mut warm = session(&pag, EngineKind::DynSum, config);
        // Warm the cache with one pass.
        for &v in &queries {
            warm.points_to(v);
        }
        // A second pass must never traverse more edges per query than a
        // cold engine does.
        for &v in &queries {
            let mut cold = session(&pag, EngineKind::DynSum, config);
            let cold_r = cold.points_to(v);
            let warm_r = warm.points_to(v);
            prop_assert!(
                warm_r.stats.edges_traversed <= cold_r.stats.edges_traversed,
                "warm cache must not do more edge work (var {:?})", v
            );
        }
    }

    #[test]
    fn one_query_path_matches_one_batch(
        spec in spec_strategy(),
        budget in prop_oneof![Just(40u64), Just(300u64), Just(2_000u64), Just(200_000u64)],
        cap in 0usize..4,
    ) {
        let (pag, mut queries) = build(&spec);
        queries.extend(queries.clone());
        let config = EngineConfig { budget, ..test_config() };
        for kind in EngineKind::ALL {
            // Uncapped: the same answers and the same work, query by
            // query, and the same cache at the end.
            let mut one = session(&pag, kind, config);
            let singles: Vec<QueryResult> = queries.iter().map(|&v| one.points_to(v)).collect();
            prop_assert!(singles.iter().all(|r| r.outcome != Outcome::Panicked), "{} panicked", kind);
            let mut batch = session(&pag, kind, config);
            let batched = batch.run_batch_vars(&queries, 1);
            prop_assert_eq!(&singles, &batched, "{} one at a time vs one batch", kind);
            prop_assert_eq!(one.summary_count(), batch.summary_count(), "{}", kind);
            prop_assert_eq!(one.cache_stats(), batch.cache_stats(), "{}", kind);

            // Caching never changes an answer.
            let mut nocache = session(&pag, kind, EngineConfig { cache_summaries: false, ..config });
            for (&v, r) in queries.iter().zip(&singles) {
                prop_assert_eq!(r.fingerprint(), nocache.points_to(v).fingerprint(), "{} cache off", kind);
            }

            // Capped: the sweep runs over the shard and then the shared
            // cache, so only the answers are comparable.
            let capped = EngineConfig { max_cached_summaries: Some(cap), ..config };
            let mut one = session(&pag, kind, capped);
            let mut batch = session(&pag, kind, capped);
            let batched = batch.run_batch_vars(&queries, 1);
            for ((&v, r), b) in queries.iter().zip(&singles).zip(&batched) {
                let a = one.points_to(v);
                prop_assert_eq!(a.fingerprint(), r.fingerprint(), "{} cap {}", kind, cap);
                prop_assert_eq!(b.fingerprint(), r.fingerprint(), "{} cap {}", kind, cap);
                // STASUM's count is its precomputed store, never capped.
                prop_assert!(kind == EngineKind::StaSum || one.summary_count() <= cap);
            }
        }
    }
}
