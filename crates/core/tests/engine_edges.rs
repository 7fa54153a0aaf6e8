//! Edge-case tests for the engines: queries on globals, deep context
//! chains, heap contexts, recursion transparency, and cap behavior.

use dynsum_cfl::{Outcome, QueryResult};
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::{MethodId, Pag, PagBuilder, VarId};

/// One full-precision query on a fresh `kind` session.
fn points_to(pag: &Pag, kind: EngineKind, config: EngineConfig, v: VarId) -> QueryResult {
    Session::with_config(pag, kind, config).points_to(v)
}

/// A chain of k wrapper methods: main calls w1 calls w2 ... calls wk,
/// the innermost allocating. Exercises deep balanced contexts.
fn deep_chain(k: usize) -> (Pag, VarId) {
    let mut b = PagBuilder::new();
    let mut methods: Vec<MethodId> = Vec::new();
    for i in 0..=k {
        methods.push(b.add_method(&format!("w{i}"), None).unwrap());
    }
    // Innermost: ret = new O.
    let mut prev_ret = {
        let m = methods[k];
        let ret = b.add_local(&format!("ret{k}"), m, None).unwrap();
        let o = b.add_obj("deep", None, Some(m)).unwrap();
        b.add_new(o, ret).unwrap();
        ret
    };
    // Wrappers: ret_i = w_{i+1}().
    for i in (0..k).rev() {
        let m = methods[i];
        let ret = b.add_local(&format!("ret{i}"), m, None).unwrap();
        let site = b.add_call_site(&format!("c{i}"), m).unwrap();
        b.add_exit(site, prev_ret, ret).unwrap();
        prev_ret = ret;
    }
    (b.finish(), prev_ret)
}

#[test]
fn deep_call_chains_resolve_within_context_cap() {
    let (pag, root) = deep_chain(24);
    for kind in [EngineKind::DynSum, EngineKind::NoRefine] {
        let r = points_to(&pag, kind, EngineConfig::default(), root);
        assert!(r.resolved, "depth 24 must fit the default context cap");
        assert_eq!(r.pts.objects().len(), 1);
    }
}

#[test]
fn context_cap_aborts_conservatively() {
    let (pag, root) = deep_chain(24);
    let config = EngineConfig {
        max_ctx_depth: 4,
        ..EngineConfig::default()
    };
    let r = points_to(&pag, EngineKind::DynSum, config, root);
    assert_eq!(
        r.outcome,
        Outcome::OverBudget,
        "a 24-deep chain cannot fit a 4-deep context cap"
    );
}

#[test]
fn heap_contexts_distinguish_allocation_paths() {
    // alloc() { return new O; } called from two sites: the same abstract
    // object arrives under two heap contexts but is one object.
    let mut b = PagBuilder::new();
    let main = b.add_method("main", None).unwrap();
    let alloc = b.add_method("alloc", None).unwrap();
    let ret = b.add_local("ret", alloc, None).unwrap();
    let o = b.add_obj("o", None, Some(alloc)).unwrap();
    b.add_new(o, ret).unwrap();
    let r1 = b.add_local("r1", main, None).unwrap();
    let r2 = b.add_local("r2", main, None).unwrap();
    let joint = b.add_local("joint", main, None).unwrap();
    let s1 = b.add_call_site("1", main).unwrap();
    let s2 = b.add_call_site("2", main).unwrap();
    b.add_exit(s1, ret, r1).unwrap();
    b.add_exit(s2, ret, r2).unwrap();
    b.add_assign(r1, joint).unwrap();
    b.add_assign(r2, joint).unwrap();
    let pag = b.finish();

    let r = points_to(&pag, EngineKind::DynSum, EngineConfig::default(), joint);
    assert!(r.resolved);
    // One abstract object, reached under two distinct allocation
    // contexts (the paper's heap abstraction, §3.3).
    assert_eq!(r.pts.objects().len(), 1);
    assert_eq!(r.pts.len(), 2, "two (object, context) pairs");
}

#[test]
fn recursive_sites_still_find_objects() {
    // walk(p) { return walk(p); } — plus a base flow in via entry.
    let mut b = PagBuilder::new();
    let main = b.add_method("main", None).unwrap();
    let walk = b.add_method("walk", None).unwrap();
    let p = b.add_local("p", walk, None).unwrap();
    let ret = b.add_local("ret", walk, None).unwrap();
    b.add_assign(p, ret).unwrap();
    // Self-call: ret = walk(p), marked recursive.
    let sr = b.add_call_site("rec", walk).unwrap();
    b.set_recursive(sr, true).unwrap();
    b.add_entry(sr, p, p).unwrap();
    b.add_exit(sr, ret, ret).unwrap();
    // main: x = new O; r = walk(x).
    let x = b.add_local("x", main, None).unwrap();
    let r = b.add_local("r", main, None).unwrap();
    let o = b.add_obj("o", None, Some(main)).unwrap();
    b.add_new(o, x).unwrap();
    let s = b.add_call_site("call", main).unwrap();
    b.add_entry(s, x, p).unwrap();
    b.add_exit(s, ret, r).unwrap();
    let pag = b.finish();

    for kind in EngineKind::ALL {
        let result = points_to(&pag, kind, EngineConfig::default(), r);
        assert!(result.resolved, "{kind} must terminate on recursion");
        assert!(result.pts.contains_obj(o), "{kind} must find o");
    }
}

#[test]
fn querying_a_global_works() {
    let mut b = PagBuilder::new();
    let m = b.add_method("m", None).unwrap();
    let v = b.add_local("v", m, None).unwrap();
    let g = b.add_global("G", None).unwrap();
    let o = b.add_obj("o", None, Some(m)).unwrap();
    b.add_new(o, v).unwrap();
    b.add_assign(v, g).unwrap();
    let pag = b.finish();
    for kind in EngineKind::ALL {
        let resolved = points_to(&pag, kind, EngineConfig::default(), g);
        assert!(resolved.resolved);
        assert!(resolved.pts.contains_obj(o));
    }
}

#[test]
fn unreachable_variable_has_empty_set() {
    let mut b = PagBuilder::new();
    let m = b.add_method("m", None).unwrap();
    let v = b.add_local("v", m, None).unwrap();
    let pag = b.finish();
    let r = points_to(&pag, EngineKind::DynSum, EngineConfig::default(), v);
    assert!(r.resolved);
    assert!(r.pts.is_empty());
}

#[test]
fn empty_graph_engines_do_not_panic() {
    let pag = PagBuilder::new().finish();
    // No variables to query; constructing sessions (STASUM's runs its
    // precomputation) must be safe.
    for kind in EngineKind::ALL {
        let _ = Session::new(&pag, kind);
    }
}

/// One formal with 240 callers: `main` calls `id(a_i)` at sites `i`,
/// `id` returns its parameter, and `acc` collects 40 of the results.
/// Every path from `acc` returns into `id` (pushing its site) and then
/// meets `p`'s 240-edge entry segment under that one-site context, where
/// exactly one edge matches.
fn wide_formal() -> (Pag, VarId) {
    let mut b = PagBuilder::new();
    let main = b.add_method("main", None).unwrap();
    let id = b.add_method("id", None).unwrap();
    let p = b.add_local("p", id, None).unwrap();
    let ret = b.add_local("ret", id, None).unwrap();
    b.add_assign(p, ret).unwrap();
    let acc = b.add_local("acc", main, None).unwrap();
    for i in 0..240 {
        let a = b.add_local(&format!("a{i}"), main, None).unwrap();
        let r = b.add_local(&format!("r{i}"), main, None).unwrap();
        let o = b.add_obj(&format!("o{i}"), None, Some(main)).unwrap();
        b.add_new(o, a).unwrap();
        let site = b.add_call_site(&format!("s{i}"), main).unwrap();
        b.add_entry(site, a, p).unwrap();
        b.add_exit(site, ret, r).unwrap();
        if i % 6 == 0 {
            b.add_assign(r, acc).unwrap();
        }
    }
    (b.finish(), acc)
}

#[test]
fn wide_formal_over_budget_is_pinned() {
    // The budget trips partway through the 40 returns, inside one of
    // p's wide entry segments. Context matching may skip non-matching
    // edges, but it must charge each one: these outcomes, partial
    // answers and edge counts are the per-edge scan's.
    let (pag, acc) = wide_formal();
    let config = EngineConfig {
        budget: 3_000,
        ..EngineConfig::default()
    };
    // 12 of the 40 objects, under the same contexts, in every engine;
    // DYNSUM's count stops short of the budget because a reused
    // summary's lump charge that does not fit is not deducted.
    let partial = 17_315_285_581_788_345_361;
    let pins = [
        (EngineKind::NoRefine, partial, 3_000),
        (EngineKind::RefinePts, partial, 3_000),
        (EngineKind::DynSum, partial, 2_988),
        (EngineKind::StaSum, partial, 3_000),
    ];
    for (kind, fingerprint, edges) in pins {
        let r = points_to(&pag, kind, config, acc);
        assert_eq!(r.pts.objects().len(), 12, "{}", kind.name());
        assert_eq!(
            (r.outcome, r.pts.fingerprint(), r.stats.edges_traversed),
            (Outcome::OverBudget, fingerprint, edges),
            "{}",
            kind.name()
        );
    }
    // Unlimited, every engine finds all 40 objects.
    for kind in [EngineKind::NoRefine, EngineKind::DynSum] {
        let r = points_to(&pag, kind, EngineConfig::unlimited(), acc);
        assert!(r.resolved);
        assert_eq!(r.pts.objects().len(), 40, "{}", kind.name());
    }
}
