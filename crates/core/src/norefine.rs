//! NOREFINE — the refinement-free, cache-free baseline (Table 2):
//! Sridharan–Bodík demand-driven CFL-reachability with every load
//! explored field-sensitively from the start, no refinement loop, and no
//! memorization across queries. It delivers full precision (like DYNSUM)
//! but repeats every traversal on every query — the paper's slowest
//! baseline in most configurations.

use dynsum_cfl::{CtxId, QueryControl, QueryResult, QueryStats, Ticket};
use dynsum_pag::{Pag, VarId};

use crate::engine::EngineConfig;
use crate::search::{search, Refinement, SearchParts};

/// Runs one NOREFINE query over borrowed per-handle state. The engine is
/// stateless across queries, so everything it needs besides the frozen
/// PAG and config lives in `parts`.
///
/// The query starts in the empty context (`pointsTo(v, ∅)`). The context
/// pool is per-query scratch (cleared here), so the returned result —
/// including the raw context ids inside the points-to set — is a
/// deterministic function of `(pag, config, v)` alone (plus the
/// interruption signals of `control`, which can only cut it short).
pub(crate) fn norefine_query(
    pag: &Pag,
    config: &EngineConfig,
    parts: &mut SearchParts,
    v: VarId,
    control: &QueryControl,
) -> QueryResult {
    parts.ctxs.clear();
    let mut ticket = Ticket::with_control(config.budget, control);
    let mut stats = QueryStats::default();
    let out = search(
        pag,
        &mut parts.fields,
        &mut parts.ctxs,
        &mut parts.scratch,
        config,
        Refinement::All,
        v,
        CtxId::EMPTY,
        &mut ticket,
        &mut stats,
    );
    match out.interrupt {
        None => QueryResult::resolved(out.pts, stats),
        Some(kind) => QueryResult::interrupted(out.pts, stats, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EngineKind, QueryHandle, Session};
    use dynsum_pag::PagBuilder;

    #[test]
    fn full_precision_without_refinement() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let p1 = b.add_local("p1", m, None).unwrap();
        let p2 = b.add_local("p2", m, None).unwrap();
        let x1 = b.add_local("x1", m, None).unwrap();
        let x2 = b.add_local("x2", m, None).unwrap();
        let y = b.add_local("y", m, None).unwrap();
        let oa = b.add_obj("oa", None, Some(m)).unwrap();
        let ob = b.add_obj("ob", None, Some(m)).unwrap();
        let o1 = b.add_obj("o1", None, Some(m)).unwrap();
        let o2 = b.add_obj("o2", None, Some(m)).unwrap();
        let f = b.field("f");
        b.add_new(oa, p1).unwrap();
        b.add_new(ob, p2).unwrap();
        b.add_new(o1, x1).unwrap();
        b.add_new(o2, x2).unwrap();
        b.add_store(f, x1, p1).unwrap();
        b.add_store(f, x2, p2).unwrap();
        b.add_load(f, p1, y).unwrap();
        let pag = b.finish();
        let mut e = Session::new(&pag, EngineKind::NoRefine);
        let r = e.points_to(y);
        assert!(r.resolved);
        assert_eq!(r.pts.objects().into_iter().collect::<Vec<_>>(), vec![o1]);
        assert_eq!(e.engine().name(), "NOREFINE");
        assert_eq!(e.summary_count(), 0);
    }

    #[test]
    fn no_cross_query_speedup() {
        // Identical queries cost identical work: nothing is memorized.
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let w = b.add_local("w", m, None).unwrap();
        let o = b.add_obj("o", None, Some(m)).unwrap();
        b.add_new(o, v).unwrap();
        b.add_assign(v, w).unwrap();
        let pag = b.finish();
        let mut e = Session::new(&pag, EngineKind::NoRefine);
        let r1 = e.points_to(w);
        let r2 = e.points_to(w);
        assert_eq!(r1.stats.edges_traversed, r2.stats.edges_traversed);
    }

    #[test]
    fn cancelled_engine_returns_a_sound_partial() {
        use dynsum_cfl::{CancelToken, Outcome};
        use std::sync::Arc;
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let o = b.add_obj("o", None, Some(m)).unwrap();
        b.add_new(o, v).unwrap();
        let pag = b.finish();
        let session = Session::new(&pag, EngineKind::NoRefine);
        let mut h: QueryHandle<'_, '_> = session.handle();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let cancelled = QueryControl::new().cancelled_by(token).poll_every(1);
        let never = crate::engine::never_satisfied;
        let r = h.query_with(v, &never, &cancelled);
        assert!(!r.resolved);
        assert_eq!(r.outcome, Outcome::Cancelled);
        // A fresh control resumes normal service on the same handle.
        let r = h.query_with(v, &never, &QueryControl::default());
        assert!(r.resolved && r.pts.contains_obj(o));
    }

    #[test]
    fn context_insensitive_constructor() {
        // id(p){return p} from two sites: the context-insensitive
        // configuration (§3.2) merges what the call sites keep apart.
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let id = b.add_method("id", None).unwrap();
        let a1 = b.add_local("a1", main, None).unwrap();
        let a2 = b.add_local("a2", main, None).unwrap();
        let r1 = b.add_local("r1", main, None).unwrap();
        let p = b.add_local("p", id, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(main)).unwrap();
        let o2 = b.add_obj("o2", None, Some(main)).unwrap();
        b.add_new(o1, a1).unwrap();
        b.add_new(o2, a2).unwrap();
        let s1 = b.add_call_site("1", main).unwrap();
        let s2 = b.add_call_site("2", main).unwrap();
        b.add_entry(s1, a1, p).unwrap();
        b.add_entry(s2, a2, p).unwrap();
        b.add_exit(s1, p, r1).unwrap();
        let pag = b.finish();
        let config = EngineConfig {
            context_sensitive: false,
            ..EngineConfig::default()
        };
        let mut insensitive = Session::with_config(&pag, EngineKind::NoRefine, config);
        assert!(!insensitive.config().context_sensitive);
        let merged = insensitive.points_to(r1).pts.objects();
        assert!(merged.contains(&o1) && merged.contains(&o2));
        let mut sensitive = Session::new(&pag, EngineKind::NoRefine);
        let precise = sensitive.points_to(r1).pts.objects();
        assert_eq!(precise.into_iter().collect::<Vec<_>>(), vec![o1]);
    }
}
