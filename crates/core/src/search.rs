//! The Sridharan–Bodík demand-driven search (Algorithm 1), in worklist
//! form, shared by NOREFINE and REFINEPTS.
//!
//! The search explores the same configuration space as DYNSUM —
//! `(node, field stack, direction, context)` — but one edge at a time
//! across the whole PAG, with no summarization and no cross-query
//! memorization (each query starts from a fresh `seen` set). Running the
//! engines over a single transition relation makes the paper's precision
//! claim (*"DYNSUM can deliver the same precision as REFINEPTS"*)
//! structural, and the property-based test suite verifies it on random
//! graphs.
//!
//! REFINEPTS's **refinement** (§3.3) is expressed per load edge: a load
//! outside `fldsToRefine` is treated field-based — an artificial *match*
//! edge short-circuits the alias detour, pairing the load with every
//! store of the same field and clearing the calling context — and is
//! recorded in `fldsSeen` so the next iteration can refine it.

use dynsum_cfl::{
    CtxId, Direction, FieldFrame, FieldStackId, FxHashSet, Interrupt, PointsToSet, QueryStats,
    StackPool, Ticket,
};
use dynsum_pag::{AdjClass, CallSiteId, EdgeId, NodeId, NodeRef, Pag, VarId};

use crate::engine::{ctx_clear, ctx_push, pop_segment, EngineConfig, PopSeg};

/// Which load edges are explored field-sensitively.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Refinement<'a> {
    /// Every load is field-sensitive (NOREFINE, and REFINEPTS's limit).
    All,
    /// Only the listed load edges are field-sensitive; the rest go
    /// through match edges (REFINEPTS iterations).
    Only(&'a FxHashSet<EdgeId>),
}

impl Refinement<'_> {
    #[inline]
    fn is_refined(&self, e: EdgeId) -> bool {
        match self {
            Refinement::All => true,
            Refinement::Only(set) => set.contains(&e),
        }
    }
}

/// Result of one search pass.
#[derive(Debug)]
pub(crate) struct SearchOutcome {
    /// Points-to pairs found.
    pub pts: PointsToSet,
    /// Match edges used (the iteration's `fldsSeen`).
    pub flds_seen: FxHashSet<EdgeId>,
    /// `Some(kind)` when the search was interrupted (budget or depth-cap
    /// exhaustion, cancellation, deadline); `None` when it completed.
    pub interrupt: Option<Interrupt>,
}

impl SearchOutcome {
    /// `true` when the search ran to completion.
    #[cfg(test)]
    pub(crate) fn complete(&self) -> bool {
        self.interrupt.is_none()
    }
}

/// Reusable worklist and seen-set buffers: each query starts logically
/// fresh (cleared), but the backing allocations persist across queries so
/// the table never re-grows from empty on a warm engine.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    seen: FxHashSet<(NodeId, FieldStackId, Direction, CtxId)>,
    wl: Vec<(NodeId, FieldStackId, Direction, CtxId)>,
}

/// The complete per-handle working state of the search-based engines
/// (NOREFINE / REFINEPTS): interning pools plus worklist buffers, owned
/// by a [`Session`](crate::Session) query handle — everything shareable
/// lives in the session, everything mutable lives here.
#[derive(Debug, Default)]
pub(crate) struct SearchParts {
    pub(crate) fields: StackPool<FieldFrame>,
    pub(crate) ctxs: StackPool<CallSiteId>,
    pub(crate) scratch: SearchScratch,
}

/// Runs one demand-driven search pass for `pointsTo(start, start_ctx)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    pag: &Pag,
    fields: &mut StackPool<FieldFrame>,
    ctxs: &mut StackPool<CallSiteId>,
    scratch: &mut SearchScratch,
    config: &EngineConfig,
    refinement: Refinement<'_>,
    start: VarId,
    start_ctx: CtxId,
    ticket: &mut Ticket,
    stats: &mut QueryStats,
) -> SearchOutcome {
    scratch.seen.clear();
    scratch.wl.clear();
    let mut cx = SearchCx {
        pag,
        fields,
        ctxs,
        config,
        refinement,
        ticket,
        stats,
        pts: PointsToSet::new(),
        flds_seen: FxHashSet::default(),
        seen: &mut scratch.seen,
        wl: &mut scratch.wl,
    };
    let init = (
        pag.var_node(start),
        FieldStackId::EMPTY,
        Direction::S1,
        start_ctx,
    );
    cx.seen.insert(init);
    cx.wl.push(init);
    let interrupt = cx.drive().err();
    SearchOutcome {
        pts: cx.pts,
        flds_seen: cx.flds_seen,
        interrupt,
    }
}

struct SearchCx<'a, 'p> {
    pag: &'p Pag,
    fields: &'a mut StackPool<FieldFrame>,
    ctxs: &'a mut StackPool<CallSiteId>,
    config: &'a EngineConfig,
    refinement: Refinement<'a>,
    ticket: &'a mut Ticket,
    stats: &'a mut QueryStats,
    pts: PointsToSet,
    flds_seen: FxHashSet<EdgeId>,
    seen: &'a mut FxHashSet<(NodeId, FieldStackId, Direction, CtxId)>,
    wl: &'a mut Vec<(NodeId, FieldStackId, Direction, CtxId)>,
}

impl SearchCx<'_, '_> {
    fn charge(&mut self) -> Result<(), Interrupt> {
        self.ticket.charge()?;
        self.stats.edges_traversed += 1;
        Ok(())
    }

    fn push_field(&mut self, f: FieldStackId, g: FieldFrame) -> Result<FieldStackId, Interrupt> {
        if self.fields.depth(f) >= self.config.max_field_depth {
            return Err(Interrupt::Budget);
        }
        Ok(self.fields.push(f, g))
    }

    fn propagate(&mut self, n: NodeId, f: FieldStackId, s: Direction, c: CtxId) {
        let item = (n, f, s, c);
        if self.seen.insert(item) {
            self.wl.push(item);
        }
    }

    /// Propagates `(far node, f, s)` across a context-popping segment
    /// under the contexts the kernel allows.
    fn pop(
        &mut self,
        seg: PopSeg,
        f: FieldStackId,
        s: Direction,
        c: CtxId,
    ) -> Result<(), Interrupt> {
        let (seen, wl) = (&mut *self.seen, &mut *self.wl);
        pop_segment(
            self.pag,
            self.ctxs,
            self.config,
            seg,
            c,
            self.ticket,
            self.stats,
            |n, c2| {
                let item = (n, f, s, c2);
                if seen.insert(item) {
                    wl.push(item);
                }
            },
        )
    }

    fn drive(&mut self) -> Result<(), Interrupt> {
        while let Some((u, f, s, c)) = self.wl.pop() {
            self.stats.steps += 1;
            match s {
                Direction::S1 => self.s1(u, f, c)?,
                Direction::S2 => self.s2(u, f, c)?,
            }
        }
        Ok(())
    }

    /// Backward (`pointsTo`) transitions: in-edges of `u`, one kind
    /// segment at a time (no edge-arena indirection, no per-edge `match`).
    fn s1(&mut self, u: NodeId, f: FieldStackId, c: CtxId) -> Result<(), Interrupt> {
        let pag = self.pag;
        let mut saw_new = false;
        for &a in pag.in_seg(u, AdjClass::New) {
            self.charge()?;
            if f.is_empty() {
                if let NodeRef::Obj(o) = pag.node_ref(a.node) {
                    self.pts.insert(o, c);
                }
            } else {
                saw_new = true;
            }
        }
        for &a in pag.in_seg(u, AdjClass::Assign) {
            self.charge()?;
            self.propagate(a.node, f, Direction::S1, c);
        }
        for &a in pag.in_seg(u, AdjClass::Load) {
            if self.refinement.is_refined(a.edge) {
                // Field-sensitive: push the pending field and resolve
                // the base (Algorithm 1's alias branch).
                self.charge()?;
                let f2 = self.push_field(f, FieldFrame::Get(a.field()))?;
                self.propagate(a.node, f2, Direction::S1, c);
            } else {
                // Field-based match edge: jump straight to every store
                // of the field, clearing the context (Algorithm 1
                // lines 15–17).
                self.flds_seen.insert(a.edge);
                for &st in pag.stores_of(a.field()) {
                    self.charge()?;
                    self.propagate(st.src, f, Direction::S1, ctx_clear());
                }
            }
        }
        for &a in pag.in_seg(u, AdjClass::AssignGlobal) {
            self.charge()?;
            self.propagate(a.node, f, Direction::S1, ctx_clear());
        }
        self.pop(PopSeg::EntryInto(u), f, Direction::S1, c)?;
        for &a in pag.in_seg(u, AdjClass::Exit) {
            self.charge()?;
            if let Some(c2) = ctx_push(self.ctxs, c, a.site(), pag, self.config)? {
                self.propagate(a.node, f, Direction::S1, c2);
            }
        }
        if saw_new {
            // `new new̅`: flip to the forward state to hunt for aliases.
            self.charge()?;
            self.propagate(u, f, Direction::S2, c);
        }
        Ok(())
    }

    /// Forward (`flowsTo`) transitions: out-edges of `u`, plus the
    /// in-store pop.
    fn s2(&mut self, u: NodeId, f: FieldStackId, c: CtxId) -> Result<(), Interrupt> {
        let pag = self.pag;
        for &a in pag.out_seg(u, AdjClass::Assign) {
            self.charge()?;
            self.propagate(a.node, f, Direction::S2, c);
        }
        for &a in pag.out_seg(u, AdjClass::Load) {
            // Forward over a load discharges a pending *store* frame —
            // only when the load is explored field-sensitively. A
            // pending `Get` frame must not match here: two loads of the
            // same field witness no store/load pairing.
            if self.refinement.is_refined(a.edge)
                && self.fields.peek(f) == Some(FieldFrame::Put(a.field()))
            {
                self.charge()?;
                let (_, rest) = self.fields.pop(f).expect("peeked");
                self.propagate(a.node, rest, Direction::S2, c);
            }
        }
        for &a in pag.out_seg(u, AdjClass::Store) {
            // Unrefined loads of the field pair with this store via the
            // match edge (field-based, context cleared).
            let g = a.field();
            let mut any_refined = false;
            for &le in pag.loads_of(g) {
                if self.refinement.is_refined(le.edge) {
                    any_refined = true;
                } else {
                    self.flds_seen.insert(le.edge);
                    self.charge()?;
                    self.propagate(le.dst, f, Direction::S2, ctx_clear());
                }
            }
            // The precise alias detour feeds the refined loads.
            if any_refined {
                self.charge()?;
                let f2 = self.push_field(f, FieldFrame::Put(g))?;
                self.propagate(a.node, f2, Direction::S1, c);
            }
        }
        for &a in pag.out_seg(u, AdjClass::AssignGlobal) {
            self.charge()?;
            self.propagate(a.node, f, Direction::S2, ctx_clear());
        }
        for &a in pag.out_seg(u, AdjClass::Entry) {
            self.charge()?;
            if let Some(c2) = ctx_push(self.ctxs, c, a.site(), pag, self.config)? {
                self.propagate(a.node, f, Direction::S2, c2);
            }
        }
        self.pop(PopSeg::ExitFrom(u), f, Direction::S2, c)?;
        for &a in pag.in_seg(u, AdjClass::Store) {
            // An in-store discharges a pending *load* frame (the stored
            // value feeds the field the backward walk asked for) —
            // never a `Put` frame, which only an out-load may consume.
            if self.fields.peek(f) == Some(FieldFrame::Get(a.field())) {
                self.charge()?;
                let (_, rest) = self.fields.pop(f).expect("peeked");
                self.propagate(a.node, rest, Direction::S1, c);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::PagBuilder;

    fn run_all(pag: &Pag, v: VarId) -> PointsToSet {
        let mut fields = StackPool::new();
        let mut ctxs = StackPool::new();
        let mut scratch = SearchScratch::default();
        let config = EngineConfig::unlimited();
        let mut ticket = Ticket::unlimited();
        let mut stats = QueryStats::default();
        let out = search(
            pag,
            &mut fields,
            &mut ctxs,
            &mut scratch,
            &config,
            Refinement::All,
            v,
            CtxId::EMPTY,
            &mut ticket,
            &mut stats,
        );
        assert!(out.complete());
        out.pts
    }

    #[test]
    fn interprocedural_field_flow() {
        // Vector-like: caller stores into v.f via callee, reads back.
        //   set(this, p) { this.f = p }
        //   main: c = new C; x = new X; set(c, x); t = c.f
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let set = b.add_method("set", None).unwrap();
        let c = b.add_local("c", main, None).unwrap();
        let x = b.add_local("x", main, None).unwrap();
        let t = b.add_local("t", main, None).unwrap();
        let this_set = b.add_local("this_set", set, None).unwrap();
        let p = b.add_local("p", set, None).unwrap();
        let oc = b.add_obj("oc", None, Some(main)).unwrap();
        let ox = b.add_obj("ox", None, Some(main)).unwrap();
        let field = b.field("f");
        b.add_new(oc, c).unwrap();
        b.add_new(ox, x).unwrap();
        let site = b.add_call_site("1", main).unwrap();
        b.add_entry(site, c, this_set).unwrap();
        b.add_entry(site, x, p).unwrap();
        b.add_store(field, p, this_set).unwrap();
        b.add_load(field, c, t).unwrap();
        let pag = b.finish();
        let pts = run_all(&pag, t);
        assert_eq!(pts.objects().into_iter().collect::<Vec<_>>(), vec![ox]);
    }

    #[test]
    fn match_edges_over_approximate_and_record_seen() {
        // Two unrelated containers with the same field: field-based must
        // conflate them, field-sensitive must separate.
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let p1 = b.add_local("p1", m, None).unwrap();
        let p2 = b.add_local("p2", m, None).unwrap();
        let x1 = b.add_local("x1", m, None).unwrap();
        let x2 = b.add_local("x2", m, None).unwrap();
        let y = b.add_local("y", m, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(m)).unwrap();
        let o2 = b.add_obj("o2", None, Some(m)).unwrap();
        let oa = b.add_obj("oa", None, Some(m)).unwrap();
        let ob = b.add_obj("ob", None, Some(m)).unwrap();
        let f = b.field("f");
        b.add_new(oa, p1).unwrap();
        b.add_new(ob, p2).unwrap();
        b.add_new(o1, x1).unwrap();
        b.add_new(o2, x2).unwrap();
        b.add_store(f, x1, p1).unwrap();
        b.add_store(f, x2, p2).unwrap();
        b.add_load(f, p1, y).unwrap();
        let pag = b.finish();

        // Field-sensitive: only o1.
        let precise = run_all(&pag, y);
        assert_eq!(precise.objects().into_iter().collect::<Vec<_>>(), vec![o1]);

        // Field-based (nothing refined): o1 and o2, and the load edge is
        // recorded in fldsSeen.
        let refined = FxHashSet::default();
        let mut fields = StackPool::new();
        let mut ctxs = StackPool::new();
        let mut scratch = SearchScratch::default();
        let config = EngineConfig::unlimited();
        let mut ticket = Ticket::unlimited();
        let mut stats = QueryStats::default();
        let out = search(
            &pag,
            &mut fields,
            &mut ctxs,
            &mut scratch,
            &config,
            Refinement::Only(&refined),
            y,
            CtxId::EMPTY,
            &mut ticket,
            &mut stats,
        );
        assert!(out.complete());
        let objs: Vec<_> = out.pts.objects().into_iter().collect();
        assert_eq!(objs, vec![o1, o2], "field-based conflates the bases");
        assert_eq!(out.flds_seen.len(), 1);
    }

    #[test]
    fn uninitialized_field_chain_stays_empty() {
        // Same shape as ppta's provenance regression test, but through
        // the shared NOREFINE/REFINEPTS search: `elems` has loads and no
        // stores, so the exact answer is empty. A kind-blind pop rule
        // matched the pending `Get(elems)` frame at the out-load and
        // fabricated ov through the `arr` store on the aliased base.
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let c = b.add_local("c", m, None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let t1 = b.add_local("t1", m, None).unwrap();
        let t2 = b.add_local("t2", m, None).unwrap();
        let y = b.add_local("y", m, None).unwrap();
        let oc = b.add_obj("oc", None, Some(m)).unwrap();
        let ov = b.add_obj("ov", None, Some(m)).unwrap();
        let elems = b.field("elems");
        let arr = b.field("arr");
        b.add_new(oc, c).unwrap();
        b.add_new(ov, v).unwrap();
        b.add_load(elems, c, t1).unwrap();
        b.add_store(arr, v, t1).unwrap();
        b.add_load(elems, c, t2).unwrap();
        b.add_load(arr, t2, y).unwrap();
        let pag = b.finish();
        let pts = run_all(&pag, y);
        assert!(
            pts.objects().is_empty(),
            "no store into `elems` exists, so y points to nothing: {:?}",
            pts.objects()
        );
    }

    #[test]
    fn unrealizable_paths_filtered() {
        // Same shape as the DYNSUM tests' two_callers; the search engine must
        // agree.
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let id = b.add_method("id", None).unwrap();
        let a1 = b.add_local("a1", main, None).unwrap();
        let a2 = b.add_local("a2", main, None).unwrap();
        let r1 = b.add_local("r1", main, None).unwrap();
        let r2 = b.add_local("r2", main, None).unwrap();
        let p = b.add_local("p", id, None).unwrap();
        let ret = b.add_local("ret", id, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(main)).unwrap();
        let o2 = b.add_obj("o2", None, Some(main)).unwrap();
        b.add_new(o1, a1).unwrap();
        b.add_new(o2, a2).unwrap();
        b.add_assign(p, ret).unwrap();
        let s1 = b.add_call_site("1", main).unwrap();
        let s2 = b.add_call_site("2", main).unwrap();
        b.add_entry(s1, a1, p).unwrap();
        b.add_entry(s2, a2, p).unwrap();
        b.add_exit(s1, ret, r1).unwrap();
        b.add_exit(s2, ret, r2).unwrap();
        let pag = b.finish();
        let pts1 = run_all(&pag, r1);
        assert_eq!(pts1.objects().into_iter().collect::<Vec<_>>(), vec![o1]);
        let pts2 = run_all(&pag, r2);
        assert_eq!(pts2.objects().into_iter().collect::<Vec<_>>(), vec![o2]);
    }

    #[test]
    fn context_insensitive_mode_merges() {
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let id = b.add_method("id", None).unwrap();
        let a1 = b.add_local("a1", main, None).unwrap();
        let a2 = b.add_local("a2", main, None).unwrap();
        let r1 = b.add_local("r1", main, None).unwrap();
        let p = b.add_local("p", id, None).unwrap();
        let ret = b.add_local("ret", id, None).unwrap();
        let o1 = b.add_obj("o1", None, Some(main)).unwrap();
        let o2 = b.add_obj("o2", None, Some(main)).unwrap();
        b.add_new(o1, a1).unwrap();
        b.add_new(o2, a2).unwrap();
        b.add_assign(p, ret).unwrap();
        let s1 = b.add_call_site("1", main).unwrap();
        let s2 = b.add_call_site("2", main).unwrap();
        b.add_entry(s1, a1, p).unwrap();
        b.add_entry(s2, a2, p).unwrap();
        b.add_exit(s1, ret, r1).unwrap();
        let pag = b.finish();

        let mut fields = StackPool::new();
        let mut ctxs = StackPool::new();
        let mut scratch = SearchScratch::default();
        let config = EngineConfig {
            context_sensitive: false,
            ..EngineConfig::unlimited()
        };
        let mut ticket = Ticket::unlimited();
        let mut stats = QueryStats::default();
        let out = search(
            &pag,
            &mut fields,
            &mut ctxs,
            &mut scratch,
            &config,
            Refinement::All,
            r1,
            CtxId::EMPTY,
            &mut ticket,
            &mut stats,
        );
        let objs: Vec<_> = out.pts.objects().into_iter().collect();
        assert_eq!(objs, vec![o1, o2], "insensitive mode merges both sites");
    }

    #[test]
    fn budget_trips_and_reports_incomplete() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let mut prev = b.add_local("v0", m, None).unwrap();
        for i in 1..64 {
            let v = b.add_local(&format!("v{i}"), m, None).unwrap();
            b.add_assign(prev, v).unwrap();
            prev = v;
        }
        let pag = b.finish();
        let mut fields = StackPool::new();
        let mut ctxs = StackPool::new();
        let mut scratch = SearchScratch::default();
        let config = EngineConfig::default();
        let mut ticket = Ticket::new(5);
        let mut stats = QueryStats::default();
        let out = search(
            &pag,
            &mut fields,
            &mut ctxs,
            &mut scratch,
            &config,
            Refinement::All,
            prev,
            CtxId::EMPTY,
            &mut ticket,
            &mut stats,
        );
        assert_eq!(out.interrupt, Some(Interrupt::Budget));
    }

    #[test]
    fn cancellation_interrupts_the_search_promptly() {
        use dynsum_cfl::{CancelToken, QueryControl};
        use std::sync::Arc;

        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let mut prev = b.add_local("v0", m, None).unwrap();
        for i in 1..512 {
            let v = b.add_local(&format!("v{i}"), m, None).unwrap();
            b.add_assign(prev, v).unwrap();
            prev = v;
        }
        let pag = b.finish();
        let mut fields = StackPool::new();
        let mut ctxs = StackPool::new();
        let mut scratch = SearchScratch::default();
        let config = EngineConfig::unlimited();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let control = QueryControl::new().cancelled_by(token).poll_every(8);
        let mut ticket = Ticket::with_control(u64::MAX, &control);
        let mut stats = QueryStats::default();
        let out = search(
            &pag,
            &mut fields,
            &mut ctxs,
            &mut scratch,
            &config,
            Refinement::All,
            prev,
            CtxId::EMPTY,
            &mut ticket,
            &mut stats,
        );
        assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
        assert!(
            stats.edges_traversed <= 8,
            "promptness: {} edges after a pre-cancelled token",
            stats.edges_traversed
        );
    }
}
