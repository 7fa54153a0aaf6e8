//! STASUM — static all-pairs method summaries (Yan et al., ISSTA'11), the
//! paper's whole-program comparison point (§4.4, Figure 5).
//!
//! STASUM computes, **offline and for every method-boundary node**, a
//! *relative* local-reachability summary: a partial points-to analysis
//! whose field stack is split into
//!
//! * `need` — the sequence of fields the summary *consumes* from whatever
//!   field stack arrives at the node (unknown at precompute time), and
//! * `have` — the fields it pushes on top;
//!
//! a summary entry applies to a concrete arriving stack `f` iff `need` is
//! a top prefix of `f`. At query time the same worklist driver as DYNSUM
//! instantiates these precomputed summaries instead of running PPTA.
//!
//! Relative summaries store their `need`/`have` sequences as **inline
//! field arrays** rather than interned stack ids: the frozen store is
//! then independent of any field-stack pool, so it can be shared across
//! [`Session`](crate::Session) query threads, and instantiation matches
//! prefixes against the arriving stack directly with no per-entry
//! allocation (the ROADMAP's "STASUM instantiation cost" item).
//!
//! The precomputation cost is what the paper criticizes: summaries are
//! computed for *every* boundary node whether or not any query ever
//! reaches it, which is why Figure 5 shows DYNSUM computing only 37–48%
//! as many summaries.

use std::sync::Arc;

use dynsum_cfl::{
    CtxId, Direction, FieldFrame, FieldStackId, FxHashMap, FxHashSet, Interrupt, QueryControl,
    QueryResult, QueryStats, StackPool, StepKind, Ticket, Trace,
};
use dynsum_pag::{AdjClass, NodeId, NodeRef, ObjId, Pag, VarId};

use crate::driver::{drive, DriveParts};
use crate::engine::EngineConfig;
use crate::ppta;
use crate::summary::Summary;

/// Maximum `need` depth recorded in a relative summary; configurations
/// needing more are dropped and the summary is marked truncated (queries
/// arriving with deeper stacks fall back to concrete PPTA).
const MAX_NEED_DEPTH: usize = 8;

/// Edge-traversal budget per precomputed summary; exhaustion marks the
/// summary aborted (always falls back at query time).
const NODE_BUDGET: u64 = 200_000;

/// One relative boundary continuation: applies when [`need`](Self::need)
/// is a top prefix of the arriving stack (strictly shorter than it if
/// [`strict`](Self::strict)); the instantiated stack is
/// `pop(need) ++ have`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RelBoundary {
    node: NodeId,
    /// Frames consumed from the arriving stack, in consumption order
    /// (topmost arriving frame first).
    need: Box<[FieldFrame]>,
    /// Frames pushed on the remainder, in push order (bottom-to-top).
    have: Box<[FieldFrame]>,
    dir: Direction,
    /// Marks continuations that passed through a `new new̅` flip while
    /// the concrete stack depth was unknown: the flip is only legal on a
    /// non-empty stack, so the entry applies only when the arriving
    /// stack is *strictly deeper* than `need`.
    strict: bool,
}

/// A relative summary: objects and boundaries qualified by the `need`
/// prefix they consume from the arriving field stack. Pool-independent
/// (inline field arrays), hence freely shareable across threads.
#[derive(Debug, Default, Clone)]
struct RelSummary {
    /// `(object, need)` — applies when the arriving stack equals `need`.
    objs: Vec<(ObjId, Box<[FieldFrame]>)>,
    boundaries: Vec<RelBoundary>,
    truncated: bool,
    aborted: bool,
}

/// The frozen product of STASUM precomputation: the all-pairs relative
/// summary store. Immutable after construction, so one copy serves any
/// number of query handles concurrently.
#[derive(Debug)]
pub(crate) struct StaSumShared {
    rel: FxHashMap<(NodeId, Direction), RelSummary>,
}

impl StaSumShared {
    /// The number of precomputed summaries (one per boundary node and
    /// direction) — the Figure 5 denominator.
    pub(crate) fn len(&self) -> usize {
        self.rel.len()
    }
}

/// Runs the whole-program precomputation (every boundary node × the
/// directions its global edges demand).
pub(crate) fn stasum_precompute(pag: &Pag, config: &EngineConfig) -> StaSumShared {
    let mut shared = StaSumShared {
        rel: FxHashMap::default(),
    };
    // Interning pool private to the precomputation: the frozen summaries
    // carry inline arrays, so nothing outlives this pool.
    let mut fields: StackPool<FieldFrame> = StackPool::new();
    // S1 summaries are consumed where the driver lands after walking a
    // global edge backwards (nodes with global out-edges); S2 where it
    // lands walking forwards (nodes with global in-edges).
    for (v, _) in pag.vars() {
        let n = pag.var_node(v);
        if !pag.has_local_edge(n) {
            continue;
        }
        if pag.has_global_out(n) {
            precompute_node(pag, config, &mut fields, &mut shared, n, Direction::S1);
        }
        if pag.has_global_in(n) {
            precompute_node(pag, config, &mut fields, &mut shared, n, Direction::S2);
        }
    }
    shared
}

fn precompute_node(
    pag: &Pag,
    config: &EngineConfig,
    fields: &mut StackPool<FieldFrame>,
    shared: &mut StaSumShared,
    n: NodeId,
    dir: Direction,
) {
    let mut rp = RelPpta {
        pag,
        fields,
        max_have_depth: config.max_field_depth,
        ticket: Ticket::new(NODE_BUDGET),
        visited: FxHashSet::default(),
        out: RawRelSummary::default(),
    };
    let aborted = rp
        .go(n, FieldStackId::EMPTY, FieldStackId::EMPTY, dir, false)
        .is_err();
    let raw = rp.out;
    // Freeze: resolve the pool-relative stack ids into inline arrays.
    let summary = RelSummary {
        objs: raw
            .objs
            .iter()
            .map(|&(o, need)| (o, fields.to_vec(need).into_boxed_slice()))
            .collect(),
        boundaries: raw
            .boundaries
            .iter()
            .map(|&(node, need, have, dir, strict)| RelBoundary {
                node,
                need: fields.to_vec(need).into_boxed_slice(),
                have: fields.to_vec(have).into_boxed_slice(),
                dir,
                strict,
            })
            .collect(),
        truncated: raw.truncated,
        aborted,
    };
    shared.rel.insert((n, dir), summary);
}

/// Runs one STASUM query from the empty context over borrowed
/// per-handle state; `shared` is the frozen precomputation product.
pub(crate) fn stasum_query(
    pag: &Pag,
    config: &EngineConfig,
    shared: &StaSumShared,
    parts: &mut DriveParts,
    v: VarId,
    control: &QueryControl,
) -> QueryResult {
    let DriveParts {
        fields,
        ctxs,
        drive: drive_scratch,
        ppta: ppta_scratch,
    } = parts;
    ctxs.clear();
    let mut provider = |fields: &mut StackPool<FieldFrame>,
                        ticket: &mut Ticket,
                        stats: &mut QueryStats,
                        u: NodeId,
                        f: FieldStackId,
                        s: Direction|
     -> Result<(Arc<Summary>, StepKind), Interrupt> {
        if let Some(rs) = shared.rel.get(&(u, s)) {
            if let Some(sum) = instantiate(fields, rs, f) {
                stats.cache_hits += 1;
                return Ok((Arc::new(sum), StepKind::PptaReused));
            }
        }
        // No precomputed summary (query root) or unusable one
        // (truncated/aborted): concrete PPTA, not memorized — STASUM
        // is static, it learns nothing new at query time.
        stats.cache_misses += 1;
        let sum = ppta::compute(pag, fields, ppta_scratch, config, ticket, stats, u, f, s)?;
        Ok((Arc::new(sum), StepKind::PptaComputed))
    };
    let mut ticket = Ticket::with_control(config.budget, control);
    drive(
        pag,
        fields,
        ctxs,
        drive_scratch,
        config,
        pag.var_node(v),
        CtxId::EMPTY,
        &mut ticket,
        &mut provider,
        None::<&mut Trace>,
    )
}

/// Instantiates a relative summary against a concrete arriving stack.
/// Returns `None` when the summary cannot be trusted for this stack.
///
/// Instantiated summaries carry [`cost`](Summary::cost) 0: STASUM's
/// store is frozen before the first query, so its queries are already
/// independent of each other and need no deterministic reuse charging.
fn instantiate(
    fields: &mut StackPool<FieldFrame>,
    rel: &RelSummary,
    f: FieldStackId,
) -> Option<Summary> {
    if rel.aborted {
        return None;
    }
    // A truncated summary dropped configurations whose `need` exceeded the
    // cap; those could only match stacks deeper than the cap.
    if rel.truncated && fields.depth(f) > MAX_NEED_DEPTH {
        return None;
    }
    let depth = fields.depth(f);
    let mut objs = Vec::new();
    for (o, need) in &rel.objs {
        if depth == need.len() && fields.is_top_prefix(f, need) {
            objs.push(*o);
        }
    }
    let mut boundaries = Vec::new();
    for b in &rel.boundaries {
        if b.strict && depth <= b.need.len() {
            continue;
        }
        if fields.is_top_prefix(f, &b.need) {
            let mut stack = fields.pop_n(f, b.need.len()).expect("prefix checked");
            for &g in b.have.iter() {
                stack = fields.push(stack, g);
            }
            boundaries.push((b.node, stack, b.dir));
        }
    }
    objs.sort_unstable();
    objs.dedup();
    // Canonical, pool-independent order (content, not raw ids): the
    // driver walks boundaries in order and may abort mid-walk on budget
    // exhaustion, so partial results must not depend on interning
    // history (see `ppta::compute`).
    boundaries.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.2.cmp(&b.2))
            .then_with(|| fields.cmp_stacks(a.1, b.1))
    });
    boundaries.dedup();
    Some(Summary {
        objs,
        boundaries,
        cost: 0,
    })
}

/// The raw (pool-relative) accumulator RelPpta fills before freezing.
#[derive(Debug, Default)]
struct RawRelSummary {
    objs: Vec<(ObjId, FieldStackId)>,
    boundaries: Vec<(NodeId, FieldStackId, FieldStackId, Direction, bool)>,
    truncated: bool,
}

/// Relative-stack PPTA: Algorithm 3 with the `(need, have)` split.
struct RelPpta<'a, 'p> {
    pag: &'p Pag,
    fields: &'a mut StackPool<FieldFrame>,
    max_have_depth: usize,
    ticket: Ticket,
    visited: FxHashSet<(NodeId, FieldStackId, FieldStackId, Direction, bool)>,
    out: RawRelSummary,
}

impl RelPpta<'_, '_> {
    fn charge(&mut self) -> Result<(), Interrupt> {
        self.ticket.charge()
    }

    /// Pops field `g`, consuming from `have` first and extending `need`
    /// when `have` is exhausted. Returns the successor
    /// `(need, have, strict)` or `None` when the branch is dead /
    /// dropped. Growing `need` discharges a pending strictness
    /// constraint: the arriving stack is then provably deeper than the
    /// depth at which the constraint was issued.
    fn rel_pop(
        &mut self,
        need: FieldStackId,
        have: FieldStackId,
        g: FieldFrame,
        strict: bool,
    ) -> Option<(FieldStackId, FieldStackId, bool)> {
        match self.fields.peek(have) {
            Some(top) if top == g => {
                let (_, rest) = self.fields.pop(have).expect("peeked");
                Some((need, rest, strict))
            }
            Some(_) => None,
            None => {
                if self.fields.depth(need) >= MAX_NEED_DEPTH {
                    self.out.truncated = true;
                    None
                } else {
                    Some((self.fields.push(need, g), have, false))
                }
            }
        }
    }

    fn rel_push(&mut self, have: FieldStackId, g: FieldFrame) -> Result<FieldStackId, Interrupt> {
        if self.fields.depth(have) >= self.max_have_depth {
            return Err(Interrupt::Budget);
        }
        Ok(self.fields.push(have, g))
    }

    fn go(
        &mut self,
        u: NodeId,
        need: FieldStackId,
        have: FieldStackId,
        s: Direction,
        strict: bool,
    ) -> Result<(), Interrupt> {
        if !self.visited.insert((u, need, have, s, strict)) {
            return Ok(());
        }
        match s {
            Direction::S1 => self.s1(u, need, have, strict),
            Direction::S2 => self.s2(u, need, have, strict),
        }
    }

    fn s1(
        &mut self,
        u: NodeId,
        need: FieldStackId,
        have: FieldStackId,
        strict: bool,
    ) -> Result<(), Interrupt> {
        let mut saw_new = false;
        for &a in self.pag.in_seg(u, AdjClass::New) {
            self.charge()?;
            if have.is_empty() {
                // The object applies when the concrete stack is empty
                // here, i.e. the arriving stack is exactly `need` —
                // impossible under a pending strictness constraint.
                if !strict {
                    if let NodeRef::Obj(o) = self.pag.node_ref(a.node) {
                        self.out.objs.push((o, need));
                    }
                }
            }
            // The alias detour covers strictly deeper stacks.
            saw_new = true;
        }
        for &a in self.pag.in_seg(u, AdjClass::Assign) {
            self.charge()?;
            self.go(a.node, need, have, Direction::S1, strict)?;
        }
        for &a in self.pag.in_seg(u, AdjClass::Load) {
            self.charge()?;
            let have2 = self.rel_push(have, FieldFrame::Get(a.field()))?;
            self.go(a.node, need, have2, Direction::S1, strict)?;
        }
        if saw_new {
            self.charge()?;
            // The `new new̅` flip is only legal on a non-empty concrete
            // stack: with `have` empty that emptiness is unknown, so the
            // continuation carries a strictness constraint.
            let strict2 = strict || have.is_empty();
            self.go(u, need, have, Direction::S2, strict2)?;
        }
        if self.pag.has_global_in(u) {
            self.out
                .boundaries
                .push((u, need, have, Direction::S1, strict));
        }
        Ok(())
    }

    #[allow(clippy::collapsible_match)]
    fn s2(
        &mut self,
        u: NodeId,
        need: FieldStackId,
        have: FieldStackId,
        strict: bool,
    ) -> Result<(), Interrupt> {
        for &a in self.pag.out_seg(u, AdjClass::Assign) {
            self.charge()?;
            self.go(a.node, need, have, Direction::S2, strict)?;
        }
        for &a in self.pag.out_seg(u, AdjClass::Load) {
            // Out-loads discharge pending `Put` frames only (see
            // `FieldFrame`); a `Get` frame on top kills the branch.
            if let Some((n2, h2, st2)) =
                self.rel_pop(need, have, FieldFrame::Put(a.field()), strict)
            {
                self.charge()?;
                self.go(a.node, n2, h2, Direction::S2, st2)?;
            }
        }
        for &a in self.pag.out_seg(u, AdjClass::Store) {
            // Same gate as concrete PPTA: a store detour is only useful
            // when some load of the field exists.
            if !self.pag.loads_of(a.field()).is_empty() {
                self.charge()?;
                let have2 = self.rel_push(have, FieldFrame::Put(a.field()))?;
                self.go(a.node, need, have2, Direction::S1, strict)?;
            }
        }
        for &a in self.pag.in_seg(u, AdjClass::Store) {
            // In-stores discharge pending `Get` frames only.
            if let Some((n2, h2, st2)) =
                self.rel_pop(need, have, FieldFrame::Get(a.field()), strict)
            {
                self.charge()?;
                self.go(a.node, n2, h2, Direction::S1, st2)?;
            }
        }
        if self.pag.has_global_out(u) {
            self.out
                .boundaries
                .push((u, need, have, Direction::S2, strict));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EngineKind, Session};
    use dynsum_pag::PagBuilder;

    fn precompute(pag: &Pag) -> StaSumShared {
        stasum_precompute(pag, &EngineConfig::default())
    }

    /// One kernel query over `shared` on the given scratch.
    fn kernel(pag: &Pag, shared: &StaSumShared, parts: &mut DriveParts, v: VarId) -> QueryResult {
        let config = EngineConfig::default();
        let control = QueryControl::default();
        stasum_query(pag, &config, shared, parts, v, &control)
    }

    /// The Vector-ish cross-method shape: callee loads through fields,
    /// and is called from two different contexts.
    fn vector_pag() -> (Pag, VarId, VarId, ObjId, ObjId) {
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let get = b.add_method("get", None).unwrap();
        let set = b.add_method("set", None).unwrap();
        let f = b.field("f");

        // set(this_s, p) { this_s.f = p }
        let this_s = b.add_local("this_s", set, None).unwrap();
        let p = b.add_local("p", set, None).unwrap();
        b.add_store(f, p, this_s).unwrap();
        // get(this_g) { return this_g.f }
        let this_g = b.add_local("this_g", get, None).unwrap();
        let ret = b.add_local("ret", get, None).unwrap();
        b.add_load(f, this_g, ret).unwrap();

        // main: c1 = new; c2 = new; x1 = new; x2 = new;
        // set(c1, x1); set(c2, x2); r1 = get(c1); r2 = get(c2);
        let c1 = b.add_local("c1", main, None).unwrap();
        let c2 = b.add_local("c2", main, None).unwrap();
        let x1 = b.add_local("x1", main, None).unwrap();
        let x2 = b.add_local("x2", main, None).unwrap();
        let r1 = b.add_local("r1", main, None).unwrap();
        let r2 = b.add_local("r2", main, None).unwrap();
        let oc1 = b.add_obj("oc1", None, Some(main)).unwrap();
        let oc2 = b.add_obj("oc2", None, Some(main)).unwrap();
        let ox1 = b.add_obj("ox1", None, Some(main)).unwrap();
        let ox2 = b.add_obj("ox2", None, Some(main)).unwrap();
        b.add_new(oc1, c1).unwrap();
        b.add_new(oc2, c2).unwrap();
        b.add_new(ox1, x1).unwrap();
        b.add_new(ox2, x2).unwrap();
        let s1 = b.add_call_site("1", main).unwrap();
        let s2 = b.add_call_site("2", main).unwrap();
        let s3 = b.add_call_site("3", main).unwrap();
        let s4 = b.add_call_site("4", main).unwrap();
        b.add_entry(s1, c1, this_s).unwrap();
        b.add_entry(s1, x1, p).unwrap();
        b.add_entry(s2, c2, this_s).unwrap();
        b.add_entry(s2, x2, p).unwrap();
        b.add_entry(s3, c1, this_g).unwrap();
        b.add_exit(s3, ret, r1).unwrap();
        b.add_entry(s4, c2, this_g).unwrap();
        b.add_exit(s4, ret, r2).unwrap();
        (b.finish(), r1, r2, ox1, ox2)
    }

    #[test]
    fn answers_match_context_sensitive_expectations() {
        let (pag, r1, r2, ox1, ox2) = vector_pag();
        let mut e = Session::new(&pag, EngineKind::StaSum);
        let p1 = e.points_to(r1);
        assert!(p1.resolved);
        assert_eq!(p1.pts.objects().into_iter().collect::<Vec<_>>(), vec![ox1]);
        let p2 = e.points_to(r2);
        assert_eq!(p2.pts.objects().into_iter().collect::<Vec<_>>(), vec![ox2]);
    }

    #[test]
    fn precomputes_summaries_for_boundary_nodes() {
        let (pag, ..) = vector_pag();
        let shared = precompute(&pag);
        assert!(shared.len() > 0);
        assert!(shared.rel.values().all(|r| !r.aborted));
        let e = Session::new(&pag, EngineKind::StaSum);
        assert_eq!(e.summary_count(), shared.len());
    }

    #[test]
    fn queries_hit_precomputed_summaries() {
        let (pag, r1, ..) = vector_pag();
        let mut e = Session::new(&pag, EngineKind::StaSum);
        let p = e.points_to(r1);
        assert!(
            p.stats.cache_hits > 0,
            "arrival configurations must be served statically"
        );
    }

    #[test]
    fn static_count_independent_of_queries() {
        let (pag, r1, r2, ..) = vector_pag();
        let mut e = Session::new(&pag, EngineKind::StaSum);
        let before = e.summary_count();
        e.points_to(r1);
        e.points_to(r2);
        assert_eq!(
            e.summary_count(),
            before,
            "STASUM never grows at query time"
        );
    }

    #[test]
    fn relative_pop_extends_need() {
        let (pag, ..) = vector_pag();
        let shared = precompute(&pag);
        // this_s has a global out edge... S1 summary exists; the store
        // base `this_s` in S2 (arriving via entry) must have consumed a
        // `need` field: find any boundary with non-empty need or objs
        // qualified by need.
        let any_need = shared.rel.values().any(|r| {
            r.objs.iter().any(|(_, need)| !need.is_empty())
                || r.boundaries.iter().any(|b| !b.need.is_empty())
        });
        assert!(any_need, "relative summaries must exercise the need stack");
    }

    #[test]
    fn frozen_summaries_are_pool_independent() {
        // Two precomputations over the same PAG must freeze identical
        // inline entries regardless of interning history, and a second
        // query-time pool must instantiate them identically.
        let (pag, r1, ..) = vector_pag();
        let a = precompute(&pag);
        let b = precompute(&pag);
        for (key, ra) in &a.rel {
            let rb = &b.rel[key];
            assert_eq!(ra.objs, rb.objs);
            assert_eq!(ra.boundaries, rb.boundaries);
        }
        let (mut p1, mut p2) = (DriveParts::default(), DriveParts::default());
        // Warm the second scratch's pools with other queries first: raw
        // pool ids now differ between the two; results must not.
        let warm: Vec<VarId> = pag.vars().map(|(v, _)| v).take(4).collect();
        for v in warm {
            kernel(&pag, &b, &mut p2, v);
        }
        assert_eq!(
            kernel(&pag, &a, &mut p1, r1).pts,
            kernel(&pag, &b, &mut p2, r1).pts
        );
    }
}
