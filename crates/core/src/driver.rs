//! The worklist driver of Algorithm 4, shared by DYNSUM and STASUM.
//!
//! The driver walks only the context-dependent **global** edges
//! (`assignglobal`, `entry_i`, `exit_i`) according to the `R_RP` RSM of
//! Figure 3(b); at every configuration it asks a *summary provider* for
//! the local-edge closure. DYNSUM's provider computes concrete partial
//! points-to summaries on demand and caches them; STASUM's provider
//! instantiates precomputed relative summaries.

use std::sync::Arc;

use dynsum_cfl::{
    CtxId, Direction, FieldFrame, FieldStackId, FxHashSet, Interrupt, PointsToSet, QueryResult,
    QueryStats, StackPool, StepKind, Ticket, Trace, TraceStep,
};
use dynsum_pag::{AdjClass, CallSiteId, NodeId, Pag};

use crate::engine::{ctx_clear, ctx_push, pop_segment, EngineConfig, PopSeg};
use crate::summary::Summary;

/// Reusable driver state: worklist + seen-set buffers that persist
/// across queries (cleared, not reallocated, per query) and the shared
/// empty summary handed out for boundary-free no-local-edge nodes
/// without a per-visit allocation.
#[derive(Debug)]
pub(crate) struct DriveScratch {
    seen: FxHashSet<(NodeId, FieldStackId, Direction, CtxId)>,
    wl: Vec<(NodeId, FieldStackId, Direction, CtxId)>,
    empty: Arc<Summary>,
}

impl Default for DriveScratch {
    fn default() -> Self {
        DriveScratch {
            seen: FxHashSet::default(),
            wl: Vec::new(),
            empty: Arc::new(Summary::default()),
        }
    }
}

/// The complete per-handle working state of the summary-driven engines
/// (DYNSUM / STASUM): interning pools, driver worklist buffers, and PPTA
/// scratch, owned by a [`Session`](crate::Session) query handle.
#[derive(Debug, Default)]
pub(crate) struct DriveParts {
    pub(crate) fields: StackPool<FieldFrame>,
    pub(crate) ctxs: StackPool<CallSiteId>,
    pub(crate) drive: DriveScratch,
    pub(crate) ppta: crate::ppta::PptaScratch,
}

/// A source of local-edge summaries for the driver. Called once per
/// worklist configuration whose node has local edges.
pub(crate) type SummaryProvider<'a> = dyn FnMut(
        &mut StackPool<FieldFrame>,
        &mut Ticket,
        &mut QueryStats,
        NodeId,
        FieldStackId,
        Direction,
    ) -> Result<(Arc<Summary>, StepKind), Interrupt>
    + 'a;

/// Runs Algorithm 4 from `(start, ∅, S1, start_ctx)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    pag: &Pag,
    fields: &mut StackPool<FieldFrame>,
    ctxs: &mut StackPool<CallSiteId>,
    scratch: &mut DriveScratch,
    config: &EngineConfig,
    start: NodeId,
    start_ctx: CtxId,
    ticket: &mut Ticket,
    provider: &mut SummaryProvider<'_>,
    mut trace: Option<&mut Trace>,
) -> QueryResult {
    let mut stats = QueryStats::default();
    let mut pts = PointsToSet::new();

    let init = (start, FieldStackId::EMPTY, Direction::S1, start_ctx);
    scratch.seen.clear();
    scratch.wl.clear();
    let DriveScratch { seen, wl, empty } = scratch;
    seen.insert(init);
    wl.push(init);
    let mut interrupted: Option<Interrupt> = None;

    'drive: while let Some((u, f, s, c)) = wl.pop() {
        stats.steps += 1;

        // Lines 5–9: reuse or compute the summary; nodes without local
        // edges take the trivial summary (§4.3) — the shared empty one
        // when they are not boundaries either (no allocation).
        let (summary, kind) = if pag.has_local_edge(u) {
            match provider(fields, ticket, &mut stats, u, f, s) {
                Ok(pair) => pair,
                Err(kind) => {
                    interrupted = Some(kind);
                    break 'drive;
                }
            }
        } else if Summary::trivial_has_boundary(pag, u, s) {
            (
                Arc::new(Summary::trivial(pag, u, f, s)),
                StepKind::NoLocalEdges,
            )
        } else {
            (Arc::clone(empty), StepKind::NoLocalEdges)
        };

        if let Some(tr) = trace.as_deref_mut() {
            tr.push(TraceStep {
                node: u,
                field_stack: fields
                    .to_vec(f)
                    .into_iter()
                    .map(FieldFrame::field)
                    .collect(),
                state: s,
                ctx: ctxs.to_vec(c),
                kind,
            });
        }

        // Lines 10–11: objects adopt the current calling context.
        for &o in &summary.objs {
            pts.insert(o, c);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(TraceStep {
                    node: pag.obj_node(o),
                    field_stack: fields
                        .to_vec(f)
                        .into_iter()
                        .map(FieldFrame::field)
                        .collect(),
                    state: s,
                    ctx: ctxs.to_vec(c),
                    kind: StepKind::ObjectFound,
                });
            }
        }

        // Lines 12–28: follow the global edges of each boundary tuple —
        // straight iteration over the three global kind segments.
        for &(x, f1, s1) in &summary.boundaries {
            let step = |n: NodeId, c2: CtxId, seen: &mut FxHashSet<_>, wl: &mut Vec<_>| {
                let item = (n, f1, s1, c2);
                if seen.insert(item) {
                    wl.push(item);
                }
            };
            let result: Result<(), Interrupt> = (|| {
                match s1 {
                    Direction::S1 => {
                        for &a in pag.in_seg(x, AdjClass::AssignGlobal) {
                            ticket.charge()?;
                            stats.edges_traversed += 1;
                            step(a.node, ctx_clear(), seen, wl);
                        }
                        pop_segment(
                            pag,
                            ctxs,
                            config,
                            PopSeg::EntryInto(x),
                            c,
                            ticket,
                            &mut stats,
                            |n, c2| step(n, c2, seen, wl),
                        )?;
                        for &a in pag.in_seg(x, AdjClass::Exit) {
                            ticket.charge()?;
                            stats.edges_traversed += 1;
                            if let Some(c2) = ctx_push(ctxs, c, a.site(), pag, config)? {
                                step(a.node, c2, seen, wl);
                            }
                        }
                    }
                    Direction::S2 => {
                        for &a in pag.out_seg(x, AdjClass::AssignGlobal) {
                            ticket.charge()?;
                            stats.edges_traversed += 1;
                            step(a.node, ctx_clear(), seen, wl);
                        }
                        for &a in pag.out_seg(x, AdjClass::Entry) {
                            ticket.charge()?;
                            stats.edges_traversed += 1;
                            if let Some(c2) = ctx_push(ctxs, c, a.site(), pag, config)? {
                                step(a.node, c2, seen, wl);
                            }
                        }
                        pop_segment(
                            pag,
                            ctxs,
                            config,
                            PopSeg::ExitFrom(x),
                            c,
                            ticket,
                            &mut stats,
                            |n, c2| step(n, c2, seen, wl),
                        )?;
                    }
                }
                Ok(())
            })();
            if let Err(kind) = result {
                interrupted = Some(kind);
                break 'drive;
            }
        }
    }

    match interrupted {
        Some(kind) => QueryResult::interrupted(pts, stats, kind),
        None => QueryResult::resolved(pts, stats),
    }
}
