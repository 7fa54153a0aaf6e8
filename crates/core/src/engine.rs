//! Engine configuration, client predicates, and shared context-stack
//! operations, including the one context-matching kernel
//! ([`pop_segment`]) every engine's popping transitions go through.

use dynsum_cfl::{CtxId, Interrupt, PointsToSet, QueryStats, StackPool, Ticket};
use dynsum_pag::{AdjClass, CallSiteId, NodeId, Pag};

/// Tuning knobs shared by every demand-driven engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Per-query edge-traversal budget (the paper uses 75,000; §5.2).
    pub budget: u64,
    /// Maximum field-stack depth; deeper configurations abort the query
    /// conservatively (recursive data structures can pump the stack).
    pub max_field_depth: usize,
    /// Maximum context-stack depth; deeper pushes abort conservatively.
    pub max_ctx_depth: usize,
    /// Enables DYNSUM's cross-query summary cache (disable for the
    /// ablation study).
    pub cache_summaries: bool,
    /// Maximum REFINEPTS refinement iterations per query.
    pub max_refinements: u32,
    /// When `false`, call entries/exits are treated as plain assignments:
    /// the context-insensitive `L_FT`-only analysis (§3.2), which must
    /// agree exactly with the Andersen oracle.
    pub context_sensitive: bool,
    /// Size cap on the DYNSUM summary cache: after each query (and after
    /// every [`Session::absorb`](crate::Session::absorb) merge) a clock
    /// sweep evicts entries down to this many, keeping a long-lived
    /// query stream's memory bounded. `None` (the default) never evicts.
    ///
    /// Eviction **cannot change any query's outcome**: a DYNSUM cache hit
    /// charges the summary's recorded cold cost against the query budget
    /// (see [`Summary::cost`](crate::Summary::cost)), so results are
    /// cache-independent by construction and the cap only trades hit
    /// rate (wall-clock) for memory. In a
    /// [`Session`](crate::Session), the cap bounds the shared cache and
    /// each worker's in-flight shard separately.
    pub max_cached_summaries: Option<usize>,
    /// Stack reservation for
    /// [`Session::run_batch`](crate::Session::run_batch) worker
    /// threads. PPTA recursion is
    /// bounded by method-local graph size, but generated methods can be
    /// large, so workers default to the generous reservation `main`
    /// typically has (64 MiB). If the host cannot spawn a worker with
    /// this reservation, the batch degrades to fewer workers instead of
    /// panicking (see
    /// [`Session::spawn_failures`](crate::Session::spawn_failures)).
    pub worker_stack_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // The paper's per-query edge-traversal limit for every engine
            // (§5.2).
            budget: 75_000,
            max_field_depth: 512,
            max_ctx_depth: 256,
            cache_summaries: true,
            max_refinements: 32,
            context_sensitive: true,
            max_cached_summaries: None,
            worker_stack_bytes: 64 * 1024 * 1024,
        }
    }
}

impl EngineConfig {
    /// A configuration with an effectively unlimited budget, for tests
    /// that must observe complete answers.
    pub fn unlimited() -> Self {
        EngineConfig {
            budget: u64::MAX,
            ..EngineConfig::default()
        }
    }

    /// A stable 64-bit digest of the **outcome-relevant** configuration
    /// fields, written into snapshot headers (see the
    /// [`snapshot`](crate::snapshot) module) so a persisted summary
    /// cache is only restored under a configuration that would have
    /// produced the same summaries and the same query results.
    ///
    /// Covered: [`budget`](Self::budget),
    /// [`max_field_depth`](Self::max_field_depth),
    /// [`max_ctx_depth`](Self::max_ctx_depth),
    /// [`cache_summaries`](Self::cache_summaries),
    /// [`max_refinements`](Self::max_refinements) and
    /// [`context_sensitive`](Self::context_sensitive). A constant `1`
    /// byte follows them, in the slot of a retired always-on setting, so
    /// the digest and every snapshot written before its retirement stay
    /// valid.
    ///
    /// Deliberately **not** covered:
    /// [`max_cached_summaries`](Self::max_cached_summaries) and
    /// [`worker_stack_bytes`](Self::worker_stack_bytes). Neither can
    /// change any query's
    /// outcome (eviction is outcome-free, and
    /// the stack reservation only affects spawn success), so a snapshot
    /// saved under one cap loads cleanly under another — the load path
    /// re-enforces the loader's cap.
    pub fn semantic_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = dynsum_cfl::StableHasher::new();
        h.write_u64(self.budget);
        h.write_u64(self.max_field_depth as u64);
        h.write_u64(self.max_ctx_depth as u64);
        h.write_u8(u8::from(self.cache_summaries));
        h.write_u32(self.max_refinements);
        h.write_u8(u8::from(self.context_sensitive));
        h.write_u8(1);
        h.finish()
    }
}

/// A client-satisfaction predicate (the paper's `satisfyClient`): returns
/// `true` when the (possibly over-approximate) points-to set already
/// answers the client's question positively, allowing REFINEPTS to stop
/// refining early.
///
/// The `Sync` bound lets one predicate reference cross the threads of a
/// [`Session::run_batch`](crate::Session::run_batch) without cloning
/// tricks; predicates are read-only views over frozen analysis inputs,
/// so the bound costs client code nothing in practice.
pub type ClientCheck<'a> = &'a (dyn Fn(&PointsToSet) -> bool + Sync);

/// A predicate that is never satisfied — forces full precision.
pub fn never_satisfied(_: &PointsToSet) -> bool {
    false
}

/// Result of a context-stack operation: the successor context, or `None`
/// when the transition is unrealizable (parenthesis mismatch). The error
/// is the general [`Interrupt`] so depth-cap aborts ride the same unwind
/// channel as budget, cancellation and deadline trips.
pub(crate) type CtxStep = Result<Option<CtxId>, Interrupt>;

/// Pushes call site `i` (traversing an `exit_i` edge backwards or an
/// `entry_i` edge forwards).
///
/// Recursive sites are context-transparent (the paper collapses
/// call-graph cycles, §5.1); context-insensitive mode keeps every context
/// empty; exceeding the depth cap aborts the query conservatively.
pub(crate) fn ctx_push(
    ctxs: &mut StackPool<CallSiteId>,
    c: CtxId,
    i: CallSiteId,
    pag: &Pag,
    config: &EngineConfig,
) -> CtxStep {
    if !config.context_sensitive {
        return Ok(Some(CtxId::EMPTY));
    }
    if pag.is_recursive_site(i) {
        return Ok(Some(c));
    }
    if ctxs.depth(c) >= config.max_ctx_depth {
        return Err(Interrupt::Budget);
    }
    Ok(Some(ctxs.push(c, i)))
}

/// A context-popping adjacency segment: the two transitions whose call
/// site must match the top of the calling context.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PopSeg {
    /// The `entry_i` edges into a formal, walked backwards (S1).
    EntryInto(NodeId),
    /// The `exit_i` edges out of a return variable, walked forwards (S2).
    ExitFrom(NodeId),
}

/// Walks a context-popping segment — the one kernel behind every
/// engine's S1 `entry` and S2 `exit` transitions — calling
/// `visit(far node, successor context)` for each edge the context
/// allows, in segment ([`EdgeId`](dynsum_pag::EdgeId)) order.
///
/// An `i`-labelled edge pops `i` off the context. Recursive sites are
/// context-transparent (the paper collapses call-graph cycles, §5.1), an
/// empty context matches anything — realizable paths may start and end
/// in different methods (Algorithm 1, line 11) — and context-insensitive
/// mode keeps every context empty. So under a non-empty context with top
/// site `t` only the `t`-labelled and the recursive edges can be taken;
/// the kernel finds them through the PAG's call-site index instead of
/// testing every edge, so a formal's caller count no longer matters.
///
/// Every edge of the segment is still charged, one budget unit each (the
/// paper's §5.2 unit), through [`Ticket::charge_units`]: budgets, trips
/// and `edges_traversed` are exactly those of a per-edge scan. On a trip
/// the kernel visits the edges before the tripping one and returns the
/// trip.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pop_segment(
    pag: &Pag,
    ctxs: &StackPool<CallSiteId>,
    config: &EngineConfig,
    seg: PopSeg,
    c: CtxId,
    ticket: &mut Ticket,
    stats: &mut QueryStats,
    mut visit: impl FnMut(NodeId, CtxId),
) -> Result<(), Interrupt> {
    let all = match seg {
        PopSeg::EntryInto(n) => pag.in_seg(n, AdjClass::Entry),
        PopSeg::ExitFrom(n) => pag.out_seg(n, AdjClass::Exit),
    };
    let (charged, result) = ticket.charge_units(all.len() as u64);
    stats.edges_traversed += charged;
    let reached = &all[..charged as usize];
    let popped = if config.context_sensitive {
        ctxs.pop(c)
    } else {
        None
    };
    let Some((top, rest)) = popped else {
        for a in reached {
            visit(a.node, CtxId::EMPTY);
        }
        return result;
    };
    let (labelled, recursive) = match seg {
        PopSeg::EntryInto(n) => (pag.site_entries_into(top, n), pag.recursive_entries_into(n)),
        PopSeg::ExitFrom(n) => (pag.site_exits_from(top, n), pag.recursive_exits_from(n)),
    };
    // A recursive top never pops: its edges are among `recursive`.
    let labelled = if pag.is_recursive_site(top) {
        &[]
    } else {
        labelled
    };
    // The segment is in EdgeId order, so the charges reached exactly the
    // edges below the first unreached one.
    let (labelled, recursive) = match all.get(reached.len()) {
        Some(stop) => (
            &labelled[..labelled.partition_point(|a| a.edge < stop.edge)],
            &recursive[..recursive.partition_point(|a| a.edge < stop.edge)],
        ),
        None => (labelled, recursive),
    };
    let (mut i, mut j) = (0, 0);
    while i < labelled.len() || j < recursive.len() {
        if j == recursive.len() || (i < labelled.len() && labelled[i].edge < recursive[j].edge) {
            visit(labelled[i].node, rest);
            i += 1;
        } else {
            visit(recursive[j].node, c);
            j += 1;
        }
    }
    result
}

/// The successor context across an `assignglobal` edge: globals are
/// context-insensitive, so the context is cleared (Algorithm 1 lines 6–7).
pub(crate) fn ctx_clear() -> CtxId {
    CtxId::EMPTY
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::{PagBuilder, VarId};
    use proptest::prelude::*;

    /// `m` calls `m2` at site "1": `a --entry_1--> p`.
    fn site_pag(recursive: bool) -> (Pag, CallSiteId, VarId, VarId) {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        let a = b.add_local("a", m, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let s = b.add_call_site("1", m).unwrap();
        b.set_recursive(s, recursive).unwrap();
        b.add_entry(s, a, p).unwrap();
        (b.finish(), s, a, p)
    }

    /// The kernel's visits over `seg` under `c`, on an unlimited ticket.
    fn pops(
        pag: &Pag,
        ctxs: &StackPool<CallSiteId>,
        config: &EngineConfig,
        seg: PopSeg,
        c: CtxId,
    ) -> Vec<(NodeId, CtxId)> {
        let mut visits = Vec::new();
        let mut ticket = Ticket::unlimited();
        let mut stats = QueryStats::default();
        pop_segment(
            pag,
            ctxs,
            config,
            seg,
            c,
            &mut ticket,
            &mut stats,
            |n, c2| visits.push((n, c2)),
        )
        .unwrap();
        visits
    }

    #[test]
    fn push_then_pop_round_trips() {
        let (pag, s, a, p) = site_pag(false);
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert_eq!(ctxs.depth(c1), 1);
        let seg = PopSeg::EntryInto(pag.var_node(p));
        assert_eq!(
            pops(&pag, &ctxs, &config, seg, c1),
            vec![(pag.var_node(a), CtxId::EMPTY)]
        );
    }

    #[test]
    fn pop_on_empty_is_allowed() {
        let (pag, _, a, p) = site_pag(false);
        let config = EngineConfig::default();
        let ctxs = StackPool::new();
        let seg = PopSeg::EntryInto(pag.var_node(p));
        assert_eq!(
            pops(&pag, &ctxs, &config, seg, CtxId::EMPTY),
            vec![(pag.var_node(a), CtxId::EMPTY)]
        );
    }

    #[test]
    fn mismatched_pop_is_dead() {
        // Two callers of one formal: under site 1's context only the
        // site-1 edge is taken, though both are charged.
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        let a1 = b.add_local("a1", m, None).unwrap();
        let a2 = b.add_local("a2", m, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let s1 = b.add_call_site("1", m).unwrap();
        let s2 = b.add_call_site("2", m).unwrap();
        b.add_entry(s2, a2, p).unwrap();
        b.add_entry(s1, a1, p).unwrap();
        let pag = b.finish();
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s1, &pag, &config)
            .unwrap()
            .unwrap();
        let seg = PopSeg::EntryInto(pag.var_node(p));
        let mut ticket = Ticket::unlimited();
        let mut stats = QueryStats::default();
        let mut visits = Vec::new();
        pop_segment(
            &pag,
            &ctxs,
            &config,
            seg,
            c1,
            &mut ticket,
            &mut stats,
            |n, c2| visits.push((n, c2)),
        )
        .unwrap();
        assert_eq!(visits, vec![(pag.var_node(a1), CtxId::EMPTY)]);
        assert_eq!(stats.edges_traversed, 2, "every edge is charged");
        assert_eq!(ticket.used(), 2);
    }

    #[test]
    fn recursive_sites_are_transparent() {
        let (pag, s, a, p) = site_pag(true);
        let config = EngineConfig::default();
        let mut ctxs = StackPool::new();
        let c = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(c.is_empty());
        // Under a non-empty context (even one topped by the site itself,
        // which `ctx_push` never builds) the edge is taken and the
        // context is kept.
        let c = ctxs.push(CtxId::EMPTY, s);
        let seg = PopSeg::EntryInto(pag.var_node(p));
        assert_eq!(
            pops(&pag, &ctxs, &config, seg, c),
            vec![(pag.var_node(a), c)]
        );
    }

    #[test]
    fn context_insensitive_mode_keeps_empty() {
        let (pag, s, a, p) = site_pag(false);
        let config = EngineConfig {
            context_sensitive: false,
            ..EngineConfig::default()
        };
        let mut ctxs = StackPool::new();
        let c = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(c.is_empty());
        let c = ctxs.push(CtxId::EMPTY, s);
        let seg = PopSeg::EntryInto(pag.var_node(p));
        assert_eq!(
            pops(&pag, &ctxs, &config, seg, c),
            vec![(pag.var_node(a), CtxId::EMPTY)]
        );
    }

    #[test]
    fn depth_cap_aborts() {
        let (pag, s, ..) = site_pag(false);
        let config = EngineConfig {
            max_ctx_depth: 1,
            ..EngineConfig::default()
        };
        let mut ctxs = StackPool::new();
        let c1 = ctx_push(&mut ctxs, CtxId::EMPTY, s, &pag, &config)
            .unwrap()
            .unwrap();
        assert!(ctx_push(&mut ctxs, c1, s, &pag, &config).is_err());
    }

    #[test]
    fn default_config_matches_paper_budget() {
        assert_eq!(EngineConfig::default().budget, 75_000);
        assert!(EngineConfig::default().context_sensitive);
    }

    #[test]
    fn semantic_digest_is_pinned() {
        // Snapshot headers and the daemon's snapshot file names carry this
        // digest: a new value turns every saved snapshot into a cold start.
        assert_eq!(
            EngineConfig::default().semantic_digest(),
            0xbb83_30b8_7caa_f8ee
        );
        let other = EngineConfig {
            budget: 1_000,
            max_field_depth: 7,
            max_ctx_depth: 3,
            cache_summaries: false,
            max_refinements: 4,
            context_sensitive: false,
            max_cached_summaries: Some(5),
            worker_stack_bytes: 1 << 20,
        };
        assert_eq!(other.semantic_digest(), 0x3306_a914_6ebf_777f);
    }

    /// The per-edge context pop the kernel replaced, kept as its oracle.
    fn ctx_pop(
        ctxs: &StackPool<CallSiteId>,
        c: CtxId,
        i: CallSiteId,
        pag: &Pag,
        config: &EngineConfig,
    ) -> CtxStep {
        if !config.context_sensitive {
            return Ok(Some(CtxId::EMPTY));
        }
        if pag.is_recursive_site(i) {
            return Ok(Some(c));
        }
        match ctxs.peek(c) {
            None => Ok(Some(CtxId::EMPTY)),
            Some(top) if top == i => Ok(Some(ctxs.pop(c).expect("non-empty").1)),
            Some(_) => Ok(None),
        }
    }

    /// The per-edge scan the kernel replaced: charge, then pop, per edge.
    #[allow(clippy::too_many_arguments)]
    fn per_edge_scan(
        pag: &Pag,
        ctxs: &StackPool<CallSiteId>,
        config: &EngineConfig,
        seg: PopSeg,
        c: CtxId,
        ticket: &mut Ticket,
        stats: &mut QueryStats,
        mut visit: impl FnMut(NodeId, CtxId),
    ) -> Result<(), Interrupt> {
        let all = match seg {
            PopSeg::EntryInto(n) => pag.in_seg(n, AdjClass::Entry),
            PopSeg::ExitFrom(n) => pag.out_seg(n, AdjClass::Exit),
        };
        for &a in all {
            ticket.charge()?;
            stats.edges_traversed += 1;
            if let Some(c2) = ctx_pop(ctxs, c, a.site(), pag, config)? {
                visit(a.node, c2);
            }
        }
        Ok(())
    }

    /// Three methods of three locals each; `sites[i] = (caller, kind)`
    /// with kind 0 recursive; `edges[j] = (entry?, site, caller-side
    /// local, callee-side node)`. Few callee-side nodes and many sites
    /// make wide segments mixing every site.
    fn random_pag(sites: &[(usize, usize)], edges: &[(bool, usize, usize, usize)]) -> Pag {
        let mut b = PagBuilder::new();
        let methods: Vec<_> = (0..3)
            .map(|m| b.add_method(&format!("m{m}"), None).unwrap())
            .collect();
        let locals: Vec<_> = (0..9)
            .map(|v| b.add_local(&format!("v{v}"), methods[v / 3], None).unwrap())
            .collect();
        let ids: Vec<_> = sites
            .iter()
            .enumerate()
            .map(|(i, &(caller, kind))| {
                let s = b.add_call_site(&format!("s{i}"), methods[caller]).unwrap();
                b.set_recursive(s, kind == 0).unwrap();
                (s, caller)
            })
            .collect();
        for &(entry, site, near, far) in edges {
            let (s, caller) = ids[site % ids.len()];
            let caller_local = locals[caller * 3 + near];
            if entry {
                b.add_entry(s, caller_local, locals[far]).unwrap();
            } else {
                b.add_exit(s, locals[far], caller_local).unwrap();
            }
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random graphs — recursive sites, both sensitivity modes,
        /// contexts whose top may be any site, and budgets and fuses that
        /// trip inside a wide segment — the kernel's successor sequence,
        /// charge count and trip equal the per-edge scan's, segment after
        /// segment on one shared ticket.
        #[test]
        fn kernel_matches_per_edge_scan(
            sites in collection::vec((0usize..3, 0usize..4), 1..10),
            edges in collection::vec((any::<bool>(), 0usize..16, 0usize..3, 0usize..9), 0..120),
            ctx in collection::vec(0usize..16, 0..4),
            sensitive in any::<bool>(),
            limit in 0u64..300,
            fuse in 0u64..300,
            prior in 0u64..20,
        ) {
            let pag = random_pag(&sites, &edges);
            let config = EngineConfig { context_sensitive: sensitive, ..EngineConfig::default() };
            let mut ctxs = StackPool::new();
            let mut c = CtxId::EMPTY;
            for &i in &ctx {
                c = ctxs.push(c, CallSiteId::from_raw((i % sites.len()) as u32));
            }
            let ticket = || {
                let mut control = dynsum_cfl::QueryControl::new();
                if fuse > 0 {
                    control = control.fused_after(fuse - 1, Interrupt::Cancelled);
                }
                let mut t = Ticket::with_control(limit, &control);
                let _ = t.charge_units(prior);
                t
            };
            let (mut kt, mut rt) = (ticket(), ticket());
            let (mut ks, mut rs) = (QueryStats::default(), QueryStats::default());
            for n in pag.nodes() {
                for seg in [PopSeg::EntryInto(n), PopSeg::ExitFrom(n)] {
                    let (mut kv, mut rv) = (Vec::new(), Vec::new());
                    let kr = pop_segment(&pag, &ctxs, &config, seg, c, &mut kt, &mut ks, |n, c2| kv.push((n, c2)));
                    let rr = per_edge_scan(&pag, &ctxs, &config, seg, c, &mut rt, &mut rs, |n, c2| rv.push((n, c2)));
                    prop_assert_eq!(kv, rv, "successors at {:?}", seg);
                    prop_assert_eq!(kr, rr, "trip at {:?}", seg);
                    prop_assert_eq!(ks, rs, "charges at {:?}", seg);
                    prop_assert_eq!(kt.used(), rt.used());
                }
            }
        }
    }
}
