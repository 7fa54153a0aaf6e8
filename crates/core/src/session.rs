//! The `Session` API: shared immutable analysis state plus cheap,
//! `Send` per-thread query handles.
//!
//! The paper's economics are about serving *streams* of demand queries
//! cheaply by reusing context-independent summaries (§4, Figure 5);
//! those streams are embarrassingly parallel once the mutable per-query
//! machinery is split off the shareable state. A [`Session`] freezes
//! everything queries only read — the PAG, the [`EngineConfig`], the
//! engine kind, DYNSUM's accumulated summary cache or STASUM's
//! precomputed relative store — and [`Session::handle`] hands out
//! lightweight [`QueryHandle`]s owning the interning pools, worklist
//! buffers, and (for DYNSUM) a private cache *shard*. The session itself
//! answers one query at a time ([`Session::points_to`],
//! [`Session::query`]), each a one-query batch.
//!
//! [`Session::run_batch`] executes a query batch across scoped threads
//! with a **sharded, merge-on-join** cache discipline: every worker reads
//! the session cache frozen at batch start, accumulates fresh summaries
//! in its own shard, and the shards are merged back (re-interning
//! field-stack ids) when the workers join. Combined with deterministic
//! budget accounting (reusing a summary charges its recorded cold cost —
//! see [`Summary::cost`]), every query's result is a pure function of
//! `(pag, config, query)`: batches return results **byte-identical** to
//! sequential execution at any thread count.
//!
//! # Cache lifecycle
//!
//! The session is built for **long-lived query streams** (the paper's
//! JIT/IDE regime, §1/§7), which demands bounded memory and amortized
//! per-batch overhead:
//!
//! * **Size-capped eviction** — with
//!   [`EngineConfig::max_cached_summaries`] set, a clock (second-chance)
//!   sweep runs over the shared cache at every [`Session::absorb`] merge
//!   point (and over each worker's in-flight shard after every query),
//!   so the cache never exceeds the cap no matter how long the stream
//!   runs. Eviction cannot change results: deterministic reuse
//!   accounting makes every outcome cache-independent by construction,
//!   so an evicted summary is recomputed at exactly the budget price its
//!   reuse would have charged.
//! * **Warm worker reuse** — `run_batch` recycles worker scratch
//!   (worklist buffers, PPTA stacks, shard pools) across calls instead
//!   of rebuilding it per batch, and handles receive the session's
//!   field-stack pool as an O(1) frozen snapshot
//!   ([`StackPool::freeze`]) instead of a deep clone. The absorb merge
//!   detects the shared snapshot prefix and re-interns only the ids a
//!   worker actually added.
//! * **Invalidation fencing** — summary shards are stamped with the
//!   session's invalidation *epoch* at handle creation;
//!   [`Session::invalidate_method`] bumps the epoch, so a shard detached
//!   before an invalidation can never re-absorb stale summaries for the
//!   invalidated method afterwards (counted by
//!   [`Session::stale_rejections`]).
//! * **Spawn resilience** — if the host cannot spawn a batch worker
//!   (stack/rlimit pressure), the batch degrades to fewer workers —
//!   ultimately running chunks on the caller's thread — instead of
//!   panicking, and [`Session::spawn_failures`] counts the degradations.
//! * **Fault isolation** — every per-query evaluation inside a batch is
//!   wrapped in `catch_unwind`: a panicking query is reported as a
//!   per-query [`Outcome::Panicked`] result while the rest of the batch
//!   completes, and the unwound worker's scratch — including its
//!   in-flight summary shard — is discarded wholesale rather than
//!   absorbed. Batches accept a [`BatchControl`] carrying a shared
//!   [`CancelToken`], a deadline, and (for tests and the differential
//!   fuzzer) a deterministic [`FaultPlan`]; all robustness counters are
//!   snapshotted by [`Session::health`].

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dynsum_cfl::sync::atomic::{AtomicUsize, Ordering};
use dynsum_cfl::sync::thread;
use std::time::Instant;

use dynsum_cfl::{
    CancelToken, FieldFrame, FieldStackId, FxHashMap, Interrupt, Outcome, QueryControl,
    QueryResult, StackPool, Trace,
};
use dynsum_pag::{MethodId, Pag, VarId};

use crate::driver::DriveParts;
use crate::dynsum::dynsum_query;
use crate::engine::{never_satisfied, ClientCheck, EngineConfig};
use crate::norefine::norefine_query;
use crate::refinepts::refinepts_query;
use crate::search::SearchParts;
use crate::stasum::{stasum_precompute, stasum_query, StaSumShared};
use crate::summary::{CacheStats, Summary, SummaryCache, SummaryKey};

/// The four demand-driven engines of Table 2, by name: what a
/// [`Session`] runs.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// NOREFINE baseline.
    NoRefine,
    /// REFINEPTS baseline.
    RefinePts,
    /// DYNSUM (the paper's contribution).
    DynSum,
    /// STASUM static-summary comparison point.
    StaSum,
}

impl EngineKind {
    /// All four engines, in the paper's table order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::NoRefine,
        EngineKind::RefinePts,
        EngineKind::DynSum,
        EngineKind::StaSum,
    ];

    /// The three timed engines of Table 4, in the paper's row order.
    pub const TABLE4: [EngineKind; 3] = [
        EngineKind::NoRefine,
        EngineKind::RefinePts,
        EngineKind::DynSum,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::NoRefine => "NOREFINE",
            EngineKind::RefinePts => "REFINEPTS",
            EngineKind::DynSum => "DYNSUM",
            EngineKind::StaSum => "STASUM",
        }
    }

    /// Parses a table name back to a kind, case-insensitively
    /// (`"dynsum"`, `"DYNSUM"`, …). The inverse of [`name`](Self::name);
    /// CLI front-ends (`dynsum --engine`, `fuzz_engines --engine`) use it
    /// via the [`FromStr`](std::str::FromStr) impl.
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s).ok_or_else(|| {
            format!("unknown engine `{s}` (expected NOREFINE, REFINEPTS, DYNSUM or STASUM)")
        })
    }
}

/// One query in a batch: the variable plus the client-satisfaction
/// predicate (ignored by the engines without refinement).
#[derive(Clone, Copy)]
pub struct SessionQuery<'a> {
    /// The queried variable (`pointsTo(var, ∅)`).
    pub var: VarId,
    /// The client predicate — must be `Sync` so one reference can serve
    /// every worker thread (see [`ClientCheck`]).
    pub satisfied: ClientCheck<'a>,
}

impl<'a> SessionQuery<'a> {
    /// A full-precision query (the predicate is never satisfied).
    pub fn new(var: VarId) -> SessionQuery<'static> {
        SessionQuery {
            var,
            satisfied: &never_satisfied,
        }
    }

    /// A query with a client predicate.
    pub fn with_check(var: VarId, satisfied: ClientCheck<'a>) -> Self {
        SessionQuery { var, satisfied }
    }
}

impl std::fmt::Debug for SessionQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionQuery")
            .field("var", &self.var)
            .finish_non_exhaustive()
    }
}

/// Batch-wide interruption controls for [`Session::run_batch_with`]:
/// a shared cancel token, a deadline applied to every query, and an
/// optional deterministic [`FaultPlan`].
///
/// The default control never interrupts — [`Session::run_batch`] is
/// exactly `run_batch_with(queries, threads, &BatchControl::default())`.
#[derive(Debug, Clone, Default)]
pub struct BatchControl {
    /// Cancel token observed by every query in the batch. Cancelling it
    /// interrupts in-flight queries within one poll window and makes
    /// queries not yet started return immediately.
    pub cancel: Option<Arc<CancelToken>>,
    /// Deadline applied to every query in the batch.
    pub deadline: Option<Instant>,
    /// Deterministic fault-injection plan, for tests and the
    /// differential fuzzer's fault regime. `None` in production.
    pub faults: Option<FaultPlan>,
}

impl BatchControl {
    /// The per-query control for the query at global batch index
    /// `query_index`: batch-wide token/deadline plus any injected fuse
    /// the fault plan pins to this index (a cancel fuse and a deadline
    /// fuse on the same index keep the deadline one).
    fn query_control(&self, query_index: usize) -> QueryControl {
        let mut qc = QueryControl::new();
        if let Some(token) = &self.cancel {
            qc = qc.cancelled_by(Arc::clone(token));
        }
        if let Some(deadline) = self.deadline {
            qc = qc.deadline_at(deadline);
        }
        if let Some(plan) = &self.faults {
            if let Some(&at) = plan.cancel_after.get(&query_index) {
                qc = qc.fused_after(at, Interrupt::Cancelled);
            }
            if let Some(&at) = plan.deadline_after.get(&query_index) {
                qc = qc.fused_after(at, Interrupt::Deadline);
            }
        }
        qc
    }

    fn injects_panic(&self, query_index: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.panic_queries.contains(&query_index))
    }

    fn injects_spawn_failure(&self, worker_index: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.fail_spawns.contains(&worker_index))
    }
}

/// A deterministic fault-injection plan for [`BatchControl::faults`].
///
/// Every action is keyed by a count or an index — no wall clock, no
/// cross-thread races — so a plan replays identically at any thread
/// count and on any machine. Batch query indices are **global** (input
/// order); worker indices are the deterministic spawn order
/// `0..threads` of [`Session::run_batch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Global query indices whose evaluation panics (injected inside the
    /// worker's `catch_unwind`, before the engine runs).
    pub panic_queries: BTreeSet<usize>,
    /// Global query index → budget-charge count after which that query
    /// trips [`Outcome::Cancelled`] (a deterministic stand-in for a
    /// racy token cancellation).
    pub cancel_after: BTreeMap<usize, u64>,
    /// Global query index → budget-charge count after which that query
    /// trips [`Outcome::DeadlineExceeded`].
    pub deadline_after: BTreeMap<usize, u64>,
    /// Worker indices (spawn order, `0..threads`) whose spawn is forced
    /// to fail, exercising the degradation path: the batch runs on the
    /// surviving workers — ultimately on the calling thread when none
    /// survive (counted by [`Session::spawn_failures`]). Ignored by
    /// 1-thread batches, which spawn nothing.
    pub fail_spawns: BTreeSet<usize>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panic_queries.is_empty()
            && self.cancel_after.is_empty()
            && self.deadline_after.is_empty()
            && self.fail_spawns.is_empty()
    }
}

/// A point-in-time snapshot of a session's robustness counters,
/// returned by [`Session::health`]. All counters are lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionHealth {
    /// Batch workers that could not be spawned and were degraded to
    /// in-line execution ([`Session::spawn_failures`]).
    pub spawn_failures: u64,
    /// Stale shard entries rejected at absorb time
    /// ([`Session::stale_rejections`]).
    pub stale_rejections: u64,
    /// Summaries evicted from the shared cache by the size-cap sweep.
    pub evictions: u64,
    /// Batch queries that returned [`Outcome::Cancelled`].
    pub cancellations: u64,
    /// Batch queries that returned [`Outcome::DeadlineExceeded`].
    pub deadline_trips: u64,
    /// Batch queries that panicked and were isolated
    /// ([`Outcome::Panicked`]).
    pub query_panics: u64,
}

/// The engine-specific shared (read-only between merges) half.
#[derive(Debug)]
pub(crate) enum SharedState {
    /// NOREFINE and REFINEPTS carry no cross-query state at all.
    NoRefine,
    RefinePts,
    /// DYNSUM: the accumulated summary cache plus the field-stack pool
    /// its keys are interned in. Handles clone the pool (ids stay
    /// aligned) and extend their clones privately.
    DynSum {
        cache: SummaryCache,
        fields: StackPool<FieldFrame>,
    },
    /// STASUM: the frozen all-pairs relative summary store
    /// (pool-independent inline field arrays).
    StaSum(StaSumShared),
}

/// Immutable, shareable analysis state: a frozen PAG, an engine
/// configuration and kind, and the engine's shareable half (DYNSUM's
/// summary cache / STASUM's precomputed store).
///
/// `Session` is `Send + Sync`; [`handle`](Self::handle) hands out `Send`
/// [`QueryHandle`]s that borrow it, so one warm session can serve any
/// number of threads. Mutation (merging a handle's summary shard back,
/// evicting summaries) goes through `&mut self` — between batches, never
/// during one.
///
/// # Examples
///
/// ```
/// use dynsum_core::{EngineKind, Session};
/// use dynsum_pag::PagBuilder;
///
/// let mut b = PagBuilder::new();
/// let m = b.add_method("main", None)?;
/// let v = b.add_local("v", m, None)?;
/// let o = b.add_obj("o1", None, Some(m))?;
/// b.add_new(o, v)?;
/// let pag = b.finish();
///
/// let session = Session::new(&pag, EngineKind::DynSum);
/// let mut handle = session.handle();
/// assert!(handle.points_to(v).pts.contains_obj(o));
/// # Ok::<(), dynsum_pag::BuildError>(())
/// ```
#[derive(Debug)]
pub struct Session<'p> {
    pag: &'p Pag,
    config: EngineConfig,
    kind: EngineKind,
    pub(crate) state: SharedState,
    /// Invalidation epoch: bumped by [`invalidate_method`]
    /// (Self::invalidate_method); shards detached under an older epoch
    /// cannot re-absorb summaries of methods invalidated since.
    pub(crate) epoch: u64,
    /// Epoch at which each method was last invalidated.
    pub(crate) invalidated_at: FxHashMap<MethodId, u64>,
    /// Warm worker scratch recycled across [`run_batch`]
    /// (Self::run_batch) calls: worklist/PPTA buffers and shard pools
    /// stay allocated between batches.
    warm: Vec<HandleScratch>,
    /// Lifetime count of worker-spawn failures degraded gracefully.
    spawn_failures: u64,
    /// Lifetime count of stale (post-invalidation) shard entries
    /// rejected at absorb time.
    stale_rejected: u64,
    /// Lifetime count of batch queries that returned
    /// [`Outcome::Cancelled`].
    cancellations: u64,
    /// Lifetime count of batch queries that returned
    /// [`Outcome::DeadlineExceeded`].
    deadline_trips: u64,
    /// Lifetime count of batch queries that panicked and were isolated.
    query_panics: u64,
}

impl<'p> Session<'p> {
    /// Creates a session with the default configuration. STASUM sessions
    /// run their whole-program precomputation here.
    pub fn new(pag: &'p Pag, kind: EngineKind) -> Self {
        Self::with_config(pag, kind, EngineConfig::default())
    }

    /// Creates a session with an explicit configuration. STASUM
    /// sessions run their whole-program precomputation here.
    pub fn with_config(pag: &'p Pag, kind: EngineKind, config: EngineConfig) -> Self {
        let state = match kind {
            EngineKind::NoRefine => SharedState::NoRefine,
            EngineKind::RefinePts => SharedState::RefinePts,
            EngineKind::DynSum => SharedState::DynSum {
                cache: SummaryCache::new(),
                fields: StackPool::new(),
            },
            EngineKind::StaSum => SharedState::StaSum(stasum_precompute(pag, &config)),
        };
        Session {
            pag,
            config,
            kind,
            state,
            epoch: 0,
            invalidated_at: FxHashMap::default(),
            warm: Vec::new(),
            spawn_failures: 0,
            stale_rejected: 0,
            cancellations: 0,
            deadline_trips: 0,
            query_panics: 0,
        }
    }

    /// The frozen graph under analysis.
    pub fn pag(&self) -> &'p Pag {
        self.pag
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Which engine this session runs.
    pub fn engine(&self) -> EngineKind {
        self.kind
    }

    /// Number of summaries in the shared state: DYNSUM's merged cache
    /// size (the Figure 5 numerator) or STASUM's precomputed count; 0
    /// for the memorization-free engines.
    pub fn summary_count(&self) -> usize {
        match &self.state {
            SharedState::DynSum { cache, .. } => cache.len(),
            SharedState::StaSum(shared) => shared.len(),
            _ => 0,
        }
    }

    /// Creates a per-thread query handle borrowing this session.
    ///
    /// Handles are `Send` and cheap: pools, worklist buffers, and (for
    /// DYNSUM) an empty cache shard layered over the shared cache. Any
    /// number may exist concurrently. The handle's field-stack pool is
    /// an O(1) frozen snapshot of the session pool (not a deep clone):
    /// shared-cache keys resolve identically in it, and private pushes
    /// extend it copy-on-write.
    pub fn handle(&self) -> QueryHandle<'_, 'p> {
        QueryHandle {
            session: self,
            scratch: self.new_scratch(),
            epoch: self.epoch,
        }
    }

    /// Builds fresh handle scratch matching this session's engine.
    fn new_scratch(&self) -> HandleScratch {
        match &self.state {
            SharedState::NoRefine => HandleScratch::NoRefine(SearchParts::default()),
            SharedState::RefinePts => HandleScratch::RefinePts(SearchParts::default()),
            SharedState::DynSum { fields, .. } => HandleScratch::DynSum {
                parts: DriveParts {
                    // A frozen-snapshot clone: shared-cache keys resolve
                    // identically in the handle's pool, private pushes
                    // extend the snapshot.
                    fields: fields.clone(),
                    ..DriveParts::default()
                },
                shard: SummaryCache::new(),
            },
            SharedState::StaSum(_) => HandleScratch::StaSum(DriveParts::default()),
        }
    }

    /// Checks a warm worker scratch out of the pool (or builds a fresh
    /// one). Reused scratch keeps its buffers; only the field-stack pool
    /// is re-snapshotted so ids stay aligned with the current session
    /// pool and cache.
    fn checkout(&mut self) -> HandleScratch {
        match self.warm.pop() {
            Some(mut scratch) => {
                if let (
                    HandleScratch::DynSum { parts, shard },
                    SharedState::DynSum { fields, .. },
                ) = (&mut scratch, &self.state)
                {
                    debug_assert!(shard.is_empty(), "returned shards are drained");
                    debug_assert_eq!(shard.stats(), CacheStats::default());
                    parts.fields = fields.clone();
                }
                scratch
            }
            None => self.new_scratch(),
        }
    }

    /// Number of warm worker-scratch slots held for reuse by the next
    /// [`run_batch`](Self::run_batch) call.
    pub fn warm_workers(&self) -> usize {
        self.warm.len()
    }

    /// Lifetime count of batch workers that could not be spawned and
    /// were degraded to in-line execution instead of panicking.
    pub fn spawn_failures(&self) -> u64 {
        self.spawn_failures
    }

    /// Lifetime count of stale shard entries (computed before a
    /// [`invalidate_method`](Self::invalidate_method) call for a method
    /// it invalidated) rejected at absorb time.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejected
    }

    /// Snapshots every robustness counter into one [`SessionHealth`]
    /// value — the metrics surface for supervising daemons.
    pub fn health(&self) -> SessionHealth {
        SessionHealth {
            spawn_failures: self.spawn_failures,
            stale_rejections: self.stale_rejected,
            evictions: self.cache_stats().evictions,
            cancellations: self.cancellations,
            deadline_trips: self.deadline_trips,
            query_panics: self.query_panics,
        }
    }

    /// Tallies batch outcomes into the lifetime robustness counters.
    fn count_outcomes(&mut self, results: &[QueryResult]) {
        for r in results {
            match r.outcome {
                Outcome::Cancelled => self.cancellations += 1,
                Outcome::DeadlineExceeded => self.deadline_trips += 1,
                Outcome::Panicked => self.query_panics += 1,
                Outcome::Resolved | Outcome::OverBudget => {}
            }
        }
    }

    /// Lifetime hit/miss/eviction counters of the shared summary cache
    /// (all zero for engines without one). `stats().lookups()` equals
    /// the total lookups of every absorbed shard — unmerged handle
    /// shards are not yet included.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.state {
            SharedState::DynSum { cache, .. } => cache.stats(),
            _ => CacheStats::default(),
        }
    }

    /// Merges a handle's summary shard (see
    /// [`QueryHandle::into_summaries`]) into the shared cache, returning
    /// how many entries were new. Field-stack ids are re-interned into
    /// the session pool; duplicate keys keep the existing entry (summary
    /// contents are canonical per key). Entries for methods invalidated
    /// since the shard's handle was created are rejected (see
    /// [`stale_rejections`](Self::stale_rejections)), and the size cap
    /// — [`EngineConfig::max_cached_summaries`] — is enforced after the
    /// merge. No-op for engines without a cache.
    pub fn absorb(&mut self, shard: SummaryShard) -> usize {
        let SummaryShard {
            cache: shard_cache,
            fields: shard_fields,
            epoch: shard_epoch,
        } = shard;
        let added = self.absorb_parts(&shard_cache, &shard_fields, shard_epoch);
        // Release the shard's snapshot before freezing, so the freeze
        // can move the shared prefix instead of deep-copying it.
        drop(shard_fields);
        self.finish_merge();
        added
    }

    /// The merge body, borrowing the shard so the warm-worker path can
    /// drain and keep it. Does **not** enforce the cap or refreeze the
    /// pool — callers run [`finish_merge`](Self::finish_merge) once
    /// after the last shard of a batch.
    fn absorb_parts(
        &mut self,
        shard_cache: &SummaryCache,
        shard_fields: &StackPool<FieldFrame>,
        shard_epoch: u64,
    ) -> usize {
        let pag = self.pag;
        let invalidated_at = &self.invalidated_at;
        let mut stale = 0u64;
        let added = match &mut self.state {
            SharedState::DynSum { cache, fields } => {
                cache.absorb_counters(shard_cache);
                let before = cache.len();
                // Ids at or below the shared frozen prefix denote the
                // same stacks in both pools — the steady-state fast
                // path: a worker that interned nothing new skips
                // translation entirely.
                let shared = fields.shared_base_len(shard_fields) as u32;
                let mut memo: FxHashMap<FieldStackId, FieldStackId> = FxHashMap::default();
                // Key order, not hash-map order: insertion order sets the
                // clock ring's order and so what a capped cache evicts,
                // and the shard map's iteration order depends on its
                // capacity history (a recycled worker shard and a fresh
                // handle's shard iterate the same entries differently).
                let mut entries: Vec<(&SummaryKey, &Arc<Summary>)> =
                    shard_cache.entries().collect();
                entries.sort_unstable_by_key(|(k, _)| **k);
                for (&(node, f, dir), sum) in entries {
                    if let Some(m) = pag.method_of(node) {
                        if invalidated_at.get(&m).is_some_and(|&e| e > shard_epoch) {
                            stale += 1;
                            continue;
                        }
                    }
                    // Translation is memoized, so deciding `changed`
                    // first and re-walking only when a rewrite is needed
                    // keeps the common case (no private extension: every
                    // id maps to itself) free of per-summary allocation.
                    let f2 = translate(shard_fields, fields, &mut memo, shared, f);
                    let changed = f2 != f
                        || sum.boundaries.iter().any(|&(_, bf, _)| {
                            translate(shard_fields, fields, &mut memo, shared, bf) != bf
                        });
                    let entry = if changed {
                        let boundaries = sum
                            .boundaries
                            .iter()
                            .map(|&(n, bf, d)| {
                                (n, translate(shard_fields, fields, &mut memo, shared, bf), d)
                            })
                            .collect();
                        Arc::new(Summary {
                            objs: sum.objs.clone(),
                            boundaries,
                            cost: sum.cost,
                        })
                    } else {
                        Arc::clone(sum)
                    };
                    cache.insert_if_absent((node, f2, dir), entry);
                }
                cache.len() - before
            }
            _ => 0,
        };
        self.stale_rejected += stale;
        added
    }

    /// Post-merge bookkeeping: sweep the shared cache down to the size
    /// cap and refreeze the session pool so the next round of handle
    /// snapshots is O(1) again.
    fn finish_merge(&mut self) {
        if let SharedState::DynSum { cache, fields } = &mut self.state {
            if let Some(cap) = self.config.max_cached_summaries {
                cache.enforce_cap(cap);
            }
            fields.freeze();
        }
    }

    /// Evicts the shared summaries of one method, keeping everything
    /// else. Returns the number of evicted entries; 0 for engines without
    /// a cache.
    ///
    /// This is the incremental-analysis story the paper motivates for
    /// JIT compilers and IDEs (§1, §7): when an edit invalidates a single
    /// method body, only that method's context-independent summaries
    /// need recomputing — summaries are keyed by node, and local edges
    /// never cross method boundaries, so summaries of untouched methods
    /// stay valid.
    ///
    /// Outstanding shards are fenced, not drained: the session's
    /// invalidation epoch is bumped, and [`absorb`](Self::absorb)
    /// rejects entries for this method from any shard whose handle was
    /// created before this call — stale summaries can never re-enter
    /// the shared cache. Handles created *after* this call recompute
    /// and re-absorb the method's summaries normally.
    pub fn invalidate_method(&mut self, method: MethodId) -> usize {
        let pag = self.pag;
        match &mut self.state {
            SharedState::DynSum { cache, .. } => {
                self.epoch += 1;
                self.invalidated_at.insert(method, self.epoch);
                cache.evict_where(|&(node, _, _)| pag.method_of(node) == Some(method))
            }
            _ => 0,
        }
    }

    /// Runs a query batch on up to `threads` worker threads and returns
    /// one result per query, in input order.
    ///
    /// Work is distributed by **dynamic claiming**: workers pull the
    /// next unclaimed query index off a shared atomic cursor, so one
    /// expensive query occupies one worker while the others drain the
    /// rest of the batch — no worker idles behind a static split (the
    /// skew case of mixed daemon workloads). Workers read the session
    /// cache frozen at batch start and collect fresh summaries in
    /// private shards; the shards are merged back here after all
    /// workers join (so later batches start warmer), the size cap is
    /// enforced on the merged cache, and the worker scratch (buffers,
    /// pools) is kept warm for the next call. Results — resolution
    /// flags and points-to sets, including the partial sets of
    /// over-budget queries — are **byte-identical to sequential
    /// execution** for every thread count and every claim
    /// interleaving: summary reuse charges its recorded cold cost
    /// against the per-query budget, so no query's outcome depends on
    /// what any other query cached or on which worker ran it.
    ///
    /// A 1-thread batch runs the same claim loop directly on the calling
    /// thread — same checkout and merge, no thread spawn. If a
    /// multi-thread batch's worker cannot be spawned (stack/rlimit
    /// pressure), the batch degrades to the workers that did spawn —
    /// the unclaimed queries are simply drained by fewer threads, by
    /// the calling thread alone if none spawned — rather than
    /// panicking; [`spawn_failures`](Self::spawn_failures) counts the
    /// degradations.
    ///
    /// Queries on the calling thread — every 1-thread batch, and every
    /// [`query`](Self::query) — run PPTA recursion on the
    /// caller's stack, which is typically smaller than
    /// [`EngineConfig::worker_stack_bytes`]. Callers with unusually
    /// deep-recursion workloads who relied on the worker reservation
    /// should pass `threads >= 2` (reserved-stack workers) or raise
    /// their own thread's stack.
    pub fn run_batch(&mut self, queries: &[SessionQuery<'_>], threads: usize) -> Vec<QueryResult> {
        self.run_batch_with(queries, threads, &BatchControl::default())
    }

    /// [`run_batch`](Self::run_batch) under a [`BatchControl`]: a shared
    /// cancel token and/or deadline observed by every query at
    /// budget-charge granularity, plus (for tests and the differential
    /// fuzzer) a deterministic [`FaultPlan`].
    ///
    /// Interrupted queries return their sound partial sets with
    /// [`Outcome::Cancelled`]/[`Outcome::DeadlineExceeded`]; a panicking
    /// query is isolated by `catch_unwind` and reported as
    /// [`Outcome::Panicked`] while the rest of the batch completes, and
    /// the unwound worker's scratch (shard included) is discarded rather
    /// than absorbed. None of this can change any later result:
    /// deterministic reuse accounting makes every outcome
    /// cache-independent, so a follow-up batch on this session is
    /// byte-identical to one on a fresh cold session.
    pub fn run_batch_with(
        &mut self,
        queries: &[SessionQuery<'_>],
        threads: usize,
        control: &BatchControl,
    ) -> Vec<QueryResult> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, queries.len());
        let epoch = self.epoch;
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let per_worker = if threads == 1 {
            // The sequential fast path: the same slot checkout, claim loop
            // and shard merge as the parallel path, minus the scoped
            // spawn/join a lone worker would only pay overhead for. The
            // uncontended cursor hands out indices in input order.
            let slot = self.checkout();
            vec![run_stealing(self, slot, queries, cursor, epoch, control)]
        } else {
            let mut slots: Vec<HandleScratch> = (0..threads).map(|_| self.checkout()).collect();
            let stack_bytes = self.config.worker_stack_bytes;
            let sess: &Session<'p> = self;
            let (per_worker, failures) = thread::scope(|scope| {
                let mut spawned = Vec::with_capacity(threads);
                let mut failures = 0u64;
                for wi in 0..threads {
                    // The slot moves into the spawn closure, so a failed
                    // spawn forfeits it; the surviving workers (or the
                    // degraded in-line pass below) absorb its share of the
                    // cursor (rare path, correctness unaffected).
                    let slot = slots.pop().expect("one slot per worker");
                    if control.injects_spawn_failure(wi) {
                        // An injected spawn failure forfeits the slot too,
                        // mirroring the real failure path exactly.
                        drop(slot);
                        failures += 1;
                        continue;
                    }
                    let spawn = thread::Builder::new()
                        .stack_size(stack_bytes)
                        .spawn_scoped(scope, move || {
                            run_stealing(sess, slot, queries, cursor, epoch, control)
                        });
                    match spawn {
                        Ok(worker) => spawned.push(worker),
                        Err(_) => failures += 1,
                    }
                }
                let mut per_worker: Vec<(Vec<(usize, QueryResult)>, HandleScratch)> =
                    Vec::with_capacity(threads);
                if failures > 0 {
                    // Degraded mode: the calling thread joins the claim
                    // loop, overlapping any workers that did spawn, so the
                    // batch always drains even when no worker could start.
                    per_worker.push(run_stealing(
                        sess,
                        sess.new_scratch(),
                        queries,
                        cursor,
                        epoch,
                        control,
                    ));
                }
                for worker in spawned {
                    match worker.join() {
                        Ok(pair) => per_worker.push(pair),
                        // Per-query panics are caught inside the claim
                        // loop; a panic that still reaches the join is an
                        // engine bug outside any query — re-raise the
                        // original payload rather than masking it.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                (per_worker, failures)
            });
            self.spawn_failures += failures;
            per_worker
        };
        // Scatter the claimed (index, result) pairs back into input
        // order; the claim loop visits every index exactly once, so
        // every cell fills.
        let mut scattered: Vec<Option<QueryResult>> = (0..queries.len()).map(|_| None).collect();
        for (out, scratch) in per_worker {
            for (i, r) in out {
                debug_assert!(scattered[i].is_none(), "each query claimed once");
                scattered[i] = Some(r);
            }
            self.retire_slot(scratch, epoch);
        }
        let results: Vec<QueryResult> = scattered
            .into_iter()
            .map(|r| r.expect("every query ran"))
            .collect();
        self.finish_merge();
        self.count_outcomes(&results);
        results
    }

    /// Merges a finished worker slot's shard into the shared cache and
    /// parks the scratch in the warm pool for the next batch.
    fn retire_slot(&mut self, mut scratch: HandleScratch, epoch: u64) {
        if let HandleScratch::DynSum { parts, shard } = &mut scratch {
            self.absorb_parts(shard, &parts.fields, epoch);
            // Drained after the counter/entry merge: absorbing the
            // same shard again next batch would double-count.
            shard.clear();
            // Release the snapshot too (checkout re-takes one): a
            // parked slot holding the base `Arc` would force the
            // post-merge `freeze` to deep-copy the prefix instead of
            // moving it.
            parts.fields.clear();
        }
        self.warm.push(scratch);
    }

    /// [`run_batch`](Self::run_batch) at full precision (no client
    /// predicates).
    pub fn run_batch_vars(&mut self, vars: &[VarId], threads: usize) -> Vec<QueryResult> {
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        self.run_batch(&queries, threads)
    }

    /// Answers `pointsTo(v, ∅)` at full precision.
    pub fn points_to(&mut self, v: VarId) -> QueryResult {
        self.query(v, &never_satisfied)
    }

    /// Answers `pointsTo(v, ∅)` for a client, refining only until
    /// `satisfied` returns `true` (engines without refinement ignore the
    /// predicate and always compute the full answer).
    ///
    /// One query as a one-query [`run_batch`](Self::run_batch) on the
    /// calling thread: a warm-slot checkout, the query, the shard merge
    /// and the size-cap sweep. Uncapped, every query's
    /// [`QueryStats`](dynsum_cfl::QueryStats) equal those of the same
    /// stream run as one batch; under a cap only the answers do, since
    /// the sweep then runs over the shard and the shared cache in turn.
    pub fn query(&mut self, v: VarId, satisfied: ClientCheck<'_>) -> QueryResult {
        let mut out = self.run_batch(&[SessionQuery::with_check(v, satisfied)], 1);
        out.pop().expect("one result per query")
    }

    /// Answers `pointsTo(v, ∅)` at full precision and returns the
    /// driver's step trace with it — the paper's Table 1 view of which
    /// summaries a query computed and which it reused. Table 1 is
    /// DYNSUM's view: the trace is empty for the other engine kinds.
    ///
    /// Tracing changes nothing: the query runs on a fresh handle whose
    /// shard is then [`absorb`](Self::absorb)ed, so the result, the merged
    /// summaries and the cache counters are those of the untraced
    /// [`points_to`](Self::points_to).
    pub fn explain(&mut self, v: VarId) -> (QueryResult, Trace) {
        let mut trace = Trace::new();
        let mut handle = self.handle();
        let result = handle.run_query(
            v,
            &never_satisfied,
            &QueryControl::default(),
            Some(&mut trace),
        );
        let shard = handle.into_summaries();
        self.absorb(shard);
        self.count_outcomes(std::slice::from_ref(&result));
        (result, trace)
    }
}

/// One worker's dynamic claim loop: pull the next unclaimed global
/// query index off the shared cursor until the batch is drained,
/// returning the claimed `(index, result)` pairs together with the
/// scratch so [`Session::run_batch`] can scatter results back into
/// input order, drain the shard, and keep the scratch warm.
///
/// Which worker claims which index is racy and irrelevant: the
/// [`FaultPlan`] and per-query fuses key off the *global* index
/// claimed, and deterministic reuse accounting makes every result a
/// pure function of `(pag, config, query)` — so any interleaving
/// produces byte-identical results. Every query evaluation runs under
/// `catch_unwind`: a panic yields a per-query [`QueryResult::panicked`]
/// and replaces the handle's scratch (shard included) with fresh state.
fn run_stealing<'s, 'p>(
    sess: &'s Session<'p>,
    scratch: HandleScratch,
    queries: &[SessionQuery<'_>],
    cursor: &AtomicUsize,
    epoch: u64,
    control: &BatchControl,
) -> (Vec<(usize, QueryResult)>, HandleScratch) {
    let mut h = QueryHandle {
        session: sess,
        scratch,
        epoch,
    };
    let mut out = Vec::new();
    loop {
        // Ordering::Relaxed — uniqueness comes from the RMW's
        // atomicity, not its ordering: no two workers can observe the
        // same counter value, so every index is claimed exactly once
        // regardless of how the claims interleave with anything else.
        // No data rides on the cursor (queries/scratch are passed by
        // reference, and the merge-on-join absorb happens after the
        // scope's join barrier, which is the ordering edge). Model-
        // checked: exactly-once claims (crates/modelcheck, `cursor_*`).
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let q = match queries.get(i) {
            Some(q) => q,
            None => break,
        };
        let qc = control.query_control(i);
        let inject_panic = control.injects_panic(i);
        let run = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected query fault");
            }
            h.query_with(q.var, q.satisfied, &qc)
        }));
        out.push((
            i,
            run.unwrap_or_else(|_| {
                // The unwound query may have left the scratch — and, for
                // DYNSUM, the in-flight shard — half-updated: discard it
                // wholesale, so nothing it touched can reach the shared
                // cache. Summaries the discarded shard held are merely
                // recomputed later at the exact budget price their reuse
                // would have charged, so results are unaffected.
                h.scratch = sess.new_scratch();
                QueryResult::panicked()
            }),
        ));
    }
    (out, h.scratch)
}

/// Translates a field-stack id interned in `from` into the equivalent id
/// in `to`, re-interning as needed. Memoized per merge. Ids at or below
/// `shared` — the frozen prefix the two pools share — are identical in
/// both pools and pass through untouched (the empty stack, raw 0, is
/// always below it).
fn translate(
    from: &StackPool<FieldFrame>,
    to: &mut StackPool<FieldFrame>,
    memo: &mut FxHashMap<FieldStackId, FieldStackId>,
    shared: u32,
    id: FieldStackId,
) -> FieldStackId {
    if id.as_raw() <= shared {
        return id;
    }
    if let Some(&t) = memo.get(&id) {
        return t;
    }
    // Walk down to a translated (or shared) suffix, then re-intern back
    // up.
    let mut chain: Vec<(FieldStackId, FieldFrame)> = Vec::new();
    let mut cur = id;
    let base = loop {
        if cur.as_raw() <= shared {
            break cur;
        }
        if let Some(&t) = memo.get(&cur) {
            break t;
        }
        let (top, rest) = from.pop(cur).expect("non-empty stack");
        chain.push((cur, top));
        cur = rest;
    };
    let mut t = base;
    for &(orig, elem) in chain.iter().rev() {
        t = to.push(t, elem);
        memo.insert(orig, t);
    }
    t
}

/// A handle's detached summary shard: the summaries it computed plus the
/// field-stack pool their keys are interned in, stamped with the
/// session's invalidation epoch at handle creation. Produced by
/// [`QueryHandle::into_summaries`], consumed by [`Session::absorb`]
/// (which rejects entries for methods invalidated after the stamp).
#[derive(Debug, Default)]
pub struct SummaryShard {
    pub(crate) cache: SummaryCache,
    pub(crate) fields: StackPool<FieldFrame>,
    pub(crate) epoch: u64,
}

impl SummaryShard {
    /// Number of summaries carried.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when the shard carries nothing.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// The engine-specific per-handle scratch half.
#[derive(Debug)]
enum HandleScratch {
    NoRefine(SearchParts),
    RefinePts(SearchParts),
    DynSum {
        parts: DriveParts,
        shard: SummaryCache,
    },
    StaSum(DriveParts),
}

/// A cheap, `Send` per-thread query endpoint borrowing a [`Session`].
///
/// Owns everything a query mutates — interning pools, worklist and PPTA
/// scratch, and (DYNSUM) a private summary shard layered over the shared
/// session cache, which [`into_summaries`](Self::into_summaries) detaches
/// for [`Session::absorb`].
#[derive(Debug)]
pub struct QueryHandle<'s, 'p> {
    session: &'s Session<'p>,
    scratch: HandleScratch,
    /// Session invalidation epoch at creation; stamps the detached
    /// shard so stale summaries cannot be re-absorbed after an
    /// invalidation.
    epoch: u64,
}

impl QueryHandle<'_, '_> {
    /// Answers `pointsTo(v, ∅)` at full precision on this handle's
    /// shard.
    pub fn points_to(&mut self, v: VarId) -> QueryResult {
        self.query_with(v, &never_satisfied, &QueryControl::default())
    }

    /// [`Session::query`] on this handle's shard, under an explicit
    /// [`QueryControl`] — a cancel token, deadline, or deterministic
    /// fuse observed at budget-charge granularity. A tripped control
    /// unwinds exactly like budget exhaustion: the result carries the
    /// sound partial set with the tripping [`Outcome`], and the handle
    /// (shard included) remains valid for further queries.
    pub fn query_with(
        &mut self,
        v: VarId,
        satisfied: ClientCheck<'_>,
        control: &QueryControl,
    ) -> QueryResult {
        self.run_query(v, satisfied, control, None)
    }

    /// The one query body. `trace`, when given, records the summary
    /// driver's steps (DYNSUM only; the other engines record nothing).
    /// Inlined so [`query_with`](Self::query_with) hands the kernel a
    /// constant `None`.
    #[inline(always)]
    fn run_query(
        &mut self,
        v: VarId,
        satisfied: ClientCheck<'_>,
        control: &QueryControl,
        trace: Option<&mut Trace>,
    ) -> QueryResult {
        let pag = self.session.pag;
        let config = &self.session.config;
        match (&mut self.scratch, &self.session.state) {
            (HandleScratch::NoRefine(parts), _) => norefine_query(pag, config, parts, v, control),
            (HandleScratch::RefinePts(parts), _) => {
                refinepts_query(pag, config, parts, v, satisfied, control)
            }
            (HandleScratch::DynSum { parts, shard }, SharedState::DynSum { cache, .. }) => {
                dynsum_query(pag, config, Some(cache), shard, parts, v, control, trace)
            }
            (HandleScratch::StaSum(parts), SharedState::StaSum(shared)) => {
                stasum_query(pag, config, shared, parts, v, control)
            }
            _ => unreachable!("handle scratch always matches its session's state"),
        }
    }

    /// Detaches the handle's summary shard for
    /// [`Session::absorb`]. Empty for engines without a cache.
    pub fn into_summaries(self) -> SummaryShard {
        match self.scratch {
            HandleScratch::DynSum { parts, shard } => SummaryShard {
                cache: shard,
                fields: parts.fields,
                epoch: self.epoch,
            },
            _ => SummaryShard::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_pag::{ObjId, PagBuilder};

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn session_is_send_sync_and_handles_are_send() {
        assert_send::<Session<'static>>();
        assert_sync::<Session<'static>>();
        assert_send::<QueryHandle<'static, 'static>>();
        assert_send::<SessionQuery<'static>>();
        assert_sync::<SessionQuery<'static>>();
        assert_send::<SummaryShard>();
        assert_send::<EngineKind>();
    }

    /// id(p){return p} from two sites — the canonical context test.
    fn two_callers() -> (Pag, Vec<VarId>, ObjId, ObjId) {
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
        (b.finish(), vec![r1, r2, a1, a2, ret, p], o1, o2)
    }

    /// The reference is a session answering one query at a time. A
    /// handle answers on its private shard while the session merges
    /// after every query; over the same stream both see the same
    /// summaries, so results and work counters agree exactly.
    #[test]
    fn handles_agree_with_legacy_engines_for_every_kind() {
        let (pag, vars, ..) = two_callers();
        for kind in EngineKind::ALL {
            let mut session = Session::new(&pag, kind);
            let mut handle = session.handle();
            let mut one_at_a_time = Session::new(&pag, kind);
            for &v in vars.iter().chain(&vars) {
                let a = handle.points_to(v);
                let b = one_at_a_time.points_to(v);
                assert_eq!(a, b, "{kind} on {v:?}");
            }
            let shard = handle.into_summaries();
            session.absorb(shard);
            assert_eq!(session.summary_count(), one_at_a_time.summary_count());
        }
    }

    #[test]
    fn explain_changes_no_result_and_no_count() {
        let (pag, vars, ..) = two_callers();
        for kind in EngineKind::ALL {
            for cap in [None, Some(1)] {
                let config = EngineConfig {
                    max_cached_summaries: cap,
                    ..EngineConfig::default()
                };
                let mut traced = Session::with_config(&pag, kind, config);
                let mut plain = Session::with_config(&pag, kind, config);
                for &v in vars.iter().chain(&vars) {
                    let (a, trace) = traced.explain(v);
                    let b = plain.points_to(v);
                    assert_eq!(a, b, "{kind} cap {cap:?} on {v:?}");
                    let traced_kind = kind == EngineKind::DynSum;
                    assert_eq!(!trace.is_empty(), traced_kind, "{kind} on {v:?}");
                    assert_eq!(traced.summary_count(), plain.summary_count());
                    assert_eq!(traced.cache_stats(), plain.cache_stats());
                    assert_eq!(traced.health(), plain.health());
                }
            }
        }
    }

    #[test]
    fn run_batch_matches_sequential_at_any_thread_count() {
        let (pag, vars, ..) = two_callers();
        let sequential: Vec<QueryResult> = {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            vars.iter().map(|&v| session.points_to(v)).collect()
        };
        for threads in [1, 2, 4, 7] {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            let results = session.run_batch_vars(&vars, threads);
            assert_eq!(results.len(), sequential.len());
            for (got, want) in results.iter().zip(&sequential) {
                assert_eq!(got.resolved, want.resolved, "threads={threads}");
                assert_eq!(got.pts, want.pts, "threads={threads}");
            }
            assert!(session.summary_count() > 0, "shards merged on join");
        }
    }

    #[test]
    fn merged_shards_warm_later_batches() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        session.run_batch_vars(&vars, 2);
        let after_first = session.summary_count();
        assert!(after_first > 0);
        // A warm handle over the merged cache hits it immediately.
        let mut handle = session.handle();
        let r = handle.points_to(vars[0]);
        assert!(r.stats.cache_hits > 0, "batch summaries must be reusable");
        // Re-running the same batch discovers nothing new.
        session.run_batch_vars(&vars, 4);
        assert_eq!(session.summary_count(), after_first);
    }

    #[test]
    fn absorb_reinterns_shard_stacks() {
        // A graph whose cached summaries carry non-empty field stacks in
        // their keys and boundaries, so absorbing the shard exercises the
        // id re-interning path: r = get(c) where get loads this.f.
        let mut b = PagBuilder::new();
        let main = b.add_method("main", None).unwrap();
        let get = b.add_method("get", None).unwrap();
        let f = b.field("f");
        let this_g = b.add_local("this_g", get, None).unwrap();
        let ret = b.add_local("ret", get, None).unwrap();
        b.add_load(f, this_g, ret).unwrap();
        let c = b.add_local("c", main, None).unwrap();
        let x = b.add_local("x", main, None).unwrap();
        let r = b.add_local("r", main, None).unwrap();
        let oc = b.add_obj("oc", None, Some(main)).unwrap();
        let ox = b.add_obj("ox", None, Some(main)).unwrap();
        b.add_new(oc, c).unwrap();
        b.add_new(ox, x).unwrap();
        b.add_store(f, x, c).unwrap();
        let s = b.add_call_site("1", main).unwrap();
        b.add_entry(s, c, this_g).unwrap();
        b.add_exit(s, ret, r).unwrap();
        let pag = b.finish();

        let mut session = Session::new(&pag, EngineKind::DynSum);
        let shard = {
            let mut h = session.handle();
            h.points_to(r);
            h.into_summaries()
        };
        assert!(!shard.is_empty());
        let added = session.absorb(shard);
        assert_eq!(session.summary_count(), added);
        // The merged summaries answer correctly from the shared cache.
        let mut h = session.handle();
        let res = h.points_to(r);
        assert!(res.resolved);
        assert!(res.pts.contains_obj(ox));
        assert!(res.stats.cache_hits > 0);
        // Absorbing the same facts twice adds nothing.
        let shard2 = h.into_summaries();
        assert_eq!(session.absorb(shard2), 0);
    }

    #[test]
    fn refinepts_session_respects_client_predicates() {
        let (pag, vars, o1, _) = two_callers();
        let mut session = Session::new(&pag, EngineKind::RefinePts);
        let check = |pts: &dynsum_cfl::PointsToSet| pts.contains_obj(o1);
        let queries = [
            SessionQuery::with_check(vars[0], &check),
            SessionQuery::new(vars[1]),
        ];
        let results = session.run_batch(&queries, 2);
        assert!(results[0].resolved && results[1].resolved);
    }

    #[test]
    fn session_invalidation_evicts_method_summaries() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        session.run_batch_vars(&vars, 2);
        let before = session.summary_count();
        let id = pag.find_method("id").unwrap();
        let evicted = session.invalidate_method(id);
        assert!(evicted > 0);
        assert_eq!(session.summary_count(), before - evicted);
        // Queries still come out right afterwards.
        let mut h = session.handle();
        assert!(h.points_to(vars[0]).resolved);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (pag, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        assert!(session.run_batch_vars(&[], 4).is_empty());
    }

    #[test]
    fn run_batch_recycles_worker_scratch() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        assert_eq!(session.warm_workers(), 0);
        let first = session.run_batch_vars(&vars, 2);
        assert_eq!(session.warm_workers(), 2, "both slots returned warm");
        // Re-running on the warm pool gives identical results and does
        // not grow the pool.
        let second = session.run_batch_vars(&vars, 2);
        assert_eq!(session.warm_workers(), 2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.resolved, b.resolved);
            assert_eq!(a.pts, b.pts);
        }
        // A wider batch grows it.
        session.run_batch_vars(&vars, 4);
        assert_eq!(session.warm_workers(), 4);
    }

    #[test]
    fn unspawnable_workers_degrade_to_inline_execution() {
        let (pag, vars, ..) = two_callers();
        let want = {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            session.run_batch_vars(&vars, 2)
        };
        // An absurd stack reservation makes every spawn fail; the batch
        // must still complete (on the calling thread) with identical
        // results and a nonzero warning counter.
        let config = EngineConfig {
            worker_stack_bytes: usize::MAX,
            ..EngineConfig::default()
        };
        let mut session = Session::with_config(&pag, EngineKind::DynSum, config);
        let got = session.run_batch_vars(&vars, 3);
        assert!(session.spawn_failures() > 0, "degradations must be counted");
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.resolved, b.resolved);
            assert_eq!(a.pts, b.pts);
        }
        // Shards from in-line chunks still merge: later batches warm up.
        assert!(session.summary_count() > 0);
    }

    #[test]
    fn absorb_enforces_the_size_cap() {
        let (pag, vars, ..) = two_callers();
        let uncapped = {
            let mut s = Session::new(&pag, EngineKind::DynSum);
            s.run_batch_vars(&vars, 1);
            s.summary_count()
        };
        assert!(uncapped > 1);
        let cap = 1usize;
        let config = EngineConfig {
            max_cached_summaries: Some(cap),
            ..EngineConfig::default()
        };
        let mut session = Session::with_config(&pag, EngineKind::DynSum, config);
        let results = session.run_batch_vars(&vars, 2);
        assert!(session.summary_count() <= cap);
        assert!(session.cache_stats().evictions > 0);
        // Capped results match the uncapped session's byte for byte.
        let mut reference = Session::new(&pag, EngineKind::DynSum);
        let want = reference.run_batch_vars(&vars, 1);
        for (a, b) in results.iter().zip(&want) {
            assert_eq!(a.resolved, b.resolved);
            assert_eq!(a.pts, b.pts);
        }
    }

    #[test]
    fn stale_shards_cannot_resurrect_invalidated_summaries() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        // Detach a shard computed before the invalidation.
        let shard = {
            let mut h = session.handle();
            for &v in &vars {
                h.points_to(v);
            }
            h.into_summaries()
        };
        assert!(!shard.is_empty());
        let id = pag.find_method("id").unwrap();
        session.invalidate_method(id);
        assert_eq!(session.summary_count(), 0, "nothing was merged yet");
        let added = session.absorb(shard);
        assert!(added > 0, "main's summaries are not stale");
        assert!(session.stale_rejections() > 0, "id's summaries are");
        let in_id = |s: &Session<'_>| {
            // No public key iteration: re-deriving `id`'s summaries via
            // eviction count is the observable.
            let mut probe = Session::with_config(s.pag, s.kind, s.config);
            probe.state = match &s.state {
                SharedState::DynSum { cache, fields } => SharedState::DynSum {
                    cache: cache.clone(),
                    fields: fields.clone(),
                },
                _ => unreachable!(),
            };
            probe.invalidate_method(id)
        };
        assert_eq!(in_id(&session), 0, "no summaries of `id` were absorbed");
        // A post-invalidation handle repopulates the method normally.
        let shard2 = {
            let mut h = session.handle();
            for &v in &vars {
                h.points_to(v);
            }
            h.into_summaries()
        };
        session.absorb(shard2);
        assert!(in_id(&session) > 0, "fresh summaries for `id` re-absorbed");
        // And queries still answer correctly throughout.
        let mut h = session.handle();
        assert!(h.points_to(vars[0]).resolved);
    }

    #[test]
    fn batch_cancellation_is_counted_and_recoverable() {
        let (pag, vars, ..) = two_callers();
        let want = {
            let mut cold = Session::new(&pag, EngineKind::DynSum);
            cold.run_batch_vars(&vars, 1)
        };
        let mut session = Session::new(&pag, EngineKind::DynSum);
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let control = BatchControl {
            cancel: Some(Arc::clone(&token)),
            ..BatchControl::default()
        };
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let cancelled = session.run_batch_with(&queries, 2, &control);
        assert!(cancelled.iter().all(|r| r.outcome == Outcome::Cancelled));
        assert!(cancelled.iter().all(|r| !r.resolved));
        assert_eq!(session.health().cancellations, vars.len() as u64);
        // The cancelled batch leaves no trace: clean follow-up batches on
        // the same session match a cold session at every thread count.
        for threads in [1, 2, 4] {
            let after = session.run_batch_vars(&vars, threads);
            for (a, b) in after.iter().zip(&want) {
                assert_eq!(a.outcome, b.outcome, "threads={threads}");
                assert_eq!(a.pts, b.pts, "threads={threads}");
            }
        }
    }

    #[test]
    fn expired_batch_deadline_trips_every_query() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        let control = BatchControl {
            deadline: Some(Instant::now()),
            ..BatchControl::default()
        };
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let out = session.run_batch_with(&queries, 2, &control);
        assert!(out.iter().all(|r| r.outcome == Outcome::DeadlineExceeded));
        assert_eq!(session.health().deadline_trips, vars.len() as u64);
        // Normal service resumes without the deadline.
        assert!(session.run_batch_vars(&vars, 2).iter().all(|r| r.resolved));
    }

    #[test]
    fn injected_panic_is_isolated_per_query() {
        let (pag, vars, ..) = two_callers();
        let want = {
            let mut cold = Session::new(&pag, EngineKind::DynSum);
            cold.run_batch_vars(&vars, 1)
        };
        let mut session = Session::new(&pag, EngineKind::DynSum);
        let mut plan = FaultPlan::default();
        plan.panic_queries.insert(1);
        let control = BatchControl {
            faults: Some(plan),
            ..BatchControl::default()
        };
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let out = session.run_batch_with(&queries, 2, &control);
        assert_eq!(out[1].outcome, Outcome::Panicked);
        assert!(out[1].pts.is_empty());
        for (i, (a, b)) in out.iter().zip(&want).enumerate() {
            if i != 1 {
                assert_eq!(a.outcome, b.outcome, "query {i}");
                assert_eq!(a.pts, b.pts, "query {i}");
            }
        }
        assert_eq!(session.health().query_panics, 1);
        // The poisoned worker's shard was discarded, not absorbed:
        // follow-up batches still match a cold session byte for byte.
        for threads in [1, 2, 4] {
            let after = session.run_batch_vars(&vars, threads);
            for (a, b) in after.iter().zip(&want) {
                assert_eq!(a.outcome, b.outcome, "threads={threads}");
                assert_eq!(a.pts, b.pts, "threads={threads}");
            }
        }
    }

    #[test]
    fn injected_spawn_failures_degrade_inline() {
        let (pag, vars, ..) = two_callers();
        let want = {
            let mut cold = Session::new(&pag, EngineKind::DynSum);
            cold.run_batch_vars(&vars, 1)
        };
        let mut session = Session::new(&pag, EngineKind::DynSum);
        let mut plan = FaultPlan::default();
        plan.fail_spawns.insert(0);
        plan.fail_spawns.insert(1);
        let control = BatchControl {
            faults: Some(plan),
            ..BatchControl::default()
        };
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let out = session.run_batch_with(&queries, 2, &control);
        assert_eq!(session.health().spawn_failures, 2);
        for (a, b) in out.iter().zip(&want) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.pts, b.pts);
        }
    }

    #[test]
    fn partial_spawn_failure_still_drains_the_batch() {
        // One of two workers fails to spawn: the survivor and the
        // degraded in-line pass share the cursor and drain everything.
        let (pag, vars, ..) = two_callers();
        let want = {
            let mut cold = Session::new(&pag, EngineKind::DynSum);
            cold.run_batch_vars(&vars, 1)
        };
        let mut session = Session::new(&pag, EngineKind::DynSum);
        let mut plan = FaultPlan::default();
        plan.fail_spawns.insert(1);
        let control = BatchControl {
            faults: Some(plan),
            ..BatchControl::default()
        };
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let out = session.run_batch_with(&queries, 2, &control);
        assert_eq!(session.health().spawn_failures, 1);
        for (a, b) in out.iter().zip(&want) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.pts, b.pts);
        }
    }

    #[test]
    fn work_stealing_drains_skewed_batches_byte_identically() {
        // The skew case the static split handled badly: a batch whose
        // tail is a long run of duplicates of one query. Whatever the
        // claim interleaving, results must stay byte-identical to the
        // sequential run, in input order.
        let (pag, vars, ..) = two_callers();
        let mut skewed: Vec<VarId> = vars.clone();
        for _ in 0..40 {
            skewed.push(vars[0]);
        }
        let want = {
            let mut cold = Session::new(&pag, EngineKind::DynSum);
            cold.run_batch_vars(&skewed, 1)
        };
        for threads in [2usize, 4] {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            let got = session.run_batch_vars(&skewed, threads);
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "threads={threads} query {i}"
                );
                assert_eq!(a.pts, b.pts, "threads={threads} query {i}");
            }
        }
    }

    #[test]
    fn injected_cancel_fuse_is_deterministic() {
        let (pag, vars, ..) = two_callers();
        let queries: Vec<SessionQuery<'_>> = vars.iter().map(|&v| SessionQuery::new(v)).collect();
        let run = |threads: usize| {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            let mut plan = FaultPlan::default();
            plan.cancel_after.insert(0, 3);
            plan.deadline_after.insert(2, 0);
            let control = BatchControl {
                faults: Some(plan),
                ..BatchControl::default()
            };
            session.run_batch_with(&queries, threads, &control)
        };
        let base = run(1);
        assert_eq!(base[0].outcome, Outcome::Cancelled);
        assert_eq!(base[2].outcome, Outcome::DeadlineExceeded);
        // Count-based fuses replay identically at every thread count —
        // including the interrupted queries' partial sets.
        for threads in [2, 4] {
            let got = run(threads);
            for (a, b) in got.iter().zip(&base) {
                assert_eq!(a.outcome, b.outcome, "threads={threads}");
                assert_eq!(a.pts, b.pts, "threads={threads}");
            }
        }
    }

    #[test]
    fn health_snapshot_starts_clean() {
        let (pag, vars, ..) = two_callers();
        let mut session = Session::new(&pag, EngineKind::DynSum);
        assert_eq!(session.health(), SessionHealth::default());
        session.run_batch_vars(&vars, 2);
        let h = session.health();
        assert_eq!(h.cancellations, 0);
        assert_eq!(h.deadline_trips, 0);
        assert_eq!(h.query_panics, 0);
    }

    #[test]
    fn batch_lookup_accounting_balances() {
        // stats().lookups() on the shared cache == the per-query stats
        // summed over every absorbed query — each lookup counted exactly
        // once, at any thread count, across multiple batches.
        let (pag, vars, ..) = two_callers();
        for threads in [1usize, 2, 4] {
            let mut session = Session::new(&pag, EngineKind::DynSum);
            let mut per_query = 0u64;
            for _ in 0..3 {
                for r in session.run_batch_vars(&vars, threads) {
                    per_query += r.stats.cache_hits + r.stats.cache_misses;
                }
            }
            let stats = session.cache_stats();
            assert_eq!(
                stats.lookups(),
                per_query,
                "threads={threads}: hits {} + misses {} must equal per-query lookups",
                stats.hits,
                stats.misses
            );
        }
    }
}
