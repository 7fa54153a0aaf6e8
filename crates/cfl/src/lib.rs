//! # dynsum-cfl — CFL-reachability machinery
//!
//! Shared infrastructure for the demand-driven points-to engines of
//! *On-Demand Dynamic Summary-based Points-to Analysis* (CGO 2012):
//!
//! * [`StackPool`]/[`StackId`] — hash-consed persistent stacks, used both
//!   for **field stacks** ([`FieldStackId`]: unmatched field
//!   parentheses of the `L_FT` language, tagged by provenance as
//!   [`FieldFrame`]s) and **context stacks** ([`CtxId`]: unmatched
//!   call-site parentheses of `R_RP`);
//! * [`Direction`] — the two traversal states `S1`/`S2` of the
//!   `pointsTo`/`alias` RSM (Figure 3), with the transition tables
//!   documented;
//! * [`Ticket`]/[`QueryControl`]/[`CancelToken`]/[`Interrupt`] —
//!   per-query edge-traversal budgets (§5.2) and their interruptions:
//!   cooperative cancellation, deadlines and deterministic
//!   fault-injection fuses, all observed at budget-charge granularity
//!   and unwinding on the budget's sound partial-result channel;
//! * [`FxHasher`]/[`FxHashMap`]/[`FxHashSet`] — the vendored fast hasher
//!   behind every hot-path table (worklist dedup, interning, caches) —
//!   plus [`StableHasher`], the *frozen* FNV-1a variant whose output is
//!   part of persistent on-disk formats (snapshot fingerprints),
//!   re-exported from `dynsum-pag`;
//! * [`PointsToSet`], [`QueryResult`], [`QueryStats`] — context-qualified
//!   results and deterministic work counters;
//! * [`Trace`] — the `(v, f, s, c)` step recorder behind the paper's
//!   Table 1;
//! * [`sync`] — the synchronization facade every concurrency kernel in
//!   the workspace imports (`std` by default, loom-instrumented under
//!   the `model-check` feature for bounded schedule exploration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod hash;
mod query;
mod rsm;
mod stack;
pub mod sync;
mod trace;

pub use budget::{CancelToken, Interrupt, QueryControl, Ticket};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, StableHasher};
pub use query::{CtxId, FieldFrame, FieldStackId, Outcome, PointsToSet, QueryResult, QueryStats};
pub use rsm::Direction;
pub use stack::{StackId, StackPool};
pub use trace::{StepKind, Trace, TraceStep};

// The whole CFL substrate is shared by the `Session` API's parallel
// query handles: every type here must stay `Send + Sync` (no `Rc`, no
// interior mutability). Compile-time check, so a regression fails the
// build of this test module rather than a distant downstream crate.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn substrate_types_cross_threads() {
        assert_send_sync::<StackPool<u32>>();
        assert_send_sync::<StackId<u32>>();
        assert_send_sync::<PointsToSet>();
        assert_send_sync::<QueryResult>();
        assert_send_sync::<QueryStats>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<QueryControl>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Interrupt>();
        assert_send_sync::<Outcome>();
        assert_send_sync::<Trace>();
        assert_send_sync::<Direction>();
    }
}
