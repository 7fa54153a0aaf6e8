//! Interrupt-aware query tickets: per-query traversal budgets.
//!
//! Demand-driven CFL-reachability analyses bound the work spent on a
//! single query: once a pre-set number of PAG edge traversals is
//! exceeded, the query is answered conservatively (§5.2 fixes one limit
//! for all engines). A [`Ticket`] counts edge traversals and reports
//! exhaustion as a hard error that unwinds the query.
//!
//! The same per-edge charge that trips on exhaustion also observes a
//! shared [`CancelToken`], an optional wall-clock deadline, and an
//! optional deterministic fuse ([`QueryControl::fuse`]), all at
//! budget-charge granularity. Every trip unwinds through the engines
//! exactly like budget exhaustion — the proven sound-partial-result
//! channel — just tagged with a different [`Interrupt`] kind.

/// Why a query was interrupted before resolving.
///
/// All three kinds unwind through the engines on the identical channel:
/// a failed charge aborts the traversal and the partial points-to set
/// computed so far is returned as a sound under-approximation. Only the
/// tag differs, so clients can distinguish "ran out of budget" from
/// "was told to stop" from "took too long".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Interrupt {
    /// The edge-traversal budget (or a depth cap) was exhausted.
    Budget,
    /// A shared [`CancelToken`] was cancelled.
    Cancelled,
    /// The query's deadline passed.
    Deadline,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Budget => f.write_str("traversal budget exceeded"),
            Interrupt::Cancelled => f.write_str("query cancelled"),
            Interrupt::Deadline => f.write_str("query deadline exceeded"),
        }
    }
}

impl std::error::Error for Interrupt {}

/// A shared cancellation flag: one writer (the client losing interest)
/// and any number of in-flight queries polling it at budget-charge
/// granularity.
///
/// Wrap it in an [`Arc`](std::sync::Arc) to share it between the
/// requesting thread and the query workers; cancelling is a single
/// relaxed atomic store and is irrevocable for the token's lifetime.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynsum_cfl::CancelToken;
///
/// let token = Arc::new(CancelToken::new());
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: crate::sync::atomic::AtomicBool,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every query holding this token.
    pub fn cancel(&self) {
        // Ordering::Relaxed — the flag is a sticky monotone boolean
        // (false→true once, never back) carrying no payload: pollers
        // need eventual visibility, not an ordering edge over other
        // data. Callers that pair cancellation with shared state (the
        // daemon's reply channel) get their happens-before from that
        // channel, not from this store. Model-checked: no lost
        // cancellation (crates/modelcheck, `cancel_token_*`).
        self.flag
            .store(true, crate::sync::atomic::Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        // Ordering::Relaxed — see `cancel`: a poll may lag the store by
        // a bounded number of charges (the `poll_every` promptness
        // bound already tolerates that), but can never un-see `true`.
        self.flag.load(crate::sync::atomic::Ordering::Relaxed)
    }
}

/// Per-query interruption controls attached to a [`Ticket`].
///
/// The default control has no external signals: a ticket built from it
/// is a plain budget (one compare-and-increment per charge, no
/// polling).
#[derive(Debug, Clone, Default)]
pub struct QueryControl {
    /// Shared cancellation flag, polled every
    /// [`poll_every`](Self::poll_every) charges.
    pub cancel: Option<std::sync::Arc<CancelToken>>,
    /// Absolute deadline, checked every [`poll_every`](Self::poll_every)
    /// charges.
    pub deadline: Option<std::time::Instant>,
    /// How many charges may pass between polls of the external signals
    /// (cancel token, deadline). `0` is treated as `1`. This is the
    /// promptness bound: a cancelled query traverses at most this many
    /// further edges before unwinding.
    pub poll_every: u64,
    /// Deterministic trip point: fail the first charge once `used`
    /// reaches the given count, with the given kind. This is the
    /// instrumented-ticket hook fault injection and the promptness
    /// regression tests use — it simulates a cancellation or deadline
    /// arriving at an exact, reproducible moment, independent of wall
    /// clock and thread timing.
    pub fuse: Option<(u64, Interrupt)>,
}

impl QueryControl {
    /// Default poll granularity: external signals are observed at least
    /// every this many edge charges.
    pub const DEFAULT_POLL_EVERY: u64 = 64;

    /// A control with no signals attached (the plain-budget behavior).
    pub fn new() -> Self {
        QueryControl::default()
    }

    /// Attaches a shared cancellation token.
    pub fn cancelled_by(mut self, token: std::sync::Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute deadline.
    pub fn deadline_at(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    pub fn timeout(self, timeout: std::time::Duration) -> Self {
        self.deadline_at(std::time::Instant::now() + timeout)
    }

    /// Sets the poll granularity (see [`poll_every`](Self::poll_every)).
    pub fn poll_every(mut self, every: u64) -> Self {
        self.poll_every = every;
        self
    }

    /// Arms the deterministic fuse: trip with `kind` once `charges`
    /// charges have been spent.
    pub fn fused_after(mut self, charges: u64, kind: Interrupt) -> Self {
        self.fuse = Some((charges, kind));
        self
    }

    fn effective_poll_every(&self) -> u64 {
        if self.poll_every == 0 {
            QueryControl::DEFAULT_POLL_EVERY
        } else {
            self.poll_every
        }
    }
}

/// An interrupt-aware query ticket: a per-query traversal budget (one
/// unit is one PAG edge traversal, the paper's unit in §5.2) fused with
/// the cancellation, deadline and fault-injection signals of a
/// [`QueryControl`].
///
/// The hot path stays one branch: `charge` compares `used` against a
/// precomputed `stop` mark — the minimum of the budget limit, the next
/// poll point and the fuse point — and only falls into the cold path
/// when the mark is hit. With no control attached the mark *is* the
/// limit, so a plain ticket costs one compare-and-increment per charge.
///
/// Trips are **sticky**: once a ticket has tripped, every further charge
/// fails with the same [`Interrupt`], so an unwinding engine cannot
/// accidentally resume.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynsum_cfl::{CancelToken, Interrupt, QueryControl, Ticket};
///
/// let token = Arc::new(CancelToken::new());
/// let control = QueryControl::new().cancelled_by(Arc::clone(&token)).poll_every(8);
/// let mut t = Ticket::with_control(1_000, &control);
/// assert!(t.charge().is_ok());
/// token.cancel();
/// // The trip lands within one poll window (≤ 8 further charges).
/// let tripped = (0..8).find_map(|_| t.charge().err());
/// assert_eq!(tripped, Some(Interrupt::Cancelled));
/// assert!(t.charge().is_err(), "trips are sticky");
/// ```
#[derive(Debug, Clone)]
pub struct Ticket {
    used: u64,
    limit: u64,
    /// `charge` takes the cold path when `used >= stop`; kept at
    /// `min(limit, next poll point, fuse point)`, or `0` after a trip.
    stop: u64,
    poll_every: u64,
    cancel: Option<std::sync::Arc<CancelToken>>,
    deadline: Option<std::time::Instant>,
    fuse: Option<(u64, Interrupt)>,
    tripped: Option<Interrupt>,
}

impl Ticket {
    /// A plain ticket with the given edge-traversal limit and no
    /// external signals.
    pub fn new(limit: u64) -> Self {
        Ticket::with_control(limit, &QueryControl::default())
    }

    /// An effectively unlimited plain ticket.
    pub fn unlimited() -> Self {
        Ticket::new(u64::MAX)
    }

    /// A ticket with the given limit observing `control`'s signals.
    pub fn with_control(limit: u64, control: &QueryControl) -> Self {
        let mut t = Ticket {
            used: 0,
            limit,
            stop: 0,
            poll_every: control.effective_poll_every(),
            cancel: control.cancel.clone(),
            deadline: control.deadline,
            fuse: control.fuse,
            tripped: None,
        };
        // Poll once up front: a token cancelled (or a deadline expired)
        // before the query starts trips on the very first charge instead
        // of running a whole poll window for nothing.
        if let Some(kind) = t.poll_signals() {
            let _ = t.trip(kind);
        } else {
            t.recompute_stop();
        }
        t
    }

    /// Charges one edge traversal.
    ///
    /// # Errors
    ///
    /// Returns the [`Interrupt`] kind once the budget is exhausted, the
    /// token is cancelled, the deadline has passed, or the fuse blows;
    /// the current query should then be answered conservatively.
    #[inline]
    pub fn charge(&mut self) -> Result<(), Interrupt> {
        if self.used >= self.stop {
            return self.charge_cold();
        }
        self.used += 1;
        Ok(())
    }

    /// The cold half of [`charge`](Self::charge): re-validate every
    /// signal, then either trip or advance the stop mark.
    #[cold]
    fn charge_cold(&mut self) -> Result<(), Interrupt> {
        if let Some(kind) = self.tripped {
            return Err(kind);
        }
        if let Some((at, kind)) = self.fuse {
            if self.used >= at {
                return self.trip(kind);
            }
        }
        if self.used >= self.limit {
            return self.trip(Interrupt::Budget);
        }
        if let Some(kind) = self.poll_signals() {
            return self.trip(kind);
        }
        self.used += 1;
        self.recompute_stop();
        Ok(())
    }

    /// Charges `n` edge traversals at once.
    ///
    /// This is the deterministic-accounting primitive behind summary
    /// reuse: when a cached summary is served instead of being
    /// recomputed, the engine charges the summary's recorded
    /// cold-computation cost in one lump, so a query's budget outcome is
    /// identical whether the summary was reused or recomputed — and
    /// therefore independent of cache state, query order, and thread
    /// count. The external signals are polled once per lump; the fuse
    /// trips when the lump would carry `used` past the fuse point,
    /// exactly as `n` unit charges would have tripped it partway
    /// through. Accounting saturates, so an
    /// [`unlimited`](Self::unlimited) ticket never overflows `used`.
    ///
    /// # Errors
    ///
    /// As [`charge`](Self::charge): a lump that does not fit the
    /// remaining budget trips the ticket, and the failed lump is not
    /// deducted.
    pub fn charge_n(&mut self, n: u64) -> Result<(), Interrupt> {
        if let Some(kind) = self.tripped {
            return Err(kind);
        }
        let after = self.used.saturating_add(n);
        if let Some((at, kind)) = self.fuse {
            if after > at {
                return self.trip(kind);
            }
        }
        if after > self.limit {
            return self.trip(Interrupt::Budget);
        }
        if n > 0 {
            if let Some(kind) = self.poll_signals() {
                return self.trip(kind);
            }
        }
        self.used = after;
        self.recompute_stop();
        Ok(())
    }

    /// Charges `n` unit edge traversals, with exactly the semantics of
    /// `n` calls of [`charge`](Self::charge) that stop at the first
    /// failure: the same signals are polled at the same charges, and the
    /// units before a trip stay deducted (unlike
    /// [`charge_n`](Self::charge_n), whose failed lump is not). Returns
    /// how many units succeeded, and the trip that stopped the rest.
    ///
    /// This lets a traversal charge a whole adjacency segment up front
    /// and then visit only the edges it can take: the units that
    /// succeeded say how far into the segment the per-edge charges
    /// would have reached.
    #[inline]
    pub fn charge_units(&mut self, n: u64) -> (u64, Result<(), Interrupt>) {
        let mut done = 0;
        while done < n {
            // Every unit below the stop mark takes `charge`'s hot path.
            let fast = self.stop.saturating_sub(self.used).min(n - done);
            self.used += fast;
            done += fast;
            if done == n {
                break;
            }
            if let Err(kind) = self.charge_cold() {
                return (done, Err(kind));
            }
            done += 1;
        }
        (done, Ok(()))
    }

    fn poll_signals(&self) -> Option<Interrupt> {
        if self
            .cancel
            .as_deref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return Some(Interrupt::Cancelled);
        }
        if self
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            return Some(Interrupt::Deadline);
        }
        None
    }

    fn trip(&mut self, kind: Interrupt) -> Result<(), Interrupt> {
        self.tripped = Some(kind);
        // `used >= 0` always holds, so every further charge takes the
        // cold path and re-reports the sticky trip.
        self.stop = 0;
        Err(kind)
    }

    fn recompute_stop(&mut self) {
        let mut stop = self.limit;
        if self.cancel.is_some() || self.deadline.is_some() {
            stop = stop.min(self.used.saturating_add(self.poll_every));
        }
        if let Some((at, _)) = self.fuse {
            stop = stop.min(at);
        }
        self.stop = stop;
    }

    /// Edge traversals consumed so far.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured edge-traversal limit.
    #[inline]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The sticky interrupt, once the ticket has tripped.
    #[inline]
    pub fn tripped(&self) -> Option<Interrupt> {
        self.tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhaustion_is_sticky() {
        let mut t = Ticket::new(1);
        assert!(t.charge().is_ok());
        assert_eq!(t.charge(), Err(Interrupt::Budget));
        assert_eq!(t.charge(), Err(Interrupt::Budget));
        assert_eq!(t.charge_n(0), Err(Interrupt::Budget), "sticky lumps");
        assert_eq!(t.used(), 1);
        assert_eq!(t.tripped(), Some(Interrupt::Budget));
    }

    #[test]
    fn lump_charges_match_unit_charges() {
        // charge_n(n) succeeds exactly when n charge() calls would.
        let mut lump = Ticket::new(5);
        let mut unit = Ticket::new(5);
        assert!(lump.charge_n(3).is_ok());
        for _ in 0..3 {
            unit.charge().unwrap();
        }
        assert_eq!(lump.used(), unit.used());
        assert!(lump.charge_n(0).is_ok(), "empty lumps always fit");
        assert_eq!(lump.charge_n(3), Err(Interrupt::Budget));
        assert_eq!(lump.used(), 3, "a failed lump is not deducted");
        // Unlike a bare counter, the ticket stays tripped: a smaller lump
        // that would still fit is refused too.
        assert_eq!(lump.charge_n(2), Err(Interrupt::Budget));
        assert_eq!(lump.used(), 3);
    }

    #[test]
    fn lump_charges_never_overflow_unlimited() {
        let mut t = Ticket::unlimited();
        t.charge_n(u64::MAX - 1).unwrap();
        // Saturating accounting: an unlimited ticket keeps accepting.
        assert!(t.charge_n(u64::MAX).is_ok());
        assert_eq!(t.used(), u64::MAX);
        assert_eq!(
            t.charge(),
            Err(Interrupt::Budget),
            "saturated exactly at the limit"
        );
    }

    #[test]
    fn plain_ticket_matches_budget_exactly() {
        // A ticket without control signals is a plain budget: it trips at
        // the limit with the sticky budget error, and lumps follow the
        // same accounting.
        let mut t = Ticket::new(5);
        for _ in 0..5 {
            assert!(t.charge().is_ok());
        }
        assert_eq!(t.charge(), Err(Interrupt::Budget));
        assert_eq!(t.used(), 5);
        assert_eq!(t.tripped(), Some(Interrupt::Budget));

        let mut t = Ticket::new(5);
        assert!(t.charge_n(3).is_ok());
        assert_eq!(t.charge_n(3), Err(Interrupt::Budget));
        assert_eq!(t.used(), 3, "a failed lump is not deducted");
    }

    #[test]
    fn unlimited_ticket_never_trips() {
        let mut t = Ticket::unlimited();
        for _ in 0..100_000 {
            t.charge().unwrap();
        }
        t.charge_n(u64::MAX).unwrap();
        assert!(t.tripped().is_none());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        // An unlimited budget polling a token that is never cancelled
        // crosses a million poll windows without tripping.
        let token = std::sync::Arc::new(CancelToken::new());
        let control = QueryControl::new().cancelled_by(token).poll_every(1);
        let mut t = Ticket::with_control(u64::MAX, &control);
        for _ in 0..1_000_000 {
            t.charge().unwrap();
        }
        assert_eq!(t.used(), 1_000_000);
        assert!(t.tripped().is_none());
    }

    #[test]
    fn cancellation_lands_within_one_poll_window() {
        use std::sync::Arc;
        let token = Arc::new(CancelToken::new());
        let control = QueryControl::new()
            .cancelled_by(Arc::clone(&token))
            .poll_every(16);
        let mut t = Ticket::with_control(1_000_000, &control);
        for _ in 0..100 {
            t.charge().unwrap();
        }
        token.cancel();
        let mut extra = 0u64;
        let kind = loop {
            match t.charge() {
                Ok(()) => extra += 1,
                Err(k) => break k,
            }
        };
        assert_eq!(kind, Interrupt::Cancelled);
        assert!(extra <= 16, "promptness: {extra} charges after cancel");
        assert_eq!(t.charge(), Err(Interrupt::Cancelled), "sticky");
        assert_eq!(t.charge_n(1), Err(Interrupt::Cancelled), "sticky lumps");
    }

    #[test]
    fn pre_cancelled_token_trips_within_the_first_window() {
        use std::sync::Arc;
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let control = QueryControl::new()
            .cancelled_by(token)
            .poll_every(QueryControl::DEFAULT_POLL_EVERY);
        let mut t = Ticket::with_control(u64::MAX, &control);
        let mut spent = 0u64;
        while t.charge().is_ok() {
            spent += 1;
        }
        assert!(spent <= QueryControl::DEFAULT_POLL_EVERY);
        assert_eq!(t.tripped(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_as_deadline() {
        let past = std::time::Instant::now();
        let control = QueryControl::new().deadline_at(past).poll_every(4);
        let mut t = Ticket::with_control(u64::MAX, &control);
        let mut spent = 0u64;
        while t.charge().is_ok() {
            spent += 1;
        }
        assert!(spent <= 4);
        assert_eq!(t.tripped(), Some(Interrupt::Deadline));
    }

    #[test]
    fn fuse_trips_at_the_exact_charge() {
        let control = QueryControl::new().fused_after(10, Interrupt::Cancelled);
        let mut t = Ticket::with_control(1_000, &control);
        for _ in 0..10 {
            t.charge().unwrap();
        }
        assert_eq!(t.charge(), Err(Interrupt::Cancelled));
        assert_eq!(t.used(), 10, "the tripping charge is not deducted");

        // Lump charges observe the fuse exactly like unit charges: the
        // lump that would carry `used` past the fuse point trips.
        let mut t = Ticket::with_control(1_000, &control);
        t.charge_n(10).unwrap();
        assert_eq!(t.charge_n(1), Err(Interrupt::Cancelled));
        assert_eq!(t.used(), 10);
    }

    #[test]
    fn fuse_kind_wins_over_budget_at_the_same_point() {
        // A deadline fuse at the budget limit reports Deadline, so an
        // injected trip is attributed to the injection, not the budget.
        let control = QueryControl::new().fused_after(3, Interrupt::Deadline);
        let mut t = Ticket::with_control(3, &control);
        for _ in 0..3 {
            t.charge().unwrap();
        }
        assert_eq!(t.charge(), Err(Interrupt::Deadline));
    }

    /// A ticket for the `charge_units` equivalence: `fuse` 0 is no fuse,
    /// `poll` 0 attaches no cancel token, and the token (when attached)
    /// is cancelled after `prior` charges when `cancel` is set.
    fn unit_ticket(
        limit: u64,
        fuse: u64,
        fuse_kind: Interrupt,
        poll: u64,
        cancel: bool,
        prior: u64,
    ) -> Ticket {
        let token = std::sync::Arc::new(CancelToken::new());
        let mut control = QueryControl::new();
        if poll > 0 {
            control = control
                .cancelled_by(std::sync::Arc::clone(&token))
                .poll_every(poll);
        }
        if fuse > 0 {
            control = control.fused_after(fuse - 1, fuse_kind);
        }
        let mut t = Ticket::with_control(limit, &control);
        for _ in 0..prior {
            let _ = t.charge();
        }
        if cancel {
            token.cancel();
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `charge_units(n)` is `n` unit charges: the same success count,
        /// the same trip, the same `used`, and the same sticky state after.
        #[test]
        fn charge_units_equals_unit_charges(
            limit in 0u64..120,
            fuse in 0u64..120,
            kind in 0usize..3,
            poll in 0u64..12,
            cancel in any::<bool>(),
            prior in 0u64..120,
            n in 0u64..160,
        ) {
            let kind = [Interrupt::Budget, Interrupt::Cancelled, Interrupt::Deadline][kind];
            let mut units = unit_ticket(limit, fuse, kind, poll, cancel, prior);
            let mut lump = unit_ticket(limit, fuse, kind, poll, cancel, prior);

            let mut ok = 0;
            let mut first_trip = Ok(());
            for _ in 0..n {
                match units.charge() {
                    Ok(()) if first_trip.is_ok() => ok += 1,
                    Ok(()) => panic!("a charge succeeded after a trip"),
                    Err(k) => first_trip = first_trip.and(Err(k)),
                }
            }
            let (done, trip) = lump.charge_units(n);
            prop_assert_eq!(done, ok);
            prop_assert_eq!(trip, first_trip);
            prop_assert_eq!(lump.used(), units.used());
            prop_assert_eq!(lump.tripped(), units.tripped());
            prop_assert_eq!(lump.charge(), units.charge(), "sticky afterwards");
            prop_assert_eq!(lump.used(), units.used());
        }
    }

    #[test]
    fn zero_poll_every_defaults_sanely() {
        let control = QueryControl::new().poll_every(0);
        assert_eq!(
            control.effective_poll_every(),
            QueryControl::DEFAULT_POLL_EVERY
        );
        let mut t = Ticket::with_control(100, &control);
        for _ in 0..100 {
            t.charge().unwrap();
        }
        assert_eq!(t.charge(), Err(Interrupt::Budget));
    }
}
