//! Differential fuzzing of the four demand engines.
//!
//! wgslsmith-style pipeline: [`generate`](crate::generate) random
//! workloads across adversarial [`GeneratorOptions`], run every query
//! through a [`Session`] of each of the four engine kinds, and
//! cross-check the answers four ways —
//! each check is an invariant the paper's evaluation silently relies
//! on:
//!
//! 1. **Soundness vs the Andersen oracle** — a demand engine answers a
//!    query by exploring *part* of the program, so its answer (even a
//!    budget-truncated partial one) must be a subset of the exhaustive
//!    inclusion-based fixpoint. A superset means the engine invented a
//!    points-to relation.
//! 2. **Precision ordering between engines** — all four engines compute
//!    the same context-sensitive relation at full refinement, so any
//!    two *resolved* answers must be equal, and an unresolved partial
//!    answer must be a subset of every resolved one. With context
//!    sensitivity off, a resolved NOREFINE answer must equal the oracle
//!    *exactly* (§3.2).
//! 3. **Budget-exhaustion consistency** — cold traversal is
//!    deterministic, so a run at budget *b* is a prefix of a run at
//!    budget *B > b*: resolved-at-*b* implies resolved-at-*B* with the
//!    identical set; unresolved-at-*b* implies a subset.
//! 4. **Sequential-vs-batch byte-identity** — [`Session::run_batch`]
//!    must return byte-identical results ([`QueryResult::fingerprint`])
//!    at 1, 2 and 4 threads, and identical to a session answering the
//!    same queries one at a time, in order.
//! 5. **Fault integrity** (the `fault_injection` regime) — a batch run
//!    under a deterministic [`FaultPlan`] (injected panics, cancel and
//!    deadline fuses, a forced spawn failure, a snapshot IO error) must
//!    surface every fault per query without poisoning the session: the
//!    un-faulted queries answer byte-identically to a clean cold
//!    session, and every follow-up batch on the same session is
//!    byte-identical to that cold reference at 1, 2 and 4 threads.
//! 6. **Service identity** (the `service` regime) — a random
//!    multi-client script (interleaved queries, batches, cancels and
//!    invalidations) against the analysis daemon must answer every
//!    frame, answer every query byte-identically to a clean
//!    single-client session, and replay byte-identically — see
//!    [`service_fuzz`](crate::service_fuzz).
//!
//! Beneath all six, an answer whose outcome is [`Outcome::Panicked`]
//! outside the injected fault plan is a divergence of its own: a
//! session isolates an engine panic as an empty, unresolved answer,
//! which the set comparisons above would accept.
//!
//! The pipeline is split into an effectful half ([`observe`]: runs
//! engines, records everything) and a pure half ([`judge`]: folds
//! [`Observations`] into [`Divergence`]s). The split is what makes the
//! harness itself testable: mutation tests corrupt an `Observations`
//! value and assert the judge catches the seeded bug — see
//! `tests/divergence_corpus.rs`.

use std::collections::BTreeSet;

use dynsum_andersen::Andersen;
use dynsum_cfl::{Outcome, QueryResult};
use dynsum_core::{BatchControl, EngineConfig, EngineKind, FaultPlan, Session, SessionQuery};
use dynsum_pag::{ObjId, VarId};

use crate::generator::{try_generate, GeneratorError, GeneratorOptions, Workload};
use crate::profiles::{BenchmarkProfile, PROFILES};

/// A named adversarial regime: generator knobs plus the engine
/// configuration they are checked under.
#[derive(Debug, Clone)]
pub struct FuzzProfile {
    /// Regime name (reported in divergences).
    pub name: &'static str,
    /// Generator knobs; the per-case seed overwrites `seed`.
    pub opts: GeneratorOptions,
    /// Engine configuration all four engines and the sessions run with.
    pub config: EngineConfig,
    /// Run the fault-injection observation (check 5) for this regime's
    /// cases, with a [`FaultPlan`] derived from the case seed.
    pub inject_faults: bool,
    /// Run the daemon script observation (check 6) for this regime's
    /// cases, with a client script derived from the case seed.
    pub exercise_service: bool,
}

/// The standard regimes `make fuzz` sweeps. Each one aims a generator
/// knob at an engine limit:
///
/// * `baseline` — default-shaped graphs under a tight budget, so some
///   queries exhaust it (check 3 needs unresolved answers to bite);
/// * `deep_recursion` — heavy extra recursion against a small
///   `max_ctx_depth`, stressing the conservative context-abort path;
/// * `field_storm` — nested field chains against a small
///   `max_field_depth`, stressing the field-stack abort path;
/// * `degenerate` — scale-0 graphs, null-heavy payloads, a cap-0
///   summary cache (evict after every query) and a near-zero budget;
/// * `ci_oracle` — context-insensitive configuration, where resolved
///   NOREFINE answers must match Andersen *exactly*;
/// * `fault_injection` — baseline-shaped graphs run through
///   [`Session::run_batch_with`] under a seeded [`FaultPlan`] (injected
///   panics, cancel/deadline fuses, a forced spawn failure, a snapshot
///   IO error), checking the fault-integrity invariant (check 5);
/// * `service` — baseline-shaped graphs served by the analysis daemon
///   to a seeded multi-client script (interleaved queries, batches,
///   cancels and invalidations), checking the service-identity
///   invariant (check 6).
pub fn fuzz_profiles() -> Vec<FuzzProfile> {
    let base = GeneratorOptions::default();
    vec![
        FuzzProfile {
            name: "baseline",
            opts: GeneratorOptions {
                scale: 0.004,
                ..base
            },
            config: EngineConfig {
                budget: 20_000,
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: false,
        },
        FuzzProfile {
            name: "deep_recursion",
            opts: GeneratorOptions {
                scale: 0.003,
                recursion_bias: 0.7,
                ..base
            },
            config: EngineConfig {
                budget: 10_000,
                max_ctx_depth: 8,
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: false,
        },
        FuzzProfile {
            name: "field_storm",
            opts: GeneratorOptions {
                scale: 0.0,
                field_chain: 20,
                ..base
            },
            config: EngineConfig {
                budget: 15_000,
                max_field_depth: 12,
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: false,
        },
        FuzzProfile {
            name: "degenerate",
            opts: GeneratorOptions {
                scale: 0.0,
                null_bias: 0.9,
                ..base
            },
            config: EngineConfig {
                budget: 2_000,
                max_refinements: 2,
                max_cached_summaries: Some(0),
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: false,
        },
        FuzzProfile {
            name: "ci_oracle",
            opts: GeneratorOptions {
                scale: 0.003,
                ..base
            },
            config: EngineConfig {
                context_sensitive: false,
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: false,
        },
        FuzzProfile {
            name: "fault_injection",
            opts: GeneratorOptions {
                scale: 0.003,
                ..base
            },
            config: EngineConfig {
                budget: 20_000,
                ..EngineConfig::default()
            },
            inject_faults: true,
            exercise_service: false,
        },
        FuzzProfile {
            name: "service",
            opts: GeneratorOptions {
                scale: 0.003,
                ..base
            },
            config: EngineConfig {
                budget: 20_000,
                ..EngineConfig::default()
            },
            inject_faults: false,
            exercise_service: true,
        },
    ]
}

/// What one engine answered for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineObservation {
    /// Which engine.
    pub kind: EngineKind,
    /// Did the query finish within budget?
    pub resolved: bool,
    /// Why the query stopped; [`judge`] reports every
    /// [`Outcome::Panicked`].
    pub outcome: Outcome,
    /// Context-collapsed object set (the precision-comparison basis).
    pub objects: BTreeSet<ObjId>,
    /// Full-content stable digest ([`QueryResult::fingerprint`]).
    pub fingerprint: u64,
}

impl EngineObservation {
    fn from_result(kind: EngineKind, r: &QueryResult) -> Self {
        EngineObservation {
            kind,
            resolved: r.resolved,
            outcome: r.outcome,
            objects: r.pts.objects(),
            fingerprint: r.fingerprint(),
        }
    }
}

/// Everything observed about one query variable.
#[derive(Debug, Clone)]
pub struct QueryObservation {
    /// The queried variable.
    pub var: VarId,
    /// Human-readable site label (first client site naming `var`).
    pub label: String,
    /// The Andersen oracle's answer.
    pub oracle: BTreeSet<ObjId>,
    /// One answer per engine, in [`EngineKind::ALL`] order.
    pub engines: Vec<EngineObservation>,
}

/// A low-budget/high-budget probe pair for check 3.
#[derive(Debug, Clone)]
pub struct BudgetObservation {
    /// The probed variable.
    pub var: VarId,
    /// The probed engine (cold, fresh per probe).
    pub kind: EngineKind,
    /// Answer at the configured budget.
    pub lo: EngineObservation,
    /// Answer at a 16× budget.
    pub hi: EngineObservation,
}

/// Per-query result fingerprints of one `Session::run_batch` call.
#[derive(Debug, Clone)]
pub struct BatchObservation {
    /// The thread count the batch ran with.
    pub threads: usize,
    /// `QueryResult::fingerprint()` per query, in query order.
    pub fingerprints: Vec<u64>,
}

/// The record of one fault-injection run (check 5): a faulted batch on
/// a fresh DYNSUM session, followed by clean batches on that *same*
/// session, against a cold-session reference.
#[derive(Debug, Clone)]
pub struct FaultObservation {
    /// The deterministic plan that was injected.
    pub plan: FaultPlan,
    /// Clean cold-session fingerprints, in query order — the value every
    /// un-faulted and post-fault answer must reproduce exactly.
    pub reference: Vec<u64>,
    /// [`Outcome::tag`] per query of the faulted batch.
    pub faulted_tags: Vec<u8>,
    /// Fingerprint per query of the faulted batch.
    pub faulted_fingerprints: Vec<u64>,
    /// Did the snapshot save through the failing writer surface an
    /// `Err`? (It must — swallowing the IO fault would hand callers a
    /// truncated snapshot path.)
    pub snapshot_error_surfaced: bool,
    /// Clean follow-up batches on the faulted session, one per probed
    /// thread count.
    pub after: Vec<BatchObservation>,
}

/// The complete record of one fuzz case, ready for [`judge`].
#[derive(Debug, Clone)]
pub struct Observations {
    /// Workload name (benchmark profile).
    pub workload: String,
    /// Was the configuration context-sensitive? (Gates the exact-oracle
    /// clause of the ordering check.)
    pub context_sensitive: bool,
    /// Per-query cross-engine observations.
    pub queries: Vec<QueryObservation>,
    /// Budget-consistency probes.
    pub budget: Vec<BudgetObservation>,
    /// Sequential DYNSUM fingerprints, in query order (the reference
    /// the batches must match).
    pub sequential: Vec<u64>,
    /// One entry per probed thread count.
    pub batches: Vec<BatchObservation>,
    /// Fault-injection record (check 5); `None` unless the regime
    /// injects faults.
    pub fault: Option<FaultObservation>,
    /// Daemon script record (check 6); `None` unless the regime
    /// exercises the service.
    pub service: Option<crate::service_fuzz::ServiceObservation>,
}

/// Which invariant a divergence violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DivergenceKind {
    /// Engine answer ⊄ Andersen oracle.
    Soundness,
    /// Engine answers violate the precision ordering.
    Ordering,
    /// Context-insensitive resolved answer ≠ oracle.
    OracleExact,
    /// Higher budget lost answers or flipped resolution.
    Budget,
    /// `run_batch` results differ across thread counts or from
    /// sequential.
    Determinism,
    /// An injected fault was swallowed, leaked into an un-faulted
    /// query, or left a trace in the session's shared state.
    FaultIntegrity,
    /// The daemon dropped a frame, answered a well-formed frame with an
    /// error, diverged from the clean single-client reference, invented
    /// a cancellation, or failed to replay byte-identically.
    Service,
    /// An engine panicked on a query outside the injected fault plan.
    Panic,
}

impl DivergenceKind {
    /// Stable lower-case tag (corpus file names, CLI filters).
    pub fn tag(self) -> &'static str {
        match self {
            DivergenceKind::Soundness => "soundness",
            DivergenceKind::Ordering => "ordering",
            DivergenceKind::OracleExact => "oracle-exact",
            DivergenceKind::Budget => "budget",
            DivergenceKind::Determinism => "determinism",
            DivergenceKind::FaultIntegrity => "fault-integrity",
            DivergenceKind::Service => "service",
            DivergenceKind::Panic => "panic",
        }
    }
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One invariant violation found by [`judge`].
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which invariant broke.
    pub kind: DivergenceKind,
    /// The engine at fault, when attributable to one.
    pub engine: Option<EngineKind>,
    /// The query variable involved, when attributable to one.
    pub var: Option<VarId>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(e) = self.engine {
            write!(f, " {e}")?;
        }
        if let Some(v) = self.var {
            write!(f, " {v:?}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Tuning for [`observe`]: how many budget probes and which thread
/// counts. Defaults: 6 probes, threads 1/2/4.
#[derive(Debug, Clone)]
pub struct ObserveOptions {
    /// Number of query variables given cold low/high budget probes.
    pub budget_probes: usize,
    /// Thread counts to run the DYNSUM session batch with.
    pub thread_counts: Vec<usize>,
    /// When set, also run the fault-injection observation (check 5)
    /// with the [`FaultPlan`] derived from this seed by
    /// [`fault_plan_for`].
    pub fault_seed: Option<u64>,
    /// When set, also run the daemon script observation (check 6) with
    /// the client script derived from this seed by
    /// [`generate_script`](crate::service_fuzz::generate_script).
    pub service_seed: Option<u64>,
}

impl Default for ObserveOptions {
    fn default() -> Self {
        ObserveOptions {
            budget_probes: 6,
            thread_counts: vec![1, 2, 4],
            fault_seed: None,
            service_seed: None,
        }
    }
}

/// The per-case [`ObserveOptions`]: `base`, plus the case's fault seed
/// when the regime injects faults. The single source of truth shared by
/// [`run_fuzz`] and reproducers, so a `fault-integrity` divergence
/// replays the exact plan that found it.
pub fn observe_opts_for(fp: &FuzzProfile, case_seed: u64, base: &ObserveOptions) -> ObserveOptions {
    ObserveOptions {
        fault_seed: fp.inject_faults.then_some(case_seed),
        service_seed: fp.exercise_service.then_some(case_seed),
        ..base.clone()
    }
}

/// The deduplicated query-variable stream of a workload: every client
/// site's variable, first-site label, in site order.
pub fn query_vars(w: &Workload) -> Vec<(VarId, String)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |v: VarId, label: String| {
        if seen.insert(v) {
            out.push((v, label));
        }
    };
    for c in &w.info.casts {
        push(c.var, format!("cast@{}", c.location));
    }
    for d in &w.info.derefs {
        push(d.base, format!("deref@{}", d.location));
    }
    for f in &w.info.factories {
        push(f.ret, format!("factory@{}", w.pag.method_name(f.method)));
    }
    out
}

/// Runs every engine, the oracle, the budget probes and the session
/// batches over `w`, recording everything for [`judge`].
pub fn observe(w: &Workload, config: &EngineConfig, opts: &ObserveOptions) -> Observations {
    let vars = query_vars(w);
    let oracle = Andersen::analyze(&w.pag);

    // Check 1+2 material: each engine's session answers the whole
    // stream in order, one query at a time (cross-query caches warm up
    // exactly as in production).
    let mut per_engine: Vec<Vec<EngineObservation>> = Vec::new();
    for kind in EngineKind::ALL {
        let mut session = Session::with_config(&w.pag, kind, *config);
        per_engine.push(
            vars.iter()
                .map(|&(v, _)| EngineObservation::from_result(kind, &session.points_to(v)))
                .collect(),
        );
    }

    let queries: Vec<QueryObservation> = vars
        .iter()
        .enumerate()
        .map(|(i, (v, label))| QueryObservation {
            var: *v,
            label: label.clone(),
            oracle: oracle.var_pts(*v).iter().copied().collect(),
            engines: per_engine.iter().map(|obs| obs[i].clone()).collect(),
        })
        .collect();

    // Check 3 material: cold sessions, fresh per probe, at 1× and 16×
    // budget (cold ⇒ no cache coupling between the two runs).
    let mut budget = Vec::new();
    let hi_config = EngineConfig {
        budget: config.budget.saturating_mul(16),
        ..*config
    };
    for &(v, _) in vars.iter().take(opts.budget_probes) {
        for kind in [EngineKind::NoRefine, EngineKind::DynSum] {
            let cold = |config| Session::with_config(&w.pag, kind, config).points_to(v);
            let lo = EngineObservation::from_result(kind, &cold(*config));
            let hi = EngineObservation::from_result(kind, &cold(hi_config));
            budget.push(BudgetObservation {
                var: v,
                kind,
                lo,
                hi,
            });
        }
    }

    // Check 4 material: DYNSUM sessions (the engine with shared mutable
    // cache state — where thread-count nondeterminism would live).
    let dynsum_idx = EngineKind::ALL
        .iter()
        .position(|k| *k == EngineKind::DynSum)
        .unwrap();
    let sequential: Vec<u64> = queries
        .iter()
        .map(|q| q.engines[dynsum_idx].fingerprint)
        .collect();
    let batch: Vec<SessionQuery<'_>> = vars.iter().map(|&(v, _)| SessionQuery::new(v)).collect();
    let mut batches = Vec::new();
    for &threads in &opts.thread_counts {
        let mut session = Session::with_config(&w.pag, EngineKind::DynSum, *config);
        let results = session.run_batch(&batch, threads);
        batches.push(BatchObservation {
            threads,
            fingerprints: results.iter().map(QueryResult::fingerprint).collect(),
        });
    }

    // Check 5 material: a faulted batch plus clean follow-ups on the
    // same session, against a cold reference.
    let fault = opts
        .fault_seed
        .map(|seed| observe_faults(w, config, &batch, seed, opts));

    // Check 6 material: a seeded multi-client script against the daemon.
    let service = opts
        .service_seed
        .map(|seed| crate::service_fuzz::observe_service(w, config, seed));

    Observations {
        workload: w.name.clone(),
        context_sensitive: config.context_sensitive,
        queries,
        budget,
        sequential,
        batches,
        fault,
        service,
    }
}

/// Derives the deterministic [`FaultPlan`] for a fuzz case: per-query
/// rolls from the case's seed pick injected panics and cancel/deadline
/// fuses (roughly a quarter of the queries each, the rest run clean); a
/// spawn failure on the first chunk is always injected. Public so
/// reproducers replay the exact plan.
pub fn fault_plan_for(seed: u64, queries: usize) -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.fail_spawns.insert(0);
    for i in 0..queries {
        let roll = case_seed(seed ^ 0xFA17_FA17_FA17_FA17, i);
        match roll % 4 {
            0 => {
                plan.panic_queries.insert(i);
            }
            1 => {
                plan.cancel_after.insert(i, (roll >> 8) % 64);
            }
            2 => {
                plan.deadline_after.insert(i, (roll >> 8) % 64);
            }
            _ => {} // clean query
        }
    }
    plan
}

/// A `Write` sink whose every write fails: the snapshot IO fault each
/// fault-regime case injects into a save.
struct FailingWriter;

impl std::io::Write for FailingWriter {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("injected IO fault"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the fault-injection observation: a cold reference batch, the
/// faulted batch (2 threads, so the spawn-failure and shard-discard
/// paths are exercised), a snapshot save through a failing writer, then
/// clean batches at every probed thread count on the *same* session.
fn observe_faults(
    w: &Workload,
    config: &EngineConfig,
    batch: &[SessionQuery<'_>],
    seed: u64,
    opts: &ObserveOptions,
) -> FaultObservation {
    let plan = fault_plan_for(seed, batch.len());

    // What every query answers on a session that never sees a fault.
    let mut reference_session = Session::with_config(&w.pag, EngineKind::DynSum, *config);
    let reference: Vec<u64> = reference_session
        .run_batch(batch, 1)
        .iter()
        .map(QueryResult::fingerprint)
        .collect();

    let control = BatchControl {
        faults: Some(plan.clone()),
        ..BatchControl::default()
    };
    let mut session = Session::with_config(&w.pag, EngineKind::DynSum, *config);
    let faulted = session.run_batch_with(batch, 2, &control);
    let faulted_tags = faulted.iter().map(|r| r.outcome.tag()).collect();
    let faulted_fingerprints = faulted.iter().map(QueryResult::fingerprint).collect();

    let snapshot_error_surfaced = session.save_snapshot(&mut FailingWriter).is_err();

    let after = opts
        .thread_counts
        .iter()
        .map(|&threads| BatchObservation {
            threads,
            fingerprints: session
                .run_batch(batch, threads)
                .iter()
                .map(QueryResult::fingerprint)
                .collect(),
        })
        .collect();

    FaultObservation {
        plan,
        reference,
        faulted_tags,
        faulted_fingerprints,
        snapshot_error_surfaced,
        after,
    }
}

fn subset(a: &BTreeSet<ObjId>, b: &BTreeSet<ObjId>) -> bool {
    a.is_subset(b)
}

/// Folds [`Observations`] into the list of invariant violations. Pure:
/// corrupting the observations and re-judging is how the harness's own
/// detection power is tested.
pub fn judge(obs: &Observations) -> Vec<Divergence> {
    let mut out = Vec::new();

    // Check 0: no engine panics. A session isolates a panicking query
    // as `Outcome::Panicked`: an empty, unresolved answer that checks
    // 1-4 accept (and that compares equal when every path panics
    // alike), so the outcome itself is the divergence.
    let answers = obs
        .queries
        .iter()
        .flat_map(|q| q.engines.iter().map(move |e| (q.var, e)));
    let probes = obs
        .budget
        .iter()
        .flat_map(|p| [(p.var, &p.lo), (p.var, &p.hi)]);
    for (var, e) in answers.chain(probes) {
        if e.outcome == Outcome::Panicked {
            out.push(Divergence {
                kind: DivergenceKind::Panic,
                engine: Some(e.kind),
                var: Some(var),
                detail: format!("{} panicked outside the fault plan", e.kind),
            });
        }
    }

    for q in &obs.queries {
        for e in &q.engines {
            // Check 1: soundness. Partial answers included — an engine
            // may under-approximate, never over-approximate.
            if !subset(&e.objects, &q.oracle) {
                let extra: Vec<ObjId> = e.objects.difference(&q.oracle).copied().collect();
                out.push(Divergence {
                    kind: DivergenceKind::Soundness,
                    engine: Some(e.kind),
                    var: Some(q.var),
                    detail: format!(
                        "{} answered {} objects not in the Andersen oracle ({:?}) at {}",
                        e.kind,
                        extra.len(),
                        extra,
                        q.label
                    ),
                });
            }
        }

        // Check 2: precision ordering.
        let resolved: Vec<&EngineObservation> = q.engines.iter().filter(|e| e.resolved).collect();
        if let Some(first) = resolved.first() {
            for e in resolved.iter().skip(1) {
                if e.objects != first.objects {
                    out.push(Divergence {
                        kind: DivergenceKind::Ordering,
                        engine: Some(e.kind),
                        var: Some(q.var),
                        detail: format!(
                            "resolved answers disagree: {} has {} objects, {} has {} at {}",
                            first.kind,
                            first.objects.len(),
                            e.kind,
                            e.objects.len(),
                            q.label
                        ),
                    });
                }
            }
            for e in q.engines.iter().filter(|e| !e.resolved) {
                if !subset(&e.objects, &first.objects) {
                    out.push(Divergence {
                        kind: DivergenceKind::Ordering,
                        engine: Some(e.kind),
                        var: Some(q.var),
                        detail: format!(
                            "partial {} answer exceeds resolved {} answer at {}",
                            e.kind, first.kind, q.label
                        ),
                    });
                }
            }
        }

        // Check 2b: with context sensitivity off, a resolved answer is
        // the `L_FT` relation — exactly Andersen (§3.2).
        if !obs.context_sensitive {
            for e in q.engines.iter().filter(|e| e.resolved) {
                if e.objects != q.oracle {
                    out.push(Divergence {
                        kind: DivergenceKind::OracleExact,
                        engine: Some(e.kind),
                        var: Some(q.var),
                        detail: format!(
                            "context-insensitive resolved answer ({} objects) != oracle ({}) at {}",
                            e.objects.len(),
                            q.oracle.len(),
                            q.label
                        ),
                    });
                }
            }
        }
    }

    // Check 3: budget monotonicity (prefix property of deterministic
    // cold traversal).
    for p in &obs.budget {
        if p.lo.resolved {
            if !p.hi.resolved || p.hi.objects != p.lo.objects {
                out.push(Divergence {
                    kind: DivergenceKind::Budget,
                    engine: Some(p.kind),
                    var: Some(p.var),
                    detail: format!(
                        "resolved at budget b ({} objects) but at 16b: resolved={}, {} objects",
                        p.lo.objects.len(),
                        p.hi.resolved,
                        p.hi.objects.len()
                    ),
                });
            }
        } else if !subset(&p.lo.objects, &p.hi.objects) {
            out.push(Divergence {
                kind: DivergenceKind::Budget,
                engine: Some(p.kind),
                var: Some(p.var),
                detail: "partial low-budget answer not a subset of the high-budget answer"
                    .to_owned(),
            });
        }
    }

    // Check 4: thread-count determinism + sequential identity.
    for b in &obs.batches {
        if b.fingerprints != obs.sequential {
            let first_bad = b
                .fingerprints
                .iter()
                .zip(&obs.sequential)
                .position(|(a, s)| a != s);
            out.push(Divergence {
                kind: DivergenceKind::Determinism,
                engine: Some(EngineKind::DynSum),
                var: first_bad.map(|i| obs.queries[i].var),
                detail: format!(
                    "run_batch({} threads) differs from sequential at query index {:?}",
                    b.threads, first_bad
                ),
            });
        }
    }

    // Check 5: fault integrity. Every injected fault surfaces in its
    // own query's outcome; nothing leaks into un-faulted queries or the
    // session's shared state.
    if let Some(f) = &obs.fault {
        judge_faults(obs, f, &mut out);
    }

    // Check 6: service identity. The daemon must be a byte-transparent
    // multiplexer over clean single-client sessions.
    if let Some(s) = &obs.service {
        for d in crate::service_fuzz::judge_service(s) {
            out.push(Divergence {
                kind: DivergenceKind::Service,
                engine: None,
                var: d.var,
                detail: d.detail,
            });
        }
    }

    out
}

/// The fault-integrity clauses of [`judge`], applied to one
/// [`FaultObservation`].
fn judge_faults(obs: &Observations, f: &FaultObservation, out: &mut Vec<Divergence>) {
    let mut push = |var: Option<VarId>, detail: String| {
        out.push(Divergence {
            kind: DivergenceKind::FaultIntegrity,
            engine: Some(EngineKind::DynSum),
            var,
            detail,
        });
    };

    for (i, (&tag, &print)) in f
        .faulted_tags
        .iter()
        .zip(&f.faulted_fingerprints)
        .enumerate()
    {
        let var = Some(obs.queries[i].var);
        if tag == Outcome::Panicked.tag() && !f.plan.panic_queries.contains(&i) {
            push(var, format!("query {i} panicked outside the fault plan"));
        } else if f.plan.panic_queries.contains(&i) {
            // An injected panic must be reported as exactly that — any
            // other outcome means the batch swallowed or misfiled it.
            if tag != Outcome::Panicked.tag() {
                push(
                    var,
                    format!("injected panic at query {i} reported outcome tag {tag}"),
                );
            }
        } else if f.plan.cancel_after.contains_key(&i) {
            // A fused query either trips its injected interruption or
            // finishes naturally first — in which case the answer must
            // be byte-identical to the clean reference.
            if tag != Outcome::Cancelled.tag() && print != f.reference[i] {
                push(
                    var,
                    format!("cancel-fused query {i} neither cancelled nor clean (tag {tag})"),
                );
            }
        } else if f.plan.deadline_after.contains_key(&i) {
            if tag != Outcome::DeadlineExceeded.tag() && print != f.reference[i] {
                push(
                    var,
                    format!("deadline-fused query {i} neither tripped nor clean (tag {tag})"),
                );
            }
        } else if print != f.reference[i] {
            // Faults were injected into *other* queries only; this one
            // must be untouched.
            push(
                var,
                format!("un-faulted query {i} differs from the clean cold reference"),
            );
        }
    }

    if !f.snapshot_error_surfaced {
        push(
            None,
            "injected snapshot IO fault did not surface as an error".to_owned(),
        );
    }

    // The integrity invariant proper: after any injected fault, the
    // session must be indistinguishable from one that never saw it.
    for b in &f.after {
        if b.fingerprints != f.reference {
            let first_bad = b
                .fingerprints
                .iter()
                .zip(&f.reference)
                .position(|(a, r)| a != r);
            push(
                first_bad.map(|i| obs.queries[i].var),
                format!(
                    "post-fault run_batch({} threads) differs from a clean cold session at query index {:?}",
                    b.threads, first_bad
                ),
            );
        }
    }
}

/// One divergence found by a fuzz run, with everything needed to
/// reproduce and reduce it.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Fuzz regime name.
    pub profile: &'static str,
    /// Benchmark profile (workload shape).
    pub workload: String,
    /// Full generator options (including the derived seed).
    pub opts: GeneratorOptions,
    /// Engine configuration of the regime.
    pub config: EngineConfig,
    /// The violation.
    pub divergence: Divergence,
}

/// Summary of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Total query variables checked across all cases.
    pub queries: usize,
    /// Distinct benchmark profiles exercised.
    pub profiles_covered: BTreeSet<String>,
    /// Every divergence found (empty = clean run).
    pub divergences: Vec<FoundDivergence>,
}

/// Derives the per-case generator seed from the run's base seed. Public
/// so a reproducer can regenerate case *i* exactly.
pub fn case_seed(base_seed: u64, case: usize) -> u64 {
    // SplitMix64-style diffusion: adjacent cases get unrelated streams.
    let mut z = base_seed.wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `(fuzz regime, benchmark profile, options)` triple for case `i`
/// of a run — the single source of truth shared by the fuzz loop and
/// reproducers.
pub fn case_plan(
    base_seed: u64,
    case: usize,
) -> (FuzzProfile, &'static BenchmarkProfile, GeneratorOptions) {
    let profiles = fuzz_profiles();
    let fp = profiles[case % profiles.len()].clone();
    let bench = &PROFILES[case % PROFILES.len()];
    let opts = GeneratorOptions {
        seed: case_seed(base_seed, case),
        ..fp.opts
    };
    (fp, bench, opts)
}

/// Runs `cases` fuzz cases from `base_seed`, invoking `progress` after
/// each case with `(index, divergences-so-far)`; returning `false`
/// stops the run early (the CLI's `--max-seconds` deadline).
///
/// # Errors
///
/// Propagates a [`GeneratorError`] only if a fuzz regime itself is
/// invalid (a harness bug — regime options are fixed, not fuzzed).
pub fn run_fuzz(
    cases: usize,
    base_seed: u64,
    observe_opts: &ObserveOptions,
    progress: impl FnMut(usize, usize) -> bool,
) -> Result<FuzzReport, GeneratorError> {
    run_fuzz_inner(cases, base_seed, observe_opts, None, progress)
}

/// [`run_fuzz`], but every case runs the single given regime instead of
/// rotating through [`fuzz_profiles`] (benchmark profiles and per-case
/// seeds still rotate as in [`case_plan`]). This is how `make
/// fuzz-faults` pins the CI gate to the `fault_injection` regime.
///
/// # Errors
///
/// Propagates a [`GeneratorError`] only if the regime itself is invalid
/// (a harness bug — regime options are fixed, not fuzzed).
pub fn run_fuzz_in_regime(
    cases: usize,
    base_seed: u64,
    observe_opts: &ObserveOptions,
    regime: &FuzzProfile,
    progress: impl FnMut(usize, usize) -> bool,
) -> Result<FuzzReport, GeneratorError> {
    run_fuzz_inner(cases, base_seed, observe_opts, Some(regime), progress)
}

fn run_fuzz_inner(
    cases: usize,
    base_seed: u64,
    observe_opts: &ObserveOptions,
    pinned: Option<&FuzzProfile>,
    mut progress: impl FnMut(usize, usize) -> bool,
) -> Result<FuzzReport, GeneratorError> {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        let (fp, bench, opts) = match pinned {
            Some(p) => {
                let opts = GeneratorOptions {
                    seed: case_seed(base_seed, i),
                    ..p.opts
                };
                (p.clone(), &PROFILES[i % PROFILES.len()], opts)
            }
            None => case_plan(base_seed, i),
        };
        let w = try_generate(bench, &opts)?;
        let obs = observe(
            &w,
            &fp.config,
            &observe_opts_for(&fp, opts.seed, observe_opts),
        );
        report.cases += 1;
        report.queries += obs.queries.len();
        report.profiles_covered.insert(w.name.clone());
        for d in judge(&obs) {
            report.divergences.push(FoundDivergence {
                profile: fp.name,
                workload: w.name.clone(),
                opts,
                config: fp.config,
                divergence: d,
            });
        }
        if !progress(i, report.divergences.len()) {
            break;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    fn small_case() -> (Workload, EngineConfig) {
        let (fp, bench, opts) = case_plan(0xF0CC, 0);
        (generate(bench, &opts), fp.config)
    }

    #[test]
    fn observe_then_judge_is_clean_on_a_small_case() {
        let (w, config) = small_case();
        let obs = observe(&w, &config, &ObserveOptions::default());
        let divergences = judge(&obs);
        assert!(
            divergences.is_empty(),
            "unexpected divergences: {divergences:?}"
        );
        assert!(!obs.queries.is_empty());
        assert_eq!(obs.batches.len(), 3);
    }

    /// A clean observation fixture for the mutation tests below: each
    /// one seeds exactly one corruption into a copy and asserts the
    /// judge attributes it to the right invariant. This is the
    /// detection-power half of the observe/judge split — a judge that
    /// misses a seeded bug would silently pass every fuzz run.
    fn clean_obs() -> Observations {
        let (w, config) = small_case();
        let obs = observe(&w, &config, &ObserveOptions::default());
        assert!(judge(&obs).is_empty(), "mutation fixture must start clean");
        obs
    }

    #[test]
    fn judge_flags_a_seeded_soundness_violation() {
        let mut obs = clean_obs();
        // Invent a points-to relation: an object no oracle answer holds.
        let bogus = ObjId::from_raw(u32::MAX - 1);
        let culprit = obs.queries[0].engines[0].kind;
        obs.queries[0].engines[0].objects.insert(bogus);
        let ds = judge(&obs);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::Soundness
                && d.engine == Some(culprit)
                && d.var == Some(obs.queries[0].var)),
            "seeded superset not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_seeded_ordering_violation() {
        let mut obs = clean_obs();
        // Drop one object from a resolved engine's answer: still sound
        // (a subset of the oracle), but resolved answers now disagree.
        let q = obs
            .queries
            .iter_mut()
            .find(|q| q.engines.iter().all(|e| e.resolved) && !q.engines[1].objects.is_empty())
            .expect("fixture needs a fully resolved nonempty query");
        let victim = *q.engines[1].objects.iter().next().unwrap();
        q.engines[1].objects.remove(&victim);
        let culprit = q.engines[1].kind;
        let var = q.var;
        let ds = judge(&obs);
        assert!(
            ds.iter()
                .any(|d| d.kind == DivergenceKind::Ordering && d.engine == Some(culprit)),
            "seeded disagreement not flagged: {ds:?}"
        );
        assert!(
            !ds.iter()
                .any(|d| d.kind == DivergenceKind::Soundness && d.var == Some(var)),
            "removing an object must not read as a soundness bug"
        );
    }

    #[test]
    fn judge_flags_a_seeded_budget_violation() {
        let mut obs = clean_obs();
        // A query that resolved at budget b must stay resolved at 16b.
        let p = obs
            .budget
            .iter_mut()
            .find(|p| p.lo.resolved)
            .expect("fixture needs a resolved budget probe");
        p.hi.resolved = false;
        let culprit = p.kind;
        let ds = judge(&obs);
        assert!(
            ds.iter()
                .any(|d| d.kind == DivergenceKind::Budget && d.engine == Some(culprit)),
            "seeded resolution flip not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_seeded_determinism_violation() {
        let mut obs = clean_obs();
        // One bit of one batched result differing from the sequential
        // reference is the smallest possible nondeterminism.
        obs.batches[1].fingerprints[0] ^= 1;
        let ds = judge(&obs);
        let hit = ds
            .iter()
            .find(|d| d.kind == DivergenceKind::Determinism)
            .unwrap_or_else(|| panic!("seeded fingerprint flip not flagged: {ds:?}"));
        assert_eq!(hit.engine, Some(EngineKind::DynSum));
        assert_eq!(hit.var, Some(obs.queries[0].var));
    }

    #[test]
    fn judge_flags_an_isolated_engine_panic() {
        let mut obs = clean_obs();
        // The blind spot check 0 closes: DYNSUM's session answers query
        // 0 with an isolated panic, and so does every batch, so the
        // answers still nest and the fingerprints still agree.
        let k = EngineKind::ALL
            .iter()
            .position(|&k| k == EngineKind::DynSum)
            .unwrap();
        let panicked = EngineObservation::from_result(EngineKind::DynSum, &QueryResult::panicked());
        obs.queries[0].engines[k] = panicked.clone();
        obs.sequential[0] = panicked.fingerprint;
        for b in &mut obs.batches {
            b.fingerprints[0] = panicked.fingerprint;
        }
        obs.budget[0].lo = EngineObservation {
            kind: obs.budget[0].kind,
            ..panicked
        };
        let ds = judge(&obs);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::Panic
                && d.engine == Some(EngineKind::DynSum)
                && d.var == Some(obs.queries[0].var)),
            "isolated panic not flagged: {ds:?}"
        );
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::Panic
                && d.engine == Some(obs.budget[0].kind)
                && d.var == Some(obs.budget[0].var)),
            "panicked budget probe not flagged: {ds:?}"
        );
        assert!(
            ds.iter().all(|d| d.kind == DivergenceKind::Panic),
            "only check 0 sees an isolated panic: {ds:?}"
        );
    }

    #[test]
    fn case_seed_is_deterministic_and_spread() {
        assert_eq!(case_seed(1, 5), case_seed(1, 5));
        assert_ne!(case_seed(1, 5), case_seed(1, 6));
        assert_ne!(case_seed(1, 5), case_seed(2, 5));
    }

    #[test]
    fn fuzz_profiles_cover_the_advertised_regimes() {
        let ps = fuzz_profiles();
        assert!(ps.len() >= 7);
        assert!(ps.iter().any(|p| p.opts.recursion_bias > 0.0));
        assert!(ps.iter().any(|p| p.opts.field_chain > 0));
        assert!(ps.iter().any(|p| p.config.max_cached_summaries == Some(0)));
        assert!(ps.iter().any(|p| !p.config.context_sensitive));
        assert!(ps.iter().any(|p| p.inject_faults));
        assert!(ps.iter().any(|p| p.exercise_service));
    }

    /// A clean fault-injection fixture: same workload as [`clean_obs`],
    /// with check-5 material attached. Each mutation test below seeds
    /// one fault-integrity corruption and asserts the judge catches it.
    fn fault_obs() -> Observations {
        let (w, config) = small_case();
        let opts = ObserveOptions {
            fault_seed: Some(0xFA17),
            ..ObserveOptions::default()
        };
        let obs = observe(&w, &config, &opts);
        assert!(judge(&obs).is_empty(), "fault fixture must start clean");
        obs
    }

    #[test]
    fn fault_regime_is_clean_and_exercises_every_fault_kind() {
        let obs = fault_obs();
        let f = obs.fault.as_ref().expect("fault seed set");
        assert!(
            !f.plan.panic_queries.is_empty(),
            "plan must panic at least one query"
        );
        assert!(!f.plan.cancel_after.is_empty(), "plan must fuse a cancel");
        assert!(
            !f.plan.deadline_after.is_empty(),
            "plan must fuse a deadline"
        );
        assert!(f.snapshot_error_surfaced);
        assert_eq!(f.after.len(), 3);
        // At least one injected panic actually surfaced as Panicked.
        assert!(f
            .plan
            .panic_queries
            .iter()
            .all(|&i| f.faulted_tags[i] == Outcome::Panicked.tag()));
    }

    #[test]
    fn judge_flags_a_corrupted_post_fault_batch() {
        let mut obs = fault_obs();
        // The session keeping any trace of a fault is the invariant
        // violation the whole regime exists to catch.
        obs.fault.as_mut().unwrap().after[0].fingerprints[0] ^= 1;
        let ds = judge(&obs);
        assert!(
            ds.iter()
                .any(|d| d.kind == DivergenceKind::FaultIntegrity
                    && d.var == Some(obs.queries[0].var)),
            "seeded post-fault corruption not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_swallowed_injected_panic() {
        let mut obs = fault_obs();
        let f = obs.fault.as_mut().unwrap();
        let &i = f
            .plan
            .panic_queries
            .iter()
            .next()
            .expect("plan has a panic");
        // Pretend the batch absorbed the panic and answered normally.
        f.faulted_tags[i] = Outcome::Resolved.tag();
        f.faulted_fingerprints[i] = f.reference[i];
        let ds = judge(&obs);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::FaultIntegrity),
            "swallowed panic not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_panic_outside_the_fault_plan() {
        let mut obs = fault_obs();
        let f = obs.fault.as_mut().unwrap();
        let i = (0..f.faulted_tags.len())
            .find(|i| f.plan.cancel_after.contains_key(i))
            .expect("fixture needs a cancel-fused query");
        // A fused query may end early, but never by panicking; the
        // fingerprint is left clean so only the outcome gives it away.
        f.faulted_tags[i] = Outcome::Panicked.tag();
        f.faulted_fingerprints[i] = f.reference[i];
        let var = obs.queries[i].var;
        let ds = judge(&obs);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::FaultIntegrity
                && d.var == Some(var)
                && d.detail.contains("outside the fault plan")),
            "panic outside the plan not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_fault_leakage_into_a_clean_query() {
        let mut obs = fault_obs();
        let f = obs.fault.as_mut().unwrap();
        let i = (0..f.faulted_fingerprints.len())
            .find(|i| {
                !f.plan.panic_queries.contains(i)
                    && !f.plan.cancel_after.contains_key(i)
                    && !f.plan.deadline_after.contains_key(i)
            })
            .expect("fixture needs an un-faulted query");
        f.faulted_fingerprints[i] ^= 1;
        let var = obs.queries[i].var;
        let ds = judge(&obs);
        assert!(
            ds.iter()
                .any(|d| d.kind == DivergenceKind::FaultIntegrity && d.var == Some(var)),
            "seeded leakage into a clean query not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_lost_snapshot_io_error() {
        let mut obs = fault_obs();
        obs.fault.as_mut().unwrap().snapshot_error_surfaced = false;
        let ds = judge(&obs);
        assert!(
            ds.iter()
                .any(|d| d.kind == DivergenceKind::FaultIntegrity && d.detail.contains("snapshot")),
            "lost snapshot error not flagged: {ds:?}"
        );
    }

    #[test]
    fn service_regime_attaches_a_clean_observation() {
        let (w, config) = small_case();
        let service = fuzz_profiles()
            .into_iter()
            .find(|p| p.exercise_service)
            .expect("service regime exists");
        let opts = observe_opts_for(&service, 0x5EC7, &ObserveOptions::default());
        assert_eq!(opts.service_seed, Some(0x5EC7));
        let obs = observe(&w, &config, &opts);
        let s = obs.service.as_ref().expect("service seed set");
        assert!(s.replay_identical);
        assert!(!s.answers.is_empty());
        let ds = judge(&obs);
        assert!(ds.is_empty(), "unexpected divergences: {ds:?}");

        // Corrupting the service record must surface as a `service`
        // divergence through the top-level judge.
        let mut obs = obs;
        obs.service.as_mut().unwrap().replay_identical = false;
        let ds = judge(&obs);
        assert!(
            ds.iter().any(|d| d.kind == DivergenceKind::Service),
            "seeded service corruption not flagged: {ds:?}"
        );
    }

    #[test]
    fn fault_plan_is_deterministic() {
        assert_eq!(fault_plan_for(7, 20), fault_plan_for(7, 20));
        assert_ne!(fault_plan_for(7, 20), fault_plan_for(8, 20));
        assert!(fault_plan_for(7, 0).panic_queries.is_empty());
    }
}
