//! What the three workloads share: set-up parsing, the timed-phase clock,
//! the traced stand-in for `run_batch`, exact counts and the run record.

use std::ops::Range;
use std::time::Instant;

use dynsum_cfl::{QueryControl, QueryResult};
use dynsum_core::{CacheStats, Session, SessionQuery};
use dynsum_pag::{Pag, VarId};
use dynsum_service::json::Json;

use crate::host::{self, HostSample};
use crate::prep::GraphInput;
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Set-up repetitions per run; `setup_s` is their median. The first set-up's
/// state serves the timed phase; the others run after it (see
/// [`Run::repeat_setups`]).
pub const SETUP_REPS: usize = 7;

/// A run stops measuring after this long even if a percentile still
/// lacks samples (it is then reported from what it has).
const HARD_CAP_S: f64 = 120.0;

/// Latency levels every workload reports.
pub const P50: u32 = 500;
/// Tail latency level.
pub const P99: u32 = 990;
/// Restart tail level.
pub const P90: u32 = 900;

/// Inputs and settings of one workload run.
pub struct Plan<'a> {
    /// The prepared graphs.
    pub graphs: &'a [GraphInput],
    /// Seed of the query orders and draws.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
}

/// Work counts of one pass, exact functions of graphs, seed and program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Queries answered.
    pub queries: u64,
    /// Driver worklist steps.
    pub steps: u64,
    /// PPTAs computed (summary-cache misses).
    pub ppta_computed: u64,
    /// PPTAs reused (summary-cache hits).
    pub ppta_reused: u64,
    /// Edges charged against query budgets.
    pub edges_charged: u64,
    /// Answers over budget.
    pub over_budget: u64,
    /// Answers whose outcome is not `Resolved`.
    pub unresolved: u64,
    /// Shared summary-cache lookups.
    pub lookups: u64,
    /// Shared summary-cache hits.
    pub hits: u64,
    /// Summaries evicted by the cap.
    pub evictions: u64,
    /// Summaries resident at pass end.
    pub resident: u64,
    /// `run_batch` calls (or their traced stand-ins).
    pub batches: u64,
    /// Summaries evicted by `invalidate_method`.
    pub invalidated: u64,
    /// Stale shard entries rejected at merge.
    pub stale_rejections: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Summaries restored by snapshot loads.
    pub restored: u64,
    /// Snapshot loads that came back cold.
    pub cold_loads: u64,
    /// Daemon error frames.
    pub daemon_errors: u64,
    /// Edges the daemon's `health` op reports spent.
    pub edges_spent: u64,
}

impl Counts {
    /// Adds the driver counters and outcomes of answered queries.
    pub fn add_results(&mut self, results: &[QueryResult]) {
        for r in results {
            self.queries += 1;
            self.steps += r.stats.steps;
            self.ppta_computed += r.stats.cache_misses;
            self.ppta_reused += r.stats.cache_hits;
            self.edges_charged += r.stats.edges_traversed;
            self.over_budget += u64::from(r.outcome == dynsum_cfl::Outcome::OverBudget);
            self.unresolved += u64::from(!r.outcome.is_resolved());
        }
    }

    /// Adds a session's cache-counter growth since `base`.
    pub fn add_cache(&mut self, now: CacheStats, base: CacheStats) {
        self.lookups += now.lookups() - base.lookups();
        self.hits += now.hits - base.hits;
        self.evictions += now.evictions - base.evictions;
    }

    /// Hits over lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// The counts as a JSON object, in a fixed order.
    pub fn to_json(&self) -> Json {
        let fields = [
            ("queries", self.queries),
            ("driver.steps", self.steps),
            ("driver.ppta_computed", self.ppta_computed),
            ("driver.ppta_reused", self.ppta_reused),
            ("driver.edges_charged", self.edges_charged),
            ("driver.over_budget", self.over_budget),
            ("unresolved", self.unresolved),
            ("summary.lookups", self.lookups),
            ("summary.hits", self.hits),
            ("summary.evictions", self.evictions),
            ("summary.resident", self.resident),
            ("session.batches", self.batches),
            ("session.invalidated", self.invalidated),
            ("session.stale_rejections", self.stale_rejections),
            ("snapshot.bytes", self.snapshot_bytes),
            ("snapshot.restored", self.restored),
            ("snapshot.cold_loads", self.cold_loads),
            ("daemon.errors", self.daemon_errors),
            ("daemon.edges_spent", self.edges_spent),
        ];
        Json::Obj(
            fields
                .iter()
                .map(|&(k, v)| (k.to_owned(), Json::num(v)))
                .collect(),
        )
    }
}

/// Failed operations, with the first few reasons kept for the report.
#[derive(Debug, Default)]
pub struct Failures {
    /// Failed operations.
    pub count: u64,
    /// The first reasons.
    pub reasons: Vec<String>,
}

impl Failures {
    /// Records `n` failed operations for `why`.
    pub fn add(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.reasons.len() < 8 {
            self.reasons.push(why());
        }
    }
}

/// Everything one workload run measured and recorded.
#[derive(Debug, Default)]
pub struct Run {
    /// Per set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// Per request, ms.
    pub latencies_ms: Vec<f64>,
    /// Per restart, ms.
    pub restarts_ms: Vec<f64>,
    /// Per daemon request: latency minus its own `step`, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Time of each timed pass, s.
    pub pass_s: Vec<f64>,
    /// Timed passes run.
    pub passes: u64,
    /// Counts of the first pass; every later pass must repeat them.
    pub counts: Counts,
    /// Operations attempted (answers, frames, snapshot loads).
    pub attempted: u64,
    /// Failed operations.
    pub failures: Failures,
    /// First-pass answers as `(graph, var, fingerprint)`, for the
    /// reference check.
    pub answers: Vec<(usize, VarId, u64)>,
    /// Peak RSS at the end of the timed phase, less the sample buffers, MB.
    pub peak_rss_mb: f64,
    /// Run-queue wait and steal over the timed phase, ms.
    pub host_ms: (f64, f64),
    /// `.pag` text read per set-up, MB.
    pub text_mb: f64,
    /// Edges of the three graphs.
    pub edges: u64,
    /// Summaries new to the shared cache at traced merges, per pass.
    pub absorbed_new: u64,
    /// Indices of the spans recorded in the timed phase; the others belong
    /// to set-ups.
    pub timed_spans: Range<usize>,
}

/// Per-request samples each of the two sample buffers holds (16 MiB of
/// `f64`). [`Run::new`] writes both buffers through before set-up, so they
/// are resident, and left out of `peak_rss_mb`, from start to end: buffers
/// that became resident as samples arrived made the daemon's peak RSS grow
/// with its throughput. A run stops measuring before they fill.
pub const SAMPLES_RESERVED: usize = 1 << 21;

/// The two sample buffers' resident size, MB (MiB, as `VmHWM` is read).
pub const SAMPLE_BUFFERS_MB: f64 =
    (2 * SAMPLES_RESERVED * std::mem::size_of::<f64>()) as f64 / (1024.0 * 1024.0);

/// An empty sample buffer of [`SAMPLES_RESERVED`] capacity, every page of
/// it already resident.
fn resident_buffer() -> Vec<f64> {
    let mut v = Vec::with_capacity(SAMPLES_RESERVED);
    v.resize(SAMPLES_RESERVED, 1.0);
    std::hint::black_box(&mut v);
    v.clear();
    v
}

impl Run {
    /// An empty record with the per-request sample buffers resident.
    pub fn new() -> Self {
        Run {
            latencies_ms: resident_buffer(),
            queue_wait_ms: resident_buffer(),
            ..Run::default()
        }
    }

    /// Records one pass's counts and answers: the first pass sets them,
    /// every later one must repeat them exactly.
    pub fn record_pass(&mut self, counts: Counts, answers: Vec<(usize, VarId, u64)>) {
        self.passes += 1;
        if self.passes == 1 {
            self.counts = counts;
            self.answers = answers;
            return;
        }
        let differ = self
            .answers
            .iter()
            .zip(&answers)
            .filter(|(a, b)| a != b)
            .count()
            + self.answers.len().abs_diff(answers.len());
        let pass = self.passes;
        self.failures.add(differ as u64, || {
            format!("pass {pass}: {differ} answers differ from pass 1")
        });
        if counts != self.counts {
            let why = format!(
                "pass {pass}: counts {} differ from pass 1's {}",
                counts.to_json().render(),
                self.counts.to_json().render()
            );
            self.failures.add(1, || why);
        }
    }

    /// `true` once the run has measured long enough and every reported
    /// percentile has its samples, or once another pass would overfill the
    /// sample buffers.
    pub fn measured_enough(&self, started: Instant, seconds: f64) -> bool {
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = self.latencies_ms.len() / self.passes.max(1) as usize;
        elapsed >= HARD_CAP_S
            || self.latencies_ms.len() + per_pass > SAMPLES_RESERVED
            || (elapsed >= seconds
                && self.latencies_ms.len() >= stats::samples_needed(P99)
                && self.restarts_ms.len() >= stats::samples_needed(P90))
    }

    /// Ends the timed phase: records the peak RSS, less the sample
    /// buffers, the host diagnostics since `host_before`, and where the
    /// timed phase's spans end.
    pub fn finish_timed(&mut self, host_before: HostSample, tracer: &Tracer) -> Result<(), String> {
        let peak = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        self.peak_rss_mb = peak - SAMPLE_BUFFERS_MB;
        self.host_ms = host::delta_ms(host_before, host::sample());
        self.timed_spans.end = tracer.spans().len();
        Ok(())
    }

    /// Runs the other `SETUP_REPS - 1` set-ups, after the timed phase and
    /// its peak RSS reading. `setup` builds the workload's state, returns
    /// how long that took, and drops the state. Before the timed phase,
    /// the memory these set-ups freed but the allocator kept raised the
    /// peak RSS by an amount that varied from run to run.
    pub fn repeat_setups(
        &mut self,
        tracer: &mut Tracer,
        mut setup: impl FnMut(&mut Tracer, &mut Run) -> Result<f64, String>,
    ) -> Result<(), String> {
        for _ in 1..SETUP_REPS {
            let secs = setup(tracer, self)?;
            self.setup_s.push(secs);
        }
        Ok(())
    }
}

/// Reads and parses every graph's `.pag` text, one `pag.parse` span each.
pub fn parse_all(
    graphs: &[GraphInput],
    tracer: &mut Tracer,
    run: &mut Run,
) -> Result<Vec<Pag>, String> {
    let mut bytes = 0usize;
    let mut edges = 0usize;
    let pags = graphs
        .iter()
        .map(|g| {
            tracer.span("pag.parse", 0, None, || {
                let text = std::fs::read_to_string(&g.text_path)
                    .map_err(|e| format!("{}: {e}", g.text_path.display()))?;
                bytes += text.len();
                let pag = dynsum_pag::text::parse_pag(&text)
                    .map_err(|e| format!("{}: {e}", g.text_path.display()))?;
                edges += pag.num_edges();
                Ok(pag)
            })
        })
        .collect::<Result<Vec<Pag>, String>>()?;
    run.text_mb = bytes as f64 / 1e6;
    run.edges = edges as u64;
    Ok(pags)
}

/// Checks after set-up (outside every timer) that each parsed graph is the
/// one the inputs were prepared from.
pub fn check_fingerprints(graphs: &[GraphInput], pags: &[Pag], run: &mut Run) {
    for (g, pag) in graphs.iter().zip(pags) {
        let ok = dynsum_core::pag_fingerprint(pag) == g.fingerprint;
        run.attempted += 1;
        run.failures.add(u64::from(!ok), || {
            format!(
                "{}: parsed graph's fingerprint differs from the generated one",
                g.name
            )
        });
    }
}

/// How a traced run drives a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traced {
    /// Through `run_batch`'s public equivalent — a handle's `query_with`
    /// per query and one `absorb` — so driver time and merge time get
    /// spans of their own.
    Split,
    /// Through `run_batch` itself, in one span. Capped sessions need this:
    /// there the equivalent does different work than `run_batch` (other
    /// hits, misses, evictions and charged edges for the same answers),
    /// which the exact-count check between traced and untraced runs
    /// rejects.
    Whole,
}

/// One batch through the session: `run_batch(…, 1)` untraced, and as
/// `how` says when traced.
pub fn batch(
    session: &mut Session<'_>,
    queries: &[SessionQuery<'_>],
    tracer: &mut Tracer,
    (request, parent): (u64, SpanId),
    how: Traced,
    absorbed_new: &mut u64,
) -> Vec<QueryResult> {
    if !tracer.enabled() {
        return session.run_batch(queries, 1);
    }
    let span = tracer.open("session.run_batch", request, parent);
    if how == Traced::Whole {
        let out = session.run_batch(queries, 1);
        tracer.close(span);
        return out;
    }
    let control = QueryControl::default();
    let mut handle = session.handle();
    let mut out = Vec::with_capacity(queries.len());
    for q in queries {
        let s = tracer.open("driver.query", request, span);
        out.push(handle.query_with(q.var, q.satisfied, &control));
        tracer.close(s);
    }
    let shard = handle.into_summaries();
    let s = tracer.open("session.absorb", request, span);
    *absorbed_new += session.absorb(shard) as u64;
    tracer.close(s);
    tracer.close(span);
    out
}

/// Session queries for a var list.
pub fn session_queries(vars: &[VarId]) -> Vec<SessionQuery<'static>> {
    vars.iter().map(|&v| SessionQuery::new(v)).collect()
}

/// `(graph, var, fingerprint)` of each answer.
pub fn fingerprints(g: usize, vars: &[VarId], results: &[QueryResult]) -> Vec<(usize, VarId, u64)> {
    vars.iter()
        .zip(results)
        .map(|(&v, r)| (g, v, r.fingerprint()))
        .collect()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
