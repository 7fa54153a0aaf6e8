//! The `perf_report` experiment: a machine-readable engine performance
//! snapshot, recorded as `BENCH_report.json` from every PR onward.
//!
//! Unlike the table/figure experiments (which reproduce the paper), this
//! one exists to track the *implementation's* performance trajectory:
//! per-engine wall time, deterministic edge work, cache hit rates, and —
//! the headline number — DYNSUM's batch query throughput on the medium
//! generated workload. CI runs the small profile on every push; `make
//! bench-report` runs the medium one locally.

use std::time::Instant;

use dynsum_cfl::{CtxId, Outcome, QueryResult};
use dynsum_clients::{queries_for, run_batches, run_client, ClientKind};
use dynsum_core::{DemandPointsTo, Session, SessionQuery};
use dynsum_pag::ObjId;
use dynsum_workloads::SCALABILITY_BENCHMARKS;

use crate::options::{EngineKind, ExperimentOptions};

/// Named workload sizes for the perf report.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum PerfProfile {
    /// Tiny, CI-friendly: `soot-c` at scale 0.01 (seconds).
    Small,
    /// The recorded trajectory point: the three scalability benchmarks
    /// at scale 0.5 (single-digit seconds).
    Medium,
}

impl PerfProfile {
    /// Profile name as recorded in the report.
    pub fn name(self) -> &'static str {
        match self {
            PerfProfile::Small => "small",
            PerfProfile::Medium => "medium",
        }
    }

    /// Parses a profile name.
    pub fn parse(s: &str) -> Option<PerfProfile> {
        match s {
            "small" => Some(PerfProfile::Small),
            "medium" => Some(PerfProfile::Medium),
            _ => None,
        }
    }

    /// The experiment options this profile implies.
    pub fn options(self) -> ExperimentOptions {
        match self {
            PerfProfile::Small => ExperimentOptions {
                scale: 0.01,
                benchmarks: vec!["soot-c".to_owned()],
                ..ExperimentOptions::default()
            },
            PerfProfile::Medium => ExperimentOptions {
                scale: 0.5,
                benchmarks: SCALABILITY_BENCHMARKS
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect(),
                ..ExperimentOptions::default()
            },
        }
    }
}

/// Aggregated measurements for one engine across every selected
/// benchmark × client stream (fresh engine per stream, cross-query state
/// persisting within it — the Table 4 setup).
#[derive(Debug, Clone)]
pub struct EnginePerf {
    /// Engine name (`"DYNSUM"`, …).
    pub engine: String,
    /// Engine construction time (includes STASUM's precomputation).
    pub setup_ms: f64,
    /// Wall-clock milliseconds over all query streams.
    pub wall_ms: f64,
    /// PAG edges traversed (deterministic work metric).
    pub edges_traversed: u64,
    /// Summary/memo cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Queries issued.
    pub queries: usize,
    /// Queries that blew the budget.
    pub unresolved: usize,
}

impl EnginePerf {
    /// Cache hits over all lookups (0.0 when the engine never looked).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Queries answered per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.queries as f64 * 1e3 / self.wall_ms
        }
    }
}

/// One DYNSUM batch measurement (cache persists across batches).
#[derive(Debug, Clone)]
pub struct BatchPerf {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-batch wall milliseconds.
    pub batch_ms: Vec<f64>,
    /// Per-batch query counts.
    pub batch_queries: Vec<usize>,
}

/// One point of the summary-cache pressure sweep: the DYNSUM batched
/// NullDeref streams executed on a 1-thread session under a
/// `max_cached_summaries` cap, with per-query results checked against
/// the sequential path (eviction must never change them) and the
/// hit-rate/throughput trade-off recorded.
#[derive(Debug, Clone)]
pub struct CachePressurePerf {
    /// The cap swept (`None` = uncapped reference point).
    pub cap: Option<usize>,
    /// Wall-clock milliseconds across all `run_batch` calls.
    pub wall_ms: f64,
    /// Queries answered.
    pub queries: usize,
    /// Queries answered per wall-clock second.
    pub qps: f64,
    /// Shared-cache hit rate over the whole stream.
    pub hit_rate: f64,
    /// Entries evicted by the cap across the stream.
    pub evictions: u64,
    /// Summaries resident at stream end in the largest of the
    /// per-benchmark sessions (the cap applies per session, so this is
    /// ≤ cap when capped).
    pub final_summaries: usize,
    /// `true` when every query matched the sequential engine byte for
    /// byte.
    pub results_identical: bool,
}

/// One point of the warm-restart series: the first NullDeref batch of a
/// fresh process, cold (empty cache) vs warm (summary cache restored
/// from a `Session::save_snapshot` byte image saved by a previous
/// "process" that served the whole stream). Results are checked against
/// the sequential baseline in both modes — a warm restart must be
/// outcome-invisible. Timings are medians over alternating paired
/// rounds; the one-time snapshot load is reported separately (it is a
/// restart cost, like engine setup, not per-batch work).
#[derive(Debug, Clone)]
pub struct WarmStartPerf {
    /// Benchmark name.
    pub benchmark: String,
    /// Snapshot size on the wire.
    pub snapshot_bytes: usize,
    /// Summaries in the donor session's cache at save time.
    pub saved_summaries: usize,
    /// Summaries restored by the load (must equal the saved count).
    pub restored_summaries: usize,
    /// Median one-time `load_snapshot` wall time.
    pub load_ms: f64,
    /// Median first-batch wall time on a cold session.
    pub cold_first_batch_ms: f64,
    /// Median first-batch wall time on a snapshot-restored session.
    pub warm_first_batch_ms: f64,
    /// Queries in the first batch.
    pub queries: usize,
    /// Cold first-batch throughput.
    pub cold_qps: f64,
    /// Warm first-batch throughput.
    pub warm_qps: f64,
    /// `warm_qps / cold_qps` (the headline warm-restart win).
    pub warm_speedup: f64,
    /// `true` when every cold *and* warm first-batch result matched the
    /// sequential baseline byte for byte.
    pub results_identical: bool,
}

/// One point of the `Session::run_batch` thread-scaling series: the
/// DYNSUM batched NullDeref streams executed on a shared session at a
/// fixed worker-thread count, with per-query results checked against the
/// sequential `DemandPointsTo` path.
#[derive(Debug, Clone)]
pub struct ThreadScalePerf {
    /// Worker threads per batch.
    pub threads: usize,
    /// Wall-clock milliseconds across all `run_batch` calls.
    pub wall_ms: f64,
    /// Queries answered.
    pub queries: usize,
    /// Queries answered per wall-clock second.
    pub qps: f64,
    /// Throughput relative to the 1-thread session point.
    pub speedup_vs_1: f64,
    /// `true` when every query's `(resolved, points-to set)` matched the
    /// sequential engine byte for byte.
    pub results_identical: bool,
}

/// One point of the service-daemon series: N logical clients in a
/// closed loop (one query in flight per client) multiplexed onto the
/// in-process daemon core, measuring frame-to-answer latency through
/// the protocol layer and the round-robin scheduler, with every wire
/// answer checked against a clean single-client session.
#[derive(Debug, Clone)]
pub struct ServicePerf {
    /// Concurrent logical clients.
    pub clients: usize,
    /// Queries answered across all clients.
    pub queries: usize,
    /// Wall-clock milliseconds over the whole run.
    pub wall_ms: f64,
    /// Queries answered per wall-clock second.
    pub qps: f64,
    /// Median frame-to-answer latency.
    pub p50_ms: f64,
    /// 99th-percentile frame-to-answer latency.
    pub p99_ms: f64,
    /// `true` when every wire answer matched the clean-session
    /// fingerprint byte for byte and no frame came back an error.
    pub results_identical: bool,
}

/// The full perf report.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Profile name (`"small"` / `"medium"` / `"custom"`).
    pub profile: String,
    /// Generator scale.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Per-query budget.
    pub budget: u64,
    /// Benchmarks measured.
    pub benchmarks: Vec<String>,
    /// CPUs available to this process when the report was recorded —
    /// the context for reading `session_scaling` (a 1-CPU host can show
    /// result-identity but no wall-clock speedup).
    pub host_parallelism: usize,
    /// Per-engine aggregates, in a fixed order.
    pub engines: Vec<EnginePerf>,
    /// DYNSUM batch series (NullDeref, 10 batches) per benchmark.
    pub dynsum_batches: Vec<BatchPerf>,
    /// The headline metric: DYNSUM queries/sec over the batched
    /// NullDeref streams (cache warm after the first batch).
    pub dynsum_batch_throughput_qps: f64,
    /// The `Session::run_batch` thread-scaling series over the same
    /// streams (sharded summary cache, merge-on-join).
    pub session_scaling: Vec<ThreadScalePerf>,
    /// The summary-cache pressure sweep: uncapped plus at least three
    /// `max_cached_summaries` cap points at 1 thread, each verified
    /// result-identical to the sequential path.
    pub cache_pressure: Vec<CachePressurePerf>,
    /// The warm-restart series: cold vs snapshot-restored first-batch
    /// throughput per benchmark, each verified result-identical to the
    /// sequential path.
    pub warm_start: Vec<WarmStartPerf>,
    /// The service-daemon series: one point per client count, each
    /// verified answer-identical to a clean single-client session.
    pub service: Vec<ServicePerf>,
}

/// Number of batches in the throughput measurement (§5.3 uses 10).
pub const PERF_BATCHES: usize = 10;

/// The engines measured, in report order.
pub const PERF_ENGINES: [EngineKind; 4] = [
    EngineKind::NoRefine,
    EngineKind::RefinePts,
    EngineKind::DynSum,
    EngineKind::StaSum,
];

/// The thread counts measured by default in the scaling series.
pub const DEFAULT_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// The client counts measured by default in the service series.
pub const DEFAULT_CLIENT_COUNTS: [usize; 3] = [1, 2, 4];

/// Per-query result fingerprint: resolution flag plus the sorted
/// `(object, allocation context)` pairs. Context ids are comparable
/// across engines and thread counts because context pools are per-query
/// scratch (see `StackPool::clear`). An isolated engine panic (an
/// empty, unresolved answer on every path alike) would pass the identity
/// gates, so it stops the report instead.
type ResultFingerprint = (bool, Vec<(ObjId, CtxId)>);

fn fingerprint(r: &QueryResult) -> ResultFingerprint {
    assert_ne!(r.outcome, Outcome::Panicked, "engine panic");
    (r.resolved, r.pts.iter().collect())
}

/// Runs the perf experiment with the default thread-scaling series.
pub fn perf_report(profile_name: &str, opts: &ExperimentOptions) -> PerfReport {
    perf_report_with_threads(profile_name, opts, &DEFAULT_THREAD_COUNTS)
}

/// Runs the perf experiment, measuring `Session::run_batch` at each of
/// the given worker-thread counts.
pub fn perf_report_with_threads(
    profile_name: &str,
    opts: &ExperimentOptions,
    thread_counts: &[usize],
) -> PerfReport {
    let config = opts.engine_config();
    let workloads = opts.workloads();

    let mut engines = Vec::new();
    for kind in PERF_ENGINES {
        let mut perf = EnginePerf {
            engine: kind.name().to_owned(),
            setup_ms: 0.0,
            wall_ms: 0.0,
            edges_traversed: 0,
            cache_hits: 0,
            cache_misses: 0,
            queries: 0,
            unresolved: 0,
        };
        for w in &workloads {
            for client in ClientKind::ALL {
                let setup_started = Instant::now();
                let mut session = Session::with_config(&w.pag, kind, config);
                perf.setup_ms += setup_started.elapsed().as_secs_f64() * 1e3;
                let report = run_client(client, &w.info, &mut session);
                perf.wall_ms += report.elapsed.as_secs_f64() * 1e3;
                perf.edges_traversed += report.stats.edges_traversed;
                perf.cache_hits += report.stats.cache_hits;
                perf.cache_misses += report.stats.cache_misses;
                perf.queries += report.queries;
                perf.unresolved += report.unresolved;
            }
        }
        engines.push(perf);
    }

    // The batched throughput run: one persistent DYNSUM session per
    // benchmark, NullDeref stream split into 10 batches.
    let mut dynsum_batches = Vec::new();
    let mut total_queries = 0usize;
    let mut total_secs = 0.0f64;
    for w in &workloads {
        let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
        let batches = run_batches(
            ClientKind::NullDeref,
            &w.info,
            &mut session,
            PERF_BATCHES,
            1,
        );
        let batch_ms: Vec<f64> = batches
            .iter()
            .map(|b| b.report.elapsed.as_secs_f64() * 1e3)
            .collect();
        let batch_queries: Vec<usize> = batches.iter().map(|b| b.report.queries).collect();
        total_queries += batch_queries.iter().sum::<usize>();
        total_secs += batch_ms.iter().sum::<f64>() / 1e3;
        dynsum_batches.push(BatchPerf {
            benchmark: w.name.clone(),
            batch_ms,
            batch_queries,
        });
    }
    let dynsum_batch_throughput_qps = if total_secs > 0.0 {
        total_queries as f64 / total_secs
    } else {
        0.0
    };

    // The Session thread-scaling series, against per-query fingerprints
    // from the sequential DemandPointsTo path (one DYNSUM session per
    // stream answering one query at a time, cache warm within the
    // stream).
    let baseline: Vec<Vec<ResultFingerprint>> = workloads
        .iter()
        .map(|w| {
            let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
            queries_for(ClientKind::NullDeref, &w.info)
                .iter()
                .map(|q| fingerprint(&session.points_to(q.var)))
                .collect()
        })
        .collect();
    let mut session_scaling = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let mut queries_total = 0usize;
        let mut secs = 0.0f64;
        let mut results_identical = true;
        for (wi, w) in workloads.iter().enumerate() {
            let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let stream = queries_for(ClientKind::NullDeref, &w.info);
            let mut qi = 0usize;
            for batch in dynsum_clients::split_batches(stream, PERF_BATCHES) {
                let sq: Vec<SessionQuery<'_>> =
                    batch.iter().map(|q| SessionQuery::new(q.var)).collect();
                let started = Instant::now();
                let results = session.run_batch(&sq, threads);
                secs += started.elapsed().as_secs_f64();
                for r in &results {
                    if fingerprint(r) != baseline[wi][qi] {
                        results_identical = false;
                    }
                    qi += 1;
                }
                queries_total += results.len();
            }
        }
        let qps = if secs > 0.0 {
            queries_total as f64 / secs
        } else {
            0.0
        };
        session_scaling.push(ThreadScalePerf {
            threads,
            wall_ms: secs * 1e3,
            queries: queries_total,
            qps,
            speedup_vs_1: 0.0,
            results_identical,
        });
    }
    let base_qps = session_scaling
        .iter()
        .find(|p| p.threads == 1)
        .or(session_scaling.first())
        .map(|p| p.qps)
        .unwrap_or(0.0);
    for point in &mut session_scaling {
        point.speedup_vs_1 = if base_qps > 0.0 {
            point.qps / base_qps
        } else {
            0.0
        };
    }
    // The cache-pressure sweep: uncapped first (its natural cache size
    // anchors the swept caps), then caps at 1/2, 1/8 and 0 of it —
    // hit rate and throughput fall as the cap tightens while results
    // stay byte-identical (eviction is outcome-free by construction).
    let uncapped = cache_pressure_point(&workloads, config, &baseline, None);
    let natural = uncapped.final_summaries.max(1);
    let mut caps: Vec<usize> = vec![natural.div_ceil(2), natural.div_ceil(8), 0];
    caps.dedup();
    if caps.len() < 3 {
        caps = vec![2, 1, 0];
    }
    let mut cache_pressure = vec![uncapped];
    for cap in caps {
        cache_pressure.push(cache_pressure_point(
            &workloads,
            config,
            &baseline,
            Some(cap),
        ));
    }

    // The warm-restart series: per benchmark, a donor session serves the
    // whole stream and saves a snapshot; fresh cold and snapshot-warmed
    // sessions then race on the first batch.
    let warm_start = workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| warm_start_point(w, config, &baseline[wi]))
        .collect();

    // The service series: the daemon core under 1/2/4 closed-loop
    // clients, answers verified against clean sessions.
    let service = DEFAULT_CLIENT_COUNTS
        .iter()
        .map(|&n| service_point(&workloads, config, n))
        .collect();

    PerfReport {
        profile: profile_name.to_owned(),
        scale: opts.scale,
        seed: opts.seed,
        budget: opts.budget,
        benchmarks: workloads.iter().map(|w| w.name.clone()).collect(),
        host_parallelism: dynsum_cfl::sync::thread::available_parallelism().map_or(1, |n| n.get()),
        engines,
        dynsum_batches,
        dynsum_batch_throughput_qps,
        session_scaling,
        cache_pressure,
        warm_start,
        service,
    }
}

/// Sorted-sample percentile (nearest-rank; 0.5 = median).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Measures one service-series point: `clients_n` logical clients over
/// the in-process daemon core, each workload served by name, clients
/// assigned round-robin. Closed loop — every client keeps exactly one
/// single-query frame in flight, so latency is the full frame-to-answer
/// path through the protocol layer and the fair scheduler while
/// `clients_n - 1` competitors interleave.
fn service_point(
    workloads: &[dynsum_workloads::Workload],
    config: dynsum_core::EngineConfig,
    clients_n: usize,
) -> ServicePerf {
    use dynsum_service::{json, json::Json, Daemon, ServedWorkload, ServiceConfig};
    use std::collections::HashMap;

    /// Closed-loop queries each client issues (streams cycle if short).
    const QUERIES_PER_CLIENT: usize = 200;

    // Per-workload reference: variable -> clean-session fingerprint.
    let reference: Vec<HashMap<dynsum_pag::VarId, u64>> = workloads
        .iter()
        .map(|w| {
            let mut vars: Vec<dynsum_pag::VarId> = queries_for(ClientKind::NullDeref, &w.info)
                .iter()
                .map(|q| q.var)
                .collect();
            vars.sort_unstable();
            vars.dedup();
            let mut session = Session::with_config(&w.pag, dynsum_core::EngineKind::DynSum, config);
            let results = session.run_batch_vars(&vars, 1);
            vars.iter()
                .zip(&results)
                .map(|(&v, r)| (v, r.fingerprint()))
                .collect()
        })
        .collect();

    let served: Vec<ServedWorkload<'_>> = workloads
        .iter()
        .map(|w| ServedWorkload {
            name: &w.name,
            pag: &w.pag,
        })
        .collect();
    let mut daemon = Daemon::new(
        served,
        ServiceConfig {
            engine_config: config,
            ..ServiceConfig::default()
        },
    );

    let mut results_identical = true;
    let ids: Vec<u64> = (0..clients_n).map(|_| daemon.connect()).collect();
    let slot_of: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let streams: Vec<Vec<dynsum_pag::VarId>> = (0..clients_n)
        .map(|i| {
            let w = &workloads[i % workloads.len()];
            let stream: Vec<dynsum_pag::VarId> = queries_for(ClientKind::NullDeref, &w.info)
                .iter()
                .map(|q| q.var)
                .collect();
            stream
                .iter()
                .cycle()
                .take(QUERIES_PER_CLIENT.min(stream.len().max(1) * 4))
                .copied()
                .collect()
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let name = &workloads[i % workloads.len()].name;
        let hello = format!(
            r#"{{"op":"hello","id":1,"name":"bench{i}","engine":"dynsum","workload":"{name}"}}"#
        );
        for frame in daemon.ingest(id, &hello) {
            let v = json::parse(&frame).expect("daemon emits valid JSON");
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                results_identical = false;
            }
        }
    }

    let started = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut pending: HashMap<u64, (Instant, dynsum_pag::VarId)> = HashMap::new();
    let mut next_idx = vec![0usize; clients_n];
    let mut next_id = vec![2u64; clients_n];
    let send_next = |daemon: &mut Daemon<'_>,
                     pending: &mut HashMap<u64, (Instant, dynsum_pag::VarId)>,
                     next_idx: &mut [usize],
                     next_id: &mut [u64],
                     identical: &mut bool,
                     i: usize| {
        let var = streams[i][next_idx[i]];
        next_idx[i] += 1;
        let frame = format!(
            r#"{{"op":"query","id":{},"var":{}}}"#,
            next_id[i],
            var.as_raw()
        );
        next_id[i] += 1;
        let sent = Instant::now();
        if daemon.ingest(ids[i], &frame).is_empty() {
            pending.insert(ids[i], (sent, var));
        } else {
            // A valid query frame never answers synchronously.
            *identical = false;
        }
    };
    for (i, stream) in streams.iter().enumerate() {
        if !stream.is_empty() {
            send_next(
                &mut daemon,
                &mut pending,
                &mut next_idx,
                &mut next_id,
                &mut results_identical,
                i,
            );
        }
    }
    while !pending.is_empty() {
        let completed = daemon.step();
        if completed.is_empty() {
            // The scheduler lost an in-flight query — record loudly.
            results_identical = false;
            break;
        }
        for (cid, frame) in completed {
            let i = slot_of[&cid];
            let (sent, var) = match pending.remove(&cid) {
                Some(p) => p,
                None => {
                    results_identical = false;
                    continue;
                }
            };
            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            let v = json::parse(&frame).expect("daemon emits valid JSON");
            let fp = v
                .get("result")
                .and_then(|r| r.get("fingerprint"))
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if v.get("ok").and_then(Json::as_bool) != Some(true)
                || fp != reference[i % workloads.len()].get(&var).copied()
            {
                results_identical = false;
            }
            if next_idx[i] < streams[i].len() {
                send_next(
                    &mut daemon,
                    &mut pending,
                    &mut next_idx,
                    &mut next_id,
                    &mut results_identical,
                    i,
                );
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let queries = latencies.len();
    ServicePerf {
        clients: clients_n,
        queries,
        wall_ms: secs * 1e3,
        qps: if secs > 0.0 {
            queries as f64 / secs
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 0.5),
        p99_ms: percentile(&latencies, 0.99),
        results_identical,
    }
}

/// Median of a non-empty sample (ms timings).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Measures one benchmark's cold-vs-warm first batch: five alternating
/// paired rounds (robust to host throttling drift), medians recorded,
/// every result — cold and warm — checked against the sequential
/// baseline fingerprints.
fn warm_start_point(
    w: &dynsum_workloads::Workload,
    config: dynsum_core::EngineConfig,
    baseline: &[ResultFingerprint],
) -> WarmStartPerf {
    use dynsum_core::EngineKind;
    let stream = queries_for(ClientKind::NullDeref, &w.info);
    let first_batch: Vec<SessionQuery<'_>> =
        dynsum_clients::split_batches(stream.clone(), PERF_BATCHES)
            .into_iter()
            .next()
            .unwrap_or_default()
            .iter()
            .map(|q| SessionQuery::new(q.var))
            .collect();

    // The donor "process": serve everything, persist the working set.
    let mut donor = Session::with_config(&w.pag, EngineKind::DynSum, config);
    for batch in dynsum_clients::split_batches(stream, PERF_BATCHES) {
        let sq: Vec<SessionQuery<'_>> = batch.iter().map(|q| SessionQuery::new(q.var)).collect();
        donor.run_batch(&sq, 1);
    }
    let saved_summaries = donor.summary_count();
    let mut snapshot = Vec::new();
    donor
        .save_snapshot(&mut snapshot)
        .expect("writing to a Vec cannot fail");

    let mut results_identical = true;
    let mut restored_summaries = 0usize;
    let mut cold_samples = Vec::with_capacity(5);
    let mut warm_samples = Vec::with_capacity(5);
    let mut load_samples = Vec::with_capacity(5);
    for round in 0..5 {
        let run_cold = |cold_samples: &mut Vec<f64>, identical: &mut bool| {
            let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let started = Instant::now();
            let results = session.run_batch(&first_batch, 1);
            cold_samples.push(started.elapsed().as_secs_f64() * 1e3);
            for (i, r) in results.iter().enumerate() {
                if fingerprint(r) != baseline[i] {
                    *identical = false;
                }
            }
        };
        let run_warm = |warm_samples: &mut Vec<f64>,
                        load_samples: &mut Vec<f64>,
                        restored: &mut usize,
                        identical: &mut bool| {
            let started = Instant::now();
            let (mut session, load) =
                Session::load_snapshot(&snapshot[..], &w.pag, EngineKind::DynSum, config);
            load_samples.push(started.elapsed().as_secs_f64() * 1e3);
            if !load.is_warm() {
                // A self-saved snapshot must load; record the failure as
                // divergence so the CI gate trips loudly.
                *identical = false;
            }
            *restored = load.summaries();
            let started = Instant::now();
            let results = session.run_batch(&first_batch, 1);
            warm_samples.push(started.elapsed().as_secs_f64() * 1e3);
            for (i, r) in results.iter().enumerate() {
                if fingerprint(r) != baseline[i] {
                    *identical = false;
                }
            }
        };
        if round % 2 == 0 {
            run_cold(&mut cold_samples, &mut results_identical);
            run_warm(
                &mut warm_samples,
                &mut load_samples,
                &mut restored_summaries,
                &mut results_identical,
            );
        } else {
            run_warm(
                &mut warm_samples,
                &mut load_samples,
                &mut restored_summaries,
                &mut results_identical,
            );
            run_cold(&mut cold_samples, &mut results_identical);
        }
    }
    if restored_summaries != saved_summaries {
        results_identical = false;
    }

    let queries = first_batch.len();
    let cold_ms = median(cold_samples);
    let warm_ms = median(warm_samples);
    let qps = |ms: f64| {
        if ms > 0.0 {
            queries as f64 * 1e3 / ms
        } else {
            0.0
        }
    };
    let (cold_qps, warm_qps) = (qps(cold_ms), qps(warm_ms));
    WarmStartPerf {
        benchmark: w.name.clone(),
        snapshot_bytes: snapshot.len(),
        saved_summaries,
        restored_summaries,
        load_ms: median(load_samples),
        cold_first_batch_ms: cold_ms,
        warm_first_batch_ms: warm_ms,
        queries,
        cold_qps,
        warm_qps,
        warm_speedup: if cold_qps > 0.0 {
            warm_qps / cold_qps
        } else {
            0.0
        },
        results_identical,
    }
}

/// Runs the batched NullDeref streams on a 1-thread session under one
/// `max_cached_summaries` setting, checking every query against the
/// sequential baseline fingerprints.
fn cache_pressure_point(
    workloads: &[dynsum_workloads::Workload],
    config: dynsum_core::EngineConfig,
    baseline: &[Vec<ResultFingerprint>],
    cap: Option<usize>,
) -> CachePressurePerf {
    let config = dynsum_core::EngineConfig {
        max_cached_summaries: cap,
        ..config
    };
    let mut queries_total = 0usize;
    let mut secs = 0.0f64;
    let mut results_identical = true;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut evictions = 0u64;
    let mut final_summaries = 0usize;
    for (wi, w) in workloads.iter().enumerate() {
        let mut session = Session::with_config(&w.pag, dynsum_core::EngineKind::DynSum, config);
        let stream = queries_for(ClientKind::NullDeref, &w.info);
        let mut qi = 0usize;
        for batch in dynsum_clients::split_batches(stream, PERF_BATCHES) {
            let sq: Vec<SessionQuery<'_>> =
                batch.iter().map(|q| SessionQuery::new(q.var)).collect();
            let started = Instant::now();
            let results = session.run_batch(&sq, 1);
            secs += started.elapsed().as_secs_f64();
            for r in &results {
                if fingerprint(r) != baseline[wi][qi] {
                    results_identical = false;
                }
                qi += 1;
            }
            queries_total += results.len();
        }
        let stats = session.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        evictions += stats.evictions;
        final_summaries = final_summaries.max(session.summary_count());
    }
    let lookups = hits + misses;
    CachePressurePerf {
        cap,
        wall_ms: secs * 1e3,
        queries: queries_total,
        qps: if secs > 0.0 {
            queries_total as f64 / secs
        } else {
            0.0
        },
        hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        evictions,
        final_summaries,
        results_identical,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

/// Renders the report as pretty-printed JSON (no external crates: the
/// workspace is offline, so the writer is hand-rolled).
pub fn render_perf_json(r: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"profile\": {},\n", json_str(&r.profile)));
    out.push_str(&format!("  \"scale\": {},\n", json_f64(r.scale)));
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str(&format!("  \"budget\": {},\n", r.budget));
    let benches: Vec<String> = r.benchmarks.iter().map(|b| json_str(b)).collect();
    out.push_str(&format!("  \"benchmarks\": [{}],\n", benches.join(", ")));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        r.host_parallelism
    ));
    out.push_str("  \"engines\": [\n");
    for (i, e) in r.engines.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"engine\": {},\n", json_str(&e.engine)));
        out.push_str(&format!("      \"setup_ms\": {},\n", json_f64(e.setup_ms)));
        out.push_str(&format!("      \"wall_ms\": {},\n", json_f64(e.wall_ms)));
        out.push_str(&format!(
            "      \"edges_traversed\": {},\n",
            e.edges_traversed
        ));
        out.push_str(&format!("      \"cache_hits\": {},\n", e.cache_hits));
        out.push_str(&format!("      \"cache_misses\": {},\n", e.cache_misses));
        out.push_str(&format!(
            "      \"cache_hit_rate\": {},\n",
            json_f64(e.cache_hit_rate())
        ));
        out.push_str(&format!("      \"queries\": {},\n", e.queries));
        out.push_str(&format!("      \"unresolved\": {},\n", e.unresolved));
        out.push_str(&format!(
            "      \"queries_per_sec\": {}\n",
            json_f64(e.queries_per_sec())
        ));
        out.push_str(if i + 1 == r.engines.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"dynsum_batches\": [\n");
    for (i, b) in r.dynsum_batches.iter().enumerate() {
        let ms: Vec<String> = b.batch_ms.iter().map(|&m| json_f64(m)).collect();
        let qs: Vec<String> = b.batch_queries.iter().map(|q| q.to_string()).collect();
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"benchmark\": {},\n",
            json_str(&b.benchmark)
        ));
        out.push_str(&format!("      \"batch_ms\": [{}],\n", ms.join(", ")));
        out.push_str(&format!("      \"batch_queries\": [{}]\n", qs.join(", ")));
        out.push_str(if i + 1 == r.dynsum_batches.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"dynsum_batch_throughput_qps\": {},\n",
        json_f64(r.dynsum_batch_throughput_qps)
    ));
    out.push_str("  \"session_scaling\": [\n");
    for (i, p) in r.session_scaling.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"threads\": {},\n", p.threads));
        out.push_str(&format!("      \"wall_ms\": {},\n", json_f64(p.wall_ms)));
        out.push_str(&format!("      \"queries\": {},\n", p.queries));
        out.push_str(&format!("      \"qps\": {},\n", json_f64(p.qps)));
        out.push_str(&format!(
            "      \"speedup_vs_1\": {},\n",
            json_f64(p.speedup_vs_1)
        ));
        out.push_str(&format!(
            "      \"results_identical_vs_sequential\": {}\n",
            p.results_identical
        ));
        out.push_str(if i + 1 == r.session_scaling.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"cache_pressure\": [\n");
    for (i, p) in r.cache_pressure.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"cap\": {},\n",
            p.cap.map_or("null".to_owned(), |c| c.to_string())
        ));
        out.push_str(&format!("      \"wall_ms\": {},\n", json_f64(p.wall_ms)));
        out.push_str(&format!("      \"queries\": {},\n", p.queries));
        out.push_str(&format!("      \"qps\": {},\n", json_f64(p.qps)));
        out.push_str(&format!("      \"hit_rate\": {},\n", json_f64(p.hit_rate)));
        out.push_str(&format!("      \"evictions\": {},\n", p.evictions));
        out.push_str(&format!(
            "      \"final_summaries\": {},\n",
            p.final_summaries
        ));
        out.push_str(&format!(
            "      \"results_identical_vs_sequential\": {}\n",
            p.results_identical
        ));
        out.push_str(if i + 1 == r.cache_pressure.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"service\": [\n");
    for (i, p) in r.service.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"clients\": {},\n", p.clients));
        out.push_str(&format!("      \"queries\": {},\n", p.queries));
        out.push_str(&format!("      \"wall_ms\": {},\n", json_f64(p.wall_ms)));
        out.push_str(&format!("      \"qps\": {},\n", json_f64(p.qps)));
        out.push_str(&format!("      \"p50_ms\": {},\n", json_f64(p.p50_ms)));
        out.push_str(&format!("      \"p99_ms\": {},\n", json_f64(p.p99_ms)));
        out.push_str(&format!(
            "      \"results_identical_vs_sequential\": {}\n",
            p.results_identical
        ));
        out.push_str(if i + 1 == r.service.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"warm_start\": [\n");
    for (i, p) in r.warm_start.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"benchmark\": {},\n",
            json_str(&p.benchmark)
        ));
        out.push_str(&format!(
            "      \"snapshot_bytes\": {},\n",
            p.snapshot_bytes
        ));
        out.push_str(&format!(
            "      \"saved_summaries\": {},\n",
            p.saved_summaries
        ));
        out.push_str(&format!(
            "      \"restored_summaries\": {},\n",
            p.restored_summaries
        ));
        out.push_str(&format!("      \"load_ms\": {},\n", json_f64(p.load_ms)));
        out.push_str(&format!(
            "      \"cold_first_batch_ms\": {},\n",
            json_f64(p.cold_first_batch_ms)
        ));
        out.push_str(&format!(
            "      \"warm_first_batch_ms\": {},\n",
            json_f64(p.warm_first_batch_ms)
        ));
        out.push_str(&format!("      \"queries\": {},\n", p.queries));
        out.push_str(&format!("      \"cold_qps\": {},\n", json_f64(p.cold_qps)));
        out.push_str(&format!("      \"warm_qps\": {},\n", json_f64(p.warm_qps)));
        out.push_str(&format!(
            "      \"warm_speedup\": {},\n",
            json_f64(p.warm_speedup)
        ));
        out.push_str(&format!(
            "      \"results_identical_vs_sequential\": {}\n",
            p.results_identical
        ));
        out.push_str(if i + 1 == r.warm_start.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_json_render() {
        let opts = ExperimentOptions {
            scale: 0.005,
            benchmarks: vec!["luindex".to_owned()],
            ..ExperimentOptions::default()
        };
        let r = perf_report("custom", &opts);
        assert_eq!(r.engines.len(), 4);
        assert_eq!(r.benchmarks, vec!["luindex"]);
        assert_eq!(r.dynsum_batches.len(), 1);
        for e in &r.engines {
            assert!(e.queries > 0, "{}: no queries ran", e.engine);
            assert!(e.edges_traversed > 0, "{}: no work recorded", e.engine);
        }
        let dynsum = r.engines.iter().find(|e| e.engine == "DYNSUM").unwrap();
        assert!(
            dynsum.cache_hits > 0,
            "DYNSUM must hit its cache on a whole stream"
        );
        assert!(r.dynsum_batch_throughput_qps > 0.0);
        assert_eq!(r.session_scaling.len(), DEFAULT_THREAD_COUNTS.len());
        for p in &r.session_scaling {
            assert!(p.queries > 0);
            assert!(p.qps > 0.0);
            assert!(
                p.results_identical,
                "threads={} diverged from the sequential path",
                p.threads
            );
        }

        // The cache-pressure sweep: uncapped + ≥3 cap points, every one
        // result-identical, caps actually enforced, and pressure visible
        // (the capped points evict).
        assert!(r.cache_pressure.len() >= 4);
        assert_eq!(r.cache_pressure[0].cap, None);
        assert!(r.cache_pressure.iter().skip(1).all(|p| p.cap.is_some()));
        for p in &r.cache_pressure {
            assert!(p.queries > 0);
            assert!(
                p.results_identical,
                "cap {:?} diverged from the sequential path",
                p.cap
            );
            if let Some(cap) = p.cap {
                assert!(p.final_summaries <= cap, "cap {cap} not enforced");
            }
        }
        assert!(
            r.cache_pressure.iter().any(|p| p.evictions > 0),
            "the tight cap points must actually evict"
        );

        // The warm-restart series: one point per benchmark, snapshot
        // intact, restore complete, and — the snapshot contract — cold
        // and warm first batches both byte-identical to the baseline.
        // (Strict warm>cold speedup is asserted by the perf_report
        // gate's recorded runs, not here: debug-build timings on a tiny
        // profile are too noisy for a hard unit-test bound.)
        assert_eq!(r.warm_start.len(), r.benchmarks.len());
        for p in &r.warm_start {
            assert!(p.queries > 0);
            assert!(p.snapshot_bytes > 0);
            assert!(p.saved_summaries > 0, "donor stream must cache summaries");
            assert_eq!(
                p.restored_summaries, p.saved_summaries,
                "restore must be complete"
            );
            assert!(p.cold_qps > 0.0 && p.warm_qps > 0.0);
            assert!(
                p.results_identical,
                "{}: warm restart changed results",
                p.benchmark
            );
        }

        // The service series: one point per default client count, every
        // wire answer byte-identical to a clean single-client session,
        // latency percentiles ordered.
        assert_eq!(r.service.len(), DEFAULT_CLIENT_COUNTS.len());
        for p in &r.service {
            assert!(p.queries > 0, "{} clients: no queries answered", p.clients);
            assert!(p.qps > 0.0);
            assert!(p.p50_ms <= p.p99_ms, "percentiles out of order");
            assert!(
                p.results_identical,
                "{} clients: daemon answers diverged from the clean session",
                p.clients
            );
        }

        let json = render_perf_json(&r);
        assert!(json.contains("\"service\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"warm_start\""));
        assert!(json.contains("\"warm_speedup\""));
        assert!(json.contains("\"session_scaling\""));
        assert!(json.contains("\"results_identical_vs_sequential\": true"));
        assert!(json.contains("\"DYNSUM\""));
        assert!(json.contains("\"dynsum_batch_throughput_qps\""));
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"cache_pressure\""));
        assert!(json.contains("\"cap\": null"), "uncapped point recorded");
        // Brackets balance (cheap well-formedness check without a parser).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn profiles_parse_and_scale() {
        assert_eq!(PerfProfile::parse("small"), Some(PerfProfile::Small));
        assert_eq!(PerfProfile::parse("medium"), Some(PerfProfile::Medium));
        assert_eq!(PerfProfile::parse("huge"), None);
        assert_eq!(PerfProfile::Small.options().benchmarks, vec!["soot-c"]);
        assert_eq!(PerfProfile::Medium.options().benchmarks.len(), 3);
        assert!(PerfProfile::Medium.options().scale > PerfProfile::Small.options().scale);
    }
}
