//! `daemon`: an in-process `Daemon` serving the three graphs, fed the
//! exact JSON frames a wire client sends.
//!
//! Three logical clients, one per graph, each keep one single-query frame
//! in flight (a closed loop, as the `service_client` example does); no
//! sockets, no extra threads. A pass reconnects every client (`hello`,
//! which is also the pass's restart) and lets each sweep all of its
//! graph's client sites once, in a seeded order. The set-up's warm-up pass
//! touches every site once, so the timed passes run on a warm cache. A
//! request runs from its `ingest` to its answer frame out of `step`.

use std::collections::HashMap;
use std::time::Instant;

use dynsum_core::{EngineConfig, EngineKind, Session, SessionQuery};
use dynsum_pag::{Pag, VarId};
use dynsum_service::daemon::ClientId;
use dynsum_service::json::{self, Json};
use dynsum_service::proto::{encode_query_result, ok_frame, parse_request};
use dynsum_service::{Daemon, ServedWorkload, ServiceConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::prep::GraphInput;
use crate::trace::{SpanId, Tracer};
use crate::work::{self, Counts, Plan, Run, Traced};

/// One client's frames, rendered before anything is timed.
struct Client {
    hello: String,
    health: String,
    vars: Vec<VarId>,
    frames: Vec<String>,
}

/// What one pass left to check after its timer stopped.
#[derive(Default)]
struct PassLog {
    /// Per client, its answer frames in send order.
    answers: Vec<Vec<String>>,
    /// Frames answered at `ingest` (hello acks, and any error).
    sync: Vec<String>,
    /// Per client, `health` after the pass.
    health: Vec<String>,
    /// Per client, the request id of each sent frame.
    requests: Vec<Vec<u64>>,
}

fn clients(graphs: &[GraphInput], seed: u64) -> Vec<Client> {
    let mut rng = SmallRng::seed_from_u64(seed);
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut vars = g.all_sites();
            vars.shuffle(&mut rng);
            let frames = vars
                .iter()
                .enumerate()
                .map(|(k, v)| {
                    Json::Obj(vec![
                        ("op".to_owned(), Json::str("query")),
                        ("id".to_owned(), Json::num(k as u64 + 2)),
                        ("var".to_owned(), Json::num(u64::from(v.as_raw()))),
                    ])
                    .render()
                })
                .collect();
            let hello = Json::Obj(vec![
                ("op".to_owned(), Json::str("hello")),
                ("id".to_owned(), Json::num(1)),
                ("name".to_owned(), Json::str(format!("client{i}"))),
                ("engine".to_owned(), Json::str("dynsum")),
                ("workload".to_owned(), Json::str(&*g.name)),
            ])
            .render();
            let health = r#"{"op":"health","id":1}"#.to_owned();
            Client {
                hello,
                health,
                vars,
                frames,
            }
        })
        .collect()
}

fn build<'p>(graphs: &'p [GraphInput], pags: &'p [Pag], tracer: &mut Tracer) -> Daemon<'p> {
    let served = graphs
        .iter()
        .zip(pags)
        .map(|(g, pag)| ServedWorkload { name: &g.name, pag })
        .collect();
    tracer.span("daemon.new", 0, None, || {
        Daemon::new(
            served,
            ServiceConfig {
                engine_config: EngineConfig::default(),
                ..ServiceConfig::default()
            },
        )
    })
}

struct Flight {
    sent: Instant,
    index: usize,
    request: u64,
    span: SpanId,
    restart: Option<(Instant, SpanId)>,
}

/// The closed loop of one pass.
struct Loop<'a, 'p> {
    daemon: &'a mut Daemon<'p>,
    clients: &'a [Client],
    tracer: &'a mut Tracer,
    run: &'a mut Run,
    log: &'a mut PassLog,
    request: &'a mut u64,
    ids: Vec<Option<ClientId>>,
    slot: HashMap<ClientId, usize>,
    flights: Vec<Option<Flight>>,
}

impl Loop<'_, '_> {
    /// Ends client `c`'s connection: its `health` counters, then
    /// `disconnect`.
    fn leave(&mut self, c: usize) {
        if let Some(id) = self.ids[c].take() {
            let health = self.daemon.ingest(id, &self.clients[c].health);
            self.log.health.extend(health);
            self.daemon.disconnect(id);
            self.slot.remove(&id);
        }
    }

    /// Sends client `c`'s `k`-th frame. The first is preceded by the
    /// client's connect and `hello`: the pass's restart for that client,
    /// which its first answer ends.
    fn send(&mut self, c: usize, k: usize) {
        *self.request += 1;
        let request = *self.request;
        let mut restart = None;
        if k == 0 {
            let started = Instant::now();
            let span = self.tracer.open("client.restart", request, None);
            let id = self.daemon.connect();
            self.ids[c] = Some(id);
            self.slot.insert(id, c);
            let s = self.tracer.open("daemon.ingest", request, span);
            let ack = self.daemon.ingest(id, &self.clients[c].hello);
            self.tracer.close(s);
            self.log.sync.extend(ack);
            restart = Some((started, span));
        }
        let id = self.ids[c].expect("connected at the first frame");
        self.log.requests[c].push(request);
        let span = self
            .tracer
            .open("client.request", request, restart.and_then(|(_, s)| s));
        let sent = Instant::now();
        let s = self.tracer.open("daemon.ingest", request, span);
        let out = self.daemon.ingest(id, &self.clients[c].frames[k]);
        self.tracer.close(s);
        self.log.sync.extend(out);
        self.flights[c] = Some(Flight {
            sent,
            index: k,
            request,
            span,
            restart,
        });
    }

    /// Cranks the scheduler until every client finished its sweep.
    fn serve(&mut self) {
        while self.flights.iter().any(Option::is_some) {
            let step_span = self.tracer.open("daemon.step", 0, None);
            let stepped = Instant::now();
            let out = self.daemon.step();
            let step_ms = work::ms_since(stepped);
            self.tracer.close(step_span);
            if out.is_empty() {
                let lost = self.flights.iter().filter(|f| f.is_some()).count() as u64;
                self.run.failures.add(lost, || {
                    format!("{lost} in-flight queries lost by the scheduler")
                });
                return;
            }
            for (cid, frame) in out {
                let Some(f) = self.slot.get(&cid).and_then(|&c| self.flights[c].take()) else {
                    self.run
                        .failures
                        .add(1, || format!("unsolicited answer for client {cid}"));
                    continue;
                };
                let c = self.slot[&cid];
                self.tracer.adopt(step_span, f.span, f.request);
                self.tracer.close(f.span);
                let latency = work::ms_since(f.sent);
                self.run.latencies_ms.push(latency);
                self.run.queue_wait_ms.push(latency - step_ms);
                if let Some((t, span)) = f.restart {
                    self.tracer.close(span);
                    self.run.restarts_ms.push(work::ms_since(t));
                }
                self.log.answers[c].push(frame);
                if f.index + 1 < self.clients[c].frames.len() {
                    self.send(c, f.index + 1);
                }
            }
        }
    }
}

/// One pass: every client sweeps its sites in a closed loop. Returns the
/// pass's time; the final `health` and disconnects come after it.
fn pass(
    daemon: &mut Daemon<'_>,
    clients: &[Client],
    tracer: &mut Tracer,
    request: &mut u64,
    run: &mut Run,
    log: &mut PassLog,
) -> f64 {
    *log = PassLog {
        answers: vec![Vec::new(); clients.len()],
        requests: vec![Vec::new(); clients.len()],
        ..PassLog::default()
    };
    let mut l = Loop {
        daemon,
        clients,
        tracer,
        run,
        log,
        request,
        ids: vec![None; clients.len()],
        slot: HashMap::new(),
        flights: (0..clients.len()).map(|_| None).collect(),
    };
    let started = Instant::now();
    for (c, client) in clients.iter().enumerate() {
        if !client.frames.is_empty() {
            l.send(c, 0);
        }
    }
    l.serve();
    let secs = started.elapsed().as_secs_f64();
    for c in 0..clients.len() {
        l.leave(c);
    }
    secs
}

fn field<'j>(v: &'j Json, path: &[&str]) -> Option<&'j Json> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Checks one pass's frames and turns them into counts and answers.
fn check(log: &PassLog, clients: &[Client], run: &mut Run) -> (Counts, Vec<(usize, VarId, u64)>) {
    let mut counts = Counts::default();
    let mut answers = Vec::new();
    for frame in &log.sync {
        let ok = json::parse(frame)
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool))
            == Some(true);
        run.attempted += 1;
        run.failures
            .add(u64::from(!ok), || format!("error frame at ingest: {frame}"));
    }
    for (c, frames) in log.answers.iter().enumerate() {
        run.failures
            .add(clients[c].vars.len().abs_diff(frames.len()) as u64, || {
                format!(
                    "client {c}: {} of {} answers",
                    frames.len(),
                    clients[c].vars.len()
                )
            });
        for (frame, &var) in frames.iter().zip(&clients[c].vars) {
            run.attempted += 1;
            let v = json::parse(frame).unwrap_or(Json::Null);
            let fingerprint = field(&v, &["result", "fingerprint"])
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            let (Some(true), Some(fp)) = (v.get("ok").and_then(Json::as_bool), fingerprint) else {
                run.failures.add(1, || format!("bad answer frame: {frame}"));
                continue;
            };
            let outcome = field(&v, &["result", "outcome"]).and_then(Json::as_str);
            let number = |k| {
                field(&v, &["result", k])
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            counts.queries += 1;
            counts.edges_charged += number("edges");
            counts.ppta_reused += number("cache_hits");
            counts.over_budget += u64::from(outcome == Some("over-budget"));
            counts.unresolved += u64::from(outcome != Some("resolved"));
            answers.push((c, var, fp));
        }
    }
    for frame in &log.health {
        let v = json::parse(frame).unwrap_or(Json::Null);
        let number = |k| field(&v, &["client", k]).and_then(Json::as_u64);
        match (number("edges_spent"), number("errors")) {
            (Some(edges), Some(errors)) => {
                counts.edges_spent += edges;
                counts.daemon_errors += errors;
            }
            _ => run.failures.add(1, || format!("bad health frame: {frame}")),
        }
    }
    (counts, answers)
}

/// The daemon's sessions, mirrored: one uncapped session per graph, warmed
/// by the warm-up sweep, then driven through the daemon's per-query
/// batches, `run_batch(&[q], 1)` for each request. Deterministic reuse
/// makes its driver and cache counters those of the daemon's sessions,
/// which report none of their own.
///
/// A traced run replays every pass through it, outside the pass's timer:
/// per request, `parse_request` on the sent frame, the batch through the
/// split stand-in for `run_batch` (its counts equal `run_batch`'s on
/// uncapped sessions), and `encode_query_result` + `ok_frame` on the
/// answer. That gives the proto, session and driver layers spans of the
/// daemon's traffic without putting replay work into its latencies.
struct Mirror<'p> {
    sessions: Vec<Session<'p>>,
}

impl<'p> Mirror<'p> {
    fn new(pags: &'p [Pag], clients: &[Client]) -> Self {
        let sessions = pags
            .iter()
            .zip(clients)
            .map(|(pag, client)| {
                let mut session =
                    Session::with_config(pag, EngineKind::DynSum, EngineConfig::default());
                for &v in &client.vars {
                    session.run_batch(&[SessionQuery::new(v)], 1);
                }
                session
            })
            .collect();
        Mirror { sessions }
    }

    /// One pass's session work; `requests` are the pass's request ids.
    fn pass(
        &mut self,
        clients: &[Client],
        requests: &[Vec<u64>],
        tracer: &mut Tracer,
        absorbed_new: &mut u64,
    ) -> Counts {
        let mut counts = Counts::default();
        for ((session, client), requests) in self.sessions.iter_mut().zip(clients).zip(requests) {
            let base = session.cache_stats();
            for (k, ((frame, &var), &request)) in client
                .frames
                .iter()
                .zip(&client.vars)
                .zip(requests)
                .enumerate()
            {
                if tracer.enabled() {
                    tracer.span("proto.parse", request, None, || {
                        std::hint::black_box(parse_request(frame)).is_ok()
                    });
                }
                let results = work::batch(
                    session,
                    &[SessionQuery::new(var)],
                    tracer,
                    (request, None),
                    Traced::Split,
                    absorbed_new,
                );
                if tracer.enabled() {
                    tracer.span("proto.encode", request, None, || {
                        let result = encode_query_result(&results[0]);
                        std::hint::black_box(ok_frame(
                            k as u64 + 2,
                            vec![("result".to_owned(), result)],
                        ))
                    });
                }
                counts.add_results(&results);
            }
            counts.batches += client.vars.len() as u64;
            counts.add_cache(session.cache_stats(), base);
            counts.resident += session.summary_count() as u64;
        }
        counts
    }
}

/// Completes the counts a pass's frames gave with the mirror's driver,
/// cache and batch counts; the frames' answer, outcome, edge and reuse
/// totals must equal the mirror's.
fn merge_mirror(counts: &mut Counts, mirror: &Counts, run: &mut Run) {
    let seen = |c: &Counts| {
        (
            c.queries,
            c.unresolved,
            c.over_budget,
            c.edges_charged,
            c.ppta_reused,
        )
    };
    let (frames, mirrored) = (seen(counts), seen(mirror));
    run.attempted += 1;
    run.failures.add(u64::from(frames != mirrored), || {
        format!(
            "daemon frames (queries, unresolved, over budget, edges, reuses) {frames:?}, \
             a mirror session {mirrored:?}"
        )
    });
    counts.steps = mirror.steps;
    counts.ppta_computed = mirror.ppta_computed;
    counts.lookups = mirror.lookups;
    counts.hits = mirror.hits;
    counts.evictions = mirror.evictions;
    counts.resident = mirror.resident;
    counts.batches = mirror.batches;
}

/// Runs the workload.
pub fn run(plan: &Plan<'_>, tracer: &mut Tracer) -> Result<(Run, Vec<Pag>), String> {
    let mut run = Run::new();
    let clients = clients(plan.graphs, plan.seed);
    let mut request = 0u64;
    let mut log = PassLog::default();

    let warm_up = |daemon: &mut Daemon<'_>, tracer: &mut Tracer| {
        let mut scratch = Run::default();
        let mut log = PassLog::default();
        pass(daemon, &clients, tracer, &mut 0, &mut scratch, &mut log);
        (scratch, log)
    };
    let t = Instant::now();
    let pags = work::parse_all(plan.graphs, tracer, &mut run)?;
    let mut daemon = build(plan.graphs, &pags, tracer);
    let (warm_run, warm_log) = warm_up(&mut daemon, tracer);
    run.setup_s.push(t.elapsed().as_secs_f64());
    work::check_fingerprints(plan.graphs, &pags, &mut run);
    let (_, warm_answers) = check(&warm_log, &clients, &mut run);
    run.failures.add(warm_run.failures.count, || {
        format!("warm-up: {:?}", warm_run.failures.reasons)
    });
    // Traced runs replay every pass on the mirror; untraced runs build it
    // after the timed phase, so its memory stays out of the peak RSS.
    let mut mirror = tracer.enabled().then(|| Mirror::new(&pags, &clients));

    let host_before = crate::host::sample();
    let started = Instant::now();
    run.timed_spans.start = tracer.spans().len();
    while !run.measured_enough(started, plan.seconds) {
        let secs = pass(
            &mut daemon,
            &clients,
            tracer,
            &mut request,
            &mut run,
            &mut log,
        );
        run.pass_s.push(secs);
        let (mut counts, answers) = check(&log, &clients, &mut run);
        if let Some(m) = mirror.as_mut() {
            let mirrored = m.pass(&clients, &log.requests, tracer, &mut run.absorbed_new);
            merge_mirror(&mut counts, &mirrored, &mut run);
        }
        run.record_pass(counts, answers);
    }
    run.finish_timed(host_before, tracer)?;
    drop(daemon);
    run.repeat_setups(tracer, |tracer, run| {
        let t = Instant::now();
        let pags = work::parse_all(plan.graphs, tracer, run)?;
        let mut daemon = build(plan.graphs, &pags, tracer);
        warm_up(&mut daemon, tracer);
        Ok(t.elapsed().as_secs_f64())
    })?;
    run.answers.extend(warm_answers);
    if mirror.is_none() {
        let mirrored = Mirror::new(&pags, &clients).pass(&clients, &log.requests, tracer, &mut 0);
        let mut counts = std::mem::take(&mut run.counts);
        merge_mirror(&mut counts, &mirrored, &mut run);
        run.counts = counts;
    }
    Ok((run, pags))
}
