//! Differential fuzzing of the analysis daemon.
//!
//! The `service` regime generates a workload, derives a random
//! multi-client script — interleaved queries, batches, cancels and
//! method invalidations from 2–3 clients multiplexed onto shared
//! sessions — and feeds it to a [`Daemon`] twice. The judge then holds
//! the daemon to three promises:
//!
//! 1. **Byte-identity** — every *answered* query (resolved or
//!    over-budget) must carry the exact fingerprint a clean,
//!    single-client [`Session`] of the same engine computes for that
//!    variable. Multiplexing, shared caches, scheduling order,
//!    invalidations: none of it may change an answer.
//! 2. **Protocol discipline** — every script frame gets exactly one
//!    response, none of them an error (the script is well-formed), and
//!    a `cancelled` outcome only ever appears on a request the script
//!    actually cancelled; `panicked`/`deadline-exceeded` never appear
//!    (the script injects neither).
//! 3. **Replay determinism** — the same script against a fresh daemon
//!    produces a byte-identical response stream. The daemon core is a
//!    deterministic state machine; this is the check that keeps it one.
//!
//! Like the engine fuzzer, the pipeline splits into an effectful
//! [`observe_service`] and a pure [`judge_service`], so mutation tests
//! can corrupt an observation and prove the judge catches it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dynsum_cfl::Outcome;
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::VarId;
use dynsum_service::json::{parse, Json};
use dynsum_service::{Daemon, ServedWorkload, ServiceConfig};

use crate::fuzz::query_vars;
use crate::generator::Workload;

/// One event of a generated client script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptEvent {
    /// Ingest one frame line from the given client slot.
    Frame(usize, String),
    /// Run the scheduler for the given number of turns.
    Step(usize),
}

/// A deterministic multi-client interaction script.
#[derive(Debug, Clone)]
pub struct ServiceScript {
    /// Engine negotiated by each client slot.
    pub engines: Vec<EngineKind>,
    /// The interleaved event stream.
    pub events: Vec<ScriptEvent>,
    /// `(slot, request id)` → variables queried, in slot order.
    pub requests: BTreeMap<(usize, u64), Vec<VarId>>,
    /// `(slot, request id)` pairs targeted by a cancel frame.
    pub cancelled: BTreeSet<(usize, u64)>,
    /// Total frames sent — each one owes exactly one response.
    pub frames: usize,
}

/// SplitMix64 step — the script generator's whole RNG.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the deterministic interaction script for one fuzz case.
/// Public so a reproducer can replay the exact interleaving.
pub fn generate_script(seed: u64, vars: &[VarId], num_methods: usize) -> ServiceScript {
    let mut rng = seed ^ 0x5E2F_1CE0_5E2F_1CE0;
    let clients = 2 + (mix(&mut rng) % 2) as usize;
    let mut engines = Vec::with_capacity(clients);
    let mut per_client: Vec<VecDeque<String>> = Vec::with_capacity(clients);
    let mut requests = BTreeMap::new();
    let mut cancelled = BTreeSet::new();

    for slot in 0..clients {
        // DYNSUM-heavy engine rotation: shared-cache multiplexing is
        // where the risk lives, but cross-engine sessions must coexist.
        let engine = match mix(&mut rng) % 4 {
            0 | 1 => EngineKind::DynSum,
            2 => EngineKind::NoRefine,
            _ => EngineKind::RefinePts,
        };
        engines.push(engine);
        let engine_name = match engine {
            EngineKind::DynSum => "dynsum",
            EngineKind::NoRefine => "norefine",
            EngineKind::RefinePts => "refinepts",
            EngineKind::StaSum => "stasum",
        };
        let mut frames = VecDeque::new();
        frames.push_back(format!(
            r#"{{"op":"hello","id":1,"name":"c{slot}","engine":"{engine_name}"}}"#
        ));
        let mut issued: Vec<u64> = Vec::new();
        let ops = 6 + (mix(&mut rng) % 4);
        for next_id in 2..2 + ops {
            let mut roll = mix(&mut rng) % 8;
            if roll == 6 && issued.is_empty() {
                roll = 0; // nothing to cancel yet
            }
            if roll == 7 && num_methods == 0 {
                roll = 0;
            }
            match roll {
                6 => {
                    let target = issued[(mix(&mut rng) as usize) % issued.len()];
                    frames.push_back(format!(
                        r#"{{"op":"cancel","id":{next_id},"target":{target}}}"#
                    ));
                    cancelled.insert((slot, target));
                }
                7 => {
                    let method = mix(&mut rng) % num_methods as u64;
                    frames.push_back(format!(
                        r#"{{"op":"invalidate_method","id":{next_id},"method":{method}}}"#
                    ));
                }
                4 | 5 => {
                    let n = 2 + (mix(&mut rng) % 4) as usize;
                    let batch: Vec<VarId> = (0..n)
                        .map(|_| vars[(mix(&mut rng) as usize) % vars.len()])
                        .collect();
                    let raw: Vec<String> = batch.iter().map(|v| v.as_raw().to_string()).collect();
                    frames.push_back(format!(
                        r#"{{"op":"batch","id":{next_id},"vars":[{}]}}"#,
                        raw.join(",")
                    ));
                    requests.insert((slot, next_id), batch);
                    issued.push(next_id);
                }
                _ => {
                    let var = vars[(mix(&mut rng) as usize) % vars.len()];
                    frames.push_back(format!(
                        r#"{{"op":"query","id":{next_id},"var":{}}}"#,
                        var.as_raw()
                    ));
                    requests.insert((slot, next_id), vec![var]);
                    issued.push(next_id);
                }
            }
        }
        per_client.push(frames);
    }

    // Interleave the client streams, with scheduler turns woven in so
    // cancels land against queued, running and completed requests alike.
    let mut events = Vec::new();
    let mut frames = 0usize;
    while per_client.iter().any(|q| !q.is_empty()) {
        let pick = (mix(&mut rng) as usize) % clients;
        let slot = (0..clients)
            .map(|i| (pick + i) % clients)
            .find(|&i| !per_client[i].is_empty())
            .expect("some client has frames left");
        let frame = per_client[slot].pop_front().expect("non-empty");
        events.push(ScriptEvent::Frame(slot, frame));
        frames += 1;
        if mix(&mut rng) % 4 == 0 {
            events.push(ScriptEvent::Step(1 + (mix(&mut rng) % 3) as usize));
        }
    }

    ServiceScript {
        engines,
        events,
        requests,
        cancelled,
        frames,
    }
}

/// One answered query extracted from the response stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceAnswer {
    /// Client slot the answer belongs to.
    pub slot: usize,
    /// Request id.
    pub request: u64,
    /// The queried variable.
    pub var: VarId,
    /// [`Outcome::tag`] decoded from the wire outcome string.
    pub outcome_tag: u8,
    /// Wire fingerprint, decoded from hex.
    pub fingerprint: u64,
}

/// Everything observed about one daemon script run, ready for
/// [`judge_service`].
#[derive(Debug, Clone)]
pub struct ServiceObservation {
    /// Frames the script sent.
    pub script_frames: usize,
    /// Response frames received (acks, answers and errors).
    pub responses: usize,
    /// Error codes received — a well-formed script expects none.
    pub unexpected_errors: Vec<String>,
    /// Every answered query.
    pub answers: Vec<ServiceAnswer>,
    /// `(slot, request id)` pairs the script cancelled.
    pub cancelled: BTreeSet<(usize, u64)>,
    /// Per-slot clean single-client reference: variable → fingerprint.
    pub reference: Vec<BTreeMap<VarId, u64>>,
    /// Did a second run of the same script produce a byte-identical
    /// response stream?
    pub replay_identical: bool,
}

/// Executes `script` against a fresh daemon over `w`, returning the
/// full response stream in arrival order.
fn run_script(w: &Workload, config: &EngineConfig, script: &ServiceScript) -> Vec<(u64, String)> {
    let mut daemon = Daemon::new(
        vec![ServedWorkload {
            name: &w.name,
            pag: &w.pag,
        }],
        ServiceConfig {
            engine_config: *config,
            ..ServiceConfig::default()
        },
    );
    let ids: Vec<u64> = (0..script.engines.len())
        .map(|_| daemon.connect())
        .collect();
    let mut stream = Vec::new();
    for event in &script.events {
        match event {
            ScriptEvent::Frame(slot, line) => {
                for frame in daemon.ingest(ids[*slot], line) {
                    stream.push((ids[*slot], frame));
                }
            }
            ScriptEvent::Step(turns) => {
                for _ in 0..*turns {
                    stream.extend(daemon.step());
                }
            }
        }
    }
    stream.extend(daemon.drain());
    stream
}

fn outcome_tag(name: &str) -> Option<u8> {
    Some(match name {
        "over-budget" => Outcome::OverBudget.tag(),
        "resolved" => Outcome::Resolved.tag(),
        "cancelled" => Outcome::Cancelled.tag(),
        "deadline-exceeded" => Outcome::DeadlineExceeded.tag(),
        "panicked" => Outcome::Panicked.tag(),
        _ => return None,
    })
}

fn answers_from(result: &Json, slot: usize, request: u64, vars: &[VarId]) -> Vec<ServiceAnswer> {
    let one = |var: VarId, r: &Json| -> ServiceAnswer {
        let outcome = r
            .get("outcome")
            .and_then(Json::as_str)
            .and_then(outcome_tag)
            .expect("wire outcome is one of the five tags");
        let fingerprint = r
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .expect("wire fingerprint is 16 hex digits");
        ServiceAnswer {
            slot,
            request,
            var,
            outcome_tag: outcome,
            fingerprint,
        }
    };
    match result.get("results").and_then(Json::as_arr) {
        Some(items) => items.iter().zip(vars).map(|(r, &v)| one(v, r)).collect(),
        None => vec![one(
            vars[0],
            result.get("result").expect("single query result"),
        )],
    }
}

/// Runs the `service` regime for one fuzz case: derives the script,
/// replays it twice, decodes the answers and computes the clean
/// single-client references.
pub fn observe_service(w: &Workload, config: &EngineConfig, seed: u64) -> ServiceObservation {
    let vars: Vec<VarId> = query_vars(w).into_iter().map(|(v, _)| v).collect();
    if vars.is_empty() {
        return ServiceObservation {
            script_frames: 0,
            responses: 0,
            unexpected_errors: Vec::new(),
            answers: Vec::new(),
            cancelled: BTreeSet::new(),
            reference: Vec::new(),
            replay_identical: true,
        };
    }
    let script = generate_script(seed, &vars, w.pag.num_methods());
    let stream = run_script(w, config, &script);
    let replay = run_script(w, config, &script);
    let replay_identical = stream == replay;

    let mut unexpected_errors = Vec::new();
    let mut answers = Vec::new();
    for (cid, frame) in &stream {
        let value = parse(frame).expect("daemon emits valid JSON");
        let slot = (*cid - 1) as usize;
        if value.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("missing-code");
            unexpected_errors.push(code.to_owned());
            continue;
        }
        if value.get("result").is_none() && value.get("results").is_none() {
            continue; // hello/cancel/invalidate acks carry no answers
        }
        let request = value
            .get("id")
            .and_then(Json::as_u64)
            .expect("responses echo the request id");
        let vars = script
            .requests
            .get(&(slot, request))
            .expect("answers only for issued requests");
        answers.extend(answers_from(&value, slot, request, vars));
    }

    // The clean single-client reference every answered query must match:
    // one fresh session per slot, same engine, same config.
    let reference: Vec<BTreeMap<VarId, u64>> = script
        .engines
        .iter()
        .enumerate()
        .map(|(slot, &engine)| {
            let mut wanted: Vec<VarId> = script
                .requests
                .iter()
                .filter(|((s, _), _)| *s == slot)
                .flat_map(|(_, vs)| vs.iter().copied())
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            let mut session = Session::with_config(&w.pag, engine, *config);
            let results = session.run_batch_vars(&wanted, 1);
            wanted
                .iter()
                .zip(&results)
                .map(|(&v, r)| (v, r.fingerprint()))
                .collect()
        })
        .collect();

    ServiceObservation {
        script_frames: script.frames,
        responses: stream.len(),
        unexpected_errors,
        answers,
        cancelled: script.cancelled,
        reference,
        replay_identical,
    }
}

/// A service-regime invariant violation. [`judge`](crate::fuzz::judge)
/// folds these into the fuzz run's divergence list under
/// [`DivergenceKind::Service`](crate::fuzz::DivergenceKind::Service).
#[derive(Debug, Clone)]
pub struct ServiceDivergence {
    /// The variable involved, when attributable to one.
    pub var: Option<VarId>,
    /// Human-readable specifics.
    pub detail: String,
}

/// Folds a [`ServiceObservation`] into divergences. Pure — mutation
/// tests corrupt the observation and assert detection.
pub fn judge_service(obs: &ServiceObservation) -> Vec<ServiceDivergence> {
    let mut out = Vec::new();
    if !obs.replay_identical {
        out.push(ServiceDivergence {
            var: None,
            detail: "replaying the identical script produced a different response stream"
                .to_owned(),
        });
    }
    if obs.responses != obs.script_frames {
        out.push(ServiceDivergence {
            var: None,
            detail: format!(
                "sent {} frames but received {} responses",
                obs.script_frames, obs.responses
            ),
        });
    }
    for code in &obs.unexpected_errors {
        out.push(ServiceDivergence {
            var: None,
            detail: format!("well-formed script frame answered with error `{code}`"),
        });
    }
    for a in &obs.answers {
        let tag = a.outcome_tag;
        if tag == Outcome::Resolved.tag() || tag == Outcome::OverBudget.tag() {
            let want = obs.reference[a.slot].get(&a.var).copied();
            if want != Some(a.fingerprint) {
                out.push(ServiceDivergence {
                    var: Some(a.var),
                    detail: format!(
                        "client {} request {} answered {:016x}, clean single-client \
                         reference is {:?}",
                        a.slot, a.request, a.fingerprint, want
                    ),
                });
            }
        } else if tag == Outcome::Cancelled.tag() {
            if !obs.cancelled.contains(&(a.slot, a.request)) {
                out.push(ServiceDivergence {
                    var: Some(a.var),
                    detail: format!(
                        "client {} request {} reported cancelled but the script never \
                         cancelled it",
                        a.slot, a.request
                    ),
                });
            }
        } else {
            out.push(ServiceDivergence {
                var: Some(a.var),
                detail: format!(
                    "client {} request {} reported outcome tag {tag} with no fault or \
                     deadline in the script",
                    a.slot, a.request
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorOptions};
    use crate::profiles::PROFILES;

    fn fixture() -> (Workload, EngineConfig) {
        let w = generate(
            &PROFILES[0],
            &GeneratorOptions {
                scale: 0.003,
                seed: 0x5EED,
                ..GeneratorOptions::default()
            },
        );
        let config = EngineConfig {
            budget: 20_000,
            ..EngineConfig::default()
        };
        (w, config)
    }

    fn clean_obs() -> ServiceObservation {
        let (w, config) = fixture();
        let obs = observe_service(&w, &config, 0xC0FFEE);
        assert!(
            judge_service(&obs).is_empty(),
            "service fixture must start clean: {:?}",
            judge_service(&obs)
        );
        obs
    }

    #[test]
    fn scripts_are_deterministic_and_multi_client() {
        let (w, _) = fixture();
        let vars: Vec<VarId> = query_vars(&w).into_iter().map(|(v, _)| v).collect();
        let a = generate_script(7, &vars, w.pag.num_methods());
        let b = generate_script(7, &vars, w.pag.num_methods());
        assert_eq!(a.events, b.events);
        assert_eq!(a.frames, b.frames);
        assert!(a.engines.len() >= 2, "at least two concurrent clients");
        assert!(a.requests.values().any(|vs| vs.len() > 1), "has a batch");
        let c = generate_script(8, &vars, w.pag.num_methods());
        assert_ne!(a.events, c.events, "seed changes the script");
    }

    #[test]
    fn observe_then_judge_is_clean_and_replay_identical() {
        let obs = clean_obs();
        assert!(obs.replay_identical);
        assert!(!obs.answers.is_empty());
        assert_eq!(obs.responses, obs.script_frames);
        assert!(obs.unexpected_errors.is_empty());
    }

    #[test]
    fn judge_flags_a_corrupted_answer_fingerprint() {
        let mut obs = clean_obs();
        let i = obs
            .answers
            .iter()
            .position(|a| a.outcome_tag != Outcome::Cancelled.tag())
            .expect("fixture answers at least one query");
        obs.answers[i].fingerprint ^= 1;
        let var = obs.answers[i].var;
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.var == Some(var)),
            "seeded fingerprint corruption not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_broken_replay() {
        let mut obs = clean_obs();
        obs.replay_identical = false;
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.detail.contains("replaying")),
            "seeded replay divergence not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_dropped_response() {
        let mut obs = clean_obs();
        obs.responses -= 1;
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.detail.contains("responses")),
            "seeded dropped response not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_an_unexpected_error_frame() {
        let mut obs = clean_obs();
        obs.unexpected_errors.push("bad-frame".to_owned());
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.detail.contains("bad-frame")),
            "seeded error frame not flagged: {ds:?}"
        );
    }

    #[test]
    fn judge_flags_a_phantom_cancellation_and_a_phantom_panic() {
        let mut obs = clean_obs();
        let i = obs
            .answers
            .iter()
            .position(|a| a.outcome_tag == Outcome::Resolved.tag())
            .expect("fixture resolves at least one query");
        obs.answers[i].outcome_tag = Outcome::Cancelled.tag();
        obs.cancelled.clear();
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.detail.contains("never")),
            "phantom cancellation not flagged: {ds:?}"
        );

        let mut obs = clean_obs();
        let i = obs
            .answers
            .iter()
            .position(|a| a.outcome_tag == Outcome::Resolved.tag())
            .expect("fixture resolves at least one query");
        obs.answers[i].outcome_tag = Outcome::Panicked.tag();
        let ds = judge_service(&obs);
        assert!(
            ds.iter().any(|d| d.detail.contains("outcome tag")),
            "phantom panic not flagged: {ds:?}"
        );
    }
}
