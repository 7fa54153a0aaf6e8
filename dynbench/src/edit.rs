//! `edit-restart`: capped sessions under edits and restarts.
//!
//! One DYNSUM session per graph, capped at half the summaries an uncapped
//! session holds after every stream ran once. A round takes one graph (in
//! turn), calls `invalidate_method` on a seeded draw among the methods
//! holding client sites, and re-queries that method's sites plus a
//! rotating tenth of the graph's streams (the `k`-th of each stream's ten
//! paper batches). Every tenth round of a graph first saves its session to
//! memory, drops it and reloads it. Here the summary
//! cache is written — fenced, evicted, re-inserted — rather than read,
//! and the snapshot codec runs.
//!
//! Every pass starts from the same state, reloaded from the warm images
//! saved after set-up, so every pass does identical work.

use std::collections::BTreeMap;
use std::time::Instant;

use dynsum_core::{EngineConfig, EngineKind, Session, SessionQuery};
use dynsum_pag::{MethodId, Pag, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::prep::GraphInput;
use crate::prep::BATCHES;
use crate::trace::Tracer;
use crate::work::{self, Counts, Plan, Run, Traced};

/// Rounds per graph in a pass: three turns through the graph's tenths.
/// With one turn (three restarts a pass), the few rounds that the seed
/// drew around the median moved `restart_p50_ms` 14% between seeds.
const ROUNDS_PER_GRAPH: usize = 3 * BATCHES;

/// A graph restarts every this many of its rounds.
const RESTART_EVERY: usize = 10;

struct Round {
    graph: usize,
    method: MethodId,
    vars: Vec<VarId>,
    queries: Vec<SessionQuery<'static>>,
    restart: bool,
}

fn config(g: &GraphInput) -> EngineConfig {
    EngineConfig {
        max_cached_summaries: Some((g.working_set / 2).max(1)),
        ..EngineConfig::default()
    }
}

/// The round plan of one pass. The tenths are fixed; the seed draws the
/// invalidated methods.
fn rounds(graphs: &[GraphInput], pags: &[Pag], seed: u64) -> Vec<Round> {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Per graph: its client sites by method.
    let by_method: Vec<BTreeMap<MethodId, Vec<VarId>>> = graphs
        .iter()
        .zip(pags)
        .map(|(g, pag)| {
            let mut by_method: BTreeMap<MethodId, Vec<VarId>> = BTreeMap::new();
            for v in g.all_sites() {
                if let Some(m) = pag.method_of(pag.var_node(v)) {
                    by_method.entry(m).or_default().push(v);
                }
            }
            by_method
        })
        .collect();
    (0..ROUNDS_PER_GRAPH * graphs.len())
        .map(|r| {
            let graph = r % graphs.len();
            let k = r / graphs.len();
            let by_method = &by_method[graph];
            let (&method, method_sites) = by_method
                .iter()
                .nth(rng.gen_range(0..by_method.len()))
                .expect("every graph has client sites");
            let mut vars = method_sites.clone();
            let tenth = k % BATCHES;
            vars.extend(
                graphs[graph]
                    .streams
                    .iter()
                    .filter_map(|s| s.get(tenth))
                    .flatten(),
            );
            Round {
                graph,
                method,
                queries: work::session_queries(&vars),
                vars,
                restart: (k + 1) % RESTART_EVERY == 0,
            }
        })
        .collect()
}

/// Set-up after parsing: the capped sessions, each warmed by one pass
/// over its streams.
fn warm_sessions<'p>(
    graphs: &[GraphInput],
    pags: &'p [Pag],
    configs: &[EngineConfig],
    tracer: &mut Tracer,
) -> Vec<Session<'p>> {
    let mut sessions: Vec<Session<'p>> = pags
        .iter()
        .zip(configs)
        .map(|(pag, &c)| {
            tracer.span("session.new", 0, None, || {
                Session::with_config(pag, EngineKind::DynSum, c)
            })
        })
        .collect();
    for (session, g) in sessions.iter_mut().zip(graphs) {
        for b in g.batches() {
            let q = work::session_queries(b);
            work::batch(session, &q, tracer, (0, None), Traced::Whole, &mut 0);
        }
    }
    sessions
}

/// Runs the workload.
pub fn run(plan: &Plan<'_>, tracer: &mut Tracer) -> Result<(Run, Vec<Pag>), String> {
    let mut run = Run::new();
    let configs: Vec<EngineConfig> = plan.graphs.iter().map(config).collect();
    let t = Instant::now();
    let pags = work::parse_all(plan.graphs, tracer, &mut run)?;
    let sessions = warm_sessions(plan.graphs, &pags, &configs, tracer);
    run.setup_s.push(t.elapsed().as_secs_f64());
    let images: Vec<Vec<u8>> = sessions
        .iter()
        .map(|s| {
            let mut image = Vec::new();
            tracer
                .span("snapshot.save", 0, None, || s.save_snapshot(&mut image))
                .map(|()| image)
                .unwrap_or_default()
        })
        .collect();
    drop(sessions);
    work::check_fingerprints(plan.graphs, &pags, &mut run);
    let rounds = rounds(plan.graphs, &pags, plan.seed);

    let host_before = crate::host::sample();
    let started = Instant::now();
    run.timed_spans.start = tracer.spans().len();
    let mut request = 0u64;
    while !run.measured_enough(started, plan.seconds) {
        let mut counts = Counts::default();
        let mut sessions: Vec<Option<Session<'_>>> = Vec::new();
        for ((pag, image), &c) in pags.iter().zip(&images).zip(&configs) {
            let (s, load) = tracer.span("snapshot.reset_load", 0, None, || {
                Session::load_snapshot(&image[..], pag, EngineKind::DynSum, c)
            });
            run.attempted += 1;
            run.failures.add(u64::from(!load.is_warm()), || {
                format!("warm image loaded cold: {load:?}")
            });
            sessions.push(Some(s));
        }
        let mut base: Vec<_> = sessions
            .iter()
            .flatten()
            .map(|s| (s.cache_stats(), s.stale_rejections()))
            .collect();
        let mut pass_results = Vec::with_capacity(rounds.len());
        let pass_started = Instant::now();
        for round in &rounds {
            let g = round.graph;
            request += 1;
            let round_started = Instant::now();
            let span = tracer.open("client.round", request, None);
            let session = sessions[g]
                .as_mut()
                .expect("session present between rounds");
            counts.invalidated += tracer.span("session.invalidate", request, span, || {
                session.invalidate_method(round.method)
            }) as u64;
            let mut restart = None;
            if round.restart {
                let restart_started = Instant::now();
                let rspan = tracer.open("client.restart", request, span);
                let mut image = Vec::new();
                let saved = tracer.span("snapshot.save", request, rspan, || {
                    session.save_snapshot(&mut image)
                });
                run.failures.add(u64::from(saved.is_err()), || {
                    format!("save_snapshot: {saved:?}")
                });
                counts.snapshot_bytes += image.len() as u64;
                counts.add_cache(session.cache_stats(), base[g].0);
                counts.stale_rejections += session.stale_rejections() - base[g].1;
                let old = sessions[g].take();
                tracer.span("session.drop", request, rspan, || drop(old));
                let (s, load) = tracer.span("snapshot.load", request, rspan, || {
                    Session::load_snapshot(&image[..], &pags[g], EngineKind::DynSum, configs[g])
                });
                run.attempted += 1;
                counts.cold_loads += u64::from(!load.is_warm());
                counts.restored += load.summaries() as u64;
                run.failures.add(u64::from(!load.is_warm()), || {
                    format!("snapshot reload came back cold: {load:?}")
                });
                base[g] = (s.cache_stats(), s.stale_rejections());
                sessions[g] = Some(s);
                restart = Some((restart_started, rspan));
            }
            let parent = restart.map_or(span, |(_, rspan)| rspan);
            let session = sessions[g]
                .as_mut()
                .expect("session present between rounds");
            let results = work::batch(
                session,
                &round.queries,
                tracer,
                (request, parent),
                Traced::Whole,
                &mut run.absorbed_new,
            );
            if let Some((t, rspan)) = restart {
                tracer.close(rspan);
                run.restarts_ms.push(work::ms_since(t));
            }
            tracer.close(span);
            run.latencies_ms.push(work::ms_since(round_started));
            pass_results.push(results);
        }
        run.pass_s.push(pass_started.elapsed().as_secs_f64());
        for (s, (cache, stale)) in sessions.iter().flatten().zip(&base) {
            counts.add_cache(s.cache_stats(), *cache);
            counts.stale_rejections += s.stale_rejections() - stale;
            counts.resident += s.summary_count() as u64;
        }
        counts.batches += rounds.len() as u64;
        let mut answers = Vec::new();
        for (round, results) in rounds.iter().zip(&pass_results) {
            counts.add_results(results);
            answers.extend(work::fingerprints(round.graph, &round.vars, results));
        }
        run.attempted += counts.queries;
        run.record_pass(counts, answers);
    }
    run.finish_timed(host_before, tracer)?;
    run.repeat_setups(tracer, |tracer, run| {
        let t = Instant::now();
        let pags = work::parse_all(plan.graphs, tracer, run)?;
        let _sessions = warm_sessions(plan.graphs, &pags, &configs, tracer);
        Ok(t.elapsed().as_secs_f64())
    })?;
    Ok((run, pags))
}
