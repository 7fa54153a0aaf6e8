//! `paper-batch`: the paper's §5.3 experiment.
//!
//! For each graph one fresh DYNSUM session answers the SafeCast, NullDeref
//! and FactoryM streams in 10 batches each through `run_batch(…, 1)`; a
//! pass does this for all three graphs. A request is one batch. A restart
//! is a cold start: creating the session up to its first answered batch.
//! The batches are the paper's; the seed only orders the graphs within a
//! pass. Rotating the streams by the seed changed the first batch, and
//! with it `restart_p50_ms`, by 46% between seeds.

use std::time::Instant;

use dynsum_core::{EngineConfig, EngineKind, Session, SessionQuery};
use dynsum_pag::Pag;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::prep::GraphInput;
use crate::trace::Tracer;
use crate::work::{self, Counts, Plan, Run, Traced};

/// One set-up: parses every graph and creates (and drops) its session.
/// Returns the graphs and the time taken.
fn setup(
    graphs: &[GraphInput],
    config: EngineConfig,
    tracer: &mut Tracer,
    run: &mut Run,
) -> Result<(Vec<Pag>, f64), String> {
    let t = Instant::now();
    let pags = work::parse_all(graphs, tracer, run)?;
    for pag in &pags {
        tracer.span("session.new", 0, None, || {
            Session::with_config(pag, EngineKind::DynSum, config)
        });
    }
    Ok((pags, t.elapsed().as_secs_f64()))
}

/// Runs the workload.
pub fn run(plan: &Plan<'_>, tracer: &mut Tracer) -> Result<(Run, Vec<Pag>), String> {
    let mut run = Run::new();
    let config = EngineConfig::default();
    // Per graph: its 30 batches (3 streams × 10), in the paper's order.
    let batches: Vec<Vec<Vec<SessionQuery<'static>>>> = plan
        .graphs
        .iter()
        .map(|g| g.batches().map(work::session_queries).collect())
        .collect();
    let mut order: Vec<usize> = (0..plan.graphs.len()).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(plan.seed));

    let (pags, secs) = setup(plan.graphs, config, tracer, &mut run)?;
    run.setup_s.push(secs);
    work::check_fingerprints(plan.graphs, &pags, &mut run);

    let host_before = crate::host::sample();
    let started = Instant::now();
    run.timed_spans.start = tracer.spans().len();
    let mut request = 0u64;
    while !run.measured_enough(started, plan.seconds) {
        let mut counts = Counts::default();
        let mut pass_results = Vec::new();
        let pass_started = Instant::now();
        for &gi in &order {
            let pag = &pags[gi];
            let restart_started = Instant::now();
            let restart = tracer.open("client.restart", request + 1, None);
            let mut session = tracer.span("session.new", request + 1, restart, || {
                Session::with_config(pag, EngineKind::DynSum, config)
            });
            for (bi, b) in batches[gi].iter().enumerate() {
                request += 1;
                let parent = if bi == 0 { restart } else { None };
                let sent = Instant::now();
                let results = work::batch(
                    &mut session,
                    b,
                    tracer,
                    (request, parent),
                    Traced::Split,
                    &mut run.absorbed_new,
                );
                run.latencies_ms.push(work::ms_since(sent));
                if bi == 0 {
                    tracer.close(restart);
                    run.restarts_ms.push(work::ms_since(restart_started));
                }
                pass_results.push((gi, bi, results));
            }
            counts.batches += batches[gi].len() as u64;
            counts.add_cache(session.cache_stats(), Default::default());
            counts.resident += session.summary_count() as u64;
            tracer.span("session.drop", request, None, || drop(session));
        }
        run.pass_s.push(pass_started.elapsed().as_secs_f64());
        let mut answers = Vec::new();
        for (gi, bi, results) in &pass_results {
            let vars: Vec<_> = batches[*gi][*bi].iter().map(|q| q.var).collect();
            counts.add_results(results);
            answers.extend(work::fingerprints(*gi, &vars, results));
        }
        run.attempted += counts.queries;
        run.record_pass(counts, answers);
    }
    run.finish_timed(host_before, tracer)?;
    run.repeat_setups(tracer, |tracer, run| {
        setup(plan.graphs, config, tracer, run).map(|(_, secs)| secs)
    })?;
    Ok((run, pags))
}
