//! Serve a NullDeref query stream from a shared `Session` at 1, 2 and 4
//! worker threads, verifying that every thread count produces the same
//! verdicts (and the same summary cache) before comparing throughput.
//! The repository benchmark (`make bench`) runs one thread; this is a
//! single-shot look at more threads, not a measurement.
//!
//! Run with: `cargo run --release --example parallel_batch`

use std::time::Instant;

use dynsum::{run_batches, ClientKind, EngineKind, Session};
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};

fn main() {
    let profile = BenchmarkProfile::find("soot-c").expect("profile exists");
    let workload = generate(
        profile,
        &GeneratorOptions {
            scale: 0.2,
            seed: 0xD45,
            ..GeneratorOptions::default()
        },
    );
    println!(
        "workload {}: {} NullDeref query sites",
        workload.name,
        workload.info.derefs.len()
    );

    let mut verdicts: Option<(usize, usize, usize)> = None;
    let mut baseline_qps = 0.0;
    for threads in [1, 2, 4] {
        // A fresh session per thread count: same cold start, so the
        // wall-clock ratio is the parallel speedup.
        let mut session = Session::new(&workload.pag, EngineKind::DynSum);
        let started = Instant::now();
        let batches = run_batches(
            ClientKind::NullDeref,
            &workload.info,
            &mut session,
            10,
            threads,
        );
        let secs = started.elapsed().as_secs_f64();

        let proven: usize = batches.iter().map(|b| b.report.proven).sum();
        let refuted: usize = batches.iter().map(|b| b.report.refuted).sum();
        let unresolved: usize = batches.iter().map(|b| b.report.unresolved).sum();
        let queries: usize = batches.iter().map(|b| b.report.queries).sum();
        let qps = queries as f64 / secs;
        if threads == 1 {
            baseline_qps = qps;
        }
        println!(
            "{threads} thread(s): {queries} queries in {:>6.1} ms — {:>8.0} q/s ({:.2}x), \
             {} summaries, {proven} proven / {refuted} refuted / {unresolved} unresolved",
            secs * 1e3,
            qps,
            qps / baseline_qps,
            session.summary_count(),
        );

        // Deterministic accounting: every thread count must agree.
        match verdicts {
            None => verdicts = Some((proven, refuted, unresolved)),
            Some(expected) => assert_eq!(
                (proven, refuted, unresolved),
                expected,
                "parallel batches must match the sequential verdicts"
            ),
        }
    }
}
