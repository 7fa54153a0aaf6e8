//! Writes `BENCH_report.json`: the per-engine performance snapshot
//! (wall time, deterministic edge work, cache hit rates, DYNSUM batch
//! throughput) that records the repo's perf trajectory from PR to PR.
//!
//! ```text
//! perf_report [--profile small|medium] [--out PATH] [--scale F]
//!             [--seed N] [--budget N] [--bench a,b] [--threads N]
//! ```
//!
//! `--profile` picks a named workload size (default `medium`); the
//! explicit generator flags override its choices and mark the report
//! `custom`. `--threads N` caps the `Session::run_batch` scaling series
//! at N worker threads (default 4, i.e. points at 1/2/4; `--threads 1`
//! records the single-thread point only).

use dynsum_bench::{
    perf_report_with_threads, render_perf_json, PerfProfile, DEFAULT_THREAD_COUNTS,
};

fn main() {
    let mut out_path = "BENCH_report.json".to_owned();
    let mut profile = PerfProfile::Medium;
    // Explicit generator overrides, applied on top of the profile only
    // when the flag actually appeared (an override equal to a default
    // still counts).
    let mut scale: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut budget: Option<u64> = None;
    let mut benchmarks: Option<Vec<String>> = None;
    let mut max_threads: usize = *DEFAULT_THREAD_COUNTS.last().unwrap();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--profile" => {
                let v = value("--profile");
                profile = PerfProfile::parse(&v)
                    .unwrap_or_else(|| usage(&format!("unknown profile `{v}`")));
            }
            "--out" => out_path = value("--out"),
            "--scale" => {
                scale = Some(
                    value("--scale")
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --scale: {e}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --seed: {e}"))),
                )
            }
            "--budget" => {
                budget = Some(
                    value("--budget")
                        .parse()
                        .unwrap_or_else(|e| usage(&format!("bad --budget: {e}"))),
                )
            }
            "--threads" => {
                max_threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("bad --threads: {e}")));
                if max_threads == 0 {
                    usage("--threads must be at least 1");
                }
            }
            "--bench" => {
                benchmarks = Some(
                    value("--bench")
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let custom = scale.is_some() || seed.is_some() || budget.is_some() || benchmarks.is_some();
    let mut opts = profile.options();
    if let Some(s) = scale {
        opts.scale = s;
    }
    if let Some(s) = seed {
        opts.seed = s;
    }
    if let Some(b) = budget {
        opts.budget = b;
    }
    if let Some(b) = benchmarks {
        opts.benchmarks = b;
    }

    // Doubling thread counts capped by --threads, always including the
    // cap itself: --threads 4 -> [1, 2, 4]; --threads 6 -> [1, 2, 4, 6].
    let mut thread_counts: Vec<usize> = DEFAULT_THREAD_COUNTS
        .iter()
        .copied()
        .chain(std::iter::successors(Some(8usize), |t| t.checked_mul(2)))
        .take_while(|&t| t <= max_threads)
        .collect();
    if thread_counts.last() != Some(&max_threads) {
        thread_counts.push(max_threads);
    }

    let name = if custom { "custom" } else { profile.name() };
    eprintln!(
        "perf_report: profile {name}, scale {}, benchmarks {:?}, threads {thread_counts:?}",
        opts.scale, opts.benchmarks
    );
    let report = perf_report_with_threads(name, &opts, &thread_counts);
    let json = render_perf_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    for e in &report.engines {
        eprintln!(
            "  {:<10} {:>10.1} ms  {:>12} edges  hit rate {:>5.1}%  {:>8.1} q/s",
            e.engine,
            e.wall_ms,
            e.edges_traversed,
            e.cache_hit_rate() * 100.0,
            e.queries_per_sec()
        );
    }
    eprintln!(
        "  DYNSUM batched NullDeref throughput: {:.1} queries/sec",
        report.dynsum_batch_throughput_qps
    );
    for p in &report.session_scaling {
        eprintln!(
            "  Session::run_batch @ {} thread(s): {:>8.1} q/s  ({:.2}x vs 1 thread, results {})",
            p.threads,
            p.qps,
            p.speedup_vs_1,
            if p.results_identical {
                "identical to sequential"
            } else {
                "DIVERGED"
            }
        );
    }
    for p in &report.cache_pressure {
        eprintln!(
            "  cache_pressure cap {:>9}: {:>8.1} q/s  hit rate {:>5.1}%  {:>6} evictions  \
             {:>6} resident  results {}",
            p.cap.map_or("uncapped".to_owned(), |c| c.to_string()),
            p.qps,
            p.hit_rate * 100.0,
            p.evictions,
            p.final_summaries,
            if p.results_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    for p in &report.warm_start {
        eprintln!(
            "  warm_start {:<10}: cold {:>7.2} ms -> warm {:>7.2} ms ({:.1}x, load {:.2} ms, \
             {} summaries / {} bytes) results {}",
            p.benchmark,
            p.cold_first_batch_ms,
            p.warm_first_batch_ms,
            p.warm_speedup,
            p.load_ms,
            p.restored_summaries,
            p.snapshot_bytes,
            if p.results_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    for p in &report.service {
        eprintln!(
            "  service @ {} client(s): {:>8.1} q/s  p50 {:>6.2} ms  p99 {:>6.2} ms  results {}",
            p.clients,
            p.qps,
            p.p50_ms,
            p.p99_ms,
            if p.results_identical {
                "identical"
            } else {
                "DIVERGED"
            }
        );
    }
    eprintln!("wrote {out_path}");
    // The identity checks are a gate, not a footnote: CI runs this
    // binary, so divergence from the sequential path — in the
    // thread-scaling series or at any swept cache cap — must fail the
    // build.
    if report.session_scaling.iter().any(|p| !p.results_identical) {
        eprintln!("ERROR: Session::run_batch results diverged from the sequential path");
        std::process::exit(1);
    }
    if report.cache_pressure.iter().any(|p| !p.results_identical) {
        eprintln!("ERROR: a cache_pressure cap point diverged from the sequential path");
        std::process::exit(1);
    }
    if report.warm_start.iter().any(|p| !p.results_identical) {
        eprintln!("ERROR: a snapshot-warmed first batch diverged from the sequential path");
        std::process::exit(1);
    }
    if report.service.iter().any(|p| !p.results_identical) {
        eprintln!("ERROR: a service series point diverged from the clean single-client session");
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    eprintln!(
        "{err}\nusage: perf_report [--profile small|medium] [--out PATH] \
         [--scale F] [--seed N] [--budget N] [--bench a,b] [--threads N]"
    );
    std::process::exit(2);
}
