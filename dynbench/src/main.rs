//! dynbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dynbench/Cargo.toml -- \
//!     --workload <paper-batch|daemon|edit-restart|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Runs one workload against the analysis crates' public APIs, checks
//! every answer outside the timers, and prints a report followed, as the
//! last line, by one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. An untraced run (`--trace 0`) reports `BENCHMARK.json`'s
//! end-to-end metrics; a traced run records a span around every call into
//! a layer and reports its per-layer metrics, its spans and the tracing
//! overhead. The exit code is 0 only when every check passed. See
//! `README.md` for the workloads and metrics.

mod check;
mod daemon;
mod edit;
mod host;
mod paper;
mod prep;
mod stats;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use dynsum_service::json::{self, Json};

use crate::trace::Tracer;
use crate::work::{Plan, Run, P50, P90, P99};

/// The benchmark's contract: metric names and units.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Per build and scale: cached inputs, exact counts, recorded untraced
/// figures, and the last traced run's spans and layer table per workload.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Spans written to a traced run's span file: a 30 s daemon run records
/// 2.7 M (350 MB of JSON lines), so the file keeps the set-up and the
/// first passes.
const SPANS_WRITTEN: usize = 200_000;
/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["paper-batch", "daemon", "edit-restart"];

const USAGE: &str = "usage: dynbench --workload <paper-batch|daemon|edit-restart|all> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: prep::GRAPH_SEED,
        seconds: 10.0,
        trace: false,
        scale: 0.5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => out.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(out)
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
}

/// The declared end-to-end and per-layer metrics.
fn read_spec() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{SPEC}: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("{SPEC}: no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).map(str::to_owned);
                Ok(Declared {
                    name: field("name").ok_or(format!("{SPEC}: {key} entry without name"))?,
                    unit: field("unit").ok_or(format!("{SPEC}: {key} entry without unit"))?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// A measured metric: name, value, unit, and how many samples it rests on.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn percentile(v: &[f64], level: u32) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::nearest_rank(&stats::sorted(v.to_vec()), level)
    }
}

fn sample_note(v: &[f64], level: u32, what: &str) -> String {
    let beyond = stats::beyond(v.len(), level);
    let note = if stats::supports(v.len(), level) {
        ""
    } else {
        ", TOO FEW"
    };
    format!("{} {what}, {beyond} beyond{note}", v.len())
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let c = &run.counts;
    let answered = c.queries * run.passes;
    let rss_note = format!(
        "VmHWM at the end of the timed phase less the {} MiB of sample buffers",
        work::SAMPLE_BUFFERS_MB
    );
    vec![
        metric(
            "setup_s",
            stats::median(&run.setup_s),
            "s",
            format!("median of {} set-ups", run.setup_s.len()),
        ),
        metric(
            "qps",
            c.queries as f64 / stats::median(&run.pass_s),
            "1/s",
            format!(
                "{} queries per pass over the median of {} passes; {answered} queries in {:.3} s",
                c.queries,
                run.passes,
                run.pass_s.iter().sum::<f64>()
            ),
        ),
        metric(
            "latency_p50_ms",
            percentile(&run.latencies_ms, P50),
            "ms",
            sample_note(&run.latencies_ms, P50, "requests"),
        ),
        metric(
            "latency_p99_ms",
            percentile(&run.latencies_ms, P99),
            "ms",
            sample_note(&run.latencies_ms, P99, "requests"),
        ),
        metric(
            "restart_p50_ms",
            percentile(&run.restarts_ms, P50),
            "ms",
            sample_note(&run.restarts_ms, P50, "restarts"),
        ),
        metric(
            "restart_p90_ms",
            percentile(&run.restarts_ms, P90),
            "ms",
            sample_note(&run.restarts_ms, P90, "restarts"),
        ),
        metric(
            "unresolved_ratio",
            c.unresolved as f64 / c.queries.max(1) as f64,
            "ratio",
            format!("{} of {} answers per pass", c.unresolved, c.queries),
        ),
        metric("peak_rss_mb", run.peak_rss_mb, "MB", rss_note),
    ]
}

fn per_layer(run: &Run, tracer: &Tracer) -> Vec<Metric> {
    let spans = tracer.spans();
    let timed_spans = &run.timed_spans;
    let setup = trace::totals(spans, |i| !timed_spans.contains(&i), |s| s.name);
    let timed = trace::totals(spans, |i| timed_spans.contains(&i), |s| s.name);
    let passes = run.passes.max(1) as f64;
    let per_pass = |name: &str| {
        timed
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e9 / passes)
    };
    let n = |v: u64| v as f64;
    let c = &run.counts;
    let pass_note = || format!("per pass, {} passes", run.passes);
    let count = |name, value| metric(name, value, "count", pass_note());
    let secs = |name, span: &str| metric(name, per_pass(span), "s", pass_note());
    let parse_s = setup
        .get("pag.parse")
        .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
        / run.setup_s.len().max(1) as f64;
    vec![
        metric(
            "pag.parse_s",
            parse_s,
            "s",
            format!("per set-up, {} set-ups", run.setup_s.len()),
        ),
        metric("pag.text_mb", run.text_mb, "MB", "per set-up".to_owned()),
        metric(
            "pag.edges",
            n(run.edges),
            "count",
            "three graphs".to_owned(),
        ),
        secs("driver.query_s", "driver.query"),
        count("driver.steps", n(c.steps)),
        count("driver.ppta_computed", n(c.ppta_computed)),
        count("driver.ppta_reused", n(c.ppta_reused)),
        count("driver.edges_charged", n(c.edges_charged)),
        count("driver.over_budget", n(c.over_budget)),
        count("summary.lookups", n(c.lookups)),
        metric("summary.hit_rate", c.hit_rate(), "ratio", pass_note()),
        count("summary.evictions", n(c.evictions)),
        count("summary.resident", n(c.resident)),
        secs("session.run_batch_s", "session.run_batch"),
        count("session.batches", n(c.batches)),
        secs("session.absorb_s", "session.absorb"),
        count("session.absorbed_new", n(run.absorbed_new) / passes),
        secs("session.invalidate_s", "session.invalidate"),
        count("session.invalidated", n(c.invalidated)),
        count("session.stale_rejections", n(c.stale_rejections)),
        secs("snapshot.save_s", "snapshot.save"),
        secs("snapshot.load_s", "snapshot.load"),
        metric("snapshot.bytes", n(c.snapshot_bytes), "bytes", pass_note()),
        count("snapshot.restored", n(c.restored)),
        count("snapshot.cold_loads", n(c.cold_loads)),
        secs("proto.parse_s", "proto.parse"),
        secs("proto.encode_s", "proto.encode"),
        secs("daemon.ingest_s", "daemon.ingest"),
        secs("daemon.step_s", "daemon.step"),
        metric(
            "daemon.queue_wait_ms_p50",
            percentile(&run.queue_wait_ms, P50),
            "ms",
            sample_note(&run.queue_wait_ms, P50, "requests"),
        ),
        count("daemon.errors", n(c.daemon_errors)),
        count("daemon.edges_spent", n(c.edges_spent)),
    ]
}

/// The span table of a traced run: per span name, then per layer, the
/// set-up's count and self time and the timed phase's count and self time
/// per pass.
fn layer_table(tracer: &Tracer, timed_spans: &Range<usize>, passes: u64) -> String {
    let spans = tracer.spans();
    let passes = passes.max(1) as f64;
    let mut out = String::new();
    for (title, key) in [
        (
            "span",
            (|s: &trace::Span| s.name) as fn(&trace::Span) -> &'static str,
        ),
        ("layer", trace::Span::layer),
    ] {
        let setup = trace::totals(spans, |i| !timed_spans.contains(&i), key);
        let timed = trace::totals(spans, |i| timed_spans.contains(&i), key);
        let mut names: Vec<&str> = setup.keys().chain(timed.keys()).copied().collect();
        names.sort_unstable();
        names.dedup();
        let _ = writeln!(
            out,
            "{title:<22} {:>10} {:>14} {:>12} {:>14}",
            "setup n", "setup self s", "timed n", "self s / pass"
        );
        for name in names {
            let (sn, sns) = setup.get(name).copied().unwrap_or_default();
            let (tn, tns) = timed.get(name).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "{name:<22} {sn:>10} {:>14.6} {tn:>12} {:>14.6}",
                sns as f64 / 1e9,
                tns as f64 / 1e9 / passes
            );
        }
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Exactly the declared metrics, each with its declared unit.
fn conform(measured: Vec<Metric>, declared: &[Declared]) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<&str, Metric> = measured.into_iter().map(|m| (m.name, m)).collect();
    let out = declared
        .iter()
        .map(|d| {
            let m = by_name.remove(d.name.as_str()).ok_or(format!(
                "BENCHMARK.json declares `{}`, which is not measured",
                d.name
            ))?;
            if m.unit != d.unit {
                return Err(format!(
                    "`{}` is measured in {} but declared in {}",
                    d.name, m.unit, d.unit
                ));
            }
            Ok(m)
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(name) = by_name.keys().next() {
        return Err(format!(
            "`{name}` is measured but not declared in BENCHMARK.json"
        ));
    }
    Ok(out)
}

/// Compares this run's exact counts with the first run of this build,
/// workload and seed — traced or not — recording them if it is the first.
fn check_counts(cache: &Path, workload: &str, seed: u64, run: &mut Run) -> Result<(), String> {
    let path = cache.join(format!("counts-{workload}-{seed}.json"));
    let now = run.counts.to_json().render();
    run.attempted += 1;
    match fs::read_to_string(&path) {
        Ok(before) if before != now => run.failures.add(1, || {
            format!("exact counts {now} differ from an earlier run's {before}")
        }),
        Ok(_) => {}
        Err(_) => fs::write(&path, &now).map_err(|e| format!("{}: {e}", path.display()))?,
    }
    println!("exact counts (per pass): {now}");
    Ok(())
}

/// Prints how far a traced run's end-to-end figures moved from the
/// recorded untraced run of the same build, workload and seed.
fn report_overhead(e2e_path: &Path, traced: &[Metric]) {
    let Some(untraced) = fs::read_to_string(e2e_path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
    else {
        println!(
            "tracing overhead: no untraced run of this build, workload and seed recorded \
             (run with --trace 0 first)"
        );
        return;
    };
    println!("tracing overhead (traced vs untraced, same build, workload and seed):");
    for m in traced {
        if let Some(base) = untraced.get(m.name).and_then(Json::as_f64) {
            let pct = if base == 0.0 {
                0.0
            } else {
                (m.value - base) / base * 100.0
            };
            println!(
                "  {:<18} untraced {:>14.6} traced {:>14.6} {} ({pct:+.1}%)",
                m.name, base, m.value, m.unit
            );
        }
    }
}

/// Runs one workload; returns its correctness, attempt and failure
/// counts, and the metrics to print.
fn run_workload(
    name: &str,
    args: &Args,
    cache: &Path,
    graphs: &[prep::GraphInput],
    declared: &(Vec<Declared>, Vec<Declared>),
) -> Result<(u64, u64, Vec<Metric>), String> {
    let plan = Plan {
        graphs,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut tracer = Tracer::new(args.trace);
    let (mut run, pags) = match name {
        "paper-batch" => paper::run(&plan, &mut tracer)?,
        "daemon" => daemon::run(&plan, &mut tracer)?,
        _ => edit::run(&plan, &mut tracer)?,
    };
    let oracle = prep::load_oracle(cache)?;
    let sites: Vec<_> = graphs.iter().map(prep::GraphInput::all_sites).collect();
    check::answers(&pags, &sites, &oracle, &mut run);
    check_counts(cache, name, args.seed, &mut run)?;

    println!(
        "workload {name}: seed {}, scale {}, trace {}",
        args.seed,
        args.scale,
        u8::from(args.trace)
    );
    let (runq, steal) = run.host_ms;
    println!(
        "host over the timed phase: run-queue wait {runq:.1} ms, steal {steal:.1} ms (diagnostic, not gated)"
    );
    let e2e = end_to_end(&run);
    for m in &e2e {
        println!(
            "  {:<18} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<18} {:>14.6} {:<6} ({} of {} operations failed)",
        "error_ratio",
        run.failures.count as f64 / run.attempted.max(1) as f64,
        "ratio",
        run.failures.count,
        run.attempted
    );
    for why in &run.failures.reasons {
        println!("  FAILED: {why}");
    }
    let e2e_path = cache.join(format!("e2e-{name}-{}.json", args.seed));
    let metrics = if args.trace {
        report_overhead(&e2e_path, &e2e);
        let layers = per_layer(&run, &tracer);
        let table = layer_table(&tracer, &run.timed_spans, run.passes);
        let stem = cache.join(format!("trace-{name}"));
        tracer
            .write_jsonl(&stem.with_extension("spans.jsonl"), SPANS_WRITTEN)
            .map_err(|e| format!("writing spans: {e}"))?;
        fs::write(stem.with_extension("layers.txt"), &table)
            .map_err(|e| format!("writing layer table: {e}"))?;
        println!(
            "spans: {} recorded, the first {} written to {}; the tables below cover all",
            tracer.spans().len(),
            tracer.spans().len().min(SPANS_WRITTEN),
            stem.with_extension("spans.jsonl").display()
        );
        print!("{table}");
        for m in &layers {
            println!(
                "  {:<26} {:>16.6} {:<6} ({})",
                m.name, m.value, m.unit, m.samples
            );
        }
        conform(layers, &declared.1)?
    } else {
        let record = Json::Obj(
            e2e.iter()
                .map(|m| (m.name.to_owned(), Json::Num(m.value)))
                .collect(),
        );
        fs::write(&e2e_path, record.render())
            .map_err(|e| format!("{}: {e}", e2e_path.display()))?;
        conform(e2e, &declared.0)?
    };
    Ok((run.attempted, run.failures.count, metrics))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::num(attempted)),
        ("failed".to_owned(), Json::num(failed)),
        ("metrics".to_owned(), metrics),
    ])
    .render()
}

fn run_one(args: &Args) -> Result<bool, String> {
    let declared = read_spec()?;
    fs::create_dir_all(OUT).map_err(|e| format!("{OUT}: {e}"))?;
    let (cache, graphs) = prep::ensure(&PathBuf::from(OUT), args.scale)?;
    let (attempted, failed, metrics) =
        run_workload(&args.workload, args, &cache, &graphs, &declared)?;
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, attempted, failed, metrics_json(&metrics))
    );
    Ok(correct)
}

/// `--workload all`: each workload in a child process of its own, so each
/// peak RSS is that workload's alone. The children's reports pass through;
/// their result lines merge into one, each metric prefixed with its
/// workload.
fn run_each(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", &args.scale.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("{report}");
        let result =
            json::parse(last).map_err(|_| format!("{name} printed no result ({})", out.status))?;
        let count = |k| result.get(k).and_then(Json::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
        for (k, v) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.push((format!("{name}.{k}"), v.clone()));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, Json::Obj(metrics))
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("prepare") {
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let (Some(scale), Some(dir)) = (
            value("--scale").and_then(|s| s.parse().ok()),
            value("--dir"),
        ) else {
            eprintln!("usage: dynbench prepare --scale <f> --dir <path>");
            return ExitCode::from(2);
        };
        return match prep::prepare(Path::new(&dir), scale) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dynbench prepare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_each(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dynbench: {e}");
            ExitCode::from(2)
        }
    }
}
