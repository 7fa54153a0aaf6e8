//! `bench_service` — throughput and latency of the analysis daemon
//! under real concurrent clients.
//!
//! ```text
//! bench_service [--clients N] [--requests N] [--scale F] [--seed N]
//!               [--budget N] [--bench a,b] [--out PATH]
//! ```
//!
//! Unlike the in-process `service` series of `perf_report` (which
//! measures the deterministic daemon core alone), this harness goes
//! through the wire: one `serve_pair` event loop multiplexes N
//! socketpair connections, and N OS threads play closed-loop clients —
//! each sends a single-query frame, blocks on the response, verifies
//! the fingerprint against a clean single-client session, and repeats.
//! Recorded per run: sustained queries/sec and p50/p99 round-trip
//! latency, written to `BENCH_report_service.json` (CI uploads it as an
//! artifact). Exits non-zero if any wire answer diverges from the
//! clean-session reference — the daemon must be a byte-transparent
//! multiplexer.

fn main() {
    example::run();
}

#[cfg(not(unix))]
mod example {
    pub fn run() {
        eprintln!("bench_service: requires a Unix platform (socketpair transport)");
    }
}

#[cfg(unix)]
mod example {
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    use dynsum_bench::ExperimentOptions;
    use dynsum_clients::{queries_for, ClientKind};
    use dynsum_core::{EngineKind, Session};
    use dynsum_pag::VarId;
    use dynsum_service::json::{parse, Json};
    use dynsum_service::{serve_pair, Daemon, ServedWorkload, ServiceConfig};

    const USAGE: &str = "\
usage:
  bench_service [--clients N] [--requests N] [--scale F] [--seed N]
                [--budget N] [--bench a,b] [--out PATH]";

    struct Flags {
        clients: usize,
        requests: usize,
        out: String,
        opts: ExperimentOptions,
    }

    fn parse_flags(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            clients: 4,
            requests: 50,
            out: "BENCH_report_service.json".to_owned(),
            opts: ExperimentOptions {
                scale: 0.01,
                benchmarks: vec!["soot-c".to_owned()],
                ..ExperimentOptions::default()
            },
        };
        let mut it = args.iter();
        let value = |name: &str, it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--clients" => {
                    flags.clients = value("--clients", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --clients: {e}"))?;
                    if flags.clients == 0 {
                        return Err("--clients must be at least 1".to_owned());
                    }
                }
                "--requests" => {
                    flags.requests = value("--requests", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --requests: {e}"))?;
                }
                "--out" => flags.out = value("--out", &mut it)?,
                "--scale" => {
                    flags.opts.scale = value("--scale", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--seed" => {
                    flags.opts.seed = value("--seed", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--budget" => {
                    flags.opts.budget = value("--budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?;
                }
                "--bench" => {
                    flags.opts.benchmarks = value("--bench", &mut it)?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(flags)
    }

    /// One client's measurements: round-trip latencies (ms) and whether
    /// every answer matched the reference.
    struct ClientRun {
        latencies: Vec<f64>,
        identical: bool,
    }

    /// Plays one closed-loop client over its socket: hello, then
    /// `requests` single queries, each verified against `reference`.
    fn client_loop(
        stream: UnixStream,
        slot: usize,
        workload: &str,
        vars: &[VarId],
        requests: usize,
        reference: &HashMap<VarId, u64>,
    ) -> ClientRun {
        let mut writer = stream.try_clone().expect("clone socket");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut recv = move |line: &mut String| -> Json {
            line.clear();
            reader.read_line(line).expect("daemon answered");
            parse(line.trim_end()).expect("daemon speaks valid JSON")
        };
        let mut identical = true;

        writeln!(
            writer,
            r#"{{"op":"hello","id":1,"name":"bench{slot}","engine":"dynsum","workload":"{workload}"}}"#
        )
        .expect("daemon is listening");
        let hello = recv(&mut line);
        if hello.get("ok").and_then(Json::as_bool) != Some(true) {
            return ClientRun {
                latencies: Vec::new(),
                identical: false,
            };
        }

        let mut latencies = Vec::with_capacity(requests);
        for i in 0..requests {
            let var = vars[i % vars.len()];
            let id = 2 + i as u64;
            let sent = Instant::now();
            writeln!(
                writer,
                r#"{{"op":"query","id":{id},"var":{}}}"#,
                var.as_raw()
            )
            .expect("daemon is listening");
            let answer = recv(&mut line);
            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            let fp = answer
                .get("result")
                .and_then(|r| r.get("fingerprint"))
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if answer.get("ok").and_then(Json::as_bool) != Some(true)
                || answer.get("id").and_then(Json::as_u64) != Some(id)
                || fp != reference.get(&var).copied()
            {
                identical = false;
            }
        }
        ClientRun {
            latencies,
            identical,
        }
    }

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn run() {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let flags = match parse_flags(&args) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        };
        let config = flags.opts.engine_config();
        let workloads = flags.opts.workloads();
        if workloads.is_empty() {
            eprintln!("error: no benchmarks selected\n{USAGE}");
            std::process::exit(2);
        }

        // Per-workload query streams and clean-session references.
        let streams: Vec<Vec<VarId>> = workloads
            .iter()
            .map(|w| {
                queries_for(ClientKind::NullDeref, &w.info)
                    .iter()
                    .map(|q| q.var)
                    .collect()
            })
            .collect();
        let reference: Vec<HashMap<VarId, u64>> = workloads
            .iter()
            .zip(&streams)
            .map(|(w, stream)| {
                let mut vars = stream.clone();
                vars.sort_unstable();
                vars.dedup();
                let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
                let results = session.run_batch_vars(&vars, 1);
                vars.iter()
                    .zip(&results)
                    .map(|(&v, r)| (v, r.fingerprint()))
                    .collect()
            })
            .collect();

        eprintln!(
            "bench_service: {} clients x {} requests, benchmarks {:?}, scale {}",
            flags.clients, flags.requests, flags.opts.benchmarks, flags.opts.scale
        );

        // One socketpair per client; the daemon's single event loop
        // serves all of them until every client hangs up.
        let mut client_halves = Vec::with_capacity(flags.clients);
        let mut server_halves = Vec::with_capacity(flags.clients);
        for _ in 0..flags.clients {
            let (client_half, server_half) = UnixStream::pair().expect("socketpair");
            client_halves.push(client_half);
            server_halves.push((server_half.try_clone().expect("clone socket"), server_half));
        }

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

        let started = Instant::now();
        let runs: Vec<ClientRun> = dynsum_cfl::sync::thread::scope(|scope| {
            let server = scope.spawn(|| serve_pair(&mut daemon, server_halves));
            let handles: Vec<_> = client_halves
                .into_iter()
                .enumerate()
                .map(|(slot, stream)| {
                    let wi = slot % workloads.len();
                    let workload = &workloads[wi].name;
                    let vars = &streams[wi];
                    let reference = &reference[wi];
                    let requests = flags.requests;
                    scope.spawn(move || {
                        client_loop(stream, slot, workload, vars, requests, reference)
                    })
                })
                .collect();
            let runs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            // Client sockets are dropped; readers see EOF and the event
            // loop drains out.
            server.join().expect("server thread");
            runs
        });
        let secs = started.elapsed().as_secs_f64();

        let mut latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies.clone()).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let queries = latencies.len();
        let identical = runs.iter().all(|r| r.identical);
        let qps = if secs > 0.0 {
            queries as f64 / secs
        } else {
            0.0
        };
        let (p50, p99) = (percentile(&latencies, 0.5), percentile(&latencies, 0.99));

        let benches: Vec<String> = workloads
            .iter()
            .map(|w| format!("\"{}\"", w.name))
            .collect();
        let json = format!(
            "{{\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \"benchmarks\": [{}],\n  \
             \"scale\": {},\n  \"seed\": {},\n  \"budget\": {},\n  \"queries\": {},\n  \
             \"wall_ms\": {:.3},\n  \"qps\": {:.3},\n  \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \
             \"results_identical_vs_sequential\": {}\n}}\n",
            flags.clients,
            flags.requests,
            benches.join(", "),
            flags.opts.scale,
            flags.opts.seed,
            flags.opts.budget,
            queries,
            secs * 1e3,
            qps,
            p50,
            p99,
            identical
        );
        if let Err(e) = std::fs::write(&flags.out, &json) {
            eprintln!("cannot write {}: {e}", flags.out);
            std::process::exit(1);
        }
        eprintln!(
            "  {} queries in {:.1} ms: {:.1} q/s  p50 {:.2} ms  p99 {:.2} ms  results {}",
            queries,
            secs * 1e3,
            qps,
            p50,
            p99,
            if identical { "identical" } else { "DIVERGED" }
        );
        eprintln!("wrote {}", flags.out);
        if !identical {
            eprintln!("ERROR: a wire answer diverged from the clean single-client session");
            std::process::exit(1);
        }
    }
}
