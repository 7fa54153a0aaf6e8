//! `dynsum_serve` — the long-lived analysis daemon.
//!
//! ```text
//! dynsum_serve [<file>...] [--profile NAME]... [--scale F] [--seed N]
//!              [--stdio | --socket PATH]
//!              [--budget N] [--snapshot-dir DIR]
//!              [--client-budget N] [--max-deadline-ms N]
//! ```
//!
//! Each `<file>` (Java-subset source or `.pag` graph) and each
//! `--profile` (a Table 3 benchmark profile, generated at `--scale` /
//! `--seed`) becomes a named workload clients select in their `hello`
//! frame; with none given the daemon serves the paper's motivating
//! example as `motivating`. `--stdio` (the default) serves one
//! connection on stdin/stdout; `--socket` listens on a Unix socket and
//! serves every connection that arrives. See the README's "Running the
//! daemon" section for the frame grammar.

use std::path::PathBuf;

use dynsum::pag::text::parse_pag;
use dynsum::pag::Pag;
use dynsum::service::{serve_stdio, Daemon, ServedWorkload, ServiceConfig};
use dynsum::workloads::{motivating_pag, try_generate, BenchmarkProfile, GeneratorOptions};
use dynsum::{compile_with, CallGraphMode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

const USAGE: &str = "\
usage:
  dynsum_serve [<file>...] [--profile NAME]... [--scale F] [--seed N]
               [--stdio | --socket PATH]
               [--budget N] [--snapshot-dir DIR]
               [--client-budget N] [--max-deadline-ms N]
workloads: any mix of source/.pag files and generated profiles
           (defaults to the paper's motivating example)";

enum Transport {
    Stdio,
    #[cfg_attr(not(unix), allow(dead_code))]
    Socket(PathBuf),
}

struct Flags {
    files: Vec<String>,
    profiles: Vec<String>,
    scale: f64,
    seed: u64,
    transport: Transport,
    budget: Option<u64>,
    snapshot_dir: Option<PathBuf>,
    client_budget: Option<u64>,
    max_deadline_ms: Option<u64>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        files: Vec::new(),
        profiles: Vec::new(),
        scale: 0.02,
        seed: 42,
        transport: Transport::Stdio,
        budget: None,
        snapshot_dir: None,
        client_budget: None,
        max_deadline_ms: None,
    };
    let mut it = args.iter();
    let value = |name: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{name} expects a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => flags.profiles.push(value("--profile", &mut it)?),
            "--scale" => {
                flags.scale = value("--scale", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                flags.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--stdio" => flags.transport = Transport::Stdio,
            "--socket" => {
                flags.transport = Transport::Socket(PathBuf::from(value("--socket", &mut it)?));
            }
            "--budget" => {
                flags.budget = Some(
                    value("--budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                );
            }
            "--snapshot-dir" => {
                flags.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir", &mut it)?));
            }
            "--client-budget" => {
                flags.client_budget = Some(
                    value("--client-budget", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --client-budget: {e}"))?,
                );
            }
            "--max-deadline-ms" => {
                flags.max_deadline_ms = Some(
                    value("--max-deadline-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --max-deadline-ms: {e}"))?,
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => flags.files.push(path.to_owned()),
        }
    }
    Ok(flags)
}

/// Loads every requested workload into owned `(name, pag)` pairs the
/// daemon borrows from.
fn load_workloads(flags: &Flags) -> Result<Vec<(String, Pag)>, String> {
    let mut out = Vec::new();
    for path in &flags.files {
        let content = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let pag = if path.ends_with(".pag") {
            parse_pag(&content).map_err(|e| format!("{path}: {e}"))?
        } else {
            compile_with(&content, CallGraphMode::OnTheFly)
                .map_err(|e| format!("{path}: {e}"))?
                .pag
        };
        let name = PathBuf::from(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        out.push((name, pag));
    }
    for name in &flags.profiles {
        let profile =
            BenchmarkProfile::find(name).ok_or_else(|| format!("unknown profile `{name}`"))?;
        let opts = GeneratorOptions {
            scale: flags.scale,
            seed: flags.seed,
            ..GeneratorOptions::default()
        };
        let workload = try_generate(profile, &opts).map_err(|e| format!("bad --scale: {e}"))?;
        out.push((workload.name, workload.pag));
    }
    if out.is_empty() {
        out.push(("motivating".to_owned(), motivating_pag().pag));
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let owned = load_workloads(&flags)?;
    let workloads: Vec<ServedWorkload<'_>> = owned
        .iter()
        .map(|(name, pag)| ServedWorkload { name, pag })
        .collect();
    let mut config = ServiceConfig {
        snapshot_dir: flags.snapshot_dir.clone(),
        ..ServiceConfig::default()
    };
    if let Some(budget) = flags.budget {
        config.engine_config.budget = budget;
    }
    if let Some(allowance) = flags.client_budget {
        config.max_client_budget = allowance;
    }
    config.max_deadline_ms = flags.max_deadline_ms;
    let mut daemon = Daemon::new(workloads, config);
    match &flags.transport {
        Transport::Stdio => {
            serve_stdio(&mut daemon);
            Ok(())
        }
        #[cfg(unix)]
        Transport::Socket(path) => {
            dynsum::service::serve_unix(&mut daemon, path).map_err(|e| format!("socket: {e}"))
        }
        #[cfg(not(unix))]
        Transport::Socket(_) => Err("--socket requires a Unix platform".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_covers_every_knob() {
        let args: Vec<String> = [
            "--profile",
            "jack",
            "--scale",
            "0.01",
            "--seed",
            "7",
            "--socket",
            "/tmp/d.sock",
            "--budget",
            "5000",
            "--snapshot-dir",
            "/tmp/snaps",
            "--client-budget",
            "100000",
            "--max-deadline-ms",
            "250",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let flags = parse_flags(&args).expect("valid flags");
        assert_eq!(flags.profiles, ["jack"]);
        assert_eq!(flags.scale, 0.01);
        assert_eq!(flags.seed, 7);
        assert!(matches!(flags.transport, Transport::Socket(_)));
        assert_eq!(flags.budget, Some(5000));
        assert_eq!(flags.snapshot_dir, Some(PathBuf::from("/tmp/snaps")));
        assert_eq!(flags.client_budget, Some(100_000));
        assert_eq!(flags.max_deadline_ms, Some(250));
    }

    #[test]
    fn unknown_flags_and_profiles_are_rejected() {
        let bad = ["--bogus".to_owned()];
        assert!(parse_flags(&bad).is_err());
        let flags = parse_flags(&["--profile".to_owned(), "nope".to_owned()]).expect("parses");
        assert!(load_workloads(&flags).unwrap_err().contains("nope"));
    }

    #[test]
    fn bad_scales_are_errors_not_panics() {
        for scale in ["-1", "nan", "1e9"] {
            let args = ["--profile", "jack", "--scale", scale].map(str::to_owned);
            let flags = parse_flags(&args).expect("parses");
            let err = load_workloads(&flags).unwrap_err();
            assert!(err.contains("scale"), "{scale}: {err}");
        }
    }

    #[test]
    fn default_workload_is_the_motivating_example() {
        let flags = parse_flags(&[]).expect("empty is fine");
        let loaded = load_workloads(&flags).expect("loads");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "motivating");
        assert!(loaded[0].1.num_vars() > 0);
    }
}
