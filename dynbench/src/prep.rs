//! Benchmark inputs: the three graphs as `.pag` text, their client query
//! streams, and the Andersen oracle.
//!
//! Generating the graphs and solving the oracle (4–7 s per graph at scale
//! 0.5) happen in a child process, so neither the generator's nor the
//! oracle's memory shows in the measured process's peak RSS, and the
//! results are cached on disk per graph × scale × seed × build: later runs
//! of the same build only read the files back.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::UNIX_EPOCH;

use dynsum_andersen::Andersen;
use dynsum_clients::{queries_for, split_batches, ClientKind};
use dynsum_core::{pag_fingerprint, EngineConfig, EngineKind, Session, SessionQuery};
use dynsum_pag::{ObjId, VarId};
use dynsum_service::json::{self, Json};
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions, SCALABILITY_BENCHMARKS};

/// The generator seed of the graphs: the medium perf profile's.
///
/// Every run measures the same three programs; `--seed` draws the query
/// orders, the daemon's request order and the edit draws. Graphs drawn
/// from the run seed moved jython's over-budget share from 16 to 48
/// queries and its throughput by 2× between seeds, which no bound could
/// hold, and would re-solve the oracle on every run.
pub const GRAPH_SEED: u64 = 0xD45;

/// Batches per client stream (the paper's §5.3 setup).
pub const BATCHES: usize = 10;

/// One graph's prepared inputs.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Profile name.
    pub name: String,
    /// The `.pag` text file.
    pub text_path: PathBuf,
    /// `pag_fingerprint` of the generated graph.
    pub fingerprint: u64,
    /// Summaries an uncapped session holds after every stream ran once.
    pub working_set: usize,
    /// The SafeCast, NullDeref and FactoryM streams, each as the paper's
    /// batches of query vars (`dynsum_clients::split_batches` into
    /// [`BATCHES`]), in site order.
    pub streams: [Vec<Vec<VarId>>; 3],
}

impl GraphInput {
    /// Every stream's batches, streams in turn.
    pub fn batches(&self) -> impl Iterator<Item = &[VarId]> {
        self.streams.iter().flatten().map(Vec::as_slice)
    }

    /// The three streams concatenated.
    pub fn all_sites(&self) -> Vec<VarId> {
        self.batches().flatten().copied().collect()
    }
}

/// Per graph: every stream var's Andersen points-to set.
pub type Oracle = Vec<HashMap<VarId, Vec<ObjId>>>;

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn num(v: &Json, what: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{what}: expected a number"))
}

fn vars(v: &Json) -> Result<Vec<VarId>, String> {
    v.as_arr()
        .ok_or("batch: expected an array")?
        .iter()
        .map(|x| num(x, "var").map(|n| VarId::from_raw(n as u32)))
        .collect()
}

fn batches(v: &Json) -> Result<Vec<Vec<VarId>>, String> {
    v.as_arr()
        .ok_or("stream: expected an array")?
        .iter()
        .map(vars)
        .collect()
}

/// The cache directory for one scale under `out`, keyed by this build.
fn cache_dir(out: &Path, scale: f64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    Ok(out.join(format!(
        "inputs-{scale}-{GRAPH_SEED}-{:x}-{mtime:x}",
        meta.len()
    )))
}

/// Returns the inputs for `scale`, preparing them in a child process
/// first when this build has not cached them yet.
pub fn ensure(out: &Path, scale: f64) -> Result<(PathBuf, Vec<GraphInput>), String> {
    let dir = cache_dir(out, scale)?;
    if !dir.join("done").exists() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = Command::new(exe)
            .arg("prepare")
            .arg("--scale")
            .arg(scale.to_string())
            .arg("--dir")
            .arg(&dir)
            .status()
            .map_err(|e| format!("spawning the prepare step: {e}"))?;
        if !status.success() {
            return Err(format!("prepare step failed: {status}"));
        }
    }
    let graphs = load_inputs(&dir)?;
    Ok((dir, graphs))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The child process's body: generate, render, solve, write.
pub fn prepare(dir: &Path, scale: f64) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut graphs = Vec::new();
    let mut oracles = Vec::new();
    for name in SCALABILITY_BENCHMARKS {
        let profile = BenchmarkProfile::find(name).ok_or(format!("no profile {name}"))?;
        let w = generate(
            profile,
            &GeneratorOptions {
                scale,
                seed: GRAPH_SEED,
                ..GeneratorOptions::default()
            },
        );
        write(
            &dir.join(format!("{name}.pag")),
            &dynsum_pag::text::write_pag(&w.pag),
        )?;
        let streams: Vec<Vec<Vec<VarId>>> = ClientKind::ALL
            .iter()
            .map(|&k| {
                split_batches(queries_for(k, &w.info), BATCHES)
                    .iter()
                    .map(|b| b.iter().map(|q| q.var).collect())
                    .collect()
            })
            .collect();
        let mut session = Session::with_config(&w.pag, EngineKind::DynSum, EngineConfig::default());
        for batch in streams.iter().flatten() {
            let sq: Vec<SessionQuery<'_>> = batch.iter().map(|&v| SessionQuery::new(v)).collect();
            session.run_batch(&sq, 1);
        }
        let oracle = Andersen::analyze(&w.pag);
        let mut distinct: Vec<VarId> = streams.iter().flatten().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        oracles.push(Json::Arr(
            distinct
                .iter()
                .map(|&v| {
                    let objs = oracle
                        .var_pts(v)
                        .iter()
                        .map(|o| Json::num(u64::from(o.as_raw())))
                        .collect();
                    Json::Arr(vec![Json::num(u64::from(v.as_raw())), Json::Arr(objs)])
                })
                .collect(),
        ));
        let batch_json = |b: &Vec<VarId>| {
            Json::Arr(b.iter().map(|v| Json::num(u64::from(v.as_raw()))).collect())
        };
        let stream_json = |s: &Vec<Vec<VarId>>| Json::Arr(s.iter().map(batch_json).collect());
        graphs.push(Json::Obj(vec![
            ("name".to_owned(), Json::str(name)),
            (
                "fingerprint".to_owned(),
                Json::str(hex(pag_fingerprint(&w.pag))),
            ),
            (
                "working_set".to_owned(),
                Json::num(session.summary_count() as u64),
            ),
            (
                "streams".to_owned(),
                Json::Arr(streams.iter().map(stream_json).collect()),
            ),
        ]));
    }
    write(&dir.join("oracle.json"), &Json::Arr(oracles).render())?;
    write(&dir.join("inputs.json"), &Json::Arr(graphs).render())?;
    write(&dir.join("done"), "")
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_inputs(dir: &Path) -> Result<Vec<GraphInput>, String> {
    let doc = read_json(&dir.join("inputs.json"))?;
    doc.as_arr()
        .ok_or("inputs.json: expected an array")?
        .iter()
        .map(|g| {
            let name = g.get("name").and_then(Json::as_str).ok_or("graph name")?;
            let streams = g
                .get("streams")
                .and_then(Json::as_arr)
                .ok_or("graph streams")?
                .iter()
                .map(batches)
                .collect::<Result<Vec<_>, _>>()?;
            let streams: [Vec<Vec<VarId>>; 3] = streams
                .try_into()
                .map_err(|_| "expected three streams".to_owned())?;
            Ok(GraphInput {
                name: name.to_owned(),
                text_path: dir.join(format!("{name}.pag")),
                fingerprint: g
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or("graph fingerprint")?,
                working_set: num(g.get("working_set").ok_or("working_set")?, "working_set")?
                    as usize,
                streams,
            })
        })
        .collect()
}

/// Reads the cached oracle back.
pub fn load_oracle(dir: &Path) -> Result<Oracle, String> {
    let doc = read_json(&dir.join("oracle.json"))?;
    doc.as_arr()
        .ok_or("oracle.json: expected an array")?
        .iter()
        .map(|g| {
            g.as_arr()
                .ok_or("oracle graph: expected an array")?
                .iter()
                .map(|entry| {
                    let (var, objs) = match entry.as_arr() {
                        Some([var, objs]) => (var, objs),
                        _ => return Err("oracle entry: expected [var, objs]".to_owned()),
                    };
                    let var = VarId::from_raw(num(var, "oracle var")? as u32);
                    let objs = objs
                        .as_arr()
                        .ok_or("oracle objs")?
                        .iter()
                        .map(|o| num(o, "oracle obj").map(|n| ObjId::from_raw(n as u32)))
                        .collect::<Result<Vec<_>, _>>()?;
                    let mut objs = objs;
                    objs.sort_unstable();
                    Ok((var, objs))
                })
                .collect()
        })
        .collect()
}
