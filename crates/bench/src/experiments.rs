//! The experiment implementations behind the harness binaries.

use std::time::Instant;

use dynsum_cfl::Trace;
use dynsum_clients::{run_batches, run_client, ClientKind};
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_workloads::{motivating_pag, Motivating, SCALABILITY_BENCHMARKS};

use crate::options::ExperimentOptions;
use crate::table::Table;

// ---------------------------------------------------------------- Table 1

/// Output of the Table 1 experiment: DYNSUM's traversal traces for the
/// two motivating queries.
#[derive(Debug)]
pub struct Table1Output {
    /// The Figure 2 PAG and query handles.
    pub motivating: Motivating,
    /// Trace of the first query (`s1`) — everything computed fresh.
    pub trace_s1: Trace,
    /// Trace of the second query (`s2`) — summaries reused.
    pub trace_s2: Trace,
    /// Rendered points-to set of `s1` (object labels).
    pub pts_s1: Vec<String>,
    /// Rendered points-to set of `s2`.
    pub pts_s2: Vec<String>,
    /// Work counters of the first query.
    pub stats_s1: dynsum_cfl::QueryStats,
    /// Work counters of the second query (reuse makes it cheaper).
    pub stats_s2: dynsum_cfl::QueryStats,
}

impl Table1Output {
    /// Renders both traces in the style of Table 1.
    pub fn render(&self) -> String {
        let pag = &self.motivating.pag;
        let mut out = String::new();
        out.push_str("== Table 1: DYNSUM traversals for s1 and s2 (Figure 2) ==\n");
        out.push_str(&format!(
            "query pointsTo(s1): {} steps, {} reused, {} edges traversed\n",
            self.trace_s1.len(),
            self.trace_s1.reuse_count(),
            self.stats_s1.edges_traversed
        ));
        out.push_str(&self.trace_s1.render(pag));
        out.push_str(&format!("pts(s1) = {{{}}}\n\n", self.pts_s1.join(", ")));
        out.push_str(&format!(
            "query pointsTo(s2): {} steps, {} reused, {} edges traversed\n",
            self.trace_s2.len(),
            self.trace_s2.reuse_count(),
            self.stats_s2.edges_traversed
        ));
        out.push_str(&self.trace_s2.render(pag));
        out.push_str(&format!("pts(s2) = {{{}}}\n", self.pts_s2.join(", ")));
        out
    }
}

/// Explains two DYNSUM queries over the motivating example: `s1`, then
/// `s2`, exactly as in §4.3. The second trace must be shorter and
/// contain *reuse* steps.
pub fn table1() -> Table1Output {
    let motivating = motivating_pag();
    let mut session = Session::new(&motivating.pag, EngineKind::DynSum);
    let (r1, trace_s1) = session.explain(motivating.s1);
    let (r2, trace_s2) = session.explain(motivating.s2);

    let label = |pts: &dynsum_cfl::PointsToSet| -> Vec<String> {
        pts.objects()
            .into_iter()
            .map(|o| motivating.pag.obj(o).label.clone())
            .collect()
    };
    Table1Output {
        pts_s1: label(&r1.pts),
        pts_s2: label(&r2.pts),
        stats_s1: r1.stats,
        stats_s2: r2.stats,
        motivating,
        trace_s1,
        trace_s2,
    }
}

// ---------------------------------------------------------------- Table 2

/// The qualitative comparison of the four analyses (Table 2).
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: strengths and weaknesses of four demand-driven points-to analyses",
        &[
            "Algorithm",
            "Full Precision",
            "Memorization",
            "Reuse",
            "On-Demandness",
        ],
    );
    t.push_row(vec![
        "NOREFINE".into(),
        "Yes".into(),
        "No".into(),
        "No".into(),
        "Yes".into(),
    ]);
    t.push_row(vec![
        "REFINEPTS".into(),
        "Yes".into(),
        "Dynamic (within queries)".into(),
        "Context Dependent".into(),
        "Yes".into(),
    ]);
    t.push_row(vec![
        "STASUM".into(),
        "No".into(),
        "Static (across queries)".into(),
        "Context Independent".into(),
        "Partly".into(),
    ]);
    t.push_row(vec![
        "DYNSUM".into(),
        "Yes".into(),
        "Dynamic (across queries)".into(),
        "Context Independent".into(),
        "Yes".into(),
    ]);
    t
}

// ---------------------------------------------------------------- Table 3

/// Generates the selected workloads and renders their shape statistics —
/// the reproduction of Table 3.
pub fn table3(opts: &ExperimentOptions) -> Table {
    let mut t = Table::new(
        &format!("Table 3: benchmark statistics (scale {})", opts.scale),
        &[
            "Benchmark",
            "Methods",
            "O",
            "V",
            "G",
            "new",
            "assign",
            "load",
            "store",
            "entry",
            "exit",
            "aglobal",
            "Locality",
            "SafeCast",
            "NullDeref",
            "FactoryM",
        ],
    );
    for w in opts.workloads() {
        let s = w.pag.stats();
        t.push_row(vec![
            w.name.clone(),
            s.methods.to_string(),
            s.objs.to_string(),
            s.locals.to_string(),
            s.globals.to_string(),
            s.new_edges.to_string(),
            s.assign_edges.to_string(),
            s.load_edges.to_string(),
            s.store_edges.to_string(),
            s.entry_edges.to_string(),
            s.exit_edges.to_string(),
            s.assignglobal_edges.to_string(),
            format!("{:.1}%", s.locality() * 100.0),
            w.info.casts.len().to_string(),
            w.info.derefs.len().to_string(),
            w.info.factories.len().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Table 4

/// One engine × client × benchmark measurement.
#[derive(Debug, Clone)]
pub struct Table4Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Client.
    pub client: ClientKind,
    /// Engine.
    pub engine: EngineKind,
    /// Wall-clock milliseconds for the client's whole query stream.
    pub millis: f64,
    /// Deterministic work: PAG edges traversed.
    pub edges: u64,
    /// Sites proven.
    pub proven: usize,
    /// Sites refuted.
    pub refuted: usize,
    /// Sites unresolved (budget).
    pub unresolved: usize,
}

/// All Table 4 measurements.
#[derive(Debug, Clone)]
pub struct Table4Output {
    /// Every cell, in (client, benchmark, engine) order.
    pub cells: Vec<Table4Cell>,
}

impl Table4Output {
    /// The cell for a given coordinate.
    pub fn cell(&self, bench: &str, client: ClientKind, engine: EngineKind) -> Option<&Table4Cell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == bench && c.client == client && c.engine == engine)
    }

    /// REFINEPTS-time over DYNSUM-time for a benchmark (the paper's
    /// headline speedups), using the deterministic edge metric.
    pub fn speedup_edges(&self, bench: &str, client: ClientKind) -> Option<f64> {
        let r = self.cell(bench, client, EngineKind::RefinePts)?;
        let d = self.cell(bench, client, EngineKind::DynSum)?;
        if d.edges == 0 {
            return None;
        }
        Some(r.edges as f64 / d.edges as f64)
    }

    /// Wall-clock speedup (noisier at small scales).
    pub fn speedup_time(&self, bench: &str, client: ClientKind) -> Option<f64> {
        let r = self.cell(bench, client, EngineKind::RefinePts)?;
        let d = self.cell(bench, client, EngineKind::DynSum)?;
        if d.millis <= 0.0 {
            return None;
        }
        Some(r.millis / d.millis)
    }

    /// Arithmetic mean of per-benchmark edge speedups for a client.
    pub fn average_speedup_edges(&self, client: ClientKind) -> f64 {
        let benches: Vec<&str> = self
            .cells
            .iter()
            .filter(|c| c.client == client)
            .map(|c| c.benchmark.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let ratios: Vec<f64> = benches
            .iter()
            .filter_map(|b| self.speedup_edges(b, client))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Renders one Table 4 block per client (times) plus the edge
    /// metric and speedup rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let benches: Vec<String> = self
            .cells
            .iter()
            .map(|c| c.benchmark.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for client in ClientKind::ALL {
            let mut headers: Vec<&str> = vec!["Engine (ms)"];
            let bench_refs: Vec<&str> = benches.iter().map(String::as_str).collect();
            headers.extend(bench_refs.iter());
            let mut t = Table::new(&format!("Table 4 — {client}"), &headers);
            for engine in EngineKind::TABLE4 {
                let mut row = vec![engine.name().to_owned()];
                for b in &benches {
                    row.push(
                        self.cell(b, client, engine)
                            .map_or("-".into(), |c| format!("{:.1}", c.millis)),
                    );
                }
                t.push_row(row);
            }
            let mut row = vec!["DYNSUM speedup (edges)".to_owned()];
            for b in &benches {
                row.push(
                    self.speedup_edges(b, client)
                        .map_or("-".into(), |s| format!("{s:.2}x")),
                );
            }
            t.push_row(row);
            out.push_str(&t.render());
            out.push_str(&format!(
                "average speedup ({client}, edges): {:.2}x\n\n",
                self.average_speedup_edges(client)
            ));
        }
        out
    }
}

/// Runs the Table 4 experiment: every engine × client × benchmark with a
/// fresh engine per cell (DYNSUM's cache persists within a cell's query
/// stream — that is the measured effect).
pub fn table4(opts: &ExperimentOptions) -> Table4Output {
    let mut cells = Vec::new();
    let config = opts.engine_config();
    for w in opts.workloads() {
        for client in ClientKind::ALL {
            for engine_kind in EngineKind::TABLE4 {
                let mut session = Session::with_config(&w.pag, engine_kind, config);
                let started = Instant::now();
                let report = run_client(client, &w.info, &mut session);
                let elapsed = started.elapsed();
                cells.push(Table4Cell {
                    benchmark: w.name.clone(),
                    client,
                    engine: engine_kind,
                    millis: elapsed.as_secs_f64() * 1e3,
                    edges: report.stats.edges_traversed,
                    proven: report.proven,
                    refuted: report.refuted,
                    unresolved: report.unresolved,
                });
            }
        }
    }
    Table4Output { cells }
}

// ---------------------------------------------------------------- Figure 4

/// Per-batch measurements for one benchmark × client.
#[derive(Debug, Clone)]
pub struct BatchSeries {
    /// Benchmark name.
    pub benchmark: String,
    /// Client.
    pub client: ClientKind,
    /// REFINEPTS per-batch edge counts.
    pub refine_edges: Vec<u64>,
    /// DYNSUM per-batch edge counts (cache persists across batches).
    pub dynsum_edges: Vec<u64>,
    /// REFINEPTS per-batch milliseconds.
    pub refine_ms: Vec<f64>,
    /// DYNSUM per-batch milliseconds.
    pub dynsum_ms: Vec<f64>,
}

impl BatchSeries {
    /// DYNSUM edge work normalized to REFINEPTS per batch — the Figure 4
    /// curve (deterministic form).
    pub fn normalized_edges(&self) -> Vec<f64> {
        self.dynsum_edges
            .iter()
            .zip(&self.refine_edges)
            .map(|(&d, &r)| if r == 0 { 0.0 } else { d as f64 / r as f64 })
            .collect()
    }

    /// Wall-clock normalization (noisy at small scales).
    pub fn normalized_time(&self) -> Vec<f64> {
        self.dynsum_ms
            .iter()
            .zip(&self.refine_ms)
            .map(|(&d, &r)| if r <= 0.0 { 0.0 } else { d / r })
            .collect()
    }
}

/// Runs the Figure 4 experiment: queries split into `n_batches`, DYNSUM
/// vs REFINEPTS per batch, on the paper's three scalability benchmarks
/// (or the explicitly selected ones).
pub fn figure4(opts: &ExperimentOptions, n_batches: usize) -> Vec<BatchSeries> {
    let config = opts.engine_config();
    let mut out = Vec::new();
    for w in opts.workloads() {
        if opts.benchmarks.is_empty() && !SCALABILITY_BENCHMARKS.contains(&w.name.as_str()) {
            continue;
        }
        for client in ClientKind::ALL {
            let mut refine = Session::with_config(&w.pag, EngineKind::RefinePts, config);
            let refine_batches = run_batches(client, &w.info, &mut refine, n_batches, 1);
            let mut dynsum = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let dynsum_batches = run_batches(client, &w.info, &mut dynsum, n_batches, 1);
            out.push(BatchSeries {
                benchmark: w.name.clone(),
                client,
                refine_edges: refine_batches
                    .iter()
                    .map(|b| b.report.stats.edges_traversed)
                    .collect(),
                dynsum_edges: dynsum_batches
                    .iter()
                    .map(|b| b.report.stats.edges_traversed)
                    .collect(),
                refine_ms: refine_batches
                    .iter()
                    .map(|b| b.report.elapsed.as_secs_f64() * 1e3)
                    .collect(),
                dynsum_ms: dynsum_batches
                    .iter()
                    .map(|b| b.report.elapsed.as_secs_f64() * 1e3)
                    .collect(),
            });
        }
    }
    out
}

/// Renders Figure 4 as per-batch normalized series.
pub fn render_figure4(series: &[BatchSeries]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 4: DYNSUM per-batch work normalized to REFINEPTS ==\n");
    for s in series {
        out.push_str(&format!("{} / {}:\n  edges: ", s.benchmark, s.client));
        for v in s.normalized_edges() {
            out.push_str(&format!("{v:.2} "));
        }
        out.push_str("\n  time:  ");
        for v in s.normalized_time() {
            out.push_str(&format!("{v:.2} "));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- Figure 5

/// Cumulative summary counts for one benchmark × client.
#[derive(Debug, Clone)]
pub struct Figure5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Client.
    pub client: ClientKind,
    /// DYNSUM's cumulative cache size after each batch.
    pub dynsum_cumulative: Vec<usize>,
    /// STASUM's static summary count (the 100% line).
    pub stasum_total: usize,
}

impl Figure5Row {
    /// The Figure 5 series: percentages of the STASUM total.
    pub fn percentages(&self) -> Vec<f64> {
        self.dynsum_cumulative
            .iter()
            .map(|&d| {
                if self.stasum_total == 0 {
                    0.0
                } else {
                    100.0 * d as f64 / self.stasum_total as f64
                }
            })
            .collect()
    }
}

/// Runs the Figure 5 experiment: DYNSUM's cumulative summary counts per
/// batch against STASUM's precomputed total.
pub fn figure5(opts: &ExperimentOptions, n_batches: usize) -> Vec<Figure5Row> {
    let config = opts.engine_config();
    let mut out = Vec::new();
    for w in opts.workloads() {
        if opts.benchmarks.is_empty() && !SCALABILITY_BENCHMARKS.contains(&w.name.as_str()) {
            continue;
        }
        let stasum_total = Session::with_config(&w.pag, EngineKind::StaSum, config).summary_count();
        for client in ClientKind::ALL {
            let mut dynsum = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let batches = run_batches(client, &w.info, &mut dynsum, n_batches, 1);
            out.push(Figure5Row {
                benchmark: w.name.clone(),
                client,
                dynsum_cumulative: batches.iter().map(|b| b.cumulative_summaries).collect(),
                stasum_total,
            });
        }
    }
    out
}

/// Renders Figure 5 as percentage series.
pub fn render_figure5(rows: &[Figure5Row]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 5: cumulative DYNSUM summaries as % of STASUM ==\n");
    for r in rows {
        out.push_str(&format!(
            "{} / {} (STASUM = {} summaries):\n  ",
            r.benchmark, r.client, r.stasum_total
        ));
        for p in r.percentages() {
            out.push_str(&format!("{p:.1}% "));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- Ablation

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Edges traversed.
    pub edges: u64,
    /// Unresolved queries.
    pub unresolved: usize,
    /// Summary count after the run.
    pub summaries: usize,
}

/// Runs the design-choice ablations DESIGN.md calls out: the summary
/// cache on/off, context sensitivity on/off, and a budget sweep.
/// Uses the NullDeref client (the paper's most demanding one).
pub fn ablation(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let mut out = Vec::new();
    let base = opts.engine_config();
    for w in opts.workloads() {
        let run = |label: &str, config: EngineConfig, out: &mut Vec<AblationRow>| {
            let mut session = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let started = Instant::now();
            let report = run_client(ClientKind::NullDeref, &w.info, &mut session);
            out.push(AblationRow {
                label: label.to_owned(),
                benchmark: w.name.clone(),
                millis: started.elapsed().as_secs_f64() * 1e3,
                edges: report.stats.edges_traversed,
                unresolved: report.unresolved,
                summaries: session.summary_count(),
            });
        };
        run("cache on (default)", base, &mut out);
        run(
            "cache off",
            EngineConfig {
                cache_summaries: false,
                ..base
            },
            &mut out,
        );
        run(
            "context-insensitive",
            EngineConfig {
                context_sensitive: false,
                ..base
            },
            &mut out,
        );
        for budget in [1_000, 10_000, 75_000] {
            run(
                &format!("budget {budget}"),
                EngineConfig { budget, ..base },
                &mut out,
            );
        }
    }
    out
}

/// Renders the ablation rows.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut t = Table::new(
        "Ablation (DYNSUM, NullDeref client)",
        &[
            "Configuration",
            "Benchmark",
            "ms",
            "edges",
            "unresolved",
            "summaries",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.label.clone(),
            r.benchmark.clone(),
            format!("{:.1}", r.millis),
            r.edges.to_string(),
            r.unresolved.to_string(),
            r.summaries.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.01,
            benchmarks: vec!["soot-c".to_owned()],
            ..ExperimentOptions::default()
        }
    }

    #[test]
    fn table1_reproduces_reuse() {
        let t = table1();
        assert_eq!(t.pts_s1, vec!["o26"]);
        assert_eq!(t.pts_s2, vec!["o29"]);
        assert!(t.trace_s1.reuse_count() == 0);
        assert!(t.trace_s2.reuse_count() > 0, "s2 must reuse summaries");
        // Reuse pays in avoided edge traversals (the paper's Table 1
        // collapses reused spans into single rows; our trace keeps one
        // row per driver configuration, so compare edge work).
        assert!(
            t.stats_s2.edges_traversed < t.stats_s1.edges_traversed,
            "s2 ({} edges) must be cheaper than s1 ({} edges)",
            t.stats_s2.edges_traversed,
            t.stats_s1.edges_traversed
        );
        let rendered = t.render();
        assert!(rendered.contains("pts(s1) = {o26}"));
    }

    #[test]
    fn table2_has_four_rows() {
        let t = table2();
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("DYNSUM"));
    }

    #[test]
    fn table3_renders_selected() {
        let t = table3(&tiny());
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().contains("soot-c"));
    }

    #[test]
    fn table4_dynsum_beats_refinepts_on_edges() {
        let out = table4(&tiny());
        assert_eq!(out.cells.len(), 9); // 1 bench × 3 clients × 3 engines
        for client in ClientKind::ALL {
            let s = out.speedup_edges("soot-c", client).unwrap();
            assert!(
                s > 1.0,
                "{client}: DYNSUM must do less edge work (speedup {s:.2})"
            );
        }
        // Precision agreement across engines.
        for client in ClientKind::ALL {
            let d = out.cell("soot-c", client, EngineKind::DynSum).unwrap();
            let n = out.cell("soot-c", client, EngineKind::NoRefine).unwrap();
            assert_eq!((d.proven, d.refuted), (n.proven, n.refuted), "{client}");
        }
        assert!(out.render().contains("average speedup"));
    }

    #[test]
    fn figure4_curve_trends_down() {
        let series = figure4(&tiny(), 5);
        assert_eq!(series.len(), 3);
        for s in &series {
            let norm = s.normalized_edges();
            assert!(norm.len() >= 4);
            // The curve trends down as the cache warms: no warm batch
            // may exceed the cold first batch (per-batch jitter is
            // expected at tiny scales, hence the tolerance; the run is
            // deterministic in the workload seed). The tolerance covers
            // one-batch spikes from the per-batch query mix — both the
            // numerator (DYNSUM) and denominator (REFINEPTS) shift with
            // engine-rule changes — while the mean check below pins the
            // actual reuse property.
            let cold = norm[0];
            let worst_warm = norm[1..].iter().copied().fold(f64::MIN, f64::max);
            let mean_warm = norm[1..].iter().sum::<f64>() / (norm.len() - 1) as f64;
            assert!(
                mean_warm <= cold,
                "{}/{}: warm batches must be cheaper on average ({norm:?})",
                s.benchmark,
                s.client
            );
            assert!(
                worst_warm <= cold + 0.10,
                "{}/{}: cold {cold:.2} -> worst warm {worst_warm:.2} ({norm:?})",
                s.benchmark,
                s.client
            );
        }
        assert!(render_figure4(&series).contains("Figure 4"));
    }

    #[test]
    fn figure5_dynsum_fraction_grows_and_stays_partial() {
        let rows = figure5(&tiny(), 5);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.stasum_total > 0);
            let p = r.percentages();
            for w in p.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "cumulative must not shrink");
            }
        }
        assert!(render_figure5(&rows).contains("Figure 5"));
    }

    #[test]
    fn ablation_cache_off_costs_more_edges() {
        let rows = ablation(&tiny());
        let on = rows
            .iter()
            .find(|r| r.label.starts_with("cache on"))
            .unwrap();
        let off = rows.iter().find(|r| r.label == "cache off").unwrap();
        assert!(off.edges >= on.edges);
        assert_eq!(off.summaries, 0);
        assert!(render_ablation(&rows).contains("Ablation"));
    }
}
