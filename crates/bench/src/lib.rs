//! # dynsum-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the synthetic benchmark suite:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1`  | Table 1 — DYNSUM's traversal traces for `s1`/`s2` on Figure 2 |
//! | `table2`  | Table 2 — qualitative algorithm comparison |
//! | `table3`  | Table 3 — benchmark statistics (locality, query counts) |
//! | `table4`  | Table 4 — analysis times of NOREFINE/REFINEPTS/DYNSUM × 3 clients |
//! | `figure4` | Figure 4 — per-batch DYNSUM time normalized to REFINEPTS |
//! | `figure5` | Figure 5 — cumulative DYNSUM summaries as % of STASUM |
//! | `ablation`| extra: cache on/off, context sensitivity, budget sweeps |
//!
//! `table1` and `table2` take no arguments (any argument is a usage
//! error). Every other binary accepts `--scale <f>` (default 0.02),
//! `--seed <n>`, `--budget <n>` (default: the paper's, from
//! `EngineConfig::default`) and `--bench <name,...>`; the same
//! experiments are exposed as library functions so the integration tests
//! can run them at tiny scales. These bins reproduce the paper; the
//! implementation's own performance is measured by the repository
//! benchmark (`dynbench/`, `make bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod options;
mod table;

pub use experiments::{
    ablation, figure4, figure5, render_ablation, render_figure4, render_figure5, table1, table2,
    table3, table4, AblationRow, BatchSeries, Figure5Row, Table1Output, Table4Cell, Table4Output,
};
pub use options::ExperimentOptions;
pub use table::Table;
