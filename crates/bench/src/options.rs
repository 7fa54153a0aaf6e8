//! Experiment options.

use dynsum_core::EngineConfig;
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions, Workload, PROFILES};

/// Options shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Workload scale relative to the paper's benchmark sizes.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Per-query traversal budget (the paper uses 75,000).
    pub budget: u64,
    /// Restrict to these benchmarks (all nine when empty).
    pub benchmarks: Vec<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            scale: 0.02,
            seed: 0xD45,
            budget: 75_000,
            benchmarks: Vec::new(),
        }
    }
}

impl ExperimentOptions {
    /// Parses command-line style arguments (`--scale 0.05 --seed 1
    /// --budget 75000 --bench soot-c,bloat`). Unknown flags, unknown
    /// benchmark names and scales the generator would reject are
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed arguments.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = ExperimentOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("flag {flag} expects a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--seed" => {
                    opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--budget" => {
                    opts.budget = value()?.parse().map_err(|e| format!("bad --budget: {e}"))?;
                }
                "--bench" => {
                    opts.benchmarks = value()?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if let Some(bad) = opts
                        .benchmarks
                        .iter()
                        .find(|b| BenchmarkProfile::find(b).is_none())
                    {
                        return Err(format!("unknown benchmark `{bad}`"));
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        opts.generator_options()
            .validate()
            .map_err(|e| format!("bad --scale: {e}"))?;
        Ok(opts)
    }

    /// The engine configuration implied by these options.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            budget: self.budget,
            ..EngineConfig::default()
        }
    }

    fn generator_options(&self) -> GeneratorOptions {
        GeneratorOptions {
            scale: self.scale,
            seed: self.seed,
            ..GeneratorOptions::default()
        }
    }

    /// Generates the selected workloads.
    pub fn workloads(&self) -> Vec<Workload> {
        let gen_opts = self.generator_options();
        PROFILES
            .iter()
            .filter(|p| self.benchmarks.is_empty() || self.benchmarks.iter().any(|b| b == p.name))
            .map(|p| generate(p, &gen_opts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_core::{DemandPointsTo, EngineKind, Session};

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_all_flags() {
        let o = ExperimentOptions::parse(args(
            "--scale 0.5 --seed 9 --budget 1000 --bench soot-c,bloat",
        ))
        .unwrap();
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.budget, 1000);
        assert_eq!(o.benchmarks, vec!["soot-c", "bloat"]);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(ExperimentOptions::parse(args("--nope 1")).is_err());
        assert!(ExperimentOptions::parse(args("--scale")).is_err());
        assert!(ExperimentOptions::parse(args("--scale abc")).is_err());
    }

    #[test]
    fn rejects_unknown_benchmarks() {
        for list in ["nosuch", "soot-c,nosuch"] {
            let err = ExperimentOptions::parse(args(&format!("--bench {list}"))).unwrap_err();
            assert!(err.contains("`nosuch`"), "{err}");
        }
    }

    #[test]
    fn rejects_scales_the_generator_rejects() {
        for scale in ["-1", "nan", "inf", "1e9"] {
            let err = ExperimentOptions::parse(args(&format!("--scale {scale}"))).unwrap_err();
            assert!(err.starts_with("bad --scale"), "{scale}: {err}");
        }
    }

    #[test]
    fn workload_filter_applies() {
        let mut o = ExperimentOptions {
            scale: 0.005,
            ..ExperimentOptions::default()
        };
        o.benchmarks = vec!["avrora".to_owned()];
        let ws = o.workloads();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].name, "avrora");
    }

    #[test]
    fn engine_kinds_build() {
        let o = ExperimentOptions {
            scale: 0.005,
            benchmarks: vec!["luindex".to_owned()],
            ..ExperimentOptions::default()
        };
        let w = &o.workloads()[0];
        for kind in [
            EngineKind::NoRefine,
            EngineKind::RefinePts,
            EngineKind::DynSum,
            EngineKind::StaSum,
        ] {
            let mut e = Session::with_config(&w.pag, kind, o.engine_config());
            assert_eq!(e.name(), kind.name());
            if let Some(&q) = w.info.derefs.first().map(|d| &d.base) {
                let _ = e.points_to(q);
            }
        }
    }
}
