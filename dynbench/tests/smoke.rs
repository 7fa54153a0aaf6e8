//! A tiny-scale run of every workload, untraced and traced: each must pass
//! its checks and print every metric `BENCHMARK.json` declares, with its
//! declared unit, on its last line.

use std::process::Command;

use dynsum_service::json::{self, Json};

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for workload in ["paper-batch", "daemon", "edit-restart"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_dynbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--scale", "0.01"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let want = declared(key);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} trace {trace}: {last}"
            );
            for (name, unit) in want {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(&name))
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }
}
