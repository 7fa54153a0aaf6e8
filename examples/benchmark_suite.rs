//! Generate the nine-benchmark synthetic suite and run a miniature of
//! the paper's evaluation: per-benchmark statistics (Table 3 shape, plus
//! the frozen graph's heap bytes per node and edge) and
//! DYNSUM-vs-REFINEPTS edge speedups (Table 4 shape).
//!
//! Run with: `cargo run --release --example benchmark_suite [-- scale]`

use dynsum::EngineConfig;
use dynsum_clients::{run_client, ClientKind};
use dynsum_core::{EngineKind, Session};
use dynsum_workloads::{generate, GeneratorOptions, PROFILES};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let opts = GeneratorOptions {
        scale,
        ..GeneratorOptions::default()
    };
    println!(
        "{:<8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "bench", "nodes", "edges", "B/n+e", "locality", "paper", "SafeCast", "NullDrf", "FactoryM"
    );
    for profile in &PROFILES {
        let w = generate(profile, &opts);
        let s = w.pag.stats();
        let bytes_per_item =
            w.pag.heap_bytes() as f64 / (w.pag.num_nodes() + w.pag.num_edges()).max(1) as f64;
        let mut speedups = Vec::new();
        for client in ClientKind::ALL {
            let config = EngineConfig::default();
            let mut dynsum = Session::with_config(&w.pag, EngineKind::DynSum, config);
            let mut refine = Session::with_config(&w.pag, EngineKind::RefinePts, config);
            let rd = run_client(client, &w.info, &mut dynsum);
            let rr = run_client(client, &w.info, &mut refine);
            let speedup = rr.stats.edges_traversed as f64 / rd.stats.edges_traversed.max(1) as f64;
            speedups.push(format!("{speedup:.2}x"));
        }
        println!(
            "{:<8} {:>7} {:>7} {:>7.1} {:>8.1}% {:>8.1}% {:>8} {:>8} {:>8}",
            w.name,
            s.total_nodes(),
            s.total_edges(),
            bytes_per_item,
            s.locality() * 100.0,
            profile.paper_locality_pct,
            speedups[0],
            speedups[1],
            speedups[2],
        );
    }
    println!(
        "\n(B/n+e: Pag::heap_bytes per node plus edge; \
         speedup columns: REFINEPTS edges / DYNSUM edges per client)"
    );
}
