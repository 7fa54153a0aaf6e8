//! A memory bound on the frozen graph: `Pag::heap_bytes` per node plus
//! edge, on generated graphs of the benchmark's three profiles.
//!
//! Each name is stored once, in one arena, and found through `u32` slot
//! tables, so these graphs hold 70–73 bytes per node plus edge (nine
//! profiles, scales 0.01 and 0.05). The bound leaves about 10% over
//! that. Storing each name as two heap `String`s, one in its info
//! record and one as a hash-map key, measured 104–125 bytes on the same
//! graphs (allocator overhead not counted), so such a layout fails here.

use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};

const MAX_BYTES_PER_NODE_AND_EDGE: usize = 80;

#[test]
fn frozen_graph_heap_is_bounded_per_node_and_edge() {
    for name in ["soot-c", "bloat", "jython"] {
        let opts = GeneratorOptions {
            scale: 0.05,
            seed: 7,
            ..GeneratorOptions::default()
        };
        let w = generate(BenchmarkProfile::find(name).unwrap(), &opts);
        let items = w.pag.num_nodes() + w.pag.num_edges();
        let bytes = w.pag.heap_bytes();
        assert!(
            bytes <= MAX_BYTES_PER_NODE_AND_EDGE * items,
            "{name}: {bytes} bytes for {items} nodes and edges"
        );
        // A graph parsed from text holds the same arrays.
        let parsed = parse_pag(&write_pag(&w.pag)).unwrap();
        assert_eq!(parsed.heap_bytes(), bytes, "{name}");
    }
}
