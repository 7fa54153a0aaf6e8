//! A memory bound on the frozen graph: `Pag::heap_bytes` per node plus
//! edge, on generated graphs of all nine profiles.
//!
//! Each name is stored once, in one arena, and found through `u32` slot
//! tables, and each adjacency row has a 12-byte header (row start, `u8`
//! class ends, flag bits), so these graphs hold 55–60 bytes per node
//! plus edge, class hierarchy included (nine profiles, scales 0.01 and
//! 0.05). The bound leaves about 10% over that. Seven `u32` segment
//! offsets per node and direction measured 70–73 bytes on the same
//! graphs, and two heap `String`s per name (info record and hash-map
//! key) 104–125 (allocator overhead not counted), so either layout
//! fails here.

use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_workloads::{generate, GeneratorOptions, PROFILES};

const MAX_BYTES_PER_NODE_AND_EDGE: usize = 65;

#[test]
fn frozen_graph_heap_is_bounded_per_node_and_edge() {
    for profile in &PROFILES {
        let opts = GeneratorOptions {
            scale: 0.05,
            seed: 7,
            ..GeneratorOptions::default()
        };
        let w = generate(profile, &opts);
        let name = profile.name;
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
