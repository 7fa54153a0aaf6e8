//! Property test for the kind-partitioned PAG adjacency: on randomly
//! generated workload graphs, the per-node kind segments must enumerate
//! exactly the same edge multiset as the flat `edges()` view — each edge
//! once per direction, in the segment of its kind, with its payload
//! (far endpoint + field/site operand) inlined faithfully. The derived
//! classification bits (`has_global_in`/`has_global_out`/
//! `has_local_edge`) and the per-field store/load lists are re-derived
//! from the flat view and compared too, and the call-site index is
//! checked against the site-filtered entry/exit segments.

use dynsum_pag::{Adj, AdjClass, EdgeKind, NodeId, Pag};
use dynsum_workloads::{generate, GeneratorOptions, PROFILES};
use proptest::prelude::*;

/// Checks one direction: every (node, class) segment against the flat
/// edge arena. Returns the per-edge visit counts. (Plain asserts: the
/// vendored proptest shim maps `prop_assert!` to `assert!` anyway.)
fn check_direction(pag: &Pag, out: bool) -> Vec<u32> {
    let mut visits = vec![0u32; pag.num_edges()];
    for n in pag.nodes() {
        let mut total = 0;
        for k in AdjClass::ALL {
            let seg = if out {
                pag.out_seg(n, k)
            } else {
                pag.in_seg(n, k)
            };
            total += seg.len();
            for &a in seg {
                let e = pag.edge(a.edge);
                assert_eq!(AdjClass::of(e.kind), k, "entry filed under wrong class");
                let (this_end, far_end) = if out { (e.src, e.dst) } else { (e.dst, e.src) };
                assert_eq!(this_end, n, "edge in the wrong node's adjacency");
                assert_eq!(a.node, far_end, "inline endpoint mismatch");
                match e.kind {
                    EdgeKind::Load(f) | EdgeKind::Store(f) => {
                        assert_eq!(a.field(), f, "inline field operand mismatch")
                    }
                    EdgeKind::Entry(i) | EdgeKind::Exit(i) => {
                        assert_eq!(a.site(), i, "inline site operand mismatch")
                    }
                    EdgeKind::New | EdgeKind::Assign | EdgeKind::AssignGlobal => {}
                }
                visits[a.edge.index()] += 1;
            }
        }
        // The whole-node view is the concatenation of the segments.
        let whole = if out {
            pag.out_edges(n)
        } else {
            pag.in_edges(n)
        };
        assert_eq!(whole.len(), total, "whole-node slice != sum of segments");
    }
    visits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn segments_enumerate_the_flat_edge_multiset(
        profile in 0usize..PROFILES.len(),
        seed in any::<u64>(),
        scale_step in 1usize..=3,
    ) {
        let opts = GeneratorOptions {
            scale: scale_step as f64 * 0.002,
            seed,
            ..GeneratorOptions::default()
        };
        let w = generate(&PROFILES[profile], &opts);
        let pag = &w.pag;

        for out in [true, false] {
            let visits = check_direction(pag, out);
            prop_assert!(
                visits.iter().all(|&c| c == 1),
                "every edge must appear exactly once per direction ({})",
                if out { "out" } else { "in" }
            );
        }

        // Classification bits match a recomputation from the flat view.
        for n in pag.nodes() {
            let flat_global_in = pag
                .edges()
                .iter()
                .any(|e| e.kind.is_global() && e.dst == n);
            let flat_global_out = pag
                .edges()
                .iter()
                .any(|e| e.kind.is_global() && e.src == n);
            let flat_local = pag
                .edges()
                .iter()
                .any(|e| e.kind.is_local() && (e.src == n || e.dst == n));
            prop_assert_eq!(pag.has_global_in(n), flat_global_in);
            prop_assert_eq!(pag.has_global_out(n), flat_global_out);
            prop_assert_eq!(pag.has_local_edge(n), flat_local);
        }

        // Field-indexed store/load lists match the flat view.
        for (f, _) in pag.fields() {
            let flat_stores = pag
                .edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Store(f))
                .count();
            let flat_loads = pag
                .edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::Load(f))
                .count();
            prop_assert_eq!(pag.stores_of(f).len(), flat_stores);
            prop_assert_eq!(pag.loads_of(f).len(), flat_loads);
            for &fe in pag.stores_of(f) {
                let e = pag.edge(fe.edge);
                prop_assert_eq!(e.kind, EdgeKind::Store(f));
                prop_assert_eq!((fe.src, fe.dst), (e.src, e.dst));
            }
            for &fe in pag.loads_of(f) {
                let e = pag.edge(fe.edge);
                prop_assert_eq!(e.kind, EdgeKind::Load(f));
                prop_assert_eq!((fe.src, fe.dst), (e.src, e.dst));
            }
        }
    }
}

/// Checks the call-site index lookups of one node in one popping
/// direction against the node's segment filtered by site.
fn check_site_index(pag: &Pag, n: NodeId, entry: bool) {
    let seg = if entry {
        pag.in_seg(n, AdjClass::Entry)
    } else {
        pag.out_seg(n, AdjClass::Exit)
    };
    let mut sites: Vec<_> = seg.iter().map(|a| a.site()).collect();
    sites.sort_unstable();
    sites.dedup();
    for s in sites {
        let want: Vec<Adj> = seg.iter().copied().filter(|a| a.site() == s).collect();
        let got = if entry {
            pag.site_entries_into(s, n)
        } else {
            pag.site_exits_from(s, n)
        };
        assert_eq!(got, &want[..], "site {s} at {n:?}");
    }
    let want: Vec<Adj> = seg
        .iter()
        .copied()
        .filter(|a| pag.is_recursive_site(a.site()))
        .collect();
    let got = if entry {
        pag.recursive_entries_into(n)
    } else {
        pag.recursive_exits_from(n)
    };
    assert_eq!(got, &want[..], "recursive sites at {n:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The call-site index returns exactly the site-filtered segment, in
    /// segment (`EdgeId`) order, for every node and every site on it —
    /// so each entry/exit edge is found under its own `(site, node)` key.
    #[test]
    fn site_index_matches_filtered_segments(
        profile in 0usize..PROFILES.len(),
        seed in any::<u64>(),
        recursion in 0usize..=2,
    ) {
        let opts = GeneratorOptions {
            scale: 0.004,
            seed,
            recursion_bias: recursion as f64 * 0.5,
            ..GeneratorOptions::default()
        };
        let w = generate(&PROFILES[profile], &opts);
        let pag = &w.pag;
        for n in pag.nodes() {
            check_site_index(pag, n, true);
            check_site_index(pag, n, false);
        }
        // A site with no edge at a node yields nothing there.
        let first = pag.call_sites().next().map(|(s, _)| s);
        if let Some(s) = first {
            for n in pag.nodes() {
                if pag.in_seg(n, AdjClass::Entry).iter().all(|a| a.site() != s) {
                    prop_assert!(pag.site_entries_into(s, n).is_empty());
                }
            }
        }
    }
}
