//! The wide-row path of the compact adjacency headers. A row whose
//! class ends do not fit `u8` offsets keeps them in a side table, and
//! no generated workload has such a row at test scales. Here hubs have
//! in-rows and out-rows of 254, 255, 256 and 70,000 entries (the last
//! past `u16`), spread over every class a row can hold, plus one hub
//! whose wide rows fill a single class. Every `out_seg`, `in_seg`,
//! `*_edges` and `has_*` answer of every node is checked against the
//! flat `edges()` view.

use dynsum_pag::{AdjClass, EdgeKind, Pag, PagBuilder, VarId};

/// Row lengths of the spread hubs, in each direction.
const LENGTHS: [usize; 4] = [254, 255, 256, 70_000];
/// Row length of the hub whose out-row is all `exit` and whose in-row
/// is all `new`.
const ONE_CLASS: usize = 300;

/// The graph, and each hub with its row length.
fn hub_graph() -> (Pag, Vec<(VarId, usize)>) {
    let mut b = PagBuilder::new();
    let m = b.add_method("m", None).unwrap();
    let site = b.add_call_site("s", m).unwrap();
    let f = b.field("f");
    // Enough spokes for the largest class share of the largest row.
    let spokes = LENGTHS[3] / 6 + 1;
    let locals: Vec<VarId> = (0..spokes)
        .map(|i| b.add_local(&format!("l{i}"), m, None).unwrap())
        .collect();
    let globals: Vec<VarId> = (0..spokes)
        .map(|i| b.add_global(&format!("g{i}"), None).unwrap())
        .collect();
    let mut objs = 0;
    let mut new_obj = |b: &mut PagBuilder| {
        objs += 1;
        b.add_obj(&format!("o{objs}"), None, Some(m)).unwrap()
    };

    let mut hubs = Vec::new();
    for (h, &len) in LENGTHS.iter().enumerate() {
        let hub = b.add_local(&format!("hub{h}"), m, None).unwrap();
        // Out-row: the six classes a variable's out-row can hold,
        // interleaved so the build has to sort them.
        for i in 0..len {
            let (l, g) = (locals[i / 6], globals[i / 6]);
            match i % 6 {
                0 => b.add_assign(hub, l),
                1 => b.add_load(f, hub, l),
                2 => b.add_store(f, hub, l),
                3 => b.add_assign(hub, g),
                4 => b.add_entry(site, hub, l),
                _ => b.add_exit(site, hub, l),
            }
            .unwrap();
        }
        // In-row: all seven classes.
        for i in 0..len {
            let (l, g) = (locals[i / 7], globals[i / 7]);
            match i % 7 {
                0 => {
                    let o = new_obj(&mut b);
                    b.add_new(o, hub)
                }
                1 => b.add_assign(l, hub),
                2 => b.add_load(f, l, hub),
                3 => b.add_store(f, l, hub),
                4 => b.add_assign(g, hub),
                5 => b.add_entry(site, l, hub),
                _ => b.add_exit(site, l, hub),
            }
            .unwrap();
        }
        hubs.push((hub, len));
    }
    let hub = b.add_local("one-class", m, None).unwrap();
    for &l in &locals[..ONE_CLASS] {
        b.add_exit(site, hub, l).unwrap();
        let o = new_obj(&mut b);
        b.add_new(o, hub).unwrap();
    }
    hubs.push((hub, ONE_CLASS));
    (b.finish(), hubs)
}

/// Checks one direction of every node against the flat edge list: the
/// rows, concatenated in node order, are the edges sorted by (node,
/// class, `EdgeId`), each class segment is its part of the row, and
/// each entry carries its edge's far endpoint and operand.
fn check_direction(pag: &Pag, out: bool) {
    let mut want: Vec<(usize, AdjClass, usize)> = pag
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let this = if out { e.src } else { e.dst };
            (this.index(), AdjClass::of(e.kind), i)
        })
        .collect();
    want.sort_unstable();
    let mut want = want.into_iter();
    for n in pag.nodes() {
        let row = if out {
            pag.out_edges(n)
        } else {
            pag.in_edges(n)
        };
        let mut at = 0;
        for k in AdjClass::ALL {
            let seg = if out {
                pag.out_seg(n, k)
            } else {
                pag.in_seg(n, k)
            };
            assert_eq!(seg, &row[at..at + seg.len()], "{k:?} segment of {n:?}");
            at += seg.len();
            for a in seg {
                let got = (n.index(), k, a.edge.index());
                assert_eq!(want.next(), Some(got), "out: {out}");
                let e = pag.edge(a.edge);
                assert_eq!(a.node, if out { e.dst } else { e.src }, "far endpoint");
                match e.kind {
                    EdgeKind::Load(f) | EdgeKind::Store(f) => assert_eq!(a.field(), f),
                    EdgeKind::Entry(s) | EdgeKind::Exit(s) => assert_eq!(a.site(), s),
                    EdgeKind::New | EdgeKind::Assign | EdgeKind::AssignGlobal => {}
                }
            }
        }
        assert_eq!(at, row.len(), "{n:?}'s row is its segments");
    }
    assert_eq!(want.next(), None, "out: {out}: every edge has an entry");
}

#[test]
fn wide_rows_match_the_flat_edge_list() {
    let (pag, hubs) = hub_graph();
    for &(hub, len) in &hubs {
        let n = pag.var_node(hub);
        assert_eq!(pag.out_edges(n).len(), len);
        assert_eq!(pag.in_edges(n).len(), len);
    }
    check_direction(&pag, true);
    check_direction(&pag, false);

    let mut global_in = vec![false; pag.num_nodes()];
    let mut global_out = global_in.clone();
    let mut local = global_in.clone();
    for e in pag.edges() {
        if e.kind.is_global() {
            global_out[e.src.index()] = true;
            global_in[e.dst.index()] = true;
        } else {
            local[e.src.index()] = true;
            local[e.dst.index()] = true;
        }
    }
    for n in pag.nodes() {
        assert_eq!(pag.has_global_in(n), global_in[n.index()], "{n:?}");
        assert_eq!(pag.has_global_out(n), global_out[n.index()], "{n:?}");
        assert_eq!(pag.has_local_edge(n), local[n.index()], "{n:?}");
    }
    let (one_class, _) = hubs[LENGTHS.len()];
    let n = pag.var_node(one_class);
    assert!(pag.has_global_out(n) && !pag.has_global_in(n));
    assert_eq!(pag.out_seg(n, AdjClass::Exit).len(), ONE_CLASS);
    assert_eq!(pag.in_seg(n, AdjClass::New).len(), ONE_CLASS);
}
