//! Kind-partitioned adjacency rows with one compact header per node.
//!
//! Each node's adjacency in one value-flow direction is one contiguous
//! row of [`Adj`] entries, sorted by [`AdjClass`] and, within a class,
//! by [`EdgeId`]. A 12-byte [`Head`] per node locates the row and its
//! seven class ranges: a `u32` row start, the classes' ends as `u8`
//! offsets from that start, and a flag byte that answers the driver's
//! classification tests (local edge, global edge) without touching the
//! ends. Rows longer than a `u8` offset reaches are *wide*: their ends
//! are `u32` offsets in a side table that the header indexes. Either
//! way a class range costs one header read (plus one side-table read
//! for the few wide rows), never a search of the row.

use crate::edge::{Adj, AdjClass, Edge, EdgeId, EdgeKind};
use crate::names::vec_bytes;
use crate::node::NodeId;

const K: usize = AdjClass::COUNT;

/// Flag: the row holds an entry of a local class.
const LOCAL: u8 = 1;
/// Flag: the row holds an entry of a global class.
const GLOBAL: u8 = 2;
/// Flag: the row is wide; `ends[..4]` holds its index in [`Rows::wide`].
const WIDE: u8 = 4;

/// One row's header: 12 bytes, against 28 for seven `u32` offsets.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    /// Where the row starts in [`Rows::list`].
    start: u32,
    /// A narrow row's class ends: class `k` ends `ends[k]` entries after
    /// `start` (and begins where class `k - 1` ends, or at `start`).
    ends: [u8; K],
    /// `LOCAL`, `GLOBAL` and `WIDE` bits.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Head>() == 12);

impl Head {
    #[inline]
    fn wide_index(&self) -> usize {
        let e = self.ends;
        u32::from_le_bytes([e[0], e[1], e[2], e[3]]) as usize
    }
}

/// Classes `lo..hi`' range relative to the row start, given its ends.
#[inline]
fn span<T: Copy + Into<u32>>(ends: &[T; K], lo: usize, hi: usize) -> (usize, usize) {
    let end = |k: usize| ends[k].into() as usize;
    (if lo == 0 { 0 } else { end(lo - 1) }, end(hi - 1))
}

/// The adjacency of every node in one direction.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    heads: Vec<Head>,
    /// Wide rows' class ends, relative to the row start as in `Head::ends`.
    wide: Vec<[u32; K]>,
    list: Vec<Adj>,
}

impl Rows {
    /// The entries of classes `lo..hi` (`lo < hi <= 7`) of `n`'s row.
    #[inline]
    pub(crate) fn classes(&self, n: NodeId, lo: usize, hi: usize) -> &[Adj] {
        let h = &self.heads[n.index()];
        let (a, b) = if h.flags & WIDE == 0 {
            span(&h.ends, lo, hi)
        } else {
            span(&self.wide[h.wide_index()], lo, hi)
        };
        let start = h.start as usize;
        &self.list[start + a..start + b]
    }

    /// `true` if `n`'s row holds an entry of a local class.
    #[inline]
    pub(crate) fn has_local(&self, n: NodeId) -> bool {
        self.heads[n.index()].flags & LOCAL != 0
    }

    /// `true` if `n`'s row holds an entry of a global class.
    #[inline]
    pub(crate) fn has_global(&self, n: NodeId) -> bool {
        self.heads[n.index()].flags & GLOBAL != 0
    }

    /// The bytes the headers, the wide ends and the entries hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.heads) + vec_bytes(&self.wide) + vec_bytes(&self.list)
    }

    /// End of class `k` of row `n`, relative to the row start.
    fn end(&self, n: usize, k: usize) -> u32 {
        let h = &self.heads[n];
        if h.flags & WIDE == 0 {
            u32::from(h.ends[k])
        } else {
            self.wide[h.wide_index()][k]
        }
    }

    fn set_end(&mut self, n: usize, k: usize, v: u32) {
        let h = &mut self.heads[n];
        if h.flags & WIDE == 0 {
            h.ends[k] = u8::try_from(v).expect("narrow rows fit u8 offsets");
        } else {
            self.wide[h.wide_index()][k] = v;
        }
    }

    /// Counting-sorts `edges` into the rows of `num_nodes` nodes.
    /// `endpoints(e)` names the node whose row holds `e` and the far
    /// endpoint the entry carries. Every array is allocated once, at its
    /// final size, and the headers are their own counters and fill
    /// cursors.
    pub(crate) fn build(
        num_nodes: usize,
        edges: &[Edge],
        endpoints: impl Fn(&Edge) -> (NodeId, NodeId),
    ) -> Rows {
        // Row lengths, counted in `start`, then turned into row starts.
        let mut heads = vec![Head::default(); num_nodes];
        for e in edges {
            heads[endpoints(e).0.index()].start += 1;
        }
        let narrow = |len: u32| len <= u32::from(u8::MAX);
        let num_wide = heads.iter().filter(|h| !narrow(h.start)).count();
        let mut wide = Vec::with_capacity(num_wide);
        let mut start = 0u32;
        for h in &mut heads {
            let len = std::mem::replace(&mut h.start, start);
            start += len;
            if !narrow(len) {
                h.flags = WIDE;
                h.ends[..4].copy_from_slice(&(wide.len() as u32).to_le_bytes());
                wide.push([0; K]);
            }
        }
        let mut rows = Rows {
            heads,
            wide,
            list: Vec::new(),
        };

        // Class `k`'s count goes one slot up, at `k + 1` (the last
        // class's is not needed), so after the prefix sums slot `k` holds
        // class `k`'s start. Filling advances it to class `k`'s end.
        for e in edges {
            let k = AdjClass::of(e.kind) as usize;
            if k + 1 < K {
                let n = endpoints(e).0.index();
                rows.set_end(n, k + 1, rows.end(n, k + 1) + 1);
            }
        }
        for n in 0..num_nodes {
            for k in 1..K {
                rows.set_end(n, k, rows.end(n, k) + rows.end(n, k - 1));
            }
        }
        let nil = Adj {
            node: NodeId(0),
            operand: 0,
            edge: EdgeId(0),
        };
        rows.list = vec![nil; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let (n, far) = endpoints(e);
            let k = AdjClass::of(e.kind) as usize;
            let at = rows.end(n.index(), k);
            rows.list[(rows.heads[n.index()].start + at) as usize] = Adj {
                node: far,
                operand: operand_of(e.kind),
                edge: EdgeId(i as u32),
            };
            rows.set_end(n.index(), k, at + 1);
        }

        for n in 0..num_nodes {
            let (local_end, row_end) = (rows.end(n, AdjClass::LOCAL_END - 1), rows.end(n, K - 1));
            let h = &mut rows.heads[n];
            if local_end > 0 {
                h.flags |= LOCAL;
            }
            if row_end > local_end {
                h.flags |= GLOBAL;
            }
        }
        rows
    }
}

/// The operand an [`Adj`] carries for an edge of `kind`.
fn operand_of(kind: EdgeKind) -> u32 {
    match kind {
        EdgeKind::Load(f) | EdgeKind::Store(f) => f.as_raw(),
        EdgeKind::Entry(i) | EdgeKind::Exit(i) => i.as_raw(),
        EdgeKind::New | EdgeKind::Assign | EdgeKind::AssignGlobal => 0,
    }
}
