//! The call-site index: context matching without scanning every caller.
//!
//! Two transitions of the `R_RP` RSM pop the calling context: an
//! `entry_i` edge walked backwards into a formal parameter and an
//! `exit_i` edge walked forwards out of a callee's return variable. Under
//! a non-empty context only the edges labelled with the context's top
//! site (plus the context-transparent recursive sites) can be taken. A
//! formal of a popular method has one entry edge per caller, so finding
//! those few by scanning the node's whole segment costs the caller count
//! on every visit. The index answers "the `entry_i` edges into `n`" with
//! a binary search inside call site `i`'s own run instead.

use crate::edge::{Adj, Edge, EdgeId, EdgeKind};
use crate::ids::CallSiteId;
use crate::names::vec_bytes;
use crate::node::{CallSiteInfo, NodeId};

/// Adjacency entries grouped into runs, each run sorted by a node key
/// with ties in [`EdgeId`] order, so a `(run, key)` lookup is a binary
/// search that returns a slice in segment order.
#[derive(Debug, Clone)]
struct KeyedRuns {
    /// Run `r` is `keys[off[r]..off[r + 1]]` / `adjs[off[r]..off[r + 1]]`.
    off: Vec<u32>,
    keys: Vec<NodeId>,
    adjs: Vec<Adj>,
}

impl KeyedRuns {
    fn build(runs: usize, mut items: Vec<(usize, NodeId, Adj)>) -> KeyedRuns {
        items.sort_unstable_by_key(|&(run, key, a)| (run, key, a.edge));
        let off = (0..=runs)
            .map(|r| {
                let at = items.partition_point(|&(run, ..)| run < r);
                u32::try_from(at).expect("PagBuilder keeps the edge count within u32")
            })
            .collect();
        KeyedRuns {
            off,
            keys: items.iter().map(|&(_, key, _)| key).collect(),
            adjs: items.into_iter().map(|(.., a)| a).collect(),
        }
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.off) + vec_bytes(&self.keys) + vec_bytes(&self.adjs)
    }

    #[inline]
    fn get(&self, run: usize, key: NodeId) -> &[Adj] {
        let (lo, hi) = (self.off[run] as usize, self.off[run + 1] as usize);
        let keys = &self.keys[lo..hi];
        let start = keys.partition_point(|&k| k < key);
        // Matches are few (one per actual or caller), so scan for the end.
        let len = keys[start..].iter().take_while(|&&k| k == key).count();
        &self.adjs[lo + start..lo + start + len]
    }
}

/// The call-site index of a frozen [`Pag`](crate::Pag), built once in
/// `Pag::assemble`.
#[derive(Debug, Clone)]
pub(crate) struct SiteIndex {
    /// One run per call site: its entry edges keyed by the formal
    /// (`dst`); entries carry the actual (`src`).
    entries: KeyedRuns,
    /// One run per call site: its exit edges keyed by the callee's
    /// return variable (`src`); entries carry the caller's `dst`.
    exits: KeyedRuns,
    /// A single run: every recursive-site entry edge, keyed by formal.
    recursive_entries: KeyedRuns,
    /// A single run: every recursive-site exit edge, keyed by source.
    recursive_exits: KeyedRuns,
}

impl SiteIndex {
    pub(crate) fn build(call_sites: &[CallSiteInfo], edges: &[Edge]) -> SiteIndex {
        let (mut entries, mut exits) = (Vec::new(), Vec::new());
        let (mut recursive_entries, mut recursive_exits) = (Vec::new(), Vec::new());
        for (i, e) in edges.iter().enumerate() {
            let (site, callee, far, runs, recursive) = match e.kind {
                EdgeKind::Entry(s) => (s, e.dst, e.src, &mut entries, &mut recursive_entries),
                EdgeKind::Exit(s) => (s, e.src, e.dst, &mut exits, &mut recursive_exits),
                _ => continue,
            };
            let a = Adj {
                node: far,
                operand: site.as_raw(),
                edge: EdgeId(u32::try_from(i).expect("PagBuilder keeps edge ids within u32")),
            };
            runs.push((site.index(), callee, a));
            if call_sites[site.index()].recursive {
                recursive.push((0, callee, a));
            }
        }
        SiteIndex {
            entries: KeyedRuns::build(call_sites.len(), entries),
            exits: KeyedRuns::build(call_sites.len(), exits),
            recursive_entries: KeyedRuns::build(1, recursive_entries),
            recursive_exits: KeyedRuns::build(1, recursive_exits),
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        [
            &self.entries,
            &self.exits,
            &self.recursive_entries,
            &self.recursive_exits,
        ]
        .iter()
        .map(|runs| runs.heap_bytes())
        .sum()
    }

    #[inline]
    pub(crate) fn entries_into(&self, s: CallSiteId, n: NodeId) -> &[Adj] {
        self.entries.get(s.index(), n)
    }

    #[inline]
    pub(crate) fn exits_from(&self, s: CallSiteId, n: NodeId) -> &[Adj] {
        self.exits.get(s.index(), n)
    }

    #[inline]
    pub(crate) fn recursive_entries_into(&self, n: NodeId) -> &[Adj] {
        self.recursive_entries.get(0, n)
    }

    #[inline]
    pub(crate) fn recursive_exits_from(&self, n: NodeId) -> &[Adj] {
        self.recursive_exits.get(0, n)
    }
}
