//! # dynsum-pag — Pointer Assignment Graphs
//!
//! The program representation of *On-Demand Dynamic Summary-based
//! Points-to Analysis* (Shang, Xie, Xue — CGO 2012), §2.
//!
//! A [`Pag`] is a directed graph whose nodes are local variables (`V`),
//! global variables (`G`) and abstract heap objects (`O`), and whose
//! edges are the seven pointer-manipulating statement kinds of Figure 1
//! (`new`, `assign`, `assignglobal`, `load(f)`, `store(f)`, `entry_i`,
//! `exit_i`), all oriented in the direction of value flow. The crate
//! provides:
//!
//! * dense-id arenas and an invariant-checking [`PagBuilder`], which
//!   owns name resolution: the [text parser](crate::text) and the
//!   `dynsum-frontend` crate resolve names through its `find_*`
//!   lookups, and [`PagBuilder::finish`] moves its name arena and
//!   tables into the frozen [`Pag`] rather than rebuilding them;
//! * a sealed single-inheritance class [`Hierarchy`] with O(1) subtype
//!   tests (used by the `SafeCast` client and call resolution);
//! * precomputed bidirectional **kind-partitioned** adjacency plus the
//!   boundary-node bits the summarization algorithms need
//!   (`has_global_in` / `has_global_out`);
//! * [`PagStats`] — the Table 3 statistics (including the *locality*
//!   metric: the fraction of local edges);
//! * a line-oriented [text interchange format](crate::text) and
//!   [DOT export](crate::to_dot);
//! * structural [validation](crate::validate()).
//!
//! ## Performance architecture
//!
//! The demand-driven engines spend nearly all of their time iterating
//! adjacency, so the frozen graph's memory layout is organized around
//! that loop:
//!
//! * **Kind-partitioned CSR.** Each node's adjacency — in both value-flow
//!   directions — is one contiguous row of [`Adj`] entries, sorted by
//!   [`AdjClass`] (the seven [`EdgeKind`] constructors, local kinds
//!   first), and by [`EdgeId`] within a class. One 12-byte header per
//!   node and direction addresses the row: a `u32` row start, the seven
//!   class ends as `u8` offsets from it, and a flag byte. A row longer
//!   than 255 entries keeps its ends as `u32` offsets in a side table
//!   the header indexes (the benchmark graphs have four such rows each,
//!   of a few hundred entries). So [`Pag::out_seg`]`(n, k)` /
//!   [`Pag::in_seg`]`(n, k)` are one header read and a slice, never a
//!   search of the row: boundary nodes are hubs with hundreds of
//!   entries. The RSM transition loops (`dynsum-core`'s
//!   search/PPTA/driver) therefore iterate exactly the kinds they handle
//!   as straight segment scans — no per-edge `match`, no branch
//!   misprediction on mixed kinds.
//! * **Inline payload.** An [`Adj`] entry carries the far endpoint, the
//!   kind operand (field or call site) and the [`EdgeId`] in 12 bytes,
//!   so traversal never dereferences the [`Edge`] arena; `edges()` /
//!   `edge()` remain for cold paths (stats, validation, export). The
//!   per-field [`FieldEdge`] lists ([`Pag::stores_of`] /
//!   [`Pag::loads_of`]) inline both endpoints for the same reason —
//!   REFINEPTS's match edges expand through them allocation-free.
//! * **Classification bits in the header.** `has_global_in`/
//!   `has_global_out`/`has_local_edge` read the flag byte of a row
//!   header (is the row's local range, or its global range, non-empty?),
//!   which the driver already reads for the segments, not separate bit
//!   vectors.
//! * **Call-site index.** Under a non-empty calling context, an `entry`
//!   edge walked backwards into a formal (or an `exit` edge walked
//!   forwards out of a return variable) is only taken when its site is
//!   the context's top, yet a popular formal has one entry edge per
//!   caller — hundreds on the generated benchmarks. The index keeps each
//!   call site's entry edges sorted by formal and its exit edges by
//!   source, plus the recursive-site edges by node, so
//!   [`Pag::site_entries_into`] / [`Pag::site_exits_from`] /
//!   [`Pag::recursive_entries_into`] / [`Pag::recursive_exits_from`]
//!   return the matching part of a segment, in segment order, by binary
//!   search: the cost no longer grows with the caller count.
//! * **One build pass.** [`PagBuilder::finish`] counting-sorts edges by
//!   `(node, class)` in O(V·7 + E), after dropping the builder's wider
//!   edge tuples. Every array is allocated once, at its final size: the
//!   row headers count the rows and classes and then serve as their own
//!   fill cursors, so no per-node table is built and thrown away. Only
//!   the entry/exit edges are sorted, into the call-site index; the
//!   graph stays immutable afterwards, which is what makes the shared
//!   borrows of segments coexist with the engines' mutable traversal
//!   state.
//! * **Each name once.** Every field, method, variable, object and
//!   call-site name lives once, in one `String` arena; the info records
//!   ([`VarInfo`], [`ObjInfo`], [`MethodInfo`], [`CallSiteInfo`]) hold
//!   no strings, and names are read through [`Pag::var_name`],
//!   [`Pag::obj_label`], [`Pag::method_name`], [`Pag::site_label`] and
//!   [`Pag::field_name`]. Each namespace finds an id through an
//!   open-addressing `u32` slot table (load at most ½, linear probing)
//!   hashed by one per-builder `RandomState`, so `.pag` text cannot
//!   choose collisions, and a declaration checks for a duplicate and
//!   inserts in one probe. The builder deduplicates edges through the
//!   same slot table, keyed by the edge packed into a `u128`, so edges
//!   keep their first-occurrence [`EdgeId`] order. The class
//!   [`Hierarchy`] keeps each class name once, in its [`ClassInfo`],
//!   and finds it through the same kind of slot table.
//!   [`Pag::heap_bytes`] reports what the frozen arrays hold.
//! * **Fingerprint once.** [`Pag::fingerprint`] — the snapshot header's
//!   and the daemon session key's identity of the graph — hashes every
//!   edge and name with the frozen [`StableHasher`], 11–16 ms on the
//!   benchmark graphs. It is memoized in a `OnceLock` on first use, so
//!   daemon reconnects and snapshot saves and loads after the first
//!   cost O(1); it is never computed while building or parsing, so
//!   callers that never ask never pay.
//!
//! ## Quickstart
//!
//! ```
//! use dynsum_pag::PagBuilder;
//!
//! // v = new O(); w = v;
//! let mut b = PagBuilder::new();
//! let m = b.add_method("main", None)?;
//! let v = b.add_local("v", m, None)?;
//! let w = b.add_local("w", m, None)?;
//! let o = b.add_obj("o1", None, Some(m))?;
//! b.add_new(o, v)?;
//! b.add_assign(v, w)?;
//! let pag = b.finish();
//!
//! assert_eq!(pag.stats().local_edges(), 2);
//! assert!((pag.stats().locality() - 1.0).abs() < f64::EPSILON);
//! # Ok::<(), dynsum_pag::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dot;
mod edge;
mod graph;
mod hash;
mod ids;
mod meta;
mod names;
mod node;
mod rows;
mod sites;
mod stats;
pub mod text;
mod types;
mod validate;

pub use builder::{BuildError, PagBuilder};
pub use dot::to_dot;
pub use edge::{Adj, AdjClass, Edge, EdgeId, EdgeKind, FieldEdge};
pub use graph::Pag;
pub use hash::StableHasher;
pub use ids::{CallSiteId, ClassId, FieldId, MethodId, ObjId, VarId};
pub use meta::{CastSite, DerefSite, FactoryCandidate, ProgramInfo};
pub use node::{CallSiteInfo, MethodInfo, NodeId, NodeRef, ObjInfo, VarInfo, VarKind};
pub use stats::PagStats;
pub use types::{ClassInfo, Hierarchy, HierarchyError};
pub use validate::{validate, Violation};
