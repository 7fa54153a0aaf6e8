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
//! * dense-id arenas and an invariant-checking [`PagBuilder`];
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
//!   directions — is one contiguous run of [`Adj`] entries, sorted by
//!   [`AdjClass`] (the seven [`EdgeKind`] constructors, local kinds
//!   first). A segment table of `num_nodes × 7 + 1` offsets addresses
//!   the run: [`Pag::out_seg`]`(n, k)` / [`Pag::in_seg`]`(n, k)` are two
//!   array reads and a slice. The RSM transition loops
//!   (`dynsum-core`'s search/PPTA/driver) therefore iterate exactly the
//!   kinds they handle as straight segment scans — no per-edge `match`,
//!   no branch misprediction on mixed kinds.
//! * **Inline payload.** An [`Adj`] entry carries the far endpoint, the
//!   kind operand (field or call site) and the [`EdgeId`] in 12 bytes,
//!   so traversal never dereferences the [`Edge`] arena; `edges()` /
//!   `edge()` remain for cold paths (stats, validation, export). The
//!   per-field [`FieldEdge`] lists ([`Pag::stores_of`] /
//!   [`Pag::loads_of`]) inline both endpoints for the same reason —
//!   REFINEPTS's match edges expand through them allocation-free.
//! * **Derived classification bits.** `has_global_in`/`has_global_out`/
//!   `has_local_edge` are range-emptiness checks on the segment table
//!   (the local classes are contiguous, as are the global ones), not
//!   separate bit vectors.
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
//!   `(node, class)` in O(V·7 + E), and sorts only the entry/exit edges
//!   into the call-site index; the graph stays immutable afterwards,
//!   which is what makes the shared borrows of segments coexist with
//!   the engines' mutable traversal state.
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
mod node;
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
