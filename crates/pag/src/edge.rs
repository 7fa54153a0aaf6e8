//! PAG edges: the seven statement kinds of Figure 1.
//!
//! Every edge is oriented in the direction of **value flow**:
//!
//! | statement              | edge                              |
//! |------------------------|-----------------------------------|
//! | `v = new O`            | `o --new--> v`                    |
//! | `v2 = v1` (locals)     | `v1 --assign--> v2`               |
//! | `v2 = v1` (any global) | `v1 --assignglobal--> v2`         |
//! | `v2 = v1.f`            | `v1 --load(f)--> v2` (base → dst) |
//! | `v2.f = v1`            | `v1 --store(f)--> v2` (src → base)|
//! | actual → formal at `i` | `a --entry_i--> p`                |
//! | return at `i`          | `r --exit_i--> d`                 |
//!
//! The demand-driven analyses traverse these edges both forwards
//! (`flowsTo` direction) and backwards (`pointsTo`/`flowsTo-bar`
//! direction); the graph stores both adjacency directions.

use crate::ids::{CallSiteId, FieldId};
use crate::node::NodeId;

/// The label of a PAG edge.
///
/// The first four kinds are **local** edges (intra-method, no effect on the
/// calling context); the last three are **global** edges (no effect on
/// field-sensitivity). This split is the foundation of the paper's partial
/// points-to analysis (§4).
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Allocation: object flows into its defining variable.
    New,
    /// Local assignment between two locals of the same method.
    Assign,
    /// Field load: base flows to destination under `load(f)`.
    Load(FieldId),
    /// Field store: source value flows to base under `store(f)`.
    Store(FieldId),
    /// Assignment where at least one side is a global variable;
    /// context-insensitive (clears the context stack).
    AssignGlobal,
    /// Parameter passing: actual argument to formal parameter at site `i`.
    Entry(CallSiteId),
    /// Method return: returned local to caller-side destination at site
    /// `i`.
    Exit(CallSiteId),
}

impl EdgeKind {
    /// `true` for the four local (intra-method) kinds.
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(
            self,
            EdgeKind::New | EdgeKind::Assign | EdgeKind::Load(_) | EdgeKind::Store(_)
        )
    }

    /// `true` for the three global kinds.
    #[inline]
    pub fn is_global(self) -> bool {
        !self.is_local()
    }

    /// The field label for loads and stores.
    #[inline]
    pub fn field(self) -> Option<FieldId> {
        match self {
            EdgeKind::Load(f) | EdgeKind::Store(f) => Some(f),
            _ => None,
        }
    }

    /// The call site for entry and exit edges.
    #[inline]
    pub fn call_site(self) -> Option<CallSiteId> {
        match self {
            EdgeKind::Entry(i) | EdgeKind::Exit(i) => Some(i),
            _ => None,
        }
    }

    /// Short name used by the text format and statistics.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::New => "new",
            EdgeKind::Assign => "assign",
            EdgeKind::Load(_) => "load",
            EdgeKind::Store(_) => "store",
            EdgeKind::AssignGlobal => "assignglobal",
            EdgeKind::Entry(_) => "entry",
            EdgeKind::Exit(_) => "exit",
        }
    }
}

/// One edge of the PAG, in value-flow orientation.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node (value producer).
    pub src: NodeId,
    /// Destination node (value consumer).
    pub dst: NodeId,
    /// Statement label.
    pub kind: EdgeKind,
}

/// The segment class of an adjacency entry: one per [`EdgeKind`]
/// constructor, with the **local** classes first, so a row's local
/// entries, and its global ones, are each one contiguous range.
///
/// The frozen [`Pag`](crate::Pag) stores each node's adjacency sorted by
/// this class, so the traversal engines iterate exactly the kinds they
/// handle — no per-edge `match` in the inner loops.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum AdjClass {
    /// `new` edges.
    New = 0,
    /// Local `assign` edges.
    Assign = 1,
    /// `load(f)` edges.
    Load = 2,
    /// `store(f)` edges.
    Store = 3,
    /// `assignglobal` edges.
    AssignGlobal = 4,
    /// `entry_i` edges.
    Entry = 5,
    /// `exit_i` edges.
    Exit = 6,
}

impl AdjClass {
    /// Number of classes (segments per node and direction).
    pub const COUNT: usize = 7;

    /// All classes, in segment storage order.
    pub const ALL: [AdjClass; AdjClass::COUNT] = [
        AdjClass::New,
        AdjClass::Assign,
        AdjClass::Load,
        AdjClass::Store,
        AdjClass::AssignGlobal,
        AdjClass::Entry,
        AdjClass::Exit,
    ];

    /// First global class: classes `< LOCAL_END` are the local kinds.
    pub(crate) const LOCAL_END: usize = 4;

    /// The class of an edge kind.
    #[inline]
    pub fn of(kind: EdgeKind) -> AdjClass {
        match kind {
            EdgeKind::New => AdjClass::New,
            EdgeKind::Assign => AdjClass::Assign,
            EdgeKind::Load(_) => AdjClass::Load,
            EdgeKind::Store(_) => AdjClass::Store,
            EdgeKind::AssignGlobal => AdjClass::AssignGlobal,
            EdgeKind::Entry(_) => AdjClass::Entry,
            EdgeKind::Exit(_) => AdjClass::Exit,
        }
    }
}

/// One entry of a node's kind-partitioned adjacency: the far endpoint and
/// the edge's operand, stored inline so traversal never touches the edge
/// arena. 12 bytes, `Copy`.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Adj {
    /// The far endpoint: `dst` in out-adjacency, `src` in in-adjacency.
    pub node: NodeId,
    /// Kind operand (field / call-site raw id; 0 for operand-less kinds).
    pub(crate) operand: u32,
    /// The underlying edge in [`Pag::edges`](crate::Pag::edges).
    pub edge: EdgeId,
}

impl Adj {
    /// The field label — only meaningful in `Load`/`Store` segments.
    #[inline]
    pub fn field(self) -> FieldId {
        FieldId::from_raw(self.operand)
    }

    /// The call site — only meaningful in `Entry`/`Exit` segments.
    #[inline]
    pub fn site(self) -> CallSiteId {
        CallSiteId::from_raw(self.operand)
    }
}

/// A `store(f)`/`load(f)` edge with both endpoints inline, as kept in the
/// per-field edge lists ([`Pag::stores_of`](crate::Pag::stores_of) /
/// [`Pag::loads_of`](crate::Pag::loads_of)); the match-edge expansions
/// iterate these without touching the edge arena.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct FieldEdge {
    /// Source node (the stored value / the load base).
    pub src: NodeId,
    /// Destination node (the store base / the loaded-into variable).
    pub dst: NodeId,
    /// The underlying edge.
    pub edge: EdgeId,
}

/// Index of an edge in the frozen graph's edge arena.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Raw dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an edge id from a raw index obtained from the owning
    /// [`Pag`](crate::Pag).
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        EdgeId(raw)
    }
}

impl std::fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_split_matches_paper() {
        let f = FieldId::from_raw(0);
        let i = CallSiteId::from_raw(0);
        for kind in [
            EdgeKind::New,
            EdgeKind::Assign,
            EdgeKind::Load(f),
            EdgeKind::Store(f),
        ] {
            assert!(kind.is_local(), "{kind:?} should be local");
            assert!(!kind.is_global());
        }
        for kind in [
            EdgeKind::AssignGlobal,
            EdgeKind::Entry(i),
            EdgeKind::Exit(i),
        ] {
            assert!(kind.is_global(), "{kind:?} should be global");
            assert!(!kind.is_local());
        }
    }

    #[test]
    fn accessors() {
        let f = FieldId::from_raw(7);
        let i = CallSiteId::from_raw(9);
        assert_eq!(EdgeKind::Load(f).field(), Some(f));
        assert_eq!(EdgeKind::Store(f).field(), Some(f));
        assert_eq!(EdgeKind::Assign.field(), None);
        assert_eq!(EdgeKind::Entry(i).call_site(), Some(i));
        assert_eq!(EdgeKind::Exit(i).call_site(), Some(i));
        assert_eq!(EdgeKind::New.call_site(), None);
    }

    #[test]
    fn names_are_stable() {
        let f = FieldId::from_raw(0);
        assert_eq!(EdgeKind::Load(f).name(), "load");
        assert_eq!(EdgeKind::AssignGlobal.name(), "assignglobal");
    }
}
