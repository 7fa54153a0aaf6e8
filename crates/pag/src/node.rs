//! PAG nodes: variables (locals and globals) and abstract heap objects.

use crate::ids::{ClassId, MethodId, ObjId, VarId};

/// Whether a variable is a method-local or a global (static field).
///
/// The distinction matters for context sensitivity (§2): globals are
/// context-insensitive, so assignments touching them become
/// `assignglobal` edges that clear the calling-context stack.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A local variable (or parameter, `this`, return-value temp) of the
    /// given method. The paper's node set `V`.
    Local(MethodId),
    /// A global variable (static field). The paper's node set `G`.
    Global,
}

impl VarKind {
    /// The owning method for locals, `None` for globals.
    #[inline]
    pub fn method(self) -> Option<MethodId> {
        match self {
            VarKind::Local(m) => Some(m),
            VarKind::Global => None,
        }
    }

    /// Returns `true` for globals.
    #[inline]
    pub fn is_global(self) -> bool {
        matches!(self, VarKind::Global)
    }
}

/// Metadata for a variable node. Its source-level name, unique within
/// the PAG (the paper assumes no two methods contain identically named
/// locals, §2), is [`Pag::var_name`](crate::Pag::var_name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarInfo {
    /// Local-vs-global classification.
    pub kind: VarKind,
    /// Declared (static) type, if known. Used by clients for reporting.
    pub declared_class: Option<ClassId>,
}

/// Metadata for an abstract heap object (allocation site). Its label
/// for printing, e.g. `o26` for the object allocated at line 26, is
/// [`Pag::obj_label`](crate::Pag::obj_label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjInfo {
    /// Runtime class of instances allocated at this site, if known.
    pub class: Option<ClassId>,
    /// The method containing the allocation site, if any.
    pub alloc_method: Option<MethodId>,
    /// Marks the distinguished objects that model `null` assignments; the
    /// `NullDeref` client flags dereferences whose points-to sets contain
    /// such an object.
    pub is_null: bool,
}

/// Metadata for a method. Its name, unique within the PAG (qualified
/// names like `Vector.add` are conventional), is
/// [`Pag::method_name`](crate::Pag::method_name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodInfo {
    /// Declaring class, if any (`None` for synthetic or static-only
    /// methods in generated workloads).
    pub class: Option<ClassId>,
}

/// Metadata for a call site. Its label for printing, conventionally
/// the source line (the paper's `i` in `entry_i`), is
/// [`Pag::site_label`](crate::Pag::site_label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSiteInfo {
    /// The calling method containing this site.
    pub caller: MethodId,
    /// `true` when the call participates in a call-graph cycle. Entry and
    /// exit edges of recursive sites are traversed context-insensitively,
    /// matching the paper's treatment of recursion (§5.1: call-graph
    /// cycles are collapsed).
    pub recursive: bool,
}

/// A reference to a PAG node: either a variable or an object.
///
/// Inside the graph, nodes are packed into a dense [`NodeId`] space
/// (variables first, then objects) so adjacency can live in flat arrays;
/// `NodeRef` is the typed view used across the public API.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    /// A variable node.
    Var(VarId),
    /// An object node.
    Obj(ObjId),
}

impl NodeRef {
    /// Returns the variable id if this is a variable node.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            NodeRef::Var(v) => Some(v),
            NodeRef::Obj(_) => None,
        }
    }

    /// Returns the object id if this is an object node.
    #[inline]
    pub fn as_obj(self) -> Option<ObjId> {
        match self {
            NodeRef::Obj(o) => Some(o),
            NodeRef::Var(_) => None,
        }
    }
}

impl From<VarId> for NodeRef {
    fn from(v: VarId) -> Self {
        NodeRef::Var(v)
    }
}

impl From<ObjId> for NodeRef {
    fn from(o: ObjId) -> Self {
        NodeRef::Obj(o)
    }
}

impl std::fmt::Display for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeRef::Var(v) => write!(f, "{v}"),
            NodeRef::Obj(o) => write!(f, "{o}"),
        }
    }
}

/// A dense node index into the frozen graph: variables occupy
/// `0..num_vars`, objects `num_vars..num_vars + num_objs`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a raw dense index. Callers are expected to
    /// obtain raw indices from the owning [`Pag`](crate::Pag).
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_kind_accessors() {
        let m = MethodId::from_raw(3);
        assert_eq!(VarKind::Local(m).method(), Some(m));
        assert_eq!(VarKind::Global.method(), None);
        assert!(VarKind::Global.is_global());
        assert!(!VarKind::Local(m).is_global());
    }

    #[test]
    fn node_ref_conversions() {
        let v = VarId::from_raw(1);
        let o = ObjId::from_raw(2);
        assert_eq!(NodeRef::from(v).as_var(), Some(v));
        assert_eq!(NodeRef::from(v).as_obj(), None);
        assert_eq!(NodeRef::from(o).as_obj(), Some(o));
        assert_eq!(format!("{}", NodeRef::Var(v)), "var1");
        assert_eq!(format!("{}", NodeRef::Obj(o)), "obj2");
    }

    #[test]
    fn node_ids_are_ordered() {
        assert!(NodeId::from_raw(0) < NodeId::from_raw(1));
        assert_eq!(NodeId::from_raw(5).index(), 5);
    }
}
