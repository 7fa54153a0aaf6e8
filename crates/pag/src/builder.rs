//! Incremental construction of a [`Pag`] with invariant checking.

use std::collections::{HashMap, HashSet};

use crate::edge::{Edge, EdgeKind};
use crate::graph::Pag;
use crate::ids::{CallSiteId, ClassId, FieldId, MethodId, ObjId, VarId};
use crate::node::{CallSiteInfo, MethodInfo, NodeRef, ObjInfo, VarInfo, VarKind};
use crate::types::{Hierarchy, HierarchyError};

/// Error produced while building a PAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A name was reused within its namespace (variables, methods, objects
    /// or call sites).
    DuplicateName {
        /// Namespace: `"method"`, `"var"`, `"obj"`, or `"callsite"`.
        kind: &'static str,
        /// The offending name.
        name: String,
    },
    /// An identifier was out of range for this builder.
    UnknownId(String),
    /// A local edge (`new`/`assign`/`load`/`store`) would connect locals
    /// of two different methods; such flow must be expressed with
    /// `entry`/`exit`/`assignglobal` edges.
    CrossMethodLocal {
        /// The edge kind name.
        kind: &'static str,
        /// The source variable.
        src: String,
        /// The destination variable.
        dst: String,
    },
    /// A local edge endpoint was a global variable.
    GlobalInLocalEdge {
        /// The edge kind name.
        kind: &'static str,
        /// The offending variable name.
        var: String,
    },
    /// An object was used as the source of more than one `new` edge. Each
    /// abstract object has exactly one defining variable (Spark-style
    /// PAGs; Algorithm 3's `new new̅` transition relies on this).
    ObjectRedefined(String),
    /// An object allocated in method `obj_method` was `new`-bound to a
    /// variable of a different method.
    NewAcrossMethods {
        /// The object label.
        obj: String,
        /// The variable name.
        var: String,
    },
    /// An `entry`/`exit` edge's caller-side variable does not belong to
    /// the call site's calling method.
    WrongCaller {
        /// The call-site label.
        site: String,
        /// The offending variable name.
        var: String,
    },
    /// Hierarchy error (duplicate class, unknown superclass, sealed).
    Hierarchy(HierarchyError),
    /// An id space is full: ids are `u32`, so an arena holds fewer than
    /// 2³² − 1 entries, and variables plus objects share one node space.
    TooManyIds(&'static str),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            BuildError::UnknownId(what) => write!(f, "unknown id: {what}"),
            BuildError::CrossMethodLocal { kind, src, dst } => write!(
                f,
                "{kind} edge `{src}` -> `{dst}` crosses method boundaries"
            ),
            BuildError::GlobalInLocalEdge { kind, var } => {
                write!(f, "{kind} edge touches global variable `{var}`")
            }
            BuildError::ObjectRedefined(obj) => {
                write!(f, "object `{obj}` already has a defining new edge")
            }
            BuildError::NewAcrossMethods { obj, var } => write!(
                f,
                "new edge binds object `{obj}` to variable `{var}` of another method"
            ),
            BuildError::WrongCaller { site, var } => write!(
                f,
                "variable `{var}` does not belong to the caller of site `{site}`"
            ),
            BuildError::Hierarchy(e) => write!(f, "hierarchy error: {e}"),
            BuildError::TooManyIds(what) => write!(f, "too many {what}s for 32-bit ids"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<HierarchyError> for BuildError {
    fn from(e: HierarchyError) -> Self {
        BuildError::Hierarchy(e)
    }
}

/// The id of the next entry of an arena holding `len` entries, checked:
/// the id must fit a `u32`, and so must the count after the push (the
/// frozen graph's offset tables count entries in `u32`).
fn next_id(len: usize, what: &'static str) -> Result<u32, BuildError> {
    match u32::try_from(len) {
        Ok(id) if id < u32::MAX => Ok(id),
        _ => Err(BuildError::TooManyIds(what)),
    }
}

/// Builder for [`Pag`] instances.
///
/// The builder validates the structural invariants the analyses rely on:
/// local edges stay within one method, globals only appear on
/// `assignglobal` edges, every object has exactly one defining `new` edge,
/// and caller-side ends of `entry`/`exit` edges belong to the site's
/// calling method. Duplicate edges are silently ignored, which makes
/// on-the-fly call-graph construction idempotent.
///
/// # Examples
///
/// ```
/// use dynsum_pag::PagBuilder;
///
/// let mut b = PagBuilder::new();
/// let main = b.add_method("main", None)?;
/// let callee = b.add_method("id", None)?;
/// let a = b.add_local("a", main, None)?;
/// let r = b.add_local("r", main, None)?;
/// let p = b.add_local("p", callee, None)?;
/// let ret = b.add_local("ret", callee, None)?;
/// let o = b.add_obj("o1", None, Some(main))?;
/// b.add_new(o, a)?;
/// let site = b.add_call_site("cs1", main)?;
/// b.add_entry(site, a, p)?;
/// b.add_assign(p, ret)?;
/// b.add_exit(site, ret, r)?;
/// let pag = b.finish();
/// assert_eq!(pag.num_edges(), 4);
/// # Ok::<(), dynsum_pag::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PagBuilder {
    hierarchy: Hierarchy,
    fields: Vec<String>,
    methods: Vec<MethodInfo>,
    vars: Vec<VarInfo>,
    objs: Vec<ObjInfo>,
    call_sites: Vec<CallSiteInfo>,
    names: Names,
    edges: Vec<(NodeRef, NodeRef, EdgeKind)>,
    edge_set: HashSet<(NodeRef, NodeRef, EdgeKind)>,
    obj_defined: Vec<bool>,
}

/// The name → id tables of every named entity but classes (the
/// [`Hierarchy`] keeps its own). The builder fills them, rejecting
/// duplicates, and [`PagBuilder::finish`] moves them into the frozen
/// [`Pag`], so a graph resolves names through the tables it was built
/// with.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    pub(crate) fields: HashMap<String, FieldId>,
    pub(crate) methods: HashMap<String, MethodId>,
    pub(crate) vars: HashMap<String, VarId>,
    pub(crate) objs: HashMap<String, ObjId>,
    pub(crate) sites: HashMap<String, CallSiteId>,
}

impl PagBuilder {
    /// Creates an empty builder with a root-only class hierarchy.
    pub fn new() -> Self {
        PagBuilder {
            hierarchy: Hierarchy::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            vars: Vec::new(),
            objs: Vec::new(),
            call_sites: Vec::new(),
            names: Names::default(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
            obj_defined: Vec::new(),
        }
    }

    // ---- declarations -----------------------------------------------------

    /// The class hierarchy under construction.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Adds a class (under the root when `superclass` is `None`).
    ///
    /// # Errors
    ///
    /// Propagates [`HierarchyError`] for duplicates or unknown parents.
    pub fn add_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
    ) -> Result<ClassId, BuildError> {
        Ok(self.hierarchy.add_class(name, superclass)?)
    }

    /// Looks up a class by name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.hierarchy.find(name)
    }

    /// Interns a field name (idempotent).
    ///
    /// # Panics
    ///
    /// Panics when 2³² − 1 distinct fields are already interned.
    pub fn field(&mut self, name: &str) -> FieldId {
        if let Some(&f) = self.names.fields.get(name) {
            return f;
        }
        let id =
            FieldId::from_raw(next_id(self.fields.len(), "field").expect("field ids exhausted"));
        self.fields.push(name.to_owned());
        self.names.fields.insert(name.to_owned(), id);
        id
    }

    /// The distinguished array-element field `arr` (§2).
    pub fn array_field(&mut self) -> FieldId {
        self.field(Pag::ARRAY_FIELD_NAME)
    }

    /// Declares a method.
    ///
    /// # Errors
    ///
    /// Fails on duplicate method names.
    pub fn add_method(
        &mut self,
        name: &str,
        class: Option<ClassId>,
    ) -> Result<MethodId, BuildError> {
        if self.names.methods.contains_key(name) {
            return Err(BuildError::DuplicateName {
                kind: "method",
                name: name.to_owned(),
            });
        }
        let id = MethodId::from_raw(next_id(self.methods.len(), "method")?);
        self.methods.push(MethodInfo {
            name: name.to_owned(),
            class,
        });
        self.names.methods.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Declares a local variable of `method`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate variable names or an unknown method.
    pub fn add_local(
        &mut self,
        name: &str,
        method: MethodId,
        declared_class: Option<ClassId>,
    ) -> Result<VarId, BuildError> {
        if method.index() >= self.methods.len() {
            return Err(BuildError::UnknownId(format!("{method}")));
        }
        self.add_var(name, VarKind::Local(method), declared_class)
    }

    /// Declares a global variable (static field).
    ///
    /// # Errors
    ///
    /// Fails on duplicate variable names.
    pub fn add_global(
        &mut self,
        name: &str,
        declared_class: Option<ClassId>,
    ) -> Result<VarId, BuildError> {
        self.add_var(name, VarKind::Global, declared_class)
    }

    fn add_var(
        &mut self,
        name: &str,
        kind: VarKind,
        declared_class: Option<ClassId>,
    ) -> Result<VarId, BuildError> {
        if self.names.vars.contains_key(name) {
            return Err(BuildError::DuplicateName {
                kind: "var",
                name: name.to_owned(),
            });
        }
        next_id(self.vars.len() + self.objs.len(), "node")?;
        let id = VarId::from_raw(next_id(self.vars.len(), "variable")?);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            kind,
            declared_class,
        });
        self.names.vars.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Declares an abstract object (allocation site).
    ///
    /// # Errors
    ///
    /// Fails on duplicate labels or an unknown method.
    pub fn add_obj(
        &mut self,
        label: &str,
        class: Option<ClassId>,
        alloc_method: Option<MethodId>,
    ) -> Result<ObjId, BuildError> {
        self.add_obj_inner(label, class, alloc_method, false)
    }

    /// Declares a distinguished *null* object, used to model `v = null`
    /// statements for the `NullDeref` client.
    ///
    /// # Errors
    ///
    /// Fails on duplicate labels or an unknown method.
    pub fn add_null_obj(
        &mut self,
        label: &str,
        alloc_method: Option<MethodId>,
    ) -> Result<ObjId, BuildError> {
        self.add_obj_inner(label, None, alloc_method, true)
    }

    fn add_obj_inner(
        &mut self,
        label: &str,
        class: Option<ClassId>,
        alloc_method: Option<MethodId>,
        is_null: bool,
    ) -> Result<ObjId, BuildError> {
        if self.names.objs.contains_key(label) {
            return Err(BuildError::DuplicateName {
                kind: "obj",
                name: label.to_owned(),
            });
        }
        if let Some(m) = alloc_method {
            if m.index() >= self.methods.len() {
                return Err(BuildError::UnknownId(format!("{m}")));
            }
        }
        next_id(self.vars.len() + self.objs.len(), "node")?;
        let id = ObjId::from_raw(next_id(self.objs.len(), "object")?);
        self.objs.push(ObjInfo {
            label: label.to_owned(),
            class,
            alloc_method,
            is_null,
        });
        self.names.objs.insert(label.to_owned(), id);
        self.obj_defined.push(false);
        Ok(id)
    }

    /// Declares a call site inside `caller`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate labels or an unknown caller.
    pub fn add_call_site(
        &mut self,
        label: &str,
        caller: MethodId,
    ) -> Result<CallSiteId, BuildError> {
        if self.names.sites.contains_key(label) {
            return Err(BuildError::DuplicateName {
                kind: "callsite",
                name: label.to_owned(),
            });
        }
        if caller.index() >= self.methods.len() {
            return Err(BuildError::UnknownId(format!("{caller}")));
        }
        let id = CallSiteId::from_raw(next_id(self.call_sites.len(), "call site")?);
        self.call_sites.push(CallSiteInfo {
            label: label.to_owned(),
            caller,
            recursive: false,
        });
        self.names.sites.insert(label.to_owned(), id);
        Ok(id)
    }

    /// Marks a call site as recursive (inside a call-graph cycle); its
    /// entry/exit edges will be traversed context-insensitively.
    ///
    /// # Errors
    ///
    /// Fails on an unknown site.
    pub fn set_recursive(&mut self, site: CallSiteId, recursive: bool) -> Result<(), BuildError> {
        if site.index() >= self.call_sites.len() {
            return Err(BuildError::UnknownId(format!("{site}")));
        }
        self.call_sites[site.index()].recursive = recursive;
        Ok(())
    }

    // ---- edges --------------------------------------------------------------

    fn check_var(&self, v: VarId) -> Result<&VarInfo, BuildError> {
        self.vars
            .get(v.index())
            .ok_or_else(|| BuildError::UnknownId(format!("{v}")))
    }

    fn check_local_pair(
        &self,
        kind: &'static str,
        a: VarId,
        b: VarId,
    ) -> Result<MethodId, BuildError> {
        let ia = self.check_var(a)?;
        let ib = self.check_var(b)?;
        let ma = ia
            .kind
            .method()
            .ok_or_else(|| BuildError::GlobalInLocalEdge {
                kind,
                var: ia.name.clone(),
            })?;
        let mb = ib
            .kind
            .method()
            .ok_or_else(|| BuildError::GlobalInLocalEdge {
                kind,
                var: ib.name.clone(),
            })?;
        if ma != mb {
            return Err(BuildError::CrossMethodLocal {
                kind,
                src: ia.name.clone(),
                dst: ib.name.clone(),
            });
        }
        Ok(ma)
    }

    fn push_edge(&mut self, src: NodeRef, dst: NodeRef, kind: EdgeKind) -> Result<(), BuildError> {
        next_id(self.edges.len(), "edge")?;
        if self.edge_set.insert((src, dst, kind)) {
            self.edges.push((src, dst, kind));
        }
        Ok(())
    }

    /// Adds a `new` edge binding `obj` to its defining variable `var`
    /// (`var = new ...`).
    ///
    /// # Errors
    ///
    /// Fails if the object already has a defining edge, the variable is
    /// not a local, or the object's allocating method differs from the
    /// variable's method.
    pub fn add_new(&mut self, obj: ObjId, var: VarId) -> Result<(), BuildError> {
        let vi = self.check_var(var)?;
        let oi = self
            .objs
            .get(obj.index())
            .ok_or_else(|| BuildError::UnknownId(format!("{obj}")))?;
        let vm = vi
            .kind
            .method()
            .ok_or_else(|| BuildError::GlobalInLocalEdge {
                kind: "new",
                var: vi.name.clone(),
            })?;
        if let Some(om) = oi.alloc_method {
            if om != vm {
                return Err(BuildError::NewAcrossMethods {
                    obj: oi.label.clone(),
                    var: vi.name.clone(),
                });
            }
        }
        if self.obj_defined[obj.index()] {
            return Err(BuildError::ObjectRedefined(oi.label.clone()));
        }
        self.push_edge(NodeRef::Obj(obj), NodeRef::Var(var), EdgeKind::New)?;
        self.obj_defined[obj.index()] = true;
        Ok(())
    }

    /// Adds an assignment `dst = src`, automatically classified as a local
    /// `assign` (both locals of one method) or an `assignglobal` (at least
    /// one side global).
    ///
    /// # Errors
    ///
    /// Fails if both sides are locals of *different* methods — such flow
    /// must go through `entry`/`exit` edges.
    pub fn add_assign(&mut self, src: VarId, dst: VarId) -> Result<(), BuildError> {
        let si = self.check_var(src)?;
        let di = self.check_var(dst)?;
        let kind = match (si.kind.method(), di.kind.method()) {
            (Some(ms), Some(md)) if ms == md => EdgeKind::Assign,
            (Some(_), Some(_)) => {
                return Err(BuildError::CrossMethodLocal {
                    kind: "assign",
                    src: si.name.clone(),
                    dst: di.name.clone(),
                })
            }
            _ => EdgeKind::AssignGlobal,
        };
        self.push_edge(NodeRef::Var(src), NodeRef::Var(dst), kind)
    }

    /// Adds a field load `dst = base.f` (edge `base --load(f)--> dst`).
    ///
    /// # Errors
    ///
    /// Fails unless both variables are locals of one method.
    pub fn add_load(&mut self, field: FieldId, base: VarId, dst: VarId) -> Result<(), BuildError> {
        self.check_local_pair("load", base, dst)?;
        self.push_edge(NodeRef::Var(base), NodeRef::Var(dst), EdgeKind::Load(field))
    }

    /// Adds a field store `base.f = src` (edge `src --store(f)--> base`).
    ///
    /// # Errors
    ///
    /// Fails unless both variables are locals of one method.
    pub fn add_store(&mut self, field: FieldId, src: VarId, base: VarId) -> Result<(), BuildError> {
        self.check_local_pair("store", src, base)?;
        self.push_edge(
            NodeRef::Var(src),
            NodeRef::Var(base),
            EdgeKind::Store(field),
        )
    }

    /// Adds a parameter-passing edge `actual --entry_site--> formal`.
    ///
    /// # Errors
    ///
    /// Fails if `actual` is not a local of the site's calling method or
    /// `formal` is not a local.
    pub fn add_entry(
        &mut self,
        site: CallSiteId,
        actual: VarId,
        formal: VarId,
    ) -> Result<(), BuildError> {
        let si = self
            .call_sites
            .get(site.index())
            .ok_or_else(|| BuildError::UnknownId(format!("{site}")))?
            .clone();
        let ai = self.check_var(actual)?;
        if ai.kind.method() != Some(si.caller) {
            return Err(BuildError::WrongCaller {
                site: si.label.clone(),
                var: ai.name.clone(),
            });
        }
        let fi = self.check_var(formal)?;
        if fi.kind.is_global() {
            return Err(BuildError::GlobalInLocalEdge {
                kind: "entry",
                var: fi.name.clone(),
            });
        }
        self.push_edge(
            NodeRef::Var(actual),
            NodeRef::Var(formal),
            EdgeKind::Entry(site),
        )
    }

    /// Adds a return edge `ret --exit_site--> dst`.
    ///
    /// # Errors
    ///
    /// Fails if `dst` is not a local of the site's calling method or
    /// `ret` is not a local.
    pub fn add_exit(&mut self, site: CallSiteId, ret: VarId, dst: VarId) -> Result<(), BuildError> {
        let si = self
            .call_sites
            .get(site.index())
            .ok_or_else(|| BuildError::UnknownId(format!("{site}")))?
            .clone();
        let di = self.check_var(dst)?;
        if di.kind.method() != Some(si.caller) {
            return Err(BuildError::WrongCaller {
                site: si.label.clone(),
                var: di.name.clone(),
            });
        }
        let ri = self.check_var(ret)?;
        if ri.kind.is_global() {
            return Err(BuildError::GlobalInLocalEdge {
                kind: "exit",
                var: ri.name.clone(),
            });
        }
        self.push_edge(NodeRef::Var(ret), NodeRef::Var(dst), EdgeKind::Exit(site))
    }

    // ---- lookups --------------------------------------------------------------

    /// Looks up a declared variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.names.vars.get(name).copied()
    }

    /// Looks up a declared method by name.
    pub fn find_method(&self, name: &str) -> Option<MethodId> {
        self.names.methods.get(name).copied()
    }

    /// Looks up a declared object by label.
    pub fn find_obj(&self, label: &str) -> Option<ObjId> {
        self.names.objs.get(label).copied()
    }

    /// Looks up a declared call site by label.
    pub fn find_call_site(&self, label: &str) -> Option<CallSiteId> {
        self.names.sites.get(label).copied()
    }

    /// The name a method was declared under.
    pub fn method_name(&self, method: MethodId) -> Option<&str> {
        self.methods.get(method.index()).map(|m| m.name.as_str())
    }

    // ---- finish --------------------------------------------------------------

    /// Current number of edges (before freezing).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`Pag`], sealing the class
    /// hierarchy and computing all adjacency indices.
    pub fn finish(mut self) -> Pag {
        self.hierarchy.seal();
        // `add_var`/`add_obj` keep `vars + objs` below `u32::MAX`.
        let num_vars = u32::try_from(self.vars.len()).expect("node ids fit u32");
        let to_node = |r: NodeRef| match r {
            NodeRef::Var(v) => crate::node::NodeId(v.as_raw()),
            NodeRef::Obj(o) => {
                crate::node::NodeId(num_vars.checked_add(o.as_raw()).expect("node ids fit u32"))
            }
        };
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .map(|&(s, d, kind)| Edge {
                src: to_node(s),
                dst: to_node(d),
                kind,
            })
            .collect();
        Pag::assemble(
            self.hierarchy,
            self.fields,
            self.methods,
            self.vars,
            self.objs,
            self.call_sites,
            self.names,
            edges,
        )
    }
}

impl Default for PagBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeRef;

    fn two_methods() -> (PagBuilder, MethodId, MethodId) {
        let mut b = PagBuilder::new();
        let m1 = b.add_method("m1", None).unwrap();
        let m2 = b.add_method("m2", None).unwrap();
        (b, m1, m2)
    }

    #[test]
    fn assign_auto_classifies() {
        let (mut b, m1, _) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m1, None).unwrap();
        let g = b.add_global("G", None).unwrap();
        b.add_assign(a, c).unwrap();
        b.add_assign(a, g).unwrap();
        b.add_assign(g, c).unwrap();
        let pag = b.finish();
        let kinds: Vec<_> = pag.edges().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EdgeKind::Assign,
                EdgeKind::AssignGlobal,
                EdgeKind::AssignGlobal
            ]
        );
    }

    #[test]
    fn cross_method_assign_rejected() {
        let (mut b, m1, m2) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m2, None).unwrap();
        assert!(matches!(
            b.add_assign(a, c),
            Err(BuildError::CrossMethodLocal { .. })
        ));
    }

    #[test]
    fn object_single_definition() {
        let (mut b, m1, _) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m1, None).unwrap();
        let o = b.add_obj("o1", None, Some(m1)).unwrap();
        b.add_new(o, a).unwrap();
        assert!(matches!(
            b.add_new(o, c),
            Err(BuildError::ObjectRedefined(_))
        ));
    }

    #[test]
    fn new_across_methods_rejected() {
        let (mut b, m1, m2) = two_methods();
        let a = b.add_local("a", m2, None).unwrap();
        let o = b.add_obj("o1", None, Some(m1)).unwrap();
        assert!(matches!(
            b.add_new(o, a),
            Err(BuildError::NewAcrossMethods { .. })
        ));
    }

    #[test]
    fn load_store_require_same_method_locals() {
        let (mut b, m1, m2) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m2, None).unwrap();
        let g = b.add_global("G", None).unwrap();
        let f = b.field("f");
        assert!(b.add_load(f, a, c).is_err());
        assert!(b.add_store(f, g, a).is_err());
        let d = b.add_local("d", m1, None).unwrap();
        assert!(b.add_load(f, a, d).is_ok());
        assert!(b.add_store(f, d, a).is_ok());
    }

    #[test]
    fn entry_exit_check_caller_side() {
        let (mut b, m1, m2) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let r = b.add_local("r", m2, None).unwrap();
        let d = b.add_local("d", m1, None).unwrap();
        let wrong = b.add_local("w", m2, None).unwrap();
        let site = b.add_call_site("cs1", m1).unwrap();
        assert!(b.add_entry(site, a, p).is_ok());
        assert!(matches!(
            b.add_entry(site, wrong, p),
            Err(BuildError::WrongCaller { .. })
        ));
        assert!(b.add_exit(site, r, d).is_ok());
        assert!(matches!(
            b.add_exit(site, r, wrong),
            Err(BuildError::WrongCaller { .. })
        ));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let (mut b, m1, _) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m1, None).unwrap();
        b.add_assign(a, c).unwrap();
        b.add_assign(a, c).unwrap();
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn field_interning_is_idempotent() {
        let mut b = PagBuilder::new();
        let f1 = b.field("elems");
        let f2 = b.field("elems");
        assert_eq!(f1, f2);
        let arr = b.array_field();
        assert_eq!(b.field("arr"), arr);
    }

    #[test]
    fn finish_builds_adjacency() {
        let (mut b, m1, _) = two_methods();
        let a = b.add_local("a", m1, None).unwrap();
        let c = b.add_local("c", m1, None).unwrap();
        let o = b.add_obj("o1", None, Some(m1)).unwrap();
        b.add_new(o, a).unwrap();
        b.add_assign(a, c).unwrap();
        let pag = b.finish();
        let na = pag.var_node(a);
        let nc = pag.var_node(c);
        let no = pag.obj_node(o);
        assert_eq!(pag.out_edges(no).len(), 1);
        assert_eq!(pag.in_edges(na).len(), 1);
        assert_eq!(pag.out_edges(na).len(), 1);
        assert_eq!(pag.in_edges(nc).len(), 1);
        assert_eq!(pag.node_ref(no), NodeRef::Obj(o));
        assert!(pag.has_local_edge(na));
        assert!(!pag.has_global_in(na));
    }

    #[test]
    fn id_allocation_is_checked_at_the_u32_boundary() {
        assert_eq!(next_id(0, "node"), Ok(0));
        let last = u32::MAX - 1;
        assert_eq!(next_id(last as usize, "node"), Ok(last));
        // The id `u32::MAX` would fit, but the count after it would not.
        let full = BuildError::TooManyIds("node");
        assert_eq!(next_id(u32::MAX as usize, "node"), Err(full.clone()));
        assert_eq!(next_id(u32::MAX as usize + 1, "node"), Err(full.clone()));
        assert_eq!(next_id(usize::MAX, "node"), Err(full.clone()));
        assert_eq!(full.to_string(), "too many nodes for 32-bit ids");
    }

    #[test]
    fn recursive_flag_round_trips() {
        let (mut b, m1, _) = two_methods();
        let site = b.add_call_site("cs1", m1).unwrap();
        b.set_recursive(site, true).unwrap();
        let pag = b.finish();
        assert!(pag.is_recursive_site(site));
    }
}
