//! Incremental construction of a [`Pag`] with invariant checking.

use std::hash::BuildHasher;

use crate::edge::{Edge, EdgeKind};
use crate::graph::Pag;
use crate::hash::edge_kind_tag;
use crate::ids::{CallSiteId, ClassId, FieldId, MethodId, ObjId, VarId};
use crate::names::{Names, Ns, SlotTable, Vacant};
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
    methods: Vec<MethodInfo>,
    vars: Vec<VarInfo>,
    objs: Vec<ObjInfo>,
    call_sites: Vec<CallSiteInfo>,
    names: Names,
    // Distinct edges in first-occurrence order, and the table that finds
    // one by its packed key (`edge_key`), so a repeat is dropped.
    edges: Vec<(NodeRef, NodeRef, EdgeKind)>,
    edge_slots: SlotTable,
    obj_defined: Vec<bool>,
}

/// An edge packed into one `u128` (33 bits per endpoint, then the kind's
/// tag and operand), the key the builder's edge table hashes.
fn edge_key(&(src, dst, kind): &(NodeRef, NodeRef, EdgeKind)) -> u128 {
    let node = |r: NodeRef| match r {
        NodeRef::Var(v) => u128::from(v.as_raw()),
        NodeRef::Obj(o) => 1 << 32 | u128::from(o.as_raw()),
    };
    let (tag, operand) = edge_kind_tag(kind);
    node(src) | node(dst) << 33 | u128::from(tag) << 66 | u128::from(operand) << 69
}

impl PagBuilder {
    /// Creates an empty builder with a root-only class hierarchy.
    pub fn new() -> Self {
        PagBuilder {
            hierarchy: Hierarchy::new(),
            methods: Vec::new(),
            vars: Vec::new(),
            objs: Vec::new(),
            call_sites: Vec::new(),
            names: Names::default(),
            edges: Vec::new(),
            edge_slots: SlotTable::default(),
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
    /// Panics when 2³² − 1 distinct fields are already interned, or the
    /// name arena would pass 2³² − 1 bytes.
    pub fn field(&mut self, name: &str) -> FieldId {
        let at = match self.names.lookup(Ns::Field, name) {
            Ok(f) => return FieldId::from_raw(f),
            Err(at) => at,
        };
        next_id(self.names.len(Ns::Field), "field").expect("field ids exhausted");
        let id = self
            .names
            .add(Ns::Field, name, at)
            .expect("name arena exhausted");
        FieldId::from_raw(id)
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
        let at = self.vacancy(Ns::Method, "method", name)?;
        next_id(self.methods.len(), "method")?;
        let id = MethodId::from_raw(self.names.add(Ns::Method, name, at)?);
        self.methods.push(MethodInfo { class });
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
        let at = self.vacancy(Ns::Var, "var", name)?;
        next_id(self.vars.len() + self.objs.len(), "node")?;
        next_id(self.vars.len(), "variable")?;
        let id = VarId::from_raw(self.names.add(Ns::Var, name, at)?);
        self.vars.push(VarInfo {
            kind,
            declared_class,
        });
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
        let at = self.vacancy(Ns::Obj, "obj", label)?;
        if let Some(m) = alloc_method {
            if m.index() >= self.methods.len() {
                return Err(BuildError::UnknownId(format!("{m}")));
            }
        }
        next_id(self.vars.len() + self.objs.len(), "node")?;
        next_id(self.objs.len(), "object")?;
        let id = ObjId::from_raw(self.names.add(Ns::Obj, label, at)?);
        self.objs.push(ObjInfo {
            class,
            alloc_method,
            is_null,
        });
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
        let at = self.vacancy(Ns::Site, "callsite", label)?;
        if caller.index() >= self.methods.len() {
            return Err(BuildError::UnknownId(format!("{caller}")));
        }
        next_id(self.call_sites.len(), "call site")?;
        let id = CallSiteId::from_raw(self.names.add(Ns::Site, label, at)?);
        self.call_sites.push(CallSiteInfo {
            caller,
            recursive: false,
        });
        Ok(id)
    }

    /// Where `name` goes in `ns`, or the `DuplicateName` error of a
    /// `kind` name that is already declared.
    fn vacancy(&self, ns: Ns, kind: &'static str, name: &str) -> Result<Vacant, BuildError> {
        match self.names.lookup(ns, name) {
            Ok(_) => Err(BuildError::DuplicateName {
                kind,
                name: name.to_owned(),
            }),
            Err(at) => Ok(at),
        }
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

    fn check_var(&self, v: VarId) -> Result<VarInfo, BuildError> {
        self.vars
            .get(v.index())
            .copied()
            .ok_or_else(|| BuildError::UnknownId(format!("{v}")))
    }

    fn check_site(&self, s: CallSiteId) -> Result<CallSiteInfo, BuildError> {
        self.call_sites
            .get(s.index())
            .copied()
            .ok_or_else(|| BuildError::UnknownId(format!("{s}")))
    }

    /// A declared variable's name, owned for an error.
    fn var_name(&self, v: VarId) -> String {
        self.names.get(Ns::Var, v.as_raw()).to_owned()
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
                var: self.var_name(a),
            })?;
        let mb = ib
            .kind
            .method()
            .ok_or_else(|| BuildError::GlobalInLocalEdge {
                kind,
                var: self.var_name(b),
            })?;
        if ma != mb {
            return Err(BuildError::CrossMethodLocal {
                kind,
                src: self.var_name(a),
                dst: self.var_name(b),
            });
        }
        Ok(ma)
    }

    fn push_edge(&mut self, src: NodeRef, dst: NodeRef, kind: EdgeKind) -> Result<(), BuildError> {
        let edge = (src, dst, kind);
        let Self {
            names,
            edges,
            edge_slots,
            ..
        } = self;
        let hasher = names.hasher();
        let at = match edge_slots.probe(hasher.hash_one(edge_key(&edge)), |id| {
            edges[id as usize] == edge
        }) {
            Ok(_) => return Ok(()),
            Err(at) => at,
        };
        let id = next_id(edges.len(), "edge")?;
        edges.push(edge);
        edge_slots.insert(at, id, |old| {
            hasher.hash_one(edge_key(&edges[old as usize]))
        });
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
        let label = || self.names.get(Ns::Obj, obj.as_raw()).to_owned();
        let vm = vi
            .kind
            .method()
            .ok_or_else(|| BuildError::GlobalInLocalEdge {
                kind: "new",
                var: self.var_name(var),
            })?;
        if let Some(om) = oi.alloc_method {
            if om != vm {
                return Err(BuildError::NewAcrossMethods {
                    obj: label(),
                    var: self.var_name(var),
                });
            }
        }
        if self.obj_defined[obj.index()] {
            return Err(BuildError::ObjectRedefined(label()));
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
                    src: self.var_name(src),
                    dst: self.var_name(dst),
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
        let si = self.check_site(site)?;
        let ai = self.check_var(actual)?;
        if ai.kind.method() != Some(si.caller) {
            return Err(BuildError::WrongCaller {
                site: self.names.get(Ns::Site, site.as_raw()).to_owned(),
                var: self.var_name(actual),
            });
        }
        let fi = self.check_var(formal)?;
        if fi.kind.is_global() {
            return Err(BuildError::GlobalInLocalEdge {
                kind: "entry",
                var: self.var_name(formal),
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
        let si = self.check_site(site)?;
        let di = self.check_var(dst)?;
        if di.kind.method() != Some(si.caller) {
            return Err(BuildError::WrongCaller {
                site: self.names.get(Ns::Site, site.as_raw()).to_owned(),
                var: self.var_name(dst),
            });
        }
        let ri = self.check_var(ret)?;
        if ri.kind.is_global() {
            return Err(BuildError::GlobalInLocalEdge {
                kind: "exit",
                var: self.var_name(ret),
            });
        }
        self.push_edge(NodeRef::Var(ret), NodeRef::Var(dst), EdgeKind::Exit(site))
    }

    // ---- lookups --------------------------------------------------------------

    /// Looks up a declared variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.names.find(Ns::Var, name).map(VarId::from_raw)
    }

    /// Looks up a declared method by name.
    pub fn find_method(&self, name: &str) -> Option<MethodId> {
        self.names.find(Ns::Method, name).map(MethodId::from_raw)
    }

    /// Looks up a declared object by label.
    pub fn find_obj(&self, label: &str) -> Option<ObjId> {
        self.names.find(Ns::Obj, label).map(ObjId::from_raw)
    }

    /// Looks up a declared call site by label.
    pub fn find_call_site(&self, label: &str) -> Option<CallSiteId> {
        self.names.find(Ns::Site, label).map(CallSiteId::from_raw)
    }

    /// The name a method was declared under.
    pub fn method_name(&self, method: MethodId) -> Option<&str> {
        (method.index() < self.methods.len()).then(|| self.names.get(Ns::Method, method.as_raw()))
    }

    // ---- finish --------------------------------------------------------------

    /// Current number of edges (before freezing).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`Pag`], sealing the class
    /// hierarchy and computing all adjacency indices.
    pub fn finish(self) -> Pag {
        let PagBuilder {
            mut hierarchy,
            mut methods,
            mut vars,
            mut objs,
            mut call_sites,
            mut names,
            edges: pending,
            edge_slots,
            obj_defined,
        } = self;
        drop((edge_slots, obj_defined));
        hierarchy.seal();
        // The frozen graph keeps these for its lifetime: drop their
        // growth slack.
        names.shrink_to_fit();
        methods.shrink_to_fit();
        vars.shrink_to_fit();
        objs.shrink_to_fit();
        call_sites.shrink_to_fit();
        // `add_var`/`add_obj` keep `vars + objs` below `u32::MAX`.
        let num_vars = u32::try_from(vars.len()).expect("node ids fit u32");
        let to_node = |r: NodeRef| match r {
            NodeRef::Var(v) => crate::node::NodeId(v.as_raw()),
            NodeRef::Obj(o) => {
                crate::node::NodeId(num_vars.checked_add(o.as_raw()).expect("node ids fit u32"))
            }
        };
        let edges: Vec<Edge> = pending
            .iter()
            .map(|&(s, d, kind)| Edge {
                src: to_node(s),
                dst: to_node(d),
                kind,
            })
            .collect();
        // The CSR arrays `assemble` builds never coexist with the
        // builder's wider edge tuples.
        drop(pending);
        Pag::assemble(hierarchy, methods, vars, objs, call_sites, names, edges)
    }
}

impl Default for PagBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use proptest::prelude::*;

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

    /// A builder with two methods of six locals and four objects each,
    /// two globals, three fields and two call sites per method: enough
    /// distinct edges of every kind for the edge table to grow several
    /// times, few enough that random calls repeat often.
    struct EdgeFixture {
        b: PagBuilder,
        locals: [Vec<VarId>; 2],
        globals: Vec<VarId>,
        objs: [Vec<ObjId>; 2],
        fields: Vec<FieldId>,
        sites: [Vec<CallSiteId>; 2],
    }

    fn edge_fixture() -> EdgeFixture {
        let mut b = PagBuilder::new();
        let ms = [0, 1].map(|i| b.add_method(&format!("m{i}"), None).unwrap());
        let locals = [0, 1].map(|i| {
            (0..6)
                .map(|j| b.add_local(&format!("m{i}.v{j}"), ms[i], None).unwrap())
                .collect()
        });
        let globals = (0..2)
            .map(|j| b.add_global(&format!("g{j}"), None).unwrap())
            .collect();
        let objs = [0, 1].map(|i| {
            (0..4)
                .map(|j| b.add_obj(&format!("m{i}.o{j}"), None, Some(ms[i])).unwrap())
                .collect()
        });
        let fields = (0..3).map(|j| b.field(&format!("f{j}"))).collect();
        let sites = [0, 1].map(|i| {
            (0..2)
                .map(|j| b.add_call_site(&format!("m{i}.s{j}"), ms[i]).unwrap())
                .collect()
        });
        EdgeFixture {
            b,
            locals,
            globals,
            objs,
            fields,
            sites,
        }
    }

    type Key = (NodeRef, NodeRef, EdgeKind);

    impl EdgeFixture {
        /// Makes one `add_*` call, chosen by `op`, and returns the edge it
        /// asked for when the builder accepted it.
        fn call(&mut self, (kind, m, x, y, z): (u8, usize, usize, usize, usize)) -> Option<Key> {
            let (m, n) = (m % 2, 1 - m % 2);
            let local = |i: usize, at: usize| self.locals[i][at % 6];
            let (v, w) = (local(m, x), local(m, y));
            let var = |v: VarId| NodeRef::Var(v);
            let (key, result) = match kind % 7 {
                0 => {
                    let o = self.objs[m][z % 4];
                    (
                        (NodeRef::Obj(o), var(v), EdgeKind::New),
                        self.b.add_new(o, v),
                    )
                }
                1 => ((var(v), var(w), EdgeKind::Assign), self.b.add_assign(v, w)),
                2 => {
                    let g = self.globals[z % 2];
                    let (src, dst) = if y % 2 == 0 { (v, g) } else { (g, v) };
                    let key = (var(src), var(dst), EdgeKind::AssignGlobal);
                    (key, self.b.add_assign(src, dst))
                }
                3 => {
                    let f = self.fields[z % 3];
                    (
                        (var(v), var(w), EdgeKind::Load(f)),
                        self.b.add_load(f, v, w),
                    )
                }
                4 => {
                    let f = self.fields[z % 3];
                    (
                        (var(v), var(w), EdgeKind::Store(f)),
                        self.b.add_store(f, v, w),
                    )
                }
                5 => {
                    let (s, p) = (self.sites[m][z % 2], local(n, y));
                    (
                        (var(v), var(p), EdgeKind::Entry(s)),
                        self.b.add_entry(s, v, p),
                    )
                }
                _ => {
                    let (s, r) = (self.sites[m][z % 2], local(n, y));
                    (
                        (var(r), var(v), EdgeKind::Exit(s)),
                        self.b.add_exit(s, r, v),
                    )
                }
            };
            result.ok().map(|()| key)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn edge_table_keeps_first_occurrences(
            ops in collection::vec((0u8..7, 0usize..2, 0usize..6, 0usize..6, 0usize..4), 1..1500),
        ) {
            let mut fx = edge_fixture();
            let mut seen = BTreeSet::new();
            let mut first = Vec::new();
            for &op in &ops {
                if let Some(key) = fx.call(op) {
                    if seen.insert(key) {
                        first.push(key);
                    }
                }
                prop_assert_eq!(fx.b.num_edges(), seen.len());
            }
            let pag = fx.b.finish();
            let edges: Vec<Key> = pag
                .edges()
                .iter()
                .map(|e| (pag.node_ref(e.src), pag.node_ref(e.dst), e.kind))
                .collect();
            prop_assert_eq!(edges, first);
        }

        #[test]
        fn names_resolve_like_a_map_in_every_namespace(
            ops in collection::vec((0usize..5, collection::vec(0usize..3, 0..=3)), 1..400),
        ) {
            // Names over `a`, `b` and `#` of length 0 to 3: the empty
            // name, names that prefix others, and names declared in
            // several namespaces all occur.
            let name_of = |chars: &[usize]| -> String {
                chars.iter().map(|&c| ['a', 'b', '#'][c]).collect()
            };
            let mut b = PagBuilder::new();
            let main = b.add_method("main", None).unwrap();
            let mut reference: [HashMap<String, u32>; 5] = Default::default();
            reference[1].insert("main".to_owned(), 0);
            let kinds = ["field", "method", "var", "obj", "callsite"];
            for (ns, chars) in &ops {
                let (ns, name) = (*ns, name_of(chars));
                let declared = match ns {
                    0 => Ok(b.field(&name).as_raw()),
                    1 => b.add_method(&name, None).map(|m| m.as_raw()),
                    2 if chars.len() % 2 == 0 => b.add_local(&name, main, None).map(|v| v.as_raw()),
                    2 => b.add_global(&name, None).map(|v| v.as_raw()),
                    3 => b.add_obj(&name, None, Some(main)).map(|o| o.as_raw()),
                    _ => b.add_call_site(&name, main).map(|s| s.as_raw()),
                };
                let table = &mut reference[ns];
                match (declared, table.get(&name)) {
                    (Ok(id), Some(&old)) => {
                        // Only fields are interned idempotently.
                        prop_assert_eq!((ns, id), (0, old));
                    }
                    (Ok(id), None) => {
                        prop_assert_eq!(id as usize, table.len());
                        table.insert(name, id);
                    }
                    (Err(e), Some(_)) => {
                        let expected = BuildError::DuplicateName { kind: kinds[ns], name };
                        prop_assert_eq!(e, expected);
                    }
                    (Err(e), None) => panic!("`{name}` rejected in {}: {e}", kinds[ns]),
                }
            }
            let pag = b.clone().finish();
            let universe = (0..=3usize).flat_map(|len| {
                (0..3usize.pow(len as u32)).map(move |i| {
                    (0..len).map(|d| i / 3usize.pow(d as u32) % 3).collect::<Vec<_>>()
                })
            });
            for chars in universe {
                let name = name_of(&chars);
                // The builder has no field lookup (`field` interns).
                let found = [
                    pag.find_field(&name).map(|f| f.as_raw()),
                    b.find_method(&name).map(|m| m.as_raw()),
                    b.find_var(&name).map(|v| v.as_raw()),
                    b.find_obj(&name).map(|o| o.as_raw()),
                    b.find_call_site(&name).map(|s| s.as_raw()),
                ];
                let frozen = [
                    pag.find_field(&name).map(|f| f.as_raw()),
                    pag.find_method(&name).map(|m| m.as_raw()),
                    pag.find_var(&name).map(|v| v.as_raw()),
                    pag.find_obj(&name).map(|o| o.as_raw()),
                    pag.find_call_site(&name).map(|s| s.as_raw()),
                ];
                let expected = [0, 1, 2, 3, 4].map(|ns| reference[ns].get(&name).copied());
                prop_assert_eq!(found, expected, "{:?}", name);
                prop_assert_eq!(frozen, expected, "{:?}", name);
            }
            for (name, &id) in &reference[0] {
                prop_assert_eq!(pag.field_name(FieldId::from_raw(id)), name);
            }
            for (name, &id) in &reference[1] {
                prop_assert_eq!(pag.method_name(MethodId::from_raw(id)), name);
            }
            for (name, &id) in &reference[2] {
                prop_assert_eq!(pag.var_name(VarId::from_raw(id)), name);
            }
            for (name, &id) in &reference[3] {
                prop_assert_eq!(pag.obj_label(ObjId::from_raw(id)), name);
            }
            for (name, &id) in &reference[4] {
                prop_assert_eq!(pag.site_label(CallSiteId::from_raw(id)), name);
            }
        }
    }
}
