//! The frozen Pointer Assignment Graph.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::edge::{Adj, AdjClass, Edge, EdgeId, EdgeKind, FieldEdge};
use crate::ids::{CallSiteId, FieldId, MethodId, ObjId, VarId};
use crate::node::{CallSiteInfo, MethodInfo, NodeId, NodeRef, ObjInfo, VarInfo};
use crate::sites::SiteIndex;
use crate::stats::PagStats;
use crate::types::Hierarchy;

/// An immutable Pointer Assignment Graph (§2, Figure 1).
///
/// Build one with [`PagBuilder`](crate::PagBuilder), by parsing the
/// [text format](crate::text), or via the `dynsum-frontend` /
/// `dynsum-workloads` crates. Nodes are variables and abstract objects;
/// edges are the seven statement kinds of [`EdgeKind`], stored once in
/// value-flow orientation with both adjacency directions precomputed
/// (demand-driven CFL-reachability walks the graph both ways).
///
/// # Examples
///
/// ```
/// use dynsum_pag::PagBuilder;
///
/// let mut b = PagBuilder::new();
/// let m = b.add_method("main", None)?;
/// let v = b.add_local("v", m, None)?;
/// let o = b.add_obj("o1", None, Some(m))?;
/// b.add_new(o, v)?;
/// let pag = b.finish();
/// assert_eq!(pag.num_vars(), 1);
/// assert_eq!(pag.num_objs(), 1);
/// assert_eq!(pag.num_edges(), 1);
/// # Ok::<(), dynsum_pag::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pag {
    pub(crate) hierarchy: Hierarchy,
    pub(crate) fields: Vec<String>,
    pub(crate) methods: Vec<MethodInfo>,
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) objs: Vec<ObjInfo>,
    pub(crate) call_sites: Vec<CallSiteInfo>,
    pub(crate) edges: Vec<Edge>,

    // Kind-partitioned CSR adjacency over the dense node space (vars then
    // objects): node `n`'s out-adjacency of class `k` is
    // `out_list[out_seg[n*7+k] .. out_seg[n*7+k+1]]`, with the edge
    // payload (far endpoint + operand) inline in the `Adj` entries. The
    // segment tables double as the per-node classification bits
    // (`has_global_in` etc. are range-emptiness checks).
    out_seg: Vec<u32>,
    out_list: Vec<Adj>,
    in_seg: Vec<u32>,
    in_list: Vec<Adj>,

    // Field-indexed store/load edge lists with endpoints inline
    // (REFINEPTS pairs loads with all stores of the same field).
    stores_by_field: Vec<Vec<FieldEdge>>,
    loads_by_field: Vec<Vec<FieldEdge>>,

    // Call-site-indexed entry/exit edges, for context matching that does
    // not scan a formal's every caller.
    sites: SiteIndex,

    // Grouping of locals / allocation sites per method.
    method_locals: Vec<Vec<VarId>>,
    method_objs: Vec<Vec<ObjId>>,

    // Name lookup tables.
    var_names: HashMap<String, VarId>,
    method_names: HashMap<String, MethodId>,
    field_names: HashMap<String, FieldId>,
    obj_labels: HashMap<String, ObjId>,
    site_labels: HashMap<String, CallSiteId>,

    // `fingerprint()`'s memo: filled on first use, never by `assemble`.
    fingerprint: OnceLock<u64>,
}

impl Pag {
    /// The distinguished field name into which all array elements are
    /// collapsed (§2).
    pub const ARRAY_FIELD_NAME: &'static str = "arr";

    // ---- sizes -----------------------------------------------------------

    /// Number of variable nodes (locals + globals).
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of abstract object nodes.
    #[inline]
    pub fn num_objs(&self) -> usize {
        self.objs.len()
    }

    /// Total number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vars.len() + self.objs.len()
    }

    /// Total number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of methods.
    #[inline]
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Number of interned fields.
    #[inline]
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Number of call sites.
    #[inline]
    pub fn num_call_sites(&self) -> usize {
        self.call_sites.len()
    }

    // ---- node id packing --------------------------------------------------

    /// Dense node id of a variable.
    #[inline]
    pub fn var_node(&self, v: VarId) -> NodeId {
        debug_assert!(v.index() < self.vars.len());
        NodeId(v.as_raw())
    }

    /// Dense node id of an object.
    #[inline]
    pub fn obj_node(&self, o: ObjId) -> NodeId {
        debug_assert!(o.index() < self.objs.len());
        NodeId(self.vars.len() as u32 + o.as_raw())
    }

    /// Dense node id of any node reference.
    #[inline]
    pub fn node(&self, r: NodeRef) -> NodeId {
        match r {
            NodeRef::Var(v) => self.var_node(v),
            NodeRef::Obj(o) => self.obj_node(o),
        }
    }

    /// Typed view of a dense node id.
    #[inline]
    pub fn node_ref(&self, n: NodeId) -> NodeRef {
        let nv = self.vars.len() as u32;
        if n.0 < nv {
            NodeRef::Var(VarId::from_raw(n.0))
        } else {
            NodeRef::Obj(ObjId::from_raw(n.0 - nv))
        }
    }

    /// Iterates over all dense node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    // ---- adjacency ---------------------------------------------------------

    /// The edge behind an [`EdgeId`].
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// All edges, in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    #[inline]
    fn seg_slice<'a>(seg: &[u32], list: &'a [Adj], n: NodeId, lo: usize, hi: usize) -> &'a [Adj] {
        let base = n.index() * AdjClass::COUNT;
        &list[seg[base + lo] as usize..seg[base + hi] as usize]
    }

    /// Out-adjacency of `n` of one kind class (value flows out of `n`;
    /// entries carry the destination).
    #[inline]
    pub fn out_seg(&self, n: NodeId, k: AdjClass) -> &[Adj] {
        Self::seg_slice(&self.out_seg, &self.out_list, n, k as usize, k as usize + 1)
    }

    /// In-adjacency of `n` of one kind class (value flows into `n`;
    /// entries carry the source).
    #[inline]
    pub fn in_seg(&self, n: NodeId, k: AdjClass) -> &[Adj] {
        Self::seg_slice(&self.in_seg, &self.in_list, n, k as usize, k as usize + 1)
    }

    /// All out-adjacency entries of `n`, sorted by kind class.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[Adj] {
        Self::seg_slice(&self.out_seg, &self.out_list, n, 0, AdjClass::COUNT)
    }

    /// All in-adjacency entries of `n`, sorted by kind class.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[Adj] {
        Self::seg_slice(&self.in_seg, &self.in_list, n, 0, AdjClass::COUNT)
    }

    /// `true` if some global edge flows *into* `n` — the S1 boundary test
    /// of Algorithm 3 (line 15). A range-emptiness check on the segment
    /// table (the global classes are contiguous).
    #[inline]
    pub fn has_global_in(&self, n: NodeId) -> bool {
        let base = n.index() * AdjClass::COUNT;
        self.in_seg[base + AdjClass::LOCAL_END] != self.in_seg[base + AdjClass::COUNT]
    }

    /// `true` if some global edge flows *out of* `n` — the S2 boundary
    /// test of Algorithm 3 (line 28).
    #[inline]
    pub fn has_global_out(&self, n: NodeId) -> bool {
        let base = n.index() * AdjClass::COUNT;
        self.out_seg[base + AdjClass::LOCAL_END] != self.out_seg[base + AdjClass::COUNT]
    }

    /// `true` if any local edge touches `n`; when false, the DYNSUM driver
    /// skips the partial points-to analysis entirely (§4.3).
    #[inline]
    pub fn has_local_edge(&self, n: NodeId) -> bool {
        let base = n.index() * AdjClass::COUNT;
        self.out_seg[base] != self.out_seg[base + AdjClass::LOCAL_END]
            || self.in_seg[base] != self.in_seg[base + AdjClass::LOCAL_END]
    }

    /// All `store(f)` edges for a field, across the whole graph.
    #[inline]
    pub fn stores_of(&self, f: FieldId) -> &[FieldEdge] {
        &self.stores_by_field[f.index()]
    }

    /// All `load(f)` edges for a field, across the whole graph.
    #[inline]
    pub fn loads_of(&self, f: FieldId) -> &[FieldEdge] {
        &self.loads_by_field[f.index()]
    }

    /// The `entry_s` edges into `n`: the `s`-labelled part of
    /// [`in_seg`](Self::in_seg)`(n, Entry)`, in the same [`EdgeId`]
    /// order. A binary search in call site `s`'s run of the call-site
    /// index, so the cost does not grow with `n`'s caller count.
    #[inline]
    pub fn site_entries_into(&self, s: CallSiteId, n: NodeId) -> &[Adj] {
        self.sites.entries_into(s, n)
    }

    /// The `exit_s` edges out of `n`: the `s`-labelled part of
    /// [`out_seg`](Self::out_seg)`(n, Exit)`, in the same [`EdgeId`]
    /// order (see [`site_entries_into`](Self::site_entries_into)).
    #[inline]
    pub fn site_exits_from(&self, s: CallSiteId, n: NodeId) -> &[Adj] {
        self.sites.exits_from(s, n)
    }

    /// The entry edges into `n` at [recursive](Self::is_recursive_site)
    /// call sites, in [`EdgeId`] order.
    #[inline]
    pub fn recursive_entries_into(&self, n: NodeId) -> &[Adj] {
        self.sites.recursive_entries_into(n)
    }

    /// The exit edges out of `n` at [recursive](Self::is_recursive_site)
    /// call sites, in [`EdgeId`] order.
    #[inline]
    pub fn recursive_exits_from(&self, n: NodeId) -> &[Adj] {
        self.sites.recursive_exits_from(n)
    }

    // ---- metadata ----------------------------------------------------------

    /// The class hierarchy (sealed).
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Metadata for a variable.
    #[inline]
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Metadata for an object.
    #[inline]
    pub fn obj(&self, o: ObjId) -> &ObjInfo {
        &self.objs[o.index()]
    }

    /// Metadata for a method.
    #[inline]
    pub fn method(&self, m: MethodId) -> &MethodInfo {
        &self.methods[m.index()]
    }

    /// Metadata for a call site.
    #[inline]
    pub fn call_site(&self, s: CallSiteId) -> &CallSiteInfo {
        &self.call_sites[s.index()]
    }

    /// Name of a field.
    #[inline]
    pub fn field_name(&self, f: FieldId) -> &str {
        &self.fields[f.index()]
    }

    /// `true` when the call site participates in a call-graph cycle; its
    /// entry/exit edges are then traversed context-insensitively.
    #[inline]
    pub fn is_recursive_site(&self, s: CallSiteId) -> bool {
        self.call_sites[s.index()].recursive
    }

    /// The method owning a node: the declaring method for locals and the
    /// allocating method for objects; `None` for globals and method-less
    /// objects.
    pub fn method_of(&self, n: NodeId) -> Option<MethodId> {
        match self.node_ref(n) {
            NodeRef::Var(v) => self.vars[v.index()].kind.method(),
            NodeRef::Obj(o) => self.objs[o.index()].alloc_method,
        }
    }

    /// Local variables of a method.
    #[inline]
    pub fn locals_of(&self, m: MethodId) -> &[VarId] {
        &self.method_locals[m.index()]
    }

    /// Allocation sites inside a method.
    #[inline]
    pub fn objs_of(&self, m: MethodId) -> &[ObjId] {
        &self.method_objs[m.index()]
    }

    /// Iterates over all variables with their ids.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId::from_raw(i as u32), v))
    }

    /// Iterates over all objects with their ids.
    pub fn objs(&self) -> impl Iterator<Item = (ObjId, &ObjInfo)> {
        self.objs
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjId::from_raw(i as u32), o))
    }

    /// Iterates over all methods with their ids.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &MethodInfo)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId::from_raw(i as u32), m))
    }

    /// Iterates over all call sites with their ids.
    pub fn call_sites(&self) -> impl Iterator<Item = (CallSiteId, &CallSiteInfo)> {
        self.call_sites
            .iter()
            .enumerate()
            .map(|(i, s)| (CallSiteId::from_raw(i as u32), s))
    }

    /// Iterates over all fields with their ids.
    pub fn fields(&self) -> impl Iterator<Item = (FieldId, &str)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldId::from_raw(i as u32), f.as_str()))
    }

    // ---- name lookup -------------------------------------------------------

    /// Looks up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_names.get(name).copied()
    }

    /// Looks up a method by name.
    pub fn find_method(&self, name: &str) -> Option<MethodId> {
        self.method_names.get(name).copied()
    }

    /// Looks up a field by name.
    pub fn find_field(&self, name: &str) -> Option<FieldId> {
        self.field_names.get(name).copied()
    }

    /// Looks up an object by label.
    pub fn find_obj(&self, label: &str) -> Option<ObjId> {
        self.obj_labels.get(label).copied()
    }

    /// Looks up a call site by label.
    pub fn find_call_site(&self, label: &str) -> Option<CallSiteId> {
        self.site_labels.get(label).copied()
    }

    /// Human-readable label of a node (variable name or object label).
    pub fn node_label(&self, n: NodeId) -> &str {
        match self.node_ref(n) {
            NodeRef::Var(v) => &self.vars[v.index()].name,
            NodeRef::Obj(o) => &self.objs[o.index()].label,
        }
    }

    /// A stable structural fingerprint of this graph, written into
    /// snapshot headers so a snapshot is only restored against the exact
    /// graph it was computed on.
    ///
    /// Hashes every edge (endpoints, kind, operand), every name/label (the
    /// identity a rebuilt front-end would have to reproduce for dense ids
    /// to mean the same thing), per-variable owning methods, per-object
    /// allocation sites and classes, and call-site recursion flags —
    /// everything the engines' traversal semantics can observe. Two graphs
    /// with equal fingerprints answer every query identically; a changed
    /// program produces a different fingerprint (the incomplete-program
    /// discipline: stale summaries are never applied to changed code).
    ///
    /// The value is computed **once per frozen graph**: the first call
    /// hashes the whole graph with [`StableHasher`](crate::StableHasher)
    /// (about 11–16 ms for the benchmark's 136k–153k-edge graphs at
    /// generator scale 0.5), every
    /// later call — and every call on a [`clone`](Clone::clone) made
    /// after the first — is an O(1) read. Building or parsing a graph
    /// never computes it, so callers that never ask never pay.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::hash::fingerprint_of(self))
    }

    // ---- statistics --------------------------------------------------------

    /// Computes the Table 3 statistics row for this graph.
    pub fn stats(&self) -> PagStats {
        PagStats::of(self)
    }

    // ---- construction (crate-internal) --------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        hierarchy: Hierarchy,
        fields: Vec<String>,
        methods: Vec<MethodInfo>,
        vars: Vec<VarInfo>,
        objs: Vec<ObjInfo>,
        call_sites: Vec<CallSiteInfo>,
        edges: Vec<Edge>,
    ) -> Pag {
        let num_nodes = vars.len() + objs.len();
        const K: usize = AdjClass::COUNT;

        // Counting-sort edges into kind-partitioned CSR form, both
        // directions: one segment per (node, kind class), local classes
        // first.
        let operand_of = |kind: EdgeKind| -> u32 {
            match kind {
                EdgeKind::Load(f) | EdgeKind::Store(f) => f.as_raw(),
                EdgeKind::Entry(i) | EdgeKind::Exit(i) => i.as_raw(),
                EdgeKind::New | EdgeKind::Assign | EdgeKind::AssignGlobal => 0,
            }
        };
        let mut out_seg = vec![0u32; num_nodes * K + 1];
        let mut in_seg = vec![0u32; num_nodes * K + 1];
        for e in &edges {
            let k = AdjClass::of(e.kind) as usize;
            out_seg[e.src.index() * K + k + 1] += 1;
            in_seg[e.dst.index() * K + k + 1] += 1;
        }
        for i in 0..num_nodes * K {
            out_seg[i + 1] += out_seg[i];
            in_seg[i + 1] += in_seg[i];
        }
        let nil = Adj {
            node: NodeId(0),
            operand: 0,
            edge: EdgeId(0),
        };
        let mut out_list = vec![nil; edges.len()];
        let mut in_list = vec![nil; edges.len()];
        let mut out_cursor = out_seg.clone();
        let mut in_cursor = in_seg.clone();
        for (i, e) in edges.iter().enumerate() {
            let edge = EdgeId(i as u32);
            let operand = operand_of(e.kind);
            let k = AdjClass::of(e.kind) as usize;
            let oc = &mut out_cursor[e.src.index() * K + k];
            out_list[*oc as usize] = Adj {
                node: e.dst,
                operand,
                edge,
            };
            *oc += 1;
            let ic = &mut in_cursor[e.dst.index() * K + k];
            in_list[*ic as usize] = Adj {
                node: e.src,
                operand,
                edge,
            };
            *ic += 1;
        }

        let mut stores_by_field = vec![Vec::new(); fields.len()];
        let mut loads_by_field = vec![Vec::new(); fields.len()];
        for (i, e) in edges.iter().enumerate() {
            let fe = FieldEdge {
                src: e.src,
                dst: e.dst,
                edge: EdgeId(i as u32),
            };
            match e.kind {
                EdgeKind::Store(f) => stores_by_field[f.index()].push(fe),
                EdgeKind::Load(f) => loads_by_field[f.index()].push(fe),
                _ => {}
            }
        }

        let sites = SiteIndex::build(&call_sites, &edges);

        let mut method_locals = vec![Vec::new(); methods.len()];
        for (i, v) in vars.iter().enumerate() {
            if let Some(m) = v.kind.method() {
                method_locals[m.index()].push(VarId::from_raw(i as u32));
            }
        }
        let mut method_objs = vec![Vec::new(); methods.len()];
        for (i, o) in objs.iter().enumerate() {
            if let Some(m) = o.alloc_method {
                method_objs[m.index()].push(ObjId::from_raw(i as u32));
            }
        }

        let var_names = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.clone(), VarId::from_raw(i as u32)))
            .collect();
        let method_names = methods
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), MethodId::from_raw(i as u32)))
            .collect();
        let field_names = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.clone(), FieldId::from_raw(i as u32)))
            .collect();
        let obj_labels = objs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.label.clone(), ObjId::from_raw(i as u32)))
            .collect();
        let site_labels = call_sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.label.clone(), CallSiteId::from_raw(i as u32)))
            .collect();

        Pag {
            hierarchy,
            fields,
            methods,
            vars,
            objs,
            call_sites,
            edges,
            out_seg,
            out_list,
            in_seg,
            in_list,
            stores_by_field,
            loads_by_field,
            sites,
            method_locals,
            method_objs,
            var_names,
            method_names,
            field_names,
            obj_labels,
            site_labels,
            fingerprint: OnceLock::new(),
        }
    }
}
