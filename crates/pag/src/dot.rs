//! Graphviz (DOT) export, rendering PAGs in the style of the paper's
//! Figure 2: local edges clustered per method, global edges spanning
//! clusters.

use std::fmt::Write as _;

use crate::edge::EdgeKind;
use crate::graph::Pag;
use crate::node::{NodeId, NodeRef};

/// Renders a PAG to DOT.
///
/// Nodes are grouped into one `cluster_*` subgraph per method (objects
/// under their allocating method), with globals and method-less objects at
/// the top level. Local edges are solid, global edges dashed — matching
/// the visual language of Figure 2.
///
/// # Examples
///
/// ```
/// use dynsum_pag::{PagBuilder, to_dot};
///
/// let mut b = PagBuilder::new();
/// let m = b.add_method("main", None)?;
/// let v = b.add_local("v", m, None)?;
/// let o = b.add_obj("o1", None, Some(m))?;
/// b.add_new(o, v)?;
/// let dot = to_dot(&b.finish());
/// assert!(dot.contains("digraph pag"));
/// assert!(dot.contains("cluster_m0"));
/// # Ok::<(), dynsum_pag::BuildError>(())
/// ```
pub fn to_dot(pag: &Pag) -> String {
    let mut out = String::new();
    out.push_str("digraph pag {\n  rankdir=BT;\n  node [fontsize=10];\n");

    let node_name = |n: NodeId| -> String {
        match pag.node_ref(n) {
            NodeRef::Var(v) => format!("v{}", v.as_raw()),
            NodeRef::Obj(o) => format!("o{}", o.as_raw()),
        }
    };

    // Method clusters: each method's locals, then its objects, in id order.
    let mut locals = vec![Vec::new(); pag.num_methods()];
    for (v, info) in pag.vars() {
        if let Some(m) = info.kind.method() {
            locals[m.index()].push(v);
        }
    }
    let mut objs = vec![Vec::new(); pag.num_methods()];
    for (o, info) in pag.objs() {
        if let Some(m) = info.alloc_method {
            objs[m.index()].push(o);
        }
    }
    for (m, info) in pag.methods() {
        let _ = writeln!(out, "  subgraph cluster_m{} {{", m.as_raw());
        let _ = writeln!(out, "    label=\"{}\";", info.name);
        out.push_str("    style=dotted;\n");
        for &v in &locals[m.index()] {
            let n = pag.var_node(v);
            let _ = writeln!(
                out,
                "    {} [label=\"{}\" shape=ellipse];",
                node_name(n),
                pag.var(v).name
            );
        }
        for &o in &objs[m.index()] {
            let n = pag.obj_node(o);
            let shape = if pag.obj(o).is_null { "diamond" } else { "box" };
            let _ = writeln!(
                out,
                "    {} [label=\"{}\" shape={shape}];",
                node_name(n),
                pag.obj(o).label
            );
        }
        out.push_str("  }\n");
    }

    // Globals and unowned objects at top level.
    for (v, info) in pag.vars() {
        if info.kind.is_global() {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\" shape=ellipse style=bold];",
                node_name(pag.var_node(v)),
                info.name
            );
        }
    }
    for (o, info) in pag.objs() {
        if info.alloc_method.is_none() {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\" shape=box];",
                node_name(pag.obj_node(o)),
                info.label
            );
        }
    }

    for e in pag.edges() {
        let label = match e.kind {
            EdgeKind::New => "new".to_owned(),
            EdgeKind::Assign => "assign".to_owned(),
            EdgeKind::AssignGlobal => "assignglobal".to_owned(),
            EdgeKind::Load(f) => format!("ld({})", pag.field_name(f)),
            EdgeKind::Store(f) => format!("st({})", pag.field_name(f)),
            EdgeKind::Entry(s) => format!("entry{}", pag.call_site(s).label),
            EdgeKind::Exit(s) => format!("exit{}", pag.call_site(s).label),
        };
        let style = if e.kind.is_global() {
            " style=dashed"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{label}\"{style}];",
            node_name(e.src),
            node_name(e.dst)
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PagBuilder;

    #[test]
    fn renders_clusters_and_edge_styles() {
        let mut b = PagBuilder::new();
        let m1 = b.add_method("caller", None).unwrap();
        let m2 = b.add_method("callee", None).unwrap();
        let a = b.add_local("a", m1, None).unwrap();
        let p = b.add_local("p", m2, None).unwrap();
        let g = b.add_global("G", None).unwrap();
        let o = b.add_obj("o1", None, Some(m1)).unwrap();
        b.add_new(o, a).unwrap();
        b.add_assign(a, g).unwrap();
        let site = b.add_call_site("1", m1).unwrap();
        b.add_entry(site, a, p).unwrap();
        let dot = to_dot(&b.finish());
        assert!(dot.contains("cluster_m0"));
        assert!(dot.contains("cluster_m1"));
        assert!(dot.contains("entry1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("label=\"new\""));
        assert!(dot.contains("label=\"G\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn null_objects_render_as_diamonds() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m", None).unwrap();
        let v = b.add_local("v", m, None).unwrap();
        let n = b.add_null_obj("null1", Some(m)).unwrap();
        b.add_new(n, v).unwrap();
        let dot = to_dot(&b.finish());
        assert!(dot.contains("shape=diamond"));
    }
}
