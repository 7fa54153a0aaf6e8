//! Graphviz (DOT) export, rendering PAGs in the style of the paper's
//! Figure 2: local edges clustered per method, global edges spanning
//! clusters.

use std::fmt::Write as _;

use crate::edge::EdgeKind;
use crate::graph::Pag;
use crate::node::{NodeId, NodeRef};

/// A name as the inside of a DOT `"…"` string: `\` and `"` are
/// backslash-escaped, so a name cannot end the string early, and
/// Graphviz does not read a backslash in it as an escape such as `\N`
/// (the node's name).
struct Quoted<'a>(&'a str);

impl std::fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(&['\\', '"'][..]) {
            write!(f, "{}\\{}", &rest[..i], &rest[i..=i])?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

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
    for (m, _) in pag.methods() {
        let _ = writeln!(out, "  subgraph cluster_m{} {{", m.as_raw());
        let _ = writeln!(out, "    label=\"{}\";", Quoted(pag.method_name(m)));
        out.push_str("    style=dotted;\n");
        for &v in &locals[m.index()] {
            let n = pag.var_node(v);
            let _ = writeln!(
                out,
                "    {} [label=\"{}\" shape=ellipse];",
                node_name(n),
                Quoted(pag.var_name(v))
            );
        }
        for &o in &objs[m.index()] {
            let n = pag.obj_node(o);
            let shape = if pag.obj(o).is_null { "diamond" } else { "box" };
            let _ = writeln!(
                out,
                "    {} [label=\"{}\" shape={shape}];",
                node_name(n),
                Quoted(pag.obj_label(o))
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
                Quoted(pag.var_name(v))
            );
        }
    }
    for (o, info) in pag.objs() {
        if info.alloc_method.is_none() {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\" shape=box];",
                node_name(pag.obj_node(o)),
                Quoted(pag.obj_label(o))
            );
        }
    }

    for e in pag.edges() {
        let label = match e.kind {
            EdgeKind::New => "new".to_owned(),
            EdgeKind::Assign => "assign".to_owned(),
            EdgeKind::AssignGlobal => "assignglobal".to_owned(),
            EdgeKind::Load(f) => format!("ld({})", Quoted(pag.field_name(f))),
            EdgeKind::Store(f) => format!("st({})", Quoted(pag.field_name(f))),
            EdgeKind::Entry(s) => format!("entry{}", Quoted(pag.site_label(s))),
            EdgeKind::Exit(s) => format!("exit{}", Quoted(pag.site_label(s))),
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

    #[test]
    fn quotes_and_backslashes_in_names_are_escaped() {
        let mut b = PagBuilder::new();
        let m = b.add_method(r#"M"x"#, None).unwrap();
        let v = b.add_local(r"v\N", m, None).unwrap();
        let w = b.add_local(r#"w""#, m, None).unwrap();
        let g = b.add_global(r#"G\"#, None).unwrap();
        let o = b.add_obj(r#"o"1"#, None, Some(m)).unwrap();
        b.add_obj(r"top\", None, None).unwrap();
        let f = b.field(r#"f"\"#);
        let site = b.add_call_site(r#"c"s"#, m).unwrap();
        b.add_new(o, v).unwrap();
        b.add_load(f, v, w).unwrap();
        b.add_store(f, w, v).unwrap();
        b.add_assign(v, g).unwrap();
        b.add_entry(site, v, w).unwrap();
        b.add_exit(site, w, v).unwrap();
        let dot = to_dot(&b.finish());
        for line in [
            r#"    label="M\"x";"#,
            r#"    v0 [label="v\\N" shape=ellipse];"#,
            r#"    v1 [label="w\"" shape=ellipse];"#,
            r#"    o0 [label="o\"1" shape=box];"#,
            r#"  v2 [label="G\\" shape=ellipse style=bold];"#,
            r#"  o1 [label="top\\" shape=box];"#,
            r#"  v0 -> v1 [label="ld(f\"\\)"];"#,
            r#"  v1 -> v0 [label="st(f\"\\)"];"#,
            r#"  v0 -> v1 [label="entryc\"s" style=dashed];"#,
            r#"  v1 -> v0 [label="exitc\"s" style=dashed];"#,
        ] {
            assert!(dot.lines().any(|l| l == line), "{line}\n{dot}");
        }
    }
}
