//! A line-oriented text interchange format for PAGs.
//!
//! The reproduction bands note that the paper's pipeline requires
//! *exporting program graphs* (Soot/Spark produced them). This format is
//! the interchange point: the frontend and the workload generator can dump
//! graphs, and any external producer can hand graphs to the analyses.
//!
//! The format is deliberately trivial — one declaration or edge per line,
//! whitespace-separated tokens, `#` comments — so it is diffable and easy
//! to generate from other toolchains:
//!
//! ```text
//! pag v1
//! class Vector extends Object
//! field elems
//! method Vector.add class Vector
//! global Main.gv
//! local this_add method Vector.add type Vector
//! obj o5 class Object method Vector.<init>
//! nullobj null7 method Main.main
//! callsite 26 method Main.main
//! new o5 t
//! assign a b
//! load elems this_add t
//! store arr p t
//! entry 26 tmp1 p
//! exit 22 ret_get t2
//! ```

use std::fmt::Write as _;

use crate::builder::{BuildError, PagBuilder};
use crate::edge::EdgeKind;
use crate::graph::Pag;
use crate::node::VarKind;

/// Error produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTextError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Explanation of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseTextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTextError {}

fn err(line: usize, message: impl Into<String>) -> ParseTextError {
    ParseTextError {
        line,
        message: message.into(),
    }
}

fn build_err(line: usize, e: BuildError) -> ParseTextError {
    err(line, e.to_string())
}

/// Serializes a PAG to the text format.
///
/// The output is deterministic (declarations in id order, edges in
/// insertion order) and round-trips through [`parse_pag`].
pub fn write_pag(pag: &Pag) -> String {
    let mut out = String::new();
    out.push_str("pag v1\n");
    for (c, info) in pag.hierarchy().iter() {
        if c == pag.hierarchy().root() {
            continue;
        }
        match info.superclass {
            Some(sup) if sup != pag.hierarchy().root() => {
                let _ = writeln!(
                    out,
                    "class {} extends {}",
                    info.name,
                    pag.hierarchy().name(sup)
                );
            }
            _ => {
                let _ = writeln!(out, "class {}", info.name);
            }
        }
    }
    for (_, name) in pag.fields() {
        let _ = writeln!(out, "field {name}");
    }
    for (m, info) in pag.methods() {
        let name = pag.method_name(m);
        match info.class {
            Some(c) => {
                let _ = writeln!(out, "method {name} class {}", pag.hierarchy().name(c));
            }
            None => {
                let _ = writeln!(out, "method {name}");
            }
        }
    }
    for (v, info) in pag.vars() {
        let name = pag.var_name(v);
        match info.kind {
            VarKind::Global => {
                let _ = write!(out, "global {name}");
            }
            VarKind::Local(m) => {
                let _ = write!(out, "local {name} method {}", pag.method_name(m));
            }
        }
        if let Some(c) = info.declared_class {
            let _ = write!(out, " type {}", pag.hierarchy().name(c));
        }
        out.push('\n');
    }
    for (o, info) in pag.objs() {
        let keyword = if info.is_null { "nullobj" } else { "obj" };
        let _ = write!(out, "{keyword} {}", pag.obj_label(o));
        if let Some(c) = info.class {
            let _ = write!(out, " class {}", pag.hierarchy().name(c));
        }
        if let Some(m) = info.alloc_method {
            let _ = write!(out, " method {}", pag.method_name(m));
        }
        out.push('\n');
    }
    for (s, info) in pag.call_sites() {
        let _ = write!(
            out,
            "callsite {} method {}",
            pag.site_label(s),
            pag.method_name(info.caller)
        );
        if info.recursive {
            out.push_str(" recursive");
        }
        out.push('\n');
    }
    for e in pag.edges() {
        let src = pag.node_label(e.src);
        let dst = pag.node_label(e.dst);
        match e.kind {
            EdgeKind::New => {
                let _ = writeln!(out, "new {src} {dst}");
            }
            EdgeKind::Assign | EdgeKind::AssignGlobal => {
                let _ = writeln!(out, "assign {src} {dst}");
            }
            EdgeKind::Load(f) => {
                let _ = writeln!(out, "load {} {src} {dst}", pag.field_name(f));
            }
            EdgeKind::Store(f) => {
                let _ = writeln!(out, "store {} {src} {dst}", pag.field_name(f));
            }
            EdgeKind::Entry(s) => {
                let _ = writeln!(out, "entry {} {src} {dst}", pag.site_label(s));
            }
            EdgeKind::Exit(s) => {
                let _ = writeln!(out, "exit {} {src} {dst}", pag.site_label(s));
            }
        }
    }
    out
}

/// A name resolved by one of the builder's lookups, or the error for an
/// unknown `kind` of name on `line`.
fn known<T>(found: Option<T>, kind: &str, name: &str, line: usize) -> Result<T, ParseTextError> {
    found.ok_or_else(|| err(line, format!("unknown {kind} `{name}`")))
}

/// Parses the text format into a frozen [`Pag`].
///
/// # Errors
///
/// Returns a [`ParseTextError`] with the 1-based line number for syntax
/// errors, unknown names, or violated PAG invariants.
pub fn parse_pag(input: &str) -> Result<Pag, ParseTextError> {
    let mut b = PagBuilder::new();

    let mut saw_header = false;
    // One token buffer for every line.
    let mut toks: Vec<&str> = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        // A comment starts at the first token that starts with `#`.
        // Entity names may contain `#` (the frontend names locals
        // `Class.method#var`), but no name can start with it: `write_pag`
        // separates tokens with a space, and would write such a name
        // back as a comment.
        toks.clear();
        toks.extend(raw.split_whitespace().take_while(|t| !t.starts_with('#')));
        if toks.is_empty() {
            continue;
        }
        if !saw_header {
            if toks.as_slice() != ["pag", "v1"] {
                return Err(err(lineno, "expected header `pag v1`"));
            }
            saw_header = true;
            continue;
        }
        match toks[0] {
            "class" => match toks.as_slice() {
                ["class", name] => {
                    b.add_class(name, None).map_err(|e| build_err(lineno, e))?;
                }
                ["class", name, "extends", sup] => {
                    let sup = known(b.find_class(sup), "class", sup, lineno)?;
                    b.add_class(name, Some(sup))
                        .map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed class declaration")),
            },
            "field" => match toks.as_slice() {
                ["field", name] => {
                    b.field(name);
                }
                _ => return Err(err(lineno, "malformed field declaration")),
            },
            "method" => {
                let (name, class) = match toks.as_slice() {
                    ["method", name] => (*name, None),
                    ["method", name, "class", c] => {
                        (*name, Some(known(b.find_class(c), "class", c, lineno)?))
                    }
                    _ => return Err(err(lineno, "malformed method declaration")),
                };
                b.add_method(name, class)
                    .map_err(|e| build_err(lineno, e))?;
            }
            "global" => {
                let (name, ty) = match toks.as_slice() {
                    ["global", name] => (*name, None),
                    ["global", name, "type", t] => {
                        (*name, Some(known(b.find_class(t), "class", t, lineno)?))
                    }
                    _ => return Err(err(lineno, "malformed global declaration")),
                };
                b.add_global(name, ty).map_err(|e| build_err(lineno, e))?;
            }
            "local" => {
                let (name, method, ty) = match toks.as_slice() {
                    ["local", name, "method", m] => {
                        (*name, known(b.find_method(m), "method", m, lineno)?, None)
                    }
                    ["local", name, "method", m, "type", t] => (
                        *name,
                        known(b.find_method(m), "method", m, lineno)?,
                        Some(known(b.find_class(t), "class", t, lineno)?),
                    ),
                    _ => return Err(err(lineno, "malformed local declaration")),
                };
                b.add_local(name, method, ty)
                    .map_err(|e| build_err(lineno, e))?;
            }
            "obj" | "nullobj" => {
                let is_null = toks[0] == "nullobj";
                let label = *toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "missing object label"))?;
                let mut class = None;
                let mut method = None;
                let mut i = 2;
                while i + 1 < toks.len() + 1 && i < toks.len() {
                    match toks[i] {
                        "class" => {
                            let c = toks
                                .get(i + 1)
                                .ok_or_else(|| err(lineno, "missing class name"))?;
                            class = Some(known(b.find_class(c), "class", c, lineno)?);
                            i += 2;
                        }
                        "method" => {
                            let m = toks
                                .get(i + 1)
                                .ok_or_else(|| err(lineno, "missing method name"))?;
                            method = Some(known(b.find_method(m), "method", m, lineno)?);
                            i += 2;
                        }
                        other => return Err(err(lineno, format!("unexpected token `{other}`"))),
                    }
                }
                if is_null {
                    b.add_null_obj(label, method)
                } else {
                    b.add_obj(label, class, method)
                }
                .map_err(|e| build_err(lineno, e))?;
            }
            "callsite" => {
                let (label, method, recursive) = match toks.as_slice() {
                    ["callsite", label, "method", m] => {
                        (*label, known(b.find_method(m), "method", m, lineno)?, false)
                    }
                    ["callsite", label, "method", m, "recursive"] => {
                        (*label, known(b.find_method(m), "method", m, lineno)?, true)
                    }
                    _ => return Err(err(lineno, "malformed callsite declaration")),
                };
                let id = b
                    .add_call_site(label, method)
                    .map_err(|e| build_err(lineno, e))?;
                if recursive {
                    b.set_recursive(id, true)
                        .map_err(|e| build_err(lineno, e))?;
                }
            }
            "new" => match toks.as_slice() {
                ["new", obj, var] => {
                    let o = known(b.find_obj(obj), "object", obj, lineno)?;
                    let v = known(b.find_var(var), "variable", var, lineno)?;
                    b.add_new(o, v).map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed new edge")),
            },
            "assign" | "assignglobal" => match toks.as_slice() {
                [_, src, dst] => {
                    let s = known(b.find_var(src), "variable", src, lineno)?;
                    let d = known(b.find_var(dst), "variable", dst, lineno)?;
                    b.add_assign(s, d).map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed assign edge")),
            },
            "load" => match toks.as_slice() {
                ["load", field, base, dst] => {
                    let f = b.field(field);
                    let base = known(b.find_var(base), "variable", base, lineno)?;
                    let dst = known(b.find_var(dst), "variable", dst, lineno)?;
                    b.add_load(f, base, dst).map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed load edge")),
            },
            "store" => match toks.as_slice() {
                ["store", field, src, base] => {
                    let f = b.field(field);
                    let src = known(b.find_var(src), "variable", src, lineno)?;
                    let base = known(b.find_var(base), "variable", base, lineno)?;
                    b.add_store(f, src, base)
                        .map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed store edge")),
            },
            "entry" => match toks.as_slice() {
                ["entry", site, actual, formal] => {
                    let s = known(b.find_call_site(site), "call site", site, lineno)?;
                    let a = known(b.find_var(actual), "variable", actual, lineno)?;
                    let p = known(b.find_var(formal), "variable", formal, lineno)?;
                    b.add_entry(s, a, p).map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed entry edge")),
            },
            "exit" => match toks.as_slice() {
                ["exit", site, ret, dst] => {
                    let s = known(b.find_call_site(site), "call site", site, lineno)?;
                    let r = known(b.find_var(ret), "variable", ret, lineno)?;
                    let d = known(b.find_var(dst), "variable", dst, lineno)?;
                    b.add_exit(s, r, d).map_err(|e| build_err(lineno, e))?;
                }
                _ => return Err(err(lineno, "malformed exit edge")),
            },
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }
    if !saw_header {
        return Err(err(1, "empty input: expected header `pag v1`"));
    }
    Ok(b.finish())
}

/// Writes a store-edge orientation note: exposed for doc examples.
///
/// The text `store f src base` line mirrors the statement `base.f = src`;
/// the PAG edge runs `src --store(f)--> base` (value flow).
#[doc(hidden)]
pub fn _format_notes() {}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
pag v1
# a vector-ish example
class Vector
class Stack extends Vector
field elems
method main
method Vector.get class Vector
global G type Vector
local v method main type Vector
local t method Vector.get
local this_get method Vector.get
obj o1 class Vector method main
nullobj n1 method main
callsite 7 method main
new o1 v
assign v G
load elems this_get t
entry 7 v this_get
exit 7 t v
";

    #[test]
    fn parses_sample() {
        let pag = parse_pag(SAMPLE).unwrap();
        assert_eq!(pag.num_methods(), 2);
        assert_eq!(pag.num_vars(), 4);
        assert_eq!(pag.num_objs(), 2);
        assert_eq!(pag.num_edges(), 5);
        let v = pag.find_var("v").unwrap();
        assert_eq!(
            pag.var(v).declared_class,
            Some(pag.hierarchy().find("Vector").unwrap())
        );
        let n1 = pag.find_obj("n1").unwrap();
        assert!(pag.obj(n1).is_null);
    }

    #[test]
    fn round_trips() {
        let pag = parse_pag(SAMPLE).unwrap();
        let text = write_pag(&pag);
        let pag2 = parse_pag(&text).unwrap();
        assert_eq!(pag.num_edges(), pag2.num_edges());
        assert_eq!(pag.num_vars(), pag2.num_vars());
        let kinds1: Vec<_> = pag.edges().iter().map(|e| e.kind).collect();
        let kinds2: Vec<_> = pag2.edges().iter().map(|e| e.kind).collect();
        assert_eq!(kinds1, kinds2);
        // Idempotence: writing again yields identical text.
        assert_eq!(text, write_pag(&pag2));
    }

    #[test]
    fn rejects_missing_header() {
        let e = parse_pag("class A\n").unwrap_err();
        assert!(e.message.contains("header"));
    }

    #[test]
    fn rejects_unknown_names_with_line_numbers() {
        let cases = [
            ("pag v1\nclass B extends A\n", 2, "unknown class `A`"),
            ("pag v1\nlocal x method m\n", 2, "unknown method `m`"),
            (
                "pag v1\nmethod m\nlocal a method m\nassign a b\n",
                4,
                "unknown variable `b`",
            ),
            ("pag v1\nnew o1 v\n", 2, "unknown object `o1`"),
            (
                "pag v1\nmethod m\nlocal a method m\nexit 9 a a\n",
                4,
                "unknown call site `9`",
            ),
        ];
        for (text, line, message) in cases {
            let e = parse_pag(text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{text:?}");
        }
    }

    #[test]
    fn many_classes_parse_within_seconds() {
        // Class names resolve through a map. A duplicate check that
        // scanned every earlier class made this input take over a
        // minute in a debug build.
        const N: usize = 100_000;
        let mut text = String::from("pag v1\nmethod m\n");
        for i in 0..N {
            let _ = writeln!(text, "class C{i}");
        }
        for i in (0..N).step_by(N / 8) {
            let _ = writeln!(text, "local v{i} method m type C{i}");
        }
        let start = std::time::Instant::now();
        let pag = parse_pag(&text).unwrap();
        let took = start.elapsed();
        assert!(took.as_secs() < 10, "{N} classes took {took:?}");
        assert_eq!(pag.hierarchy().len(), N + 1);
        let last = (N - N / 8).to_string();
        let v = pag.find_var(&format!("v{last}")).unwrap();
        assert_eq!(
            pag.var(v).declared_class,
            pag.hierarchy().find(&format!("C{last}"))
        );
    }

    #[test]
    fn many_locals_and_repeated_edges_parse_within_seconds() {
        // Variable names and edges resolve through the builder's slot
        // tables: one probe per declaration, one per repeated edge.
        const N: usize = 100_000;
        let mut text = String::from("pag v1\nmethod m\n");
        for i in 0..N {
            let _ = writeln!(text, "local v{i} method m");
        }
        for _ in 0..N {
            text.push_str("assign v0 v1\n");
        }
        let start = std::time::Instant::now();
        let pag = parse_pag(&text).unwrap();
        let took = start.elapsed();
        assert!(
            took.as_secs() < 10,
            "{N} locals and {N} edges took {took:?}"
        );
        assert_eq!((pag.num_vars(), pag.num_edges()), (N, 1));
        let last = pag.find_var(&format!("v{}", N - 1)).unwrap();
        assert_eq!(pag.var_name(last), format!("v{}", N - 1));
    }

    #[test]
    fn rejects_unknown_directives() {
        let e = parse_pag("pag v1\nfrobnicate x\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let pag = parse_pag("pag v1\n\n# nothing\nmethod m\n").unwrap();
        assert_eq!(pag.num_methods(), 1);
    }

    #[test]
    fn a_hash_after_any_whitespace_starts_a_comment() {
        // `\r`, `\x0b`, `\x0c` and U+0085 split tokens too, so a `#`
        // after them starts a comment: as the start of a name it would
        // not survive `write_pag`, which separates tokens with a space.
        for ws in ["\r", "\u{b}", "\u{c}", "\u{85}"] {
            let e = parse_pag(&format!("pag v1\nfield{ws}#x\n")).unwrap_err();
            assert!(e.message.contains("malformed field"), "{ws:?}: {e}");
        }
        let pag = parse_pag("pag v1\nfield a#b\n").unwrap();
        assert_eq!(pag.find_field("a#b").map(|f| f.as_raw()), Some(0));
        // A trailing comment after a name that contains `#`.
        let pag = parse_pag(
            "pag v1\nfield a#b # note\nmethod Main.main\n\
             local Main.main#got method Main.main # note\n",
        )
        .unwrap();
        assert_eq!(pag.find_field("a#b").map(|f| f.as_raw()), Some(0));
        assert!(pag.find_var("Main.main#got").is_some());
    }

    #[test]
    fn recursive_callsite_round_trips() {
        let src = "pag v1\nmethod m\nlocal a method m\nlocal b method m\n\
                   callsite c1 method m recursive\nentry c1 a b\n";
        let pag = parse_pag(src).unwrap();
        let site = pag.find_call_site("c1").unwrap();
        assert!(pag.is_recursive_site(site));
        let pag2 = parse_pag(&write_pag(&pag)).unwrap();
        assert!(pag2.is_recursive_site(pag2.find_call_site("c1").unwrap()));
    }

    #[test]
    fn build_errors_carry_line_numbers() {
        let src =
            "pag v1\nmethod m1\nmethod m2\nlocal a method m1\nlocal b method m2\nassign a b\n";
        let e = parse_pag(src).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("crosses method"));
    }
}
