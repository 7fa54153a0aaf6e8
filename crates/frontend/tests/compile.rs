//! End-to-end frontend tests: source → PAG shape.

use dynsum_frontend::{compile, compile_with, CallGraphMode};
use dynsum_pag::{EdgeKind, VarKind};

/// The paper's Figure 2 program, in this frontend's syntax.
const FIGURE2: &str = r#"
class Vector {
    Object[] elems;
    int count;
    Vector() { Object[] t = new Object[8]; this.elems = t; }
    void add(Object p) { Object[] t = this.elems; t[0] = p; }
    Object get(int i) { Object[] t = this.elems; return t[i]; }
}
class Integer { }
class Client {
    Vector vec;
    Client() { }
    void set(Vector v) { this.vec = v; }
    Object retrieve() { Vector t = this.vec; return t.get(0); }
}
class Main {
    static void main() {
        Vector v1 = new Vector();
        v1.add(new Integer());
        Client c1 = new Client();
        c1.set(v1);
        Vector v2 = new Vector();
        v2.add(new String());
        Client c2 = new Client();
        c2.set(v2);
        Object s1 = c1.retrieve();
        Object s2 = c2.retrieve();
    }
}
class String { }
"#;

#[test]
fn figure2_compiles_and_validates() {
    let c = compile(FIGURE2).expect("figure 2 must compile");
    assert!(dynsum_pag::validate(&c.pag).is_empty());
    // Methods: Vector {ctor, add, get}, Client {ctor, set, retrieve},
    // Main {main} — 7 total.
    assert_eq!(c.pag.num_methods(), 7);
    assert!(c.pag.find_method("Vector.get").is_some());
    assert!(c.pag.find_method("Client.<init>").is_some());
    // Every object has exactly one defining new edge.
    let new_edges = c
        .pag
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::New)
        .count();
    assert_eq!(new_edges, c.pag.num_objs());
    // Array stores collapse onto `arr`.
    let arr = c.pag.find_field("arr").expect("arr field exists");
    assert!(!c.pag.stores_of(arr).is_empty());
    assert!(!c.pag.loads_of(arr).is_empty());
    // Entry/exit edges exist for the virtual calls.
    let stats = c.pag.stats();
    assert!(stats.entry_edges >= 8);
    assert!(stats.exit_edges >= 2);
    // Locality is high, as in Table 3.
    assert!(stats.locality() > 0.5, "locality = {}", stats.locality());
}

#[test]
fn statics_become_globals_and_clear_contexts() {
    let c = compile(
        "class Registry { static Object cache; }\n\
         class Main { static void main() { Registry.cache = new Main(); Object x = Registry.cache; } }",
    )
    .unwrap();
    let g = c.pag.find_var("Registry.cache").unwrap();
    assert_eq!(c.pag.var(g).kind, VarKind::Global);
    let ag = c
        .pag
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::AssignGlobal)
        .count();
    assert_eq!(ag, 2);
}

#[test]
fn casts_recorded_for_safecast() {
    let c = compile(
        "class A {} class B extends A {}\n\
         class Main { static void main() { A a = new B(); B b = (B) a; A a2 = (A) a; } }",
    )
    .unwrap();
    assert_eq!(c.info.casts.len(), 2);
    let b = c.pag.hierarchy().find("B").unwrap();
    assert!(c.info.casts.iter().any(|cs| cs.target == b));
}

#[test]
fn derefs_recorded_for_nullderef() {
    let c = compile(
        "class Box { Object item; Object take() { return this.item; } }\n\
         class Main { static void main() { Box b = null; Object x = b.take(); } }",
    )
    .unwrap();
    assert!(!c.info.derefs.is_empty());
    // The null literal produced a null object.
    assert!(c.pag.objs().any(|(_, o)| o.is_null));
}

#[test]
fn factory_candidates_recorded() {
    let c = compile(
        "class F { Object make() { return new Object(); } void noise() { } }\n\
         class Object2 {}",
    )
    .unwrap();
    assert_eq!(c.info.factories.len(), 1);
    let f = &c.info.factories[0];
    assert_eq!(c.pag.method_name(f.method), "F.make");
}

#[test]
fn entry_point_detected() {
    let c = compile("class Main { static void main() { } }").unwrap();
    let entry = c.info.entry.expect("main found");
    assert_eq!(c.pag.method_name(entry), "Main.main");
}

#[test]
fn cha_is_superset_of_on_the_fly() {
    // Receiver can only be B at runtime, but CHA dispatches to A.m too.
    let src = "class A { void m() { } }\n\
               class B extends A { void m() { } }\n\
               class Main { static void main() { A x = new B(); x.m(); } }";
    let otf = compile_with(src, CallGraphMode::OnTheFly).unwrap();
    let cha = compile_with(src, CallGraphMode::Cha).unwrap();
    let count = |pag: &dynsum_pag::Pag| {
        pag.edges()
            .iter()
            .filter(|e| matches!(e.kind, EdgeKind::Entry(_)))
            .count()
    };
    assert!(
        count(&cha.pag) > count(&otf.pag),
        "CHA must add more entry edges ({} vs {})",
        count(&cha.pag),
        count(&otf.pag)
    );
}

#[test]
fn recursion_marked_on_self_calls() {
    let c = compile(
        "class R { Object walk(Object x) { return this.walk(x); } }\n\
         class Main { static void main() { R r = new R(); Object o = r.walk(new Main()); } }",
    )
    .unwrap();
    let rec_sites = c.pag.call_sites().filter(|(_, s)| s.recursive).count();
    assert_eq!(rec_sites, 1, "exactly the self-call is recursive");
}

#[test]
fn mutual_recursion_marked() {
    let c = compile(
        "class A { Object ping(B b) { return b.pong(this); } }\n\
         class B { Object pong(A a) { return a.ping(this); } }\n\
         class Main { static void main() { A a = new A(); B b = new B(); Object o = a.ping(b); } }",
    )
    .unwrap();
    let rec_sites = c.pag.call_sites().filter(|(_, s)| s.recursive).count();
    assert_eq!(rec_sites, 2, "both cycle edges are recursive");
}

#[test]
fn static_calls_resolve_directly() {
    let c = compile(
        "class Util { static Object id(Object x) { return x; } }\n\
         class Main { static void main() { Object o = Util.id(new Main()); } }",
    )
    .unwrap();
    let stats = c.pag.stats();
    assert_eq!(stats.entry_edges, 1);
    assert_eq!(stats.exit_edges, 1);
}

#[test]
fn unqualified_calls_use_implicit_this() {
    let c = compile(
        "class A { Object helper() { return new A(); } Object run() { return helper(); } }\n\
         class Main { static void main() { A a = new A(); Object o = a.run(); } }",
    )
    .unwrap();
    // run() must call helper() via this: an entry edge into A.helper#this.
    let this_helper = c.pag.find_var("A.helper#this").unwrap();
    let n = c.pag.var_node(this_helper);
    assert!(!c.pag.in_edges(n).is_empty());
}

#[test]
fn shadowing_in_nested_scopes() {
    let c = compile(
        "class Main { static void main() { Object x = new Main(); if (1 < 2) { Object x2 = x; String x3 = \"s\"; } } }",
    )
    .unwrap();
    assert!(c.pag.find_var("Main.main#x").is_some());
}

#[test]
fn compile_errors_are_helpful() {
    let e = compile("class A { void m() { unknown = 3; } }").unwrap_err();
    assert!(e.message.contains("unknown variable"));
    let e = compile("class A { void m(B b) { } }").unwrap_err();
    assert!(e.message.contains("unknown class"));
    let e = compile("class A { Object f; void m() { this.g = null; } }").unwrap_err();
    assert!(e.message.contains("no field"));
    let e = compile("class A { void m() { this.m(1); } }").unwrap_err();
    assert!(e.message.contains("argument"));
    let e = compile("class A { static void m() { Object x = this; } }").unwrap_err();
    assert!(e.message.contains("static"));
}

#[test]
fn exported_text_round_trips() {
    let c = compile(FIGURE2).unwrap();
    let text = dynsum_pag::text::write_pag(&c.pag);
    let back = dynsum_pag::text::parse_pag(&text).expect("round trip");
    assert_eq!(back.num_edges(), c.pag.num_edges());
    assert_eq!(back.num_vars(), c.pag.num_vars());
    assert_eq!(back.num_objs(), c.pag.num_objs());
}
