//! Property test: randomly generated — but well-formed by construction —
//! programs compile to valid PAGs whose demand answers respect the
//! Andersen oracle.
//!
//! Programs are built from a uniform class template (`next` link +
//! `val` payload + `get`/`set` methods) so every generated statement is
//! type-correct: field and method accesses always exist on the static
//! receiver type.

use dynsum_andersen::Andersen;
use dynsum_core::{EngineKind, Session};
use dynsum_frontend::{compile, compile_with, CallGraphMode};
use proptest::prelude::*;

/// One statement template in `main`, with class/variable indices to be
/// resolved modulo the live counts.
#[derive(Debug, Clone)]
enum Stmt {
    /// `Ck v_i = new Ck();`
    Alloc(usize),
    /// `v_i.set(<any var>);`
    Set(usize, usize),
    /// `Object o_i = v_j.get();`
    Get(usize),
    /// `v_i.next = v_j;` (same class, enforced at render time)
    Link(usize, usize),
    /// `Ck c_i = (Ck) o_j;`
    Cast(usize, usize),
    /// wrap the next statement in `if (1 < 2) { ... }`
    If(Box<Stmt>),
    /// `Object n_i = null;`
    Null,
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let idx = 0usize..16;
    let leaf = prop_oneof![
        idx.clone().prop_map(Stmt::Alloc),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Stmt::Set(a, b)),
        idx.clone().prop_map(Stmt::Get),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Stmt::Link(a, b)),
        (idx.clone(), idx.clone()).prop_map(|(a, b)| Stmt::Cast(a, b)),
        Just(Stmt::Null),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| inner.prop_map(|s| Stmt::If(Box::new(s))))
}

/// Renders a program: `n_classes` uniform container classes plus a main
/// that executes the statement list. Tracks variable classes so `link`
/// only joins same-class containers and `cast` targets real classes.
fn render(n_classes: usize, stmts: &[Stmt]) -> String {
    let mut src = String::new();
    for c in 0..n_classes {
        src.push_str(&format!(
            "class C{c} {{\n  C{c} next;\n  Object val;\n  \
             Object get() {{ return this.val; }}\n  \
             void set(Object p) {{ this.val = p; }}\n}}\n"
        ));
    }
    src.push_str("class Main {\n  static void main() {\n");

    // (name, class) of container vars; names of Object vars.
    let mut containers: Vec<(String, usize)> = Vec::new();
    let mut objects: Vec<String> = Vec::new();
    let mut counter = 0usize;

    fn emit(
        s: &Stmt,
        src: &mut String,
        containers: &mut Vec<(String, usize)>,
        objects: &mut Vec<String>,
        counter: &mut usize,
        n_classes: usize,
        depth: usize,
    ) {
        // Declarations inside an `if` are block-scoped: emit them but do
        // not register them for use by later top-level statements.
        let scoped = depth > 0;
        let pad = "    ".repeat(depth + 1);
        match s {
            Stmt::Alloc(k) => {
                let class = k % n_classes;
                let name = format!("v{}", *counter);
                *counter += 1;
                src.push_str(&format!("{pad}C{class} {name} = new C{class}();\n"));
                if !scoped {
                    containers.push((name, class));
                }
            }
            Stmt::Set(i, j) => {
                if containers.is_empty() {
                    return;
                }
                let (recv, _) = &containers[i % containers.len()];
                // Argument: any container or object var (or a fresh alloc).
                let arg = if objects.is_empty() {
                    let (other, _) = &containers[j % containers.len()];
                    other.clone()
                } else {
                    objects[j % objects.len()].clone()
                };
                src.push_str(&format!("{pad}{recv}.set({arg});\n"));
            }
            Stmt::Get(j) => {
                if containers.is_empty() {
                    return;
                }
                let (recv, _) = &containers[j % containers.len()];
                let name = format!("o{}", *counter);
                *counter += 1;
                src.push_str(&format!("{pad}Object {name} = {recv}.get();\n"));
                if !scoped {
                    objects.push(name);
                }
            }
            Stmt::Link(i, j) => {
                if containers.is_empty() {
                    return;
                }
                let (a, ca) = containers[i % containers.len()].clone();
                // Find a same-class partner (possibly itself).
                let partner = containers
                    .iter()
                    .cycle()
                    .skip(j % containers.len())
                    .take(containers.len())
                    .find(|(_, c)| *c == ca)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| a.clone());
                src.push_str(&format!("{pad}{a}.next = {partner};\n"));
            }
            Stmt::Cast(k, j) => {
                if objects.is_empty() {
                    return;
                }
                let class = k % n_classes;
                let obj = &objects[j % objects.len()];
                let name = format!("c{}", *counter);
                *counter += 1;
                src.push_str(&format!("{pad}C{class} {name} = (C{class}) {obj};\n"));
                if !scoped {
                    containers.push((name, class));
                }
            }
            Stmt::If(inner) => {
                src.push_str(&format!("{pad}if (1 < 2) {{\n"));
                emit(
                    inner,
                    src,
                    containers,
                    objects,
                    counter,
                    n_classes,
                    depth + 1,
                );
                src.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Null => {
                let name = format!("n{}", *counter);
                *counter += 1;
                src.push_str(&format!("{pad}Object {name} = null;\n"));
                if !scoped {
                    objects.push(name);
                }
            }
        }
    }

    for s in stmts {
        emit(
            s,
            &mut src,
            &mut containers,
            &mut objects,
            &mut counter,
            n_classes,
            0,
        );
    }
    src.push_str("  }\n}\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_compile_validate_and_stay_sound(
        n_classes in 1usize..=3,
        stmts in proptest::collection::vec(stmt_strategy(), 1..20),
    ) {
        let src = render(n_classes, &stmts);
        let compiled = compile(&src)
            .unwrap_or_else(|e| panic!("generated program failed:\n{}\n{}", src, e.render(&src)));
        prop_assert!(dynsum_pag::validate(&compiled.pag).is_empty());

        // Demand answers ⊆ Andersen on every local.
        let oracle = Andersen::analyze(&compiled.pag);
        let mut engine = Session::new(&compiled.pag, EngineKind::DynSum);
        for (v, _) in compiled.pag.vars() {
            let r = engine.points_to(v);
            if !r.resolved {
                continue;
            }
            let oracle_set: std::collections::BTreeSet<_> =
                oracle.var_pts(v).iter().copied().collect();
            prop_assert!(
                r.pts.objects().is_subset(&oracle_set),
                "{} exceeded oracle in:\n{}",
                compiled.pag.var_name(v),
                src
            );
        }
    }

    #[test]
    fn pretty_printing_is_a_fixed_point(
        n_classes in 1usize..=3,
        stmts in proptest::collection::vec(stmt_strategy(), 1..16),
    ) {
        use dynsum_frontend::{lex, parse, pretty};
        let src = render(n_classes, &stmts);
        let ast1 = parse(lex(&src).unwrap()).unwrap();
        let printed1 = pretty::print_program(&ast1);
        let ast2 = parse(lex(&printed1).unwrap())
            .unwrap_or_else(|e| panic!("printed output failed to parse: {e}\n{printed1}"));
        let printed2 = pretty::print_program(&ast2);
        prop_assert_eq!(printed1, printed2);
    }

    #[test]
    fn cha_entry_edges_superset_of_on_the_fly(
        n_classes in 1usize..=3,
        stmts in proptest::collection::vec(stmt_strategy(), 1..14),
    ) {
        let src = render(n_classes, &stmts);
        let otf = compile_with(&src, CallGraphMode::OnTheFly).unwrap();
        let cha = compile_with(&src, CallGraphMode::Cha).unwrap();
        prop_assert!(
            cha.pag.stats().entry_edges >= otf.pag.stats().entry_edges,
            "CHA must not dispatch to fewer targets\n{src}"
        );
    }
}
