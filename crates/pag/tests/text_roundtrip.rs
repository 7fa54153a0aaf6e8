//! Property test: the text interchange format preserves arbitrary valid
//! PAGs exactly.

use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_pag::{Pag, PagBuilder, VarId};
use proptest::prelude::*;

/// A generable graph shape (indices resolved modulo arena sizes).
#[derive(Debug, Clone)]
struct Spec {
    methods: usize,
    locals_per: usize,
    globals: usize,
    classes: usize,
    fields: usize,
    objs: Vec<(usize, usize, bool)>,
    assigns: Vec<(usize, usize, usize)>,
    loads: Vec<(usize, usize, usize, usize)>,
    stores: Vec<(usize, usize, usize, usize)>,
    gassigns: Vec<(bool, usize, usize, usize)>,
    calls: Vec<(usize, usize, usize, usize, usize, usize, bool)>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let idx = 0usize..32;
    (
        (1usize..=4, 2usize..=4, 0usize..=3, 0usize..=3, 1usize..=3),
        proptest::collection::vec((idx.clone(), idx.clone(), any::<bool>()), 0..6),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone()), 0..6),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone(), idx.clone()), 0..5),
        proptest::collection::vec((idx.clone(), idx.clone(), idx.clone(), idx.clone()), 0..5),
        proptest::collection::vec((any::<bool>(), idx.clone(), idx.clone(), idx.clone()), 0..4),
        proptest::collection::vec(
            (
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx.clone(),
                idx,
                any::<bool>(),
            ),
            0..4,
        ),
    )
        .prop_map(
            |(
                (methods, locals_per, globals, classes, fields),
                objs,
                assigns,
                loads,
                stores,
                gassigns,
                calls,
            )| Spec {
                methods,
                locals_per,
                globals,
                classes,
                fields,
                objs,
                assigns,
                loads,
                stores,
                gassigns,
                calls,
            },
        )
}

fn build(spec: &Spec) -> Pag {
    let mut b = PagBuilder::new();
    let mut classes = vec![b.hierarchy().root()];
    for c in 0..spec.classes {
        let parent = classes[c % classes.len()];
        classes.push(b.add_class(&format!("K{c}"), Some(parent)).unwrap());
    }
    let mut methods = Vec::new();
    let mut locals: Vec<Vec<VarId>> = Vec::new();
    for m in 0..spec.methods {
        let class = classes[m % classes.len()];
        let mid = b.add_method(&format!("m{m}"), Some(class)).unwrap();
        methods.push(mid);
        let mut ls = Vec::new();
        for l in 0..spec.locals_per {
            let ty = classes[(m + l) % classes.len()];
            ls.push(b.add_local(&format!("v_{m}_{l}"), mid, Some(ty)).unwrap());
        }
        locals.push(ls);
    }
    let mut globals = Vec::new();
    for g in 0..spec.globals {
        globals.push(b.add_global(&format!("g{g}"), None).unwrap());
    }
    let mut fields = Vec::new();
    for f in 0..spec.fields {
        fields.push(b.field(&format!("f{f}")));
    }
    for (i, &(m, l, is_null)) in spec.objs.iter().enumerate() {
        let m = m % spec.methods;
        let l = l % spec.locals_per;
        let o = if is_null {
            b.add_null_obj(&format!("n{i}"), Some(methods[m])).unwrap()
        } else {
            let class = classes[i % classes.len()];
            b.add_obj(&format!("o{i}"), Some(class), Some(methods[m]))
                .unwrap()
        };
        b.add_new(o, locals[m][l]).unwrap();
    }
    for &(m, s, d) in &spec.assigns {
        let m = m % spec.methods;
        let (s, d) = (s % spec.locals_per, d % spec.locals_per);
        if s != d {
            b.add_assign(locals[m][s], locals[m][d]).unwrap();
        }
    }
    for &(m, f, base, dst) in &spec.loads {
        let m = m % spec.methods;
        b.add_load(
            fields[f % spec.fields],
            locals[m][base % spec.locals_per],
            locals[m][dst % spec.locals_per],
        )
        .unwrap();
    }
    for &(m, f, src, base) in &spec.stores {
        let m = m % spec.methods;
        b.add_store(
            fields[f % spec.fields],
            locals[m][src % spec.locals_per],
            locals[m][base % spec.locals_per],
        )
        .unwrap();
    }
    for &(to_global, m, l, g) in &spec.gassigns {
        if spec.globals == 0 {
            continue;
        }
        let m = m % spec.methods;
        let l = locals[m][l % spec.locals_per];
        let g = globals[g % spec.globals];
        if to_global {
            b.add_assign(l, g).unwrap();
        } else {
            b.add_assign(g, l).unwrap();
        }
    }
    for (i, &(caller, callee, a, f, r, d, rec)) in spec.calls.iter().enumerate() {
        let caller = caller % spec.methods;
        let callee = callee % spec.methods;
        let site = b.add_call_site(&format!("cs{i}"), methods[caller]).unwrap();
        b.set_recursive(site, rec || caller == callee).unwrap();
        b.add_entry(
            site,
            locals[caller][a % spec.locals_per],
            locals[callee][f % spec.locals_per],
        )
        .unwrap();
        b.add_exit(
            site,
            locals[callee][r % spec.locals_per],
            locals[caller][d % spec.locals_per],
        )
        .unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn text_round_trip_is_lossless(spec in spec_strategy()) {
        let pag = build(&spec);
        prop_assert!(dynsum_pag::validate(&pag).is_empty());

        let text = write_pag(&pag);
        let back = parse_pag(&text).expect("generated text must parse");

        // Entity counts.
        prop_assert_eq!(back.num_vars(), pag.num_vars());
        prop_assert_eq!(back.num_objs(), pag.num_objs());
        prop_assert_eq!(back.num_methods(), pag.num_methods());
        prop_assert_eq!(back.num_call_sites(), pag.num_call_sites());
        prop_assert_eq!(back.num_fields(), pag.num_fields());
        prop_assert_eq!(back.hierarchy().len(), pag.hierarchy().len());

        // Edge multiset (by label triples, order-preserving here since
        // the writer emits insertion order).
        let render = |p: &Pag| -> Vec<String> {
            p.edges()
                .iter()
                .map(|e| {
                    format!(
                        "{}|{:?}|{}",
                        p.node_label(e.src),
                        e.kind.name(),
                        p.node_label(e.dst)
                    )
                })
                .collect()
        };
        prop_assert_eq!(render(&pag), render(&back));

        // Metadata: null flags, classes, recursion bits, declared types.
        for (o, info) in pag.objs() {
            let o2 = back.find_obj(pag.obj_label(o)).expect("object survives");
            prop_assert_eq!(back.obj(o2).is_null, info.is_null);
            let c1 = info.class.map(|c| pag.hierarchy().name(c).to_owned());
            let c2 = back.obj(o2).class.map(|c| back.hierarchy().name(c).to_owned());
            prop_assert_eq!(c1, c2);
        }
        for (s, _) in pag.call_sites() {
            let s2 = back.find_call_site(pag.site_label(s)).expect("site survives");
            prop_assert_eq!(back.is_recursive_site(s2), pag.is_recursive_site(s));
        }
        for (v, info) in pag.vars() {
            let v2 = back.find_var(pag.var_name(v)).expect("var survives");
            let t1 = info.declared_class.map(|c| pag.hierarchy().name(c).to_owned());
            let t2 = back
                .var(v2)
                .declared_class
                .map(|c| back.hierarchy().name(c).to_owned());
            prop_assert_eq!(t1, t2);
        }

        // Statistics (locality in particular) are identical.
        prop_assert_eq!(format!("{}", pag.stats()), format!("{}", back.stats()));

        // Idempotence: a second write is byte-identical.
        prop_assert_eq!(text, write_pag(&back));
    }
}
