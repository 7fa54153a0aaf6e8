//! The paper's motivating example (Figure 2 / Table 1): resolve `s1`
//! and `s2` with DYNSUM and print the traversal traces, showing the
//! summary reuse between the two queries.
//!
//! Run with: `cargo run --example motivating_example`

use dynsum::{EngineKind, Session};
use dynsum_workloads::motivating_pag;

fn main() {
    let m = motivating_pag();
    println!(
        "Figure 2 PAG: {} methods, {} nodes, {} edges",
        m.pag.num_methods(),
        m.pag.num_nodes(),
        m.pag.num_edges()
    );

    let mut session = Session::new(&m.pag, EngineKind::DynSum);

    // Query s1 (paper: 23 steps, answer {o26}), with its Table 1 trace.
    let (r1, t1) = session.explain(m.s1);
    println!(
        "\n-- pointsTo(s1): {} driver steps, {} edges --",
        t1.len(),
        r1.stats.edges_traversed
    );
    print!("{}", t1.render(&m.pag));
    let objs1: Vec<_> = r1
        .pts
        .objects()
        .into_iter()
        .map(|o| m.pag.obj_label(o).to_owned())
        .collect();
    println!("pts(s1) = {{{}}}   (paper: {{o26}})", objs1.join(", "));

    // Query s2 (paper: 15 steps thanks to reuse, answer {o29}).
    let (r2, t2) = session.explain(m.s2);
    println!(
        "\n-- pointsTo(s2): {} driver steps, {} edges, {} summaries reused --",
        t2.len(),
        r2.stats.edges_traversed,
        t2.reuse_count()
    );
    print!("{}", t2.render(&m.pag));
    let objs2: Vec<_> = r2
        .pts
        .objects()
        .into_iter()
        .map(|o| m.pag.obj_label(o).to_owned())
        .collect();
    println!("pts(s2) = {{{}}}   (paper: {{o29}})", objs2.join(", "));

    println!(
        "\nreuse effect: s2 traversed {} edges vs s1's {} ({}% saved)",
        r2.stats.edges_traversed,
        r1.stats.edges_traversed,
        (100 - 100 * r2.stats.edges_traversed / r1.stats.edges_traversed.max(1))
    );
}
