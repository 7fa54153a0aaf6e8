//! Export pipeline: compile a program, dump its PAG in the text
//! interchange format and as Graphviz DOT, read the text form back, and
//! verify the analyses see the same graph.
//!
//! Run with: `cargo run --example export_graph`

use dynsum::{compile, EngineKind, Session};
use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_workloads::MOTIVATING_SOURCE;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled = compile(MOTIVATING_SOURCE)?;

    // Text interchange format: line-oriented, diffable, re-parseable.
    let text = write_pag(&compiled.pag);
    println!(
        "--- text export (first 20 lines of {} total) ---",
        text.lines().count()
    );
    for line in text.lines().take(20) {
        println!("{line}");
    }

    // Round trip.
    let back = parse_pag(&text)?;
    assert_eq!(back.num_edges(), compiled.pag.num_edges());
    assert_eq!(back.num_vars(), compiled.pag.num_vars());
    println!("\nround trip ok: {} edges preserved", back.num_edges());

    // The re-imported graph answers queries identically.
    let v = compiled.pag.find_var("Main.main#s1").expect("s1 exists");
    let v_back = back.find_var("Main.main#s1").expect("s1 survives export");
    let mut e1 = Session::new(&compiled.pag, EngineKind::DynSum);
    let mut e2 = Session::new(&back, EngineKind::DynSum);
    let o1 = e1.points_to(v).pts.objects();
    let o2 = e2.points_to(v_back).pts.objects();
    assert_eq!(o1.len(), o2.len());
    println!(
        "analysis agrees on the re-imported graph ({} objects)",
        o1.len()
    );

    // DOT export for visual inspection (paper's Figure 2 style).
    let dot = dynsum_pag::to_dot(&compiled.pag);
    println!(
        "\n--- DOT export: {} lines (render with `dot -Tsvg`) ---",
        dot.lines().count()
    );
    Ok(())
}
