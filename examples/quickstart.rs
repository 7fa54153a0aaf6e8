//! Quickstart: compile a small program, ask DYNSUM where a variable
//! points, and watch the summary cache pay for itself on a second query.
//!
//! Run with: `cargo run --example quickstart`

use dynsum::{compile, EngineKind, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        class Box {
            Object item;
            void put(Object x) { this.item = x; }
            Object take() { return this.item; }
        }
        class Apple { }
        class Orange { }
        class Main {
            static void main() {
                Box a = new Box();
                a.put(new Apple());
                Box b = new Box();
                b.put(new Orange());
                Object fromA = a.take();
                Object fromB = b.take();
            }
        }
    "#;

    // Source -> PAG (the paper's program representation, Figure 1).
    let compiled = compile(source)?;
    println!(
        "compiled: {} methods, {} nodes, {} edges, locality {:.1}%",
        compiled.pag.num_methods(),
        compiled.pag.num_nodes(),
        compiled.pag.num_edges(),
        compiled.pag.stats().locality() * 100.0
    );

    // One DYNSUM session per program; its summary cache persists across
    // queries (that persistence is the paper's contribution).
    let mut engine = Session::new(&compiled.pag, EngineKind::DynSum);

    for var_name in ["Main.main#fromA", "Main.main#fromB"] {
        let var = compiled.pag.find_var(var_name).expect("variable exists");
        let result = engine.points_to(var);
        let objects: Vec<_> = result
            .pts
            .objects()
            .into_iter()
            .map(|o| compiled.pag.obj_label(o).to_owned())
            .collect();
        println!(
            "pointsTo({var_name}) = {{{}}} — {} edges traversed, {} summary cache hits",
            objects.join(", "),
            result.stats.edges_traversed,
            result.stats.cache_hits,
        );
    }
    println!(
        "summaries memorized across both queries: {}",
        engine.summary_count()
    );
    Ok(())
}
