//! Regenerates Table 1: DYNSUM's traversal traces for the motivating
//! example's queries `s1` and `s2`. Takes no arguments.

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument `{arg}`\nusage: table1 (takes no arguments)");
        std::process::exit(2);
    }
    let out = dynsum_bench::table1();
    print!("{}", out.render());
    println!();
    println!(
        "summary: s1 took {} steps (0 reused); s2 took {} steps ({} reused from s1's summaries)",
        out.trace_s1.len(),
        out.trace_s2.len(),
        out.trace_s2.reuse_count()
    );
}
