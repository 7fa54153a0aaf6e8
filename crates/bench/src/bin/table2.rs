//! Regenerates Table 2: the qualitative comparison of the four
//! demand-driven analyses. Takes no arguments.

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unexpected argument `{arg}`\nusage: table2 (takes no arguments)");
        std::process::exit(2);
    }
    print!("{}", dynsum_bench::table2().render());
}
