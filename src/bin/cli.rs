//! `dynsum-cli` — analyze programs from the command line.
//!
//! ```text
//! dynsum-cli compile  <file> [--callgraph otf|cha] [--emit text|dot|stats]
//! dynsum-cli query    <file> --var NAME [NAME...] [--engine E] [--budget N]
//! dynsum-cli alias    <file> --var A B [--engine E]
//! dynsum-cli clients  <file> [--engine E]
//! dynsum-cli fmt      <file>
//! dynsum-cli motivating
//! ```
//!
//! `<file>` may be a Java-subset source file (compiled with the
//! on-the-fly call graph by default) or a `.pag` graph in the text
//! interchange format. Engines: `dynsum` (default), `norefine`,
//! `refinepts`, `stasum`.

use std::fmt::Write as _;

use dynsum::analysis::may_alias;
use dynsum::clients::{run_client, ClientKind};
use dynsum::pag::text::{parse_pag, write_pag};
use dynsum::pag::{Pag, ProgramInfo};
use dynsum::{compile_with, CallGraphMode, EngineConfig, EngineKind, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
usage:
  dynsum-cli compile  <file> [--callgraph otf|cha] [--emit text|dot|stats]
  dynsum-cli query    <file> --var NAME [NAME...] [--engine E] [--budget N]
  dynsum-cli alias    <file> --var A B [--engine E]
  dynsum-cli clients  <file> [--engine E]
  dynsum-cli fmt      <file>
  dynsum-cli motivating
engines: dynsum (default), norefine, refinepts, stasum";

/// Entire CLI as a pure function for testability: args in, rendered
/// output out.
fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("compile") => cmd_compile(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("alias") => cmd_alias(&args[1..]),
        Some("clients") => cmd_clients(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("motivating") => Ok(cmd_motivating()),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".to_owned()),
    }
}

/// Parsed common flags.
struct Flags {
    file: Option<String>,
    vars: Vec<String>,
    engine: String,
    budget: u64,
    callgraph: CallGraphMode,
    emit: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        file: None,
        vars: Vec::new(),
        engine: "dynsum".to_owned(),
        budget: EngineConfig::default().budget,
        callgraph: CallGraphMode::OnTheFly,
        emit: "stats".to_owned(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--var" => {
                while let Some(v) = it.peek() {
                    if v.starts_with("--") {
                        break;
                    }
                    flags.vars.push((*it.next().unwrap()).clone());
                }
                if flags.vars.is_empty() {
                    return Err("--var expects at least one name".to_owned());
                }
            }
            "--engine" => {
                flags.engine = it
                    .next()
                    .ok_or_else(|| "--engine expects a value".to_owned())?
                    .clone();
            }
            "--budget" => {
                flags.budget = it
                    .next()
                    .ok_or_else(|| "--budget expects a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
            }
            "--callgraph" => {
                flags.callgraph = match it
                    .next()
                    .ok_or_else(|| "--callgraph expects a value".to_owned())?
                    .as_str()
                {
                    "otf" => CallGraphMode::OnTheFly,
                    "cha" => CallGraphMode::Cha,
                    other => return Err(format!("unknown call graph mode `{other}`")),
                };
            }
            "--emit" => {
                flags.emit = it
                    .next()
                    .ok_or_else(|| "--emit expects a value".to_owned())?
                    .clone();
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => {
                if flags.file.replace(path.to_owned()).is_some() {
                    return Err("multiple input files given".to_owned());
                }
            }
        }
    }
    Ok(flags)
}

/// Loads a program from source (`.java`-ish) or graph (`.pag`) form.
fn load(path: &str, callgraph: CallGraphMode) -> Result<(Pag, ProgramInfo), String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".pag") {
        let pag = parse_pag(&content).map_err(|e| format!("{path}: {e}"))?;
        Ok((pag, ProgramInfo::default()))
    } else {
        let compiled = compile_with(&content, callgraph)
            .map_err(|e| format!("{path}:\n{}", e.render(&content)))?;
        Ok((compiled.pag, compiled.info))
    }
}

fn build_session<'p>(name: &str, pag: &'p Pag, budget: u64) -> Result<Session<'p>, String> {
    let kind: EngineKind = name.parse()?;
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    Ok(Session::with_config(pag, kind, config))
}

fn cmd_compile(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let file = flags.file.ok_or("missing input file")?;
    let (pag, info) = load(&file, flags.callgraph)?;
    match flags.emit.as_str() {
        "text" => Ok(write_pag(&pag)),
        "dot" => Ok(dynsum::pag::to_dot(&pag)),
        "stats" => {
            let s = pag.stats();
            let mut out = String::new();
            let _ = writeln!(out, "{file}:");
            let _ = writeln!(out, "  {s}");
            let _ = writeln!(out, "  graph heap: {} bytes", pag.heap_bytes());
            let _ = writeln!(
                out,
                "  client sites: {} casts, {} derefs, {} factory candidates",
                info.casts.len(),
                info.derefs.len(),
                info.factories.len()
            );
            let violations = dynsum::pag::validate(&pag);
            let _ = writeln!(out, "  validation: {} violation(s)", violations.len());
            Ok(out)
        }
        other => Err(format!("unknown --emit `{other}` (text|dot|stats)")),
    }
}

fn cmd_query(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let file = flags.file.ok_or("missing input file")?;
    if flags.vars.is_empty() {
        return Err("query needs --var".to_owned());
    }
    let (pag, _) = load(&file, flags.callgraph)?;
    let mut engine = build_session(&flags.engine, &pag, flags.budget)?;
    let mut out = String::new();
    for name in &flags.vars {
        let var = pag.find_var(name).ok_or_else(|| {
            format!("no variable named `{name}` (names look like `Class.method#var`)")
        })?;
        let r = engine.points_to(var);
        let labels: Vec<String> = r
            .pts
            .objects()
            .into_iter()
            .map(|o| pag.obj_label(o).to_owned())
            .collect();
        let _ = writeln!(
            out,
            "pointsTo({name}) = {{{}}}{} [{} edges, {} cache hits]",
            labels.join(", "),
            if r.resolved {
                ""
            } else {
                "  (budget exceeded: partial)"
            },
            r.stats.edges_traversed,
            r.stats.cache_hits
        );
    }
    let _ = writeln!(out, "summaries memorized: {}", engine.summary_count());
    Ok(out)
}

fn cmd_alias(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let file = flags.file.ok_or("missing input file")?;
    if flags.vars.len() != 2 {
        return Err("alias needs exactly two --var names".to_owned());
    }
    let (pag, _) = load(&file, flags.callgraph)?;
    let mut engine = build_session(&flags.engine, &pag, flags.budget)?;
    let v1 = pag
        .find_var(&flags.vars[0])
        .ok_or_else(|| format!("no variable `{}`", flags.vars[0]))?;
    let v2 = pag
        .find_var(&flags.vars[1])
        .ok_or_else(|| format!("no variable `{}`", flags.vars[1]))?;
    let a = may_alias(&mut engine, v1, v2);
    Ok(format!(
        "alias({}, {}) = {:?} [{} edges]\n",
        flags.vars[0], flags.vars[1], a.result, a.stats.edges_traversed
    ))
}

fn cmd_clients(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let file = flags.file.ok_or("missing input file")?;
    let (pag, info) = load(&file, flags.callgraph)?;
    if info.total_sites() == 0 {
        return Err("no client sites (did you pass a .pag without metadata?)".to_owned());
    }
    let mut out = String::new();
    for client in ClientKind::ALL {
        let mut session = build_session(&flags.engine, &pag, flags.budget)?;
        let report = run_client(client, &info, &mut session);
        if report.queries == 0 {
            continue;
        }
        let _ = writeln!(out, "{report}");
    }
    Ok(out)
}

fn cmd_fmt(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let file = flags.file.ok_or("missing input file")?;
    let content = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let tokens = dynsum::frontend::lex(&content).map_err(|e| e.render(&content))?;
    let program = dynsum::frontend::parse(tokens).map_err(|e| e.render(&content))?;
    Ok(dynsum::frontend::pretty::print_program(&program))
}

fn cmd_motivating() -> String {
    let m = dynsum::workloads::motivating_pag();
    let mut session = Session::new(&m.pag, EngineKind::DynSum);
    let (r1, t1) = session.explain(m.s1);
    let (r2, t2) = session.explain(m.s2);
    let label = |r: &dynsum::QueryResult| {
        r.pts
            .objects()
            .into_iter()
            .map(|o| m.pag.obj_label(o).to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "Figure 2 / Table 1 demo\n\
         pointsTo(s1) = {{{}}} in {} edges\n{}\
         pointsTo(s2) = {{{}}} in {} edges ({} summaries reused)\n{}",
        label(&r1),
        r1.stats.edges_traversed,
        t1.render(&m.pag),
        label(&r2),
        r2.stats.edges_traversed,
        t2.reuse_count(),
        t2.render(&m.pag),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A test input file, named per process so that test runs of two
    /// checkouts at once do not overwrite each other's inputs, and
    /// removed when the test ends. Derefs to its path.
    struct TempFile(String);

    impl std::ops::Deref for TempFile {
        type Target = str;
        fn deref(&self) -> &str {
            &self.0
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_temp(name: &str, content: &str) -> TempFile {
        let file = format!("dynsum-cli-test-{}-{name}", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, content).unwrap();
        TempFile(path.to_string_lossy().into_owned())
    }

    const PROGRAM: &str = "
        class Box {
            Object item;
            void put(Object x) { this.item = x; }
            Object take() { return this.item; }
        }
        class Main {
            static void main() {
                Box a = new Box();
                a.put(new Main());
                Object got = a.take();
                Object alias1 = got;
                Main cast = (Main) got;
            }
        }
    ";

    #[test]
    fn compile_stats_and_text_and_dot() {
        let f = write_temp("c.java", PROGRAM);
        let out = run(&sv(&["compile", &f])).unwrap();
        assert!(out.contains("client sites"));
        assert!(out.contains("0 violation(s)"));
        assert!(out.contains("  graph heap: "), "{out}");
        let text = run(&sv(&["compile", &f, "--emit", "text"])).unwrap();
        assert!(text.starts_with("pag v1"));
        let dot = run(&sv(&["compile", &f, "--emit", "dot"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn query_resolves_variables() {
        let f = write_temp("q.java", PROGRAM);
        for engine in ["dynsum", "norefine", "refinepts", "stasum"] {
            let out = run(&sv(&[
                "query",
                &f,
                "--var",
                "Main.main#got",
                "--engine",
                engine,
            ]))
            .unwrap();
            assert!(
                out.contains("pointsTo(Main.main#got) = {o"),
                "{engine}: {out}"
            );
        }
    }

    #[test]
    fn alias_command_works() {
        let f = write_temp("a.java", PROGRAM);
        let out = run(&sv(&[
            "alias",
            &f,
            "--var",
            "Main.main#got",
            "Main.main#alias1",
        ]))
        .unwrap();
        assert!(out.contains("May"), "{out}");
    }

    #[test]
    fn clients_command_reports() {
        let f = write_temp("cl.java", PROGRAM);
        let out = run(&sv(&["clients", &f])).unwrap();
        assert!(out.contains("SafeCast"));
        assert!(out.contains("queries"));
    }

    #[test]
    fn pag_round_trip_through_cli() {
        let f = write_temp("p.java", PROGRAM);
        let text = run(&sv(&["compile", &f, "--emit", "text"])).unwrap();
        let pag_file = write_temp("p.pag", &text);
        let out = run(&sv(&["query", &pag_file, "--var", "Main.main#got"])).unwrap();
        assert!(out.contains("pointsTo"));
    }

    #[test]
    fn fmt_canonicalizes_source() {
        let f = write_temp("f.java", "class   A{Object f;void m( ){this.f=null;}}");
        let out = run(&sv(&["fmt", &f])).unwrap();
        assert!(out.contains("class A {"));
        assert!(out.contains("this.f = null;"));
        // Formatting the formatted output is a fixed point.
        let f2 = write_temp("f2.java", &out);
        let out2 = run(&sv(&["fmt", &f2])).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn motivating_subcommand_runs() {
        let out = run(&sv(&["motivating"])).unwrap();
        assert!(out.contains("pointsTo(s1) = {o26}"));
        assert!(out.contains("pointsTo(s2) = {o29}"));
        assert!(out.contains("reuse"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&sv(&[])).is_err());
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&["query", "/nonexistent.java", "--var", "x"])).is_err());
        let f = write_temp("e.java", PROGRAM);
        let e = run(&sv(&["query", &f, "--var", "nope"])).unwrap_err();
        assert!(e.contains("no variable"));
        let e = run(&sv(&["query", &f, "--var", "x", "--engine", "magic"])).unwrap_err();
        assert!(e.contains("unknown engine"));
        let e = run(&sv(&["compile", &f, "--emit", "json"])).unwrap_err();
        assert!(e.contains("unknown --emit"));
    }

    #[test]
    fn compile_errors_render_with_caret() {
        let f = write_temp("bad.java", "class A { Vectr v; }");
        let e = run(&sv(&["compile", &f])).unwrap_err();
        assert!(e.contains("unknown class"));
        assert!(e.contains('^'), "caret rendering: {e}");
    }
}
