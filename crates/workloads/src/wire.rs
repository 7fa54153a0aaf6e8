//! Workload interchange format — the PAG text format plus client sites.
//!
//! The fuzz→reduce→regress pipeline needs whole *workloads* (PAG +
//! [`ProgramInfo`]) on disk: the reducer emits minimal reproducers, the
//! divergence-corpus regression tests read them back. The PAG half
//! already has a deterministic, round-tripping text format
//! (`dynsum_pag::text`); this module wraps it with a header and the
//! client-site lines the PAG format does not carry:
//!
//! ```text
//! workload v1 <name>
//! pag v1
//! ...                      # the PAG text block, verbatim
//! entrypoint <method>      # optional
//! site cast <var> <class> <location>
//! site deref <var> <location>
//! site factory <method> <ret-var>
//! ```
//!
//! `site`/`entrypoint` lines may appear anywhere after the header (the
//! parser partitions by first token — neither is a PAG keyword), but
//! the writer always emits the PAG first. Locations may contain spaces
//! (they are the trailing tokens); node names cannot, exactly as in the
//! PAG format itself. As in the PAG format, a comment starts at the
//! first token that starts with `#` (after any whitespace), so corpus
//! files can carry provenance notes.

use std::fmt::Write as _;

use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_pag::{CastSite, DerefSite, FactoryCandidate, Pag, ProgramInfo};

use crate::generator::Workload;

/// Error produced while parsing the workload wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// 1-based line number in the *workload* document.
    pub line: usize,
    /// Explanation of the problem.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WireError {}

fn err(line: usize, message: impl Into<String>) -> WireError {
    WireError {
        line,
        message: message.into(),
    }
}

/// The tokens of one line, with `parse_pag`'s comment rule: a comment
/// starts at the first token that starts with `#` (names may contain
/// `#`, but none starts with it).
fn tokens(line: &str) -> Vec<&str> {
    line.split_whitespace()
        .take_while(|t| !t.starts_with('#'))
        .collect()
}

/// Serializes a workload. Deterministic; round-trips through
/// [`parse_workload`].
pub fn write_workload(w: &Workload) -> String {
    let mut s = String::new();
    writeln!(s, "workload v1 {}", w.name).unwrap();
    s.push_str(&write_pag(&w.pag));
    if let Some(m) = w.info.entry {
        writeln!(s, "entrypoint {}", w.pag.method_name(m)).unwrap();
    }
    for c in &w.info.casts {
        writeln!(
            s,
            "site cast {} {} {}",
            w.pag.var_name(c.var),
            w.pag.hierarchy().name(c.target),
            c.location
        )
        .unwrap();
    }
    for d in &w.info.derefs {
        writeln!(s, "site deref {} {}", w.pag.var_name(d.base), d.location).unwrap();
    }
    for fc in &w.info.factories {
        writeln!(
            s,
            "site factory {} {}",
            w.pag.method_name(fc.method),
            w.pag.var_name(fc.ret)
        )
        .unwrap();
    }
    s
}

/// Parses a workload document produced by [`write_workload`] (or
/// written by hand — the divergence corpus is).
///
/// # Errors
///
/// Returns a [`WireError`] (with the offending 1-based line) for a bad
/// header, a malformed PAG block, a malformed `site`/`entrypoint` line,
/// or a site referencing an unknown var/class/method.
pub fn parse_workload(input: &str) -> Result<Workload, WireError> {
    let mut lines = input.lines().enumerate();
    let name = loop {
        let (idx, raw) = lines
            .next()
            .ok_or_else(|| err(1, "empty document, expected `workload v1 <name>`"))?;
        match tokens(raw).as_slice() {
            [] => continue,
            ["workload", "v1"] => return Err(err(idx + 1, "workload name must not be empty")),
            ["workload", "v1", name @ ..] => break name.join(" "),
            _ => return Err(err(idx + 1, "expected `workload v1 <name>` header")),
        }
    };

    // Partition the remainder: `site`/`entrypoint` lines vs the PAG
    // block (neither is a PAG keyword).
    let mut pag_lines: Vec<(usize, &str)> = Vec::new();
    let mut site_lines: Vec<(usize, Vec<&str>)> = Vec::new();
    for (idx, raw) in lines {
        let toks = tokens(raw);
        match toks.first() {
            Some(&"site") | Some(&"entrypoint") => site_lines.push((idx + 1, toks)),
            _ => pag_lines.push((idx + 1, raw)),
        }
    }

    let pag_text: String = pag_lines.iter().map(|(_, l)| format!("{l}\n")).collect();
    let pag = parse_pag(&pag_text).map_err(|e| {
        // Map the sub-document line number back to the workload file.
        let line = pag_lines
            .get(e.line.saturating_sub(1))
            .map(|(n, _)| *n)
            .unwrap_or(e.line);
        err(line, e.message)
    })?;

    let mut info = ProgramInfo::default();
    for (line_no, toks) in site_lines {
        match toks.as_slice() {
            ["entrypoint", m] => {
                let method = pag
                    .find_method(m)
                    .ok_or_else(|| err(line_no, format!("unknown method `{m}`")))?;
                info.entry = Some(method);
            }
            ["site", "cast", var, class, loc @ ..] if !loc.is_empty() => {
                let v = pag
                    .find_var(var)
                    .ok_or_else(|| err(line_no, format!("unknown var `{var}`")))?;
                let target = pag
                    .hierarchy()
                    .find(class)
                    .ok_or_else(|| err(line_no, format!("unknown class `{class}`")))?;
                info.casts.push(CastSite {
                    var: v,
                    target,
                    location: loc.join(" "),
                });
            }
            ["site", "deref", var, loc @ ..] if !loc.is_empty() => {
                let v = pag
                    .find_var(var)
                    .ok_or_else(|| err(line_no, format!("unknown var `{var}`")))?;
                info.derefs.push(DerefSite {
                    base: v,
                    location: loc.join(" "),
                });
            }
            ["site", "factory", method, ret] => {
                let m = pag
                    .find_method(method)
                    .ok_or_else(|| err(line_no, format!("unknown method `{method}`")))?;
                let r = pag
                    .find_var(ret)
                    .ok_or_else(|| err(line_no, format!("unknown var `{ret}`")))?;
                info.factories.push(FactoryCandidate { method: m, ret: r });
            }
            _ => {
                return Err(err(
                    line_no,
                    format!("malformed site line `{}`", toks.join(" ")),
                ))
            }
        }
    }

    Ok(Workload { name, pag, info })
}

/// Convenience: does `pag` still contain every node `info` refers to?
/// The reducer uses this to reject deletion candidates that orphan a
/// site (sites are deleted explicitly, never implicitly).
pub fn info_is_consistent(pag: &Pag, info: &ProgramInfo) -> bool {
    let var_ok = |v: dynsum_pag::VarId| v.index() < pag.num_vars();
    info.casts.iter().all(|c| var_ok(c.var))
        && info.derefs.iter().all(|d| var_ok(d.base))
        && info
            .factories
            .iter()
            .all(|f| var_ok(f.ret) && f.method.index() < pag.num_methods())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorOptions};
    use crate::profiles::PROFILES;

    fn sample() -> Workload {
        generate(
            &PROFILES[0],
            &GeneratorOptions {
                scale: 0.0,
                seed: 42,
                ..GeneratorOptions::default()
            },
        )
    }

    #[test]
    fn roundtrips_generated_workloads() {
        for (pidx, seed) in [(0usize, 1u64), (2, 7), (8, 3)] {
            let w = generate(
                &PROFILES[pidx],
                &GeneratorOptions {
                    scale: 0.005,
                    seed,
                    ..GeneratorOptions::default()
                },
            );
            let text = write_workload(&w);
            let back = parse_workload(&text).expect("roundtrip parse");
            assert_eq!(back.name, w.name);
            assert_eq!(write_workload(&back), text, "second trip not identical");
            assert_eq!(back.info.casts.len(), w.info.casts.len());
            assert_eq!(back.info.derefs.len(), w.info.derefs.len());
            assert_eq!(back.info.factories.len(), w.info.factories.len());
        }
    }

    #[test]
    fn tolerates_comments_blank_lines_and_spaced_locations() {
        let w = sample();
        let mut text = String::from("# corpus provenance note\n\n");
        text.push_str(&write_workload(&w));
        text.push_str("site deref G0 some location with spaces\n");
        let back = parse_workload(&text).unwrap();
        assert_eq!(
            back.info.derefs.last().unwrap().location,
            "some location with spaces"
        );
    }

    #[test]
    fn a_hash_after_any_whitespace_starts_a_comment() {
        // A tab-separated comment on every line — header, PAG block,
        // entrypoint and every site kind — parses as if it were absent.
        let mut w = generate(
            &PROFILES[0],
            &GeneratorOptions {
                scale: 0.005,
                seed: 1,
                ..GeneratorOptions::default()
            },
        );
        w.info.entry = w.pag.methods().next().map(|(m, _)| m);
        assert!(!w.info.casts.is_empty() && !w.info.derefs.is_empty());
        assert!(!w.info.factories.is_empty());
        let text = write_workload(&w);
        let commented: String = text.lines().map(|l| format!("{l}\t# note\n")).collect();
        let back = parse_workload(&commented).expect("commented document parses");
        assert_eq!(write_workload(&back), text);
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(parse_workload("").unwrap_err().message.contains("empty"));
        let e = parse_workload("pag v1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("workload v1"));
        assert!(parse_workload("workload v1  \n")
            .unwrap_err()
            .message
            .contains("name"));
    }

    #[test]
    fn unknown_references_are_errors_with_line_numbers() {
        let w = sample();
        let base = write_workload(&w);
        for (extra, what) in [
            ("site deref nosuchvar here\n", "unknown var"),
            ("site cast G0 NoClass here\n", "unknown class"),
            ("site factory nosuchmethod G0\n", "unknown method"),
            ("entrypoint nosuchmethod\n", "unknown method"),
            ("site cast G0\n", "malformed"),
            ("site bogus x y\n", "malformed"),
        ] {
            let text = format!("{base}{extra}");
            let e = parse_workload(&text).unwrap_err();
            assert!(
                e.message.contains(what),
                "`{extra}` gave `{e}`, wanted `{what}`"
            );
            assert_eq!(e.line, text.lines().count(), "wrong line for `{extra}`");
        }
    }

    #[test]
    fn pag_errors_keep_document_line_numbers() {
        let text = "workload v1 x\npag v1\nsite deref a b\nbogusline\n";
        let e = parse_workload(text).unwrap_err();
        assert_eq!(e.line, 4, "PAG error line not remapped: {e}");
    }
}
