//! Untrusted `.pag` text never panics the process.
//!
//! Seeded line-, token- and byte-level mutations of a small generated
//! graph's text. Every case goes through `parse_pag`; every text it
//! accepts must also fingerprint, round-trip through `write_pag` with an
//! unchanged fingerprint, and answer one small-budget query on each of
//! the four engines. A panic anywhere fails the test and names the case,
//! whose text is rebuilt from the fixed seed.

use dynsum_cfl::sync::thread;
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::text::{parse_pag, write_pag};
use dynsum_pag::{Pag, VarId};
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 3_000;
const SEED: u64 = 0x0BAD_9A65;

/// Tokens that steer a mutation into the grammar's corners: keywords in
/// the wrong place, the implicit root class, comment markers, and the
/// whitespace and non-ASCII characters the tokenizer must not trip on.
const PROBES: &[&str] = &[
    "pag",
    "v1",
    "class",
    "extends",
    "field",
    "method",
    "global",
    "local",
    "type",
    "obj",
    "nullobj",
    "callsite",
    "recursive",
    "new",
    "assign",
    "assignglobal",
    "load",
    "store",
    "entry",
    "exit",
    "Object",
    "arr",
    "#",
    "#x",
    "\r#x",
    "\u{b}#x",
    "\t",
    "\r",
    "\u{b}",
    "\u{c}",
    "\u{85}",
    "é",
    "",
];

const BYTES: &[char] = &[
    ' ', '\t', '\n', '\r', '\u{b}', '\u{c}', '#', 'a', 'o', '0', '9', '.', '_', '<', '>', 'é',
    '\u{85}', '\u{a0}', '\u{2028}',
];

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// One line-level mutation: delete, duplicate, swap or move a line, or
/// declare a probe as a name.
fn mutate_lines(rng: &mut SmallRng, text: &str) -> String {
    let keyword = pick(rng, &["field", "global", "method"]);
    let declaration = format!("{keyword} {}", pick(rng, PROBES));
    let mut lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
    match rng.gen_range(0..5) {
        0 => {
            lines.remove(i);
        }
        1 => lines.insert(j, lines[i]),
        2 => lines.swap(i, j),
        3 => {
            let line = lines.remove(i);
            lines.insert(j.min(lines.len()), line);
        }
        _ => lines.insert(j, &declaration),
    }
    lines.join("\n")
}

/// One token-level mutation on one line: replace a token with another
/// line's token or a probe, delete, duplicate or swap tokens.
fn mutate_tokens(rng: &mut SmallRng, text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let li = rng.gen_range(0..lines.len());
    let donor: Vec<&str> = lines[rng.gen_range(0..lines.len())]
        .split_whitespace()
        .collect();
    let mut toks: Vec<&str> = lines[li].split_whitespace().collect();
    if toks.is_empty() {
        toks.push("");
    }
    let t = rng.gen_range(0..toks.len());
    match rng.gen_range(0..5) {
        0 if !donor.is_empty() => toks[t] = *pick(rng, &donor),
        1 => toks[t] = *pick(rng, PROBES),
        2 => {
            toks.remove(t);
        }
        3 => toks.insert(rng.gen_range(0..=toks.len()), toks[t]),
        _ => {
            let u = rng.gen_range(0..toks.len());
            toks.swap(t, u);
        }
    }
    let mutated = toks.join(" ");
    lines[li] = &mutated;
    lines.join("\n")
}

/// One character-level mutation: replace, delete or insert a character
/// (on char boundaries, so the text stays valid UTF-8 as a `&str` must
/// be).
fn mutate_chars(rng: &mut SmallRng, text: &str) -> String {
    let mut text = text.to_owned();
    let mut i = rng.gen_range(0..text.len());
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    match rng.gen_range(0..3) {
        0 => {
            let width = text[i..].chars().next().map_or(0, char::len_utf8);
            text.replace_range(i..i + width, pick(rng, BYTES).encode_utf8(&mut [0; 4]));
        }
        1 => {
            text.remove(i);
        }
        _ => text.insert(i, *pick(rng, BYTES)),
    }
    text
}

/// Everything an accepted text must survive.
fn exercise(case: usize, pag: &Pag) {
    let fingerprint = pag.fingerprint();
    let again = parse_pag(&write_pag(pag))
        .unwrap_or_else(|e| panic!("case {case}: write_pag output does not parse: {e}"));
    assert_eq!(
        again.fingerprint(),
        fingerprint,
        "case {case}: the fingerprint changed across write_pag -> parse_pag"
    );
    if pag.num_vars() == 0 {
        return;
    }
    let config = EngineConfig {
        budget: 500,
        ..EngineConfig::default()
    };
    let v = VarId::from_raw((case % pag.num_vars()) as u32);
    for kind in [
        EngineKind::NoRefine,
        EngineKind::RefinePts,
        EngineKind::DynSum,
        EngineKind::StaSum,
    ] {
        let mut session = Session::with_config(pag, kind, config);
        session.run_batch_vars(&[v], 1);
    }
}

#[test]
fn mutated_pag_text_never_panics() {
    let base = write_pag(
        &generate(
            BenchmarkProfile::find("avrora").unwrap(),
            &GeneratorOptions {
                scale: 0.0,
                seed: 7,
                ..GeneratorOptions::default()
            },
        )
        .pag,
    );
    // Each case draws from its own seed, so a failing case number can be
    // replayed alone; two workers split the cases.
    let run = |first: usize| -> usize {
        let mut accepted = 0;
        for case in (first..CASES).step_by(2) {
            let mut rng = SmallRng::seed_from_u64(SEED ^ case as u64);
            let mut text = base.clone();
            for _ in 0..rng.gen_range(1..=3) {
                text = match case % 3 {
                    0 => mutate_lines(&mut rng, &text),
                    1 => mutate_tokens(&mut rng, &text),
                    _ => mutate_chars(&mut rng, &text),
                };
            }
            if let Ok(pag) = parse_pag(&text) {
                accepted += 1;
                exercise(case, &pag);
            }
        }
        accepted
    };
    let accepted: usize = thread::scope(|s| {
        let other = s.spawn(|| run(1));
        run(0) + other.join().expect("the other worker panicked")
    });
    // Both outcomes must be exercised, or the mutations are too weak (or
    // too strong) to say anything.
    assert!(
        (CASES / 50..CASES - CASES / 50).contains(&accepted),
        "{accepted} of {CASES} mutated texts parsed"
    );
}
