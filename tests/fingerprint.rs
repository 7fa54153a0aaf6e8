//! The graph fingerprint that keys snapshots and daemon sessions.
//!
//! `Pag::fingerprint` hashes a frozen graph once and memoizes the value.
//! These tests pin the values the snapshot format depends on, hold the
//! memo to from-scratch computations, and check the warm/cold decision
//! it drives across independent parses of the same text.

use dynsum::pag::text::{parse_pag, write_pag};
use dynsum::pag::VarId;
use dynsum::workloads::{generate, motivating_pag, BenchmarkProfile, GeneratorOptions, PROFILES};
use dynsum::{
    pag_fingerprint, ClientKind, EngineConfig, EngineKind, Session, SnapshotLoad, SnapshotReject,
};
use dynsum_clients::queries_for;
use proptest::prelude::*;

/// Snapshot headers carry these values, so a change here makes every
/// existing snapshot load cold. They were recorded before the
/// fingerprint was memoized on `Pag`, and must never move without a
/// snapshot format version bump.
#[test]
fn fingerprints_are_pinned() {
    assert_eq!(
        pag_fingerprint(&motivating_pag().pag),
        0x7bce_7c34_9626_83bb
    );
    let w = generate(
        BenchmarkProfile::find("jack").unwrap(),
        &GeneratorOptions {
            scale: 0.0,
            seed: 7,
            ..GeneratorOptions::default()
        },
    );
    assert_eq!(w.pag.fingerprint(), 0x5eba_7f7e_1894_49c5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The memo answers what a from-scratch computation answers: on a
    /// clone taken before the first call, on a clone taken after it
    /// (which carries the memo), and on two independent parses of the
    /// graph's text.
    #[test]
    fn the_memo_equals_a_from_scratch_computation(
        seed in 0u64..1000,
        pidx in 0usize..PROFILES.len(),
        permille in 0u32..=10,
    ) {
        let w = generate(
            &PROFILES[pidx],
            &GeneratorOptions {
                scale: f64::from(permille) / 1000.0,
                seed,
                ..GeneratorOptions::default()
            },
        );
        let unasked = w.pag.clone();
        let memo = w.pag.fingerprint();
        prop_assert_eq!(w.pag.fingerprint(), memo);
        prop_assert_eq!(pag_fingerprint(&w.pag), memo);
        prop_assert_eq!(unasked.fingerprint(), memo);
        prop_assert_eq!(w.pag.clone().fingerprint(), memo);
        let text = write_pag(&w.pag);
        prop_assert_eq!(parse_pag(&text).unwrap().fingerprint(), memo);
        prop_assert_eq!(parse_pag(&text).unwrap().fingerprint(), memo);
    }
}

/// A snapshot saved from one parse restores warm into an independent
/// second parse of the same text, and cold after a one-edge edit.
#[test]
fn snapshots_follow_the_text_not_the_parse() {
    let w = generate(
        BenchmarkProfile::find("soot-c").unwrap(),
        &GeneratorOptions {
            scale: 0.01,
            seed: 3397,
            ..GeneratorOptions::default()
        },
    );
    let text = write_pag(&w.pag);
    let first = parse_pag(&text).unwrap();
    let second = parse_pag(&text).unwrap();
    let vars: Vec<VarId> = queries_for(ClientKind::NullDeref, &w.info)
        .iter()
        .map(|q| q.var)
        .collect();
    let mut session = Session::new(&first, EngineKind::DynSum);
    let answers = session.run_batch_vars(&vars, 1);
    let mut bytes = Vec::new();
    session.save_snapshot(&mut bytes).unwrap();

    let (mut warm, load) = Session::load_snapshot(
        &bytes[..],
        &second,
        EngineKind::DynSum,
        EngineConfig::default(),
    );
    assert!(load.is_warm(), "{load:?}");
    assert_eq!(load.summaries(), session.summary_count());
    for (a, b) in answers.iter().zip(warm.run_batch_vars(&vars, 1)) {
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    // `write_pag` puts the edges last: dropping the last line removes
    // exactly one edge.
    let edited = text.trim_end().rsplit_once('\n').unwrap().0;
    let edited = parse_pag(edited).unwrap();
    assert_eq!(edited.num_edges() + 1, first.num_edges());
    let (cold, load) = Session::load_snapshot(
        &bytes[..],
        &edited,
        EngineKind::DynSum,
        EngineConfig::default(),
    );
    assert_eq!(load, SnapshotLoad::Cold(SnapshotReject::PagMismatch));
    assert_eq!(cold.summary_count(), 0);
}
