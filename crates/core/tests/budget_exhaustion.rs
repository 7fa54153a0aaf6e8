//! Budget exhaustion: a deliberately deep random PAG that NOREFINE
//! cannot finish within the paper's default 75,000-edge budget (§5.2).
//! The query must come back `resolved == false` — a conservative,
//! partial answer — without panicking, and the engine must stay usable
//! for subsequent queries.

use dynsum_cfl::Outcome;
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::{Pag, PagBuilder, VarId};

/// Deterministic mixer for the pseudo-random edge wiring (the PAG is
/// "random" in shape but identical across runs).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Builds a layered assign DAG: `width` locals per layer, every local
/// fed by `preds` pseudo-random locals of the previous layer, with
/// allocations only at layer 0. Backward reachability from the top
/// layer therefore has to traverse on the order of
/// `layers × width × preds` edges before it can resolve.
fn deep_random_pag(layers: usize, width: usize, preds: usize, seed: u64) -> (Pag, VarId) {
    let mut b = PagBuilder::new();
    let m = b.add_method("deep", None).unwrap();
    let mut prev: Vec<VarId> = Vec::with_capacity(width);
    for j in 0..width {
        let v = b.add_local(&format!("l0_{j}"), m, None).unwrap();
        let o = b.add_obj(&format!("o{j}"), None, Some(m)).unwrap();
        b.add_new(o, v).unwrap();
        prev.push(v);
    }
    for i in 1..layers {
        let mut cur = Vec::with_capacity(width);
        for j in 0..width {
            let v = b.add_local(&format!("l{i}_{j}"), m, None).unwrap();
            for k in 0..preds {
                let src = prev[mix(seed, (i * width + j) as u64, k as u64) as usize % width];
                b.add_assign(src, v).unwrap();
            }
            cur.push(v);
        }
        prev = cur;
    }
    let query = prev[0];
    (b.finish(), query)
}

#[test]
fn default_budget_matches_the_paper() {
    assert_eq!(EngineConfig::default().budget, 75_000);
}

#[test]
fn norefine_exhausts_budget_without_panicking() {
    // ~3 × 100 × 300 = 90,000 assign edges reachable from the query —
    // comfortably past the 75,000 default.
    let (pag, query) = deep_random_pag(300, 100, 3, 0xD45);
    assert!(dynsum_pag::validate(&pag).is_empty());

    let mut engine = Session::new(&pag, EngineKind::NoRefine);
    assert_eq!(engine.config().budget, EngineConfig::default().budget);

    let r = engine.points_to(query);
    assert!(!r.resolved, "90k-edge DAG must exceed the 75k budget");
    assert_eq!(r.outcome, Outcome::OverBudget);
    // The traversal did real work right up to the cap.
    assert!(
        r.stats.edges_traversed >= 70_000,
        "expected near-budget work, saw {} edges",
        r.stats.edges_traversed
    );

    // Exhaustion is per-query state: the engine answers an easy query
    // afterwards, and re-asking the hard one runs out of budget again
    // rather than panicking.
    let easy = pag.find_var("l0_0").unwrap();
    let re = engine.points_to(easy);
    assert!(re.resolved);
    assert_eq!(re.pts.objects().len(), 1);
    let again = engine.points_to(query);
    assert_eq!(again.outcome, Outcome::OverBudget);
}

#[test]
fn raised_budget_resolves_the_same_query() {
    let (pag, query) = deep_random_pag(300, 100, 3, 0xD45);
    let mut engine = Session::with_config(
        &pag,
        EngineKind::NoRefine,
        EngineConfig {
            budget: 2_000_000,
            ..EngineConfig::default()
        },
    );
    let r = engine.points_to(query);
    assert!(r.resolved, "20x the budget must be enough for 90k edges");
    assert!(!r.pts.objects().is_empty());
}
