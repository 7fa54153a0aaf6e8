//! Answer checks, all outside every timer.
//!
//! A reference session per graph — fresh, uncapped, never invalidated or
//! reloaded — answers every client site once. Each reference answer's
//! object set must be a subset of the Andersen oracle's set for that var,
//! and every answer a workload recorded must carry the reference answer's
//! fingerprint. Deterministic reuse makes an answer a pure function of
//! `(graph, config, query)`, so this is the "matches a cold session" check
//! for the daemon's frames, for every batch after an invalidation and for
//! every batch after a snapshot reload.

use std::collections::HashMap;

use dynsum_cfl::QueryResult;
use dynsum_core::{EngineConfig, EngineKind, Session};
use dynsum_pag::{Pag, VarId};

use crate::prep::Oracle;
use crate::work::Run;

/// Reference answers for each graph's `vars`.
pub fn reference_results(pags: &[Pag], vars: &[Vec<VarId>]) -> Vec<HashMap<VarId, QueryResult>> {
    pags.iter()
        .zip(vars)
        .map(|(pag, vars)| {
            let mut distinct = vars.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let mut session =
                Session::with_config(pag, EngineKind::DynSum, EngineConfig::default());
            let results = session.run_batch_vars(&distinct, 1);
            distinct.into_iter().zip(results).collect()
        })
        .collect()
}

/// Checks the reference against the oracle and the run's answers
/// against the reference, counting each mismatch as a failed operation.
pub fn answers(pags: &[Pag], sites: &[Vec<VarId>], oracle: &Oracle, run: &mut Run) {
    let reference = reference_results(pags, sites);
    for (g, (answers, truth)) in reference.iter().zip(oracle).enumerate() {
        for (var, r) in answers {
            run.attempted += 1;
            let sound = truth.get(var).is_some_and(|objs| {
                r.pts
                    .objects()
                    .iter()
                    .all(|o| objs.binary_search(o).is_ok())
            });
            run.failures.add(u64::from(!sound), || {
                format!(
                    "graph {g}: var {} answers objects outside the Andersen oracle",
                    var.as_raw()
                )
            });
        }
    }
    let mut wrong = 0u64;
    let mut first = None;
    for &(g, var, fingerprint) in &run.answers {
        let expected = reference[g].get(&var).map(QueryResult::fingerprint);
        if expected != Some(fingerprint) {
            wrong += 1;
            first.get_or_insert((g, var));
        }
    }
    run.failures.add(wrong, || {
        let (g, var) = first.expect("a mismatch was seen");
        format!(
            "{wrong} answers differ from a cold reference session (first: graph {g}, var {})",
            var.as_raw()
        )
    });
}
