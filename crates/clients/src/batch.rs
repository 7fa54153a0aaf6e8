//! Query batching — the experimental setup behind Figures 4 and 5, run
//! on the [`Session`] API.
//!
//! §5.3: *"we divide the sequence of queries issued by a client into 10
//! batches. If a client has `n_q` queries, then each of the first nine
//! batches contains `⌊n_q/10⌋` queries and the last one gets the rest."*
//! DYNSUM's summary cache persists across batches, so later batches get
//! cheaper; the engines without cross-query memorization stay flat.
//!
//! [`run_batches`] drives a [`Session`], fanning each batch across
//! worker threads with the summary shards merged between batches — the
//! same verdicts and points-to sets at any thread count, one wall-clock
//! divided by the thread count.

use dynsum_core::Session;
use dynsum_pag::ProgramInfo;

use crate::client::{queries_for, run_queries, ClientKind, Query};
use crate::report::ClientReport;

/// One batch's outcome, plus the cumulative engine summary count after
/// it (Figure 5's series).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// 0-based batch index.
    pub index: usize,
    /// The per-batch client report.
    pub report: ClientReport,
    /// Engine summary count *after* this batch.
    pub cumulative_summaries: usize,
}

/// Splits a query stream into `n` batches, paper-style: the first `n-1`
/// of size `⌊len/n⌋`, the last takes the remainder. Returns fewer
/// batches when there are fewer queries than `n`.
pub fn split_batches(queries: Vec<Query>, n: usize) -> Vec<Vec<Query>> {
    assert!(n > 0, "batch count must be positive");
    let len = queries.len();
    if len == 0 {
        return Vec::new();
    }
    let base = len / n;
    if base == 0 {
        return vec![queries];
    }
    let mut out = Vec::with_capacity(n);
    let mut iter = queries.into_iter();
    for _ in 0..n - 1 {
        out.push(iter.by_ref().take(base).collect());
    }
    out.push(iter.collect());
    out
}

/// Runs a client's queries in `n` batches against a [`Session`] (whose
/// cross-query state persists), fanning each batch across up to
/// `threads` worker threads ([`Session::run_batch`]), and produces one
/// report per batch. Summary shards merge between batches, so
/// `cumulative_summaries` and the verdicts are the same at any thread
/// count.
pub fn run_batches(
    kind: ClientKind,
    info: &ProgramInfo,
    session: &mut Session<'_>,
    n: usize,
    threads: usize,
) -> Vec<BatchReport> {
    let batches = split_batches(queries_for(kind, info), n);
    let mut out = Vec::with_capacity(batches.len());
    for (index, batch) in batches.into_iter().enumerate() {
        let report = run_queries(kind, &batch, session, threads);
        out.push(BatchReport {
            index,
            cumulative_summaries: session.summary_count(),
            report,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsum_core::EngineKind;
    use dynsum_frontend::compile;
    use dynsum_pag::VarId;

    fn dummy_queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| Query {
                var: VarId::from_raw(i as u32),
                site: crate::client::QuerySite::Deref {
                    location: format!("x:{i}"),
                },
            })
            .collect()
    }

    #[test]
    fn split_follows_paper_rule() {
        let batches = split_batches(dummy_queries(23), 10);
        assert_eq!(batches.len(), 10);
        for b in &batches[..9] {
            assert_eq!(b.len(), 2);
        }
        assert_eq!(batches[9].len(), 5, "last batch gets the rest");
    }

    #[test]
    fn split_small_streams() {
        assert!(split_batches(dummy_queries(0), 10).is_empty());
        let batches = split_batches(dummy_queries(7), 10);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 7);
    }

    #[test]
    fn parallel_batches_match_sequential_engine_exactly() {
        let src = r#"
            class Box { Object v; void put(Object x) { this.v = x; } Object take() { return this.v; } }
            class Main {
                static void main() {
                    Box b1 = new Box(); b1.put(new Main()); Object o1 = b1.take();
                    Box b2 = new Box(); b2.put(new Box()); Object o2 = b2.take();
                    Box b3 = new Box(); b3.put(new String()); Object o3 = b3.take();
                    Box none = null; Object o4 = none.take();
                }
            }
        "#;
        let c = compile(src).unwrap();
        for kind in [EngineKind::DynSum, EngineKind::RefinePts] {
            let mut reference = Session::new(&c.pag, kind);
            let sequential = run_batches(ClientKind::NullDeref, &c.info, &mut reference, 3, 1);
            for threads in [2, 4] {
                let mut session = Session::new(&c.pag, kind);
                let parallel =
                    run_batches(ClientKind::NullDeref, &c.info, &mut session, 3, threads);
                assert_eq!(parallel.len(), sequential.len());
                for (p, s) in parallel.iter().zip(&sequential) {
                    assert_eq!(
                        (p.report.proven, p.report.refuted, p.report.unresolved),
                        (s.report.proven, s.report.refuted, s.report.unresolved),
                        "{kind} threads={threads} batch={}",
                        p.index
                    );
                    assert_eq!(p.report.queries, s.report.queries);
                    assert_eq!(p.cumulative_summaries, s.cumulative_summaries);
                }
            }
        }
    }

    #[test]
    fn batches_preserve_total_and_grow_summaries() {
        let src = r#"
            class Box { Object v; void put(Object x) { this.v = x; } Object take() { return this.v; } }
            class Main {
                static void main() {
                    Box b1 = new Box(); b1.put(new Main()); Object o1 = b1.take();
                    Box b2 = new Box(); b2.put(new Box()); Object o2 = b2.take();
                    Box b3 = new Box(); b3.put(new String()); Object o3 = b3.take();
                }
            }
        "#;
        let c = compile(src).unwrap();
        let mut session = Session::new(&c.pag, EngineKind::DynSum);
        let reports = run_batches(ClientKind::NullDeref, &c.info, &mut session, 3, 1);
        assert!(!reports.is_empty());
        let total: usize = reports.iter().map(|b| b.report.queries).sum();
        assert_eq!(total, c.info.derefs.len());
        // Cumulative summary counts never shrink.
        for w in reports.windows(2) {
            assert!(w[1].cumulative_summaries >= w[0].cumulative_summaries);
        }
    }
}
