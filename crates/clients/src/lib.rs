//! # dynsum-clients — the paper's three evaluation clients (§5.2)
//!
//! | client | question per site | needs |
//! |--------|-------------------|-------|
//! | [`SafeCast`](ClientKind::SafeCast) | is every object flowing into `(T) v` a subtype of `T`? | class hierarchy |
//! | [`NullDeref`](ClientKind::NullDeref) | can the base of a dereference be `null`? | null objects |
//! | [`FactoryM`](ClientKind::FactoryM) | does a factory method return a freshly allocated object? | allocation sites |
//!
//! Each client turns the frontend/generator metadata
//! ([`ProgramInfo`](dynsum_pag::ProgramInfo)) into a stream of points-to
//! queries, feeds them to a [`Session`](dynsum_core::Session) of any
//! engine kind with the client's
//! satisfaction predicate (REFINEPTS refines only as far as the client
//! needs), and classifies every site as *proven*, *refuted* or
//! *unresolved* (budget exhausted ⇒ conservative). Queries can be split
//! into batches to reproduce the paper's Figures 4 and 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod client;
mod report;

pub use batch::{run_batches, split_batches, BatchReport};
pub use client::{
    queries_for, run_client, site_satisfied, verdict, ClientKind, Query, QuerySite, Verdict,
};
pub use report::ClientReport;
