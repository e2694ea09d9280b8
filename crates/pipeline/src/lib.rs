//! # gs-pipeline
//!
//! GoalSpotter end to end (paper Figure 2 and §5): the development phase
//! trains the detection stage and the weakly supervised extraction service;
//! the production phase sweeps reports, detects objective blocks, extracts
//! their details, and upserts them into any [`gs_store::ObjectiveSink`] —
//! in practice the structured [`gs_store::ObjectiveDb`], on disk or
//! ephemeral.
//! [`evaluate_extractor`] is the shared driver behind every comparison in
//! the benchmark harnesses. [`ingest_report_text`] is the raw-text front
//! door: it parses whole semi-structured reports with `gs-ingest` and
//! threads section provenance through detection and extraction into the
//! store.

#![warn(missing_docs)]

mod evaluate;
mod ingest;
mod produce;
mod serving;
mod system;

pub use evaluate::{evaluate_extractor, ApproachResult};
pub use ingest::{ingest_report_text, ingest_snapshot, IngestStats, IngestedObjective};
pub use produce::{process_corpus, process_report, CompanyStats, ReportStats};
pub use serving::{DbStoreHook, ExtractorEngine};
pub use system::{GoalSpotter, GoalSpotterConfig};
