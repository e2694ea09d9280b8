//! # gs-eval
//!
//! Evaluation substrate: the paper's Precision/Recall/F1 definitions at the
//! field level (extracted details vs gold annotations), token- and
//! entity-level diagnostics on IOB sequences, multi-run mean/stderr
//! aggregation, and fixed-width table rendering for the harness binaries.

#![warn(missing_docs)]

mod metrics;
mod report;

pub use metrics::{
    entity_counts, evaluate_extractions, run_stats, score_extraction, token_accuracy, values_match,
    Counts, FieldEval, RunStats,
};
pub use report::{fmt2, fmt_duration, TextTable};
