//! # gs-bench
//!
//! Shared harness code for the binaries in `src/bin/`: approach
//! construction and multi-seed comparison runs for the table/figure
//! reproductions (each regenerates one table or figure of the paper; see
//! DESIGN.md's experiment index), a tiny CLI-flag parser, and the one
//! report schema ([`report`]) the five bench bins (kernelbench, profbench,
//! storebench, racebench, parbench) write their `results/BENCH_*.json`
//! through.

#![warn(missing_docs)]

pub mod args;
pub mod comparison;
pub mod deploy;
pub mod obs;
pub mod report;

pub use args::Args;
pub use comparison::{compare_approaches, ApproachKind, ApproachRow, ComparisonOptions};
