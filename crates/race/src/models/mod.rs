//! The model suite: self-contained cores of the workspace's real
//! concurrent protocols, rebuilt on [`crate::sync`] primitives so
//! [`crate::model::explore`] can exhaust their interleavings.
//!
//! Each module models one production protocol and exposes:
//!
//! - `Bug` — the seeded concurrency bugs for that protocol (used by the
//!   mutation self-test and `racebench` to prove the checker catches them);
//! - `run(bug, opts)` — explore the model, optionally with one bug seeded;
//!   `run(None, …)` is the clean protocol and must pass exhaustively.
//!
//! Models deliberately stay small (2–4 threads, a handful of operations):
//! the point is to exhaust the schedule space of the *protocol*, not to
//! re-run the production code. The production code itself is checked by
//! the live detector (`GS_RACE=1`) over the real test suites; the models
//! are where ordering mutations become deterministic, minimal traces.

pub mod arena;
pub mod batcher;
pub mod epoch;
pub mod pool;

/// A seeded bug from any model, for enumeration in benches and tests.
#[derive(Clone, Copy, Debug)]
pub enum AnyBug {
    /// An `EpochCell` publication bug.
    Epoch(epoch::Bug),
    /// A pool fork-join bug.
    Pool(pool::Bug),
    /// A batcher queue/drain bug.
    Batcher(batcher::Bug),
    /// An arena pooling bug.
    Arena(arena::Bug),
}

impl AnyBug {
    /// Every seeded bug in the suite.
    pub fn all() -> Vec<AnyBug> {
        let mut out = Vec::new();
        out.extend(epoch::Bug::ALL.iter().map(|&b| AnyBug::Epoch(b)));
        out.extend(pool::Bug::ALL.iter().map(|&b| AnyBug::Pool(b)));
        out.extend(batcher::Bug::ALL.iter().map(|&b| AnyBug::Batcher(b)));
        out.extend(arena::Bug::ALL.iter().map(|&b| AnyBug::Arena(b)));
        out
    }

    /// Stable name for reports.
    pub fn name(&self) -> String {
        match self {
            AnyBug::Epoch(b) => format!("epoch::{b:?}"),
            AnyBug::Pool(b) => format!("pool::{b:?}"),
            AnyBug::Batcher(b) => format!("batcher::{b:?}"),
            AnyBug::Arena(b) => format!("arena::{b:?}"),
        }
    }

    /// Explores the owning model with this bug seeded.
    pub fn run(&self, opts: crate::model::ExploreOpts) -> crate::model::Report {
        match self {
            AnyBug::Epoch(b) => epoch::run(Some(*b), opts),
            AnyBug::Pool(b) => pool::run(Some(*b), opts),
            AnyBug::Batcher(b) => batcher::run(Some(*b), opts),
            AnyBug::Arena(b) => arena::run(Some(*b), opts),
        }
    }
}
