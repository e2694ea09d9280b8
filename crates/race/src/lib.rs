//! gs-race: schedule-exploring model checker and happens-before race
//! detector for goalspotter's hand-rolled concurrency.
//!
//! The workspace's concurrent subsystems — the `gs-par` pool, the store's
//! `EpochCell` epoch/swap readers, the serve batcher, the tensor arena —
//! are dependency-free by design, which also means no off-the-shelf
//! checker ever sees them. This crate closes that gap with three layers:
//!
//! 1. **[`sync`]** — drop-in `AtomicUsize`/`AtomicU64`/`AtomicU8`/
//!    `AtomicBool`, `Mutex`, `Condvar`, and the [`sync::Probe`] publication
//!    annotation. Without the `model` feature they compile to plain std
//!    (zero-cost, pinned by an overhead test). With it, a runtime gate
//!    routes every op through a recorder.
//! 2. **`model`** (feature `model`) — a deterministic scheduler that
//!    explores interleavings of small *models*: self-contained cores of the
//!    real protocols rebuilt on [`sync`] primitives. Exhaustive DFS with an
//!    iterative-deepening preemption bound, or bounded-random; failures
//!    (assertion, deadlock, race, livelock) come with the exact schedule
//!    trace, minimal in preemptions.
//! 3. **[`detect`]** — the vector-clock happens-before engine both modes
//!    share. As the *live* detector (`GS_RACE=1`) it instruments the real
//!    pool/store/serve test suites and reports unsynchronized conflicting
//!    accesses with both source locations.
//!
//! Ordering semantics are faithful where it matters for finding bugs:
//! `Release`→`Acquire` edges transfer clocks, a `Relaxed` store severs a
//! location's release edge (so "`Relaxed` where `Release` is required"
//! publication bugs show up as races), a `Relaxed` RMW continues a release
//! sequence, `SeqCst` is treated as acquire+release. Values are explored
//! sequentially consistently; see the `model` module for the precise scope.

#![warn(missing_docs)]

pub mod clock;
pub mod detect;
pub mod sync;

#[cfg(feature = "model")]
pub(crate) mod sched;

#[cfg(feature = "model")]
pub mod model;

#[cfg(feature = "model")]
pub mod models;

pub use detect::{detecting, set_detecting, take_live_races, RaceReport};
