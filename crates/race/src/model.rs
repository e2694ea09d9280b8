//! Public API for writing and exploring concurrency models.
//!
//! A *model* is a small, self-contained function that reconstructs the core
//! of a real concurrent protocol using [`crate::sync`] primitives,
//! [`spawn`]/[`ModelHandle::join`] for threads, and [`RawCell`] for the
//! plain data the protocol is supposed to protect. [`explore`] runs the
//! model under every schedule the budget allows and returns the first
//! failure — an assertion panic, a deadlock, a happens-before race on a
//! `RawCell`/`Probe`, or a step-budget blowout — together with the exact
//! schedule trace that produced it.
//!
//! Exploration is depth-first with an iterative-deepening preemption bound
//! (schedules with 0 forced preemptions first, then 1, then 2, …), so the
//! first failure found is minimal in preemptions — the trace reads like the
//! simplest possible interleaving that breaks the invariant. A
//! bounded-random mode covers models whose schedule space is too large to
//! exhaust.
//!
//! # Value semantics
//!
//! Atomics perform real `std` operations, one thread at a time, so every
//! explored execution is sequentially consistent at the *value* level.
//! Weak-memory effects are modeled at the *happens-before* level instead:
//! a `Relaxed` store does not publish the writer's clock, so data it was
//! supposed to guard is flagged as a race even though the explored values
//! look fine. This catches "Relaxed where Release is required" bugs without
//! simulating stale reads; genuinely value-dependent weak-memory behavior
//! (e.g. IRIW) is out of scope.

use std::sync::Arc;

use crate::sched::{self, ChoiceRec, Policy};

pub use crate::sched::{Event, FailureKind};

/// Budgets and strategy for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// Maximum schedules to run before giving up (default 4096).
    pub max_schedules: usize,
    /// Preemption bound for DFS; deepened iteratively from 0 (default 2).
    pub max_preemptions: usize,
    /// Per-schedule step budget; exceeding it is a livelock failure
    /// (default 20 000).
    pub max_steps: usize,
    /// When set, explore `max_schedules` random schedules from this seed
    /// instead of DFS.
    pub random_seed: Option<u64>,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            max_schedules: 4096,
            max_preemptions: 2,
            max_steps: 20_000,
            random_seed: None,
        }
    }
}

/// A schedule failure: what went wrong plus the trace that got there.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class and payload.
    pub kind: FailureKind,
    /// Every scheduling step up to the failure, in order.
    pub trace: Vec<Event>,
    /// Which schedule (0-based) failed.
    pub schedule: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panic(msg) => writeln!(f, "model panicked: {msg}")?,
            FailureKind::Deadlock(blocked) => {
                writeln!(f, "deadlock: no thread is schedulable")?;
                for line in blocked {
                    writeln!(f, "  {line}")?;
                }
            }
            FailureKind::Race(report) => writeln!(f, "{report}")?,
            FailureKind::StepBudget(n) => {
                writeln!(f, "step budget exhausted after {n} steps (livelock?)")?
            }
        }
        writeln!(f, "schedule #{} ({} steps):", self.schedule, self.trace.len())?;
        const TAIL: usize = 200;
        if self.trace.len() > TAIL {
            writeln!(f, "  … {} earlier steps elided …", self.trace.len() - TAIL)?;
        }
        for ev in self.trace.iter().rev().take(TAIL).rev() {
            writeln!(f, "  {ev}")?;
        }
        Ok(())
    }
}

/// What [`explore`] found.
#[derive(Debug)]
pub struct Report {
    /// Schedules actually executed.
    pub schedules: usize,
    /// Total scheduling steps across all schedules (for throughput stats).
    pub steps: usize,
    /// The first failure, if any schedule failed.
    pub failure: Option<Failure>,
    /// True when DFS exhausted every schedule within the preemption bound
    /// and budget — i.e. the absence of a failure is a proof up to that
    /// bound, not a sampling result.
    pub exhaustive: bool,
}

impl Report {
    /// Panics with the full failure rendering if any schedule failed.
    /// The standard assertion at the end of a model test.
    #[track_caller]
    pub fn assert_ok(&self) {
        if let Some(failure) = &self.failure {
            panic!("model check failed:\n{failure}");
        }
    }
}

/// Explores `body` under many schedules. `body` is re-run from scratch for
/// every schedule, as model thread `T0 [main]`; it must be deterministic
/// apart from scheduling (no wall clock, no OS randomness).
pub fn explore<F>(opts: ExploreOpts, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut schedules = 0usize;
    let mut steps = 0usize;

    if let Some(seed) = opts.random_seed {
        let mut state = seed.max(1);
        while schedules < opts.max_schedules {
            // Split the stream per schedule so each run is independently
            // seeded but the whole exploration replays from `seed`.
            state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let outcome =
                sched::run_one(Policy::Random { state }, opts.max_steps, Arc::clone(&body));
            schedules += 1;
            steps += outcome.steps;
            if let Some((kind, trace)) = outcome.failure {
                return Report {
                    schedules,
                    steps,
                    failure: Some(Failure { kind, trace, schedule: schedules - 1 }),
                    exhaustive: false,
                };
            }
        }
        return Report { schedules, steps, failure: None, exhaustive: false };
    }

    for bound in 0..=opts.max_preemptions {
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            if schedules >= opts.max_schedules {
                return Report { schedules, steps, failure: None, exhaustive: false };
            }
            let outcome = sched::run_one(
                Policy::Dfs { prefix: prefix.clone(), bound },
                opts.max_steps,
                Arc::clone(&body),
            );
            schedules += 1;
            steps += outcome.steps;
            if let Some((kind, trace)) = outcome.failure {
                return Report {
                    schedules,
                    steps,
                    failure: Some(Failure { kind, trace, schedule: schedules - 1 }),
                    exhaustive: false,
                };
            }
            match next_prefix(&outcome.choices) {
                Some(next) => prefix = next,
                None => break,
            }
        }
    }
    Report { schedules, steps, failure: None, exhaustive: true }
}

/// The DFS successor: backtrack to the deepest choice point with an
/// untried alternative and advance it.
fn next_prefix(choices: &[ChoiceRec]) -> Option<Vec<usize>> {
    for i in (0..choices.len()).rev() {
        let rec = &choices[i];
        let pos = rec.options.iter().position(|&t| t == rec.chosen)?;
        if pos + 1 < rec.options.len() {
            let mut prefix: Vec<usize> = choices[..i].iter().map(|r| r.chosen).collect();
            prefix.push(rec.options[pos + 1]);
            return Some(prefix);
        }
    }
    None
}

/// Spawns a named model thread. Must be called from inside a model
/// execution (i.e. from the `explore` body or one of its spawned threads).
#[track_caller]
pub fn spawn<F>(name: &str, f: F) -> ModelHandle
where
    F: FnOnce() + Send + 'static,
{
    let ctx = sched::current().expect("gs_race::model::spawn outside a model execution");
    let loc = std::panic::Location::caller();
    let tid = sched::model_spawn(&ctx, name, Box::new(f), loc);
    ModelHandle { tid }
}

/// Handle to a spawned model thread; joining creates a happens-before edge.
pub struct ModelHandle {
    tid: usize,
}

impl ModelHandle {
    /// Blocks (in model time) until the thread finishes.
    #[track_caller]
    pub fn join(self) {
        let ctx = sched::current().expect("gs_race::model::ModelHandle::join outside a model");
        sched::model_join(&ctx, self.tid, std::panic::Location::caller());
    }
}

/// Plain, intentionally-unsynchronized shared data for models: the thing a
/// protocol under test is supposed to protect. Every access is a scheduling
/// point and feeds the happens-before detector, so an interleaving in which
/// two conflicting accesses are unordered fails with a race report. The
/// scheduler serializes accesses at the value level, which is what makes
/// the `Sync` impl sound; using a `RawCell` outside a model execution
/// panics rather than touching the cell unsynchronized.
pub struct RawCell<T> {
    cell: std::cell::UnsafeCell<T>,
    what: &'static str,
}

// SAFETY: all accesses go through read()/write(), which require a model
// context; the model scheduler runs exactly one thread between yield
// points, so accesses are serialized.
unsafe impl<T: Send> Sync for RawCell<T> {}

impl<T: Copy> RawCell<T> {
    /// A new cell labeled `what` (the label appears in race reports).
    pub fn new(what: &'static str, value: T) -> Self {
        RawCell { cell: std::cell::UnsafeCell::new(value), what }
    }

    fn ctx(&self) -> sched::Ctx {
        sched::current()
            .unwrap_or_else(|| panic!("RawCell `{}` accessed outside a model execution", self.what))
    }

    /// Reads the value; a detector-visible plain read.
    #[track_caller]
    pub fn read(&self) -> T {
        let ctx = self.ctx();
        let loc = std::panic::Location::caller();
        let addr = self.cell.get() as usize;
        // SAFETY: serialized by the model scheduler (see Sync impl).
        sched::model_data(&ctx, addr, self.what, false, loc, || unsafe { *self.cell.get() })
    }

    /// Writes the value; a detector-visible plain write.
    #[track_caller]
    pub fn write(&self, value: T) {
        let ctx = self.ctx();
        let loc = std::panic::Location::caller();
        let addr = self.cell.get() as usize;
        // SAFETY: serialized by the model scheduler (see Sync impl).
        sched::model_data(&ctx, addr, self.what, true, loc, || unsafe {
            *self.cell.get() = value;
        })
    }
}
