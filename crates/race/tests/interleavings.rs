//! Clean-model interleaving suite: every protocol model must pass under
//! schedule exploration with zero findings — no race, no deadlock, no
//! assertion failure — and the smaller models must be *exhausted* within
//! the preemption bound, making the pass a proof up to that bound.

#![cfg(feature = "model")]

use gs_race::model::ExploreOpts;
use gs_race::models::{arena, batcher, epoch, pool};

fn opts() -> ExploreOpts {
    ExploreOpts { max_schedules: 100_000, max_preemptions: 2, max_steps: 10_000, random_seed: None }
}

#[test]
fn epoch_clean_exhaustive() {
    let report = epoch::run(None, opts());
    report.assert_ok();
    assert!(report.exhaustive, "epoch model should exhaust within {} schedules", report.schedules);
    assert!(report.schedules > 10, "suspiciously few schedules: {}", report.schedules);
}

#[test]
fn pool_clean_exhaustive() {
    let report = pool::run(None, opts());
    report.assert_ok();
    assert!(report.exhaustive, "pool model should exhaust within {} schedules", report.schedules);
}

#[test]
fn batcher_clean_exhaustive() {
    let report = batcher::run(None, opts());
    report.assert_ok();
    assert!(
        report.exhaustive,
        "batcher model should exhaust within {} schedules",
        report.schedules
    );
    assert!(report.schedules > 10, "suspiciously few schedules: {}", report.schedules);
}

#[test]
fn arena_clean_exhaustive() {
    let report = arena::run(None, opts());
    report.assert_ok();
    assert!(report.exhaustive, "arena model should exhaust within {} schedules", report.schedules);
}

#[test]
fn random_mode_clean() {
    // The bounded-random explorer must also find nothing on clean models.
    for seed in [1u64, 0xDEAD_BEEF] {
        let o = ExploreOpts {
            max_schedules: 200,
            max_preemptions: 2,
            max_steps: 10_000,
            random_seed: Some(seed),
        };
        epoch::run(None, o.clone()).assert_ok();
        batcher::run(None, o.clone()).assert_ok();
    }
}
