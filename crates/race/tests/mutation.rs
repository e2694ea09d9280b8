//! Mutation self-test: every seeded concurrency bug in the model suite
//! must be caught with a concrete failure — a race report with both access
//! sites, a deadlock with every blocked thread's state, or an assertion
//! panic — plus the schedule trace that produced it. Together with the
//! clean runs in `interleavings.rs` (zero findings), this pins the
//! checker's discrimination the same way `gs-check`'s mutation tests pin
//! the shape checker.

#![cfg(feature = "model")]

use gs_race::model::{ExploreOpts, Failure, FailureKind};
use gs_race::models::{arena, batcher, epoch, pool, AnyBug};

fn opts() -> ExploreOpts {
    ExploreOpts { max_schedules: 100_000, max_preemptions: 2, max_steps: 10_000, random_seed: None }
}

/// The failure classes a bug may legitimately surface as. Several bugs
/// race the detector against an assertion on the same schedule family;
/// whichever the minimal schedule hits first is a valid catch.
fn expected(bug: &AnyBug) -> &'static [&'static str] {
    match bug {
        AnyBug::Epoch(epoch::Bug::RelaxedPublish) => &["race"],
        AnyBug::Epoch(epoch::Bug::BumpBeforeStore) => &["race", "panic"],
        AnyBug::Epoch(epoch::Bug::ReadWithoutAcquire) => &["race"],
        AnyBug::Pool(pool::Bug::EarlyDone) => &["race", "panic"],
        AnyBug::Pool(pool::Bug::MissingNotify) => &["deadlock"],
        AnyBug::Pool(pool::Bug::NonAtomicClaim) => &["race", "panic"],
        AnyBug::Batcher(batcher::Bug::IfInsteadOfWhile) => &["panic"],
        AnyBug::Batcher(batcher::Bug::NotifyBeforePush) => &["deadlock"],
        AnyBug::Batcher(batcher::Bug::ExitBeforeDrain) => &["panic"],
        AnyBug::Arena(arena::Bug::StatsOutsideLock) => &["race", "panic"],
        AnyBug::Arena(arena::Bug::TakeOutsideLock) => &["race", "panic"],
    }
}

fn kind_name(failure: &Failure) -> &'static str {
    match failure.kind {
        FailureKind::Panic(_) => "panic",
        FailureKind::Deadlock(_) => "deadlock",
        FailureKind::Race(_) => "race",
        FailureKind::StepBudget(_) => "step-budget",
    }
}

#[test]
fn suite_has_at_least_ten_bugs() {
    assert!(AnyBug::all().len() >= 10, "issue requires >= 10 seeded bugs");
}

#[test]
fn every_seeded_bug_is_caught_with_a_trace() {
    for bug in AnyBug::all() {
        let report = bug.run(opts());
        let failure = report.failure.as_ref().unwrap_or_else(|| {
            panic!("seeded bug {} escaped {} schedules", bug.name(), report.schedules)
        });
        let kind = kind_name(failure);
        assert!(
            expected(&bug).contains(&kind),
            "bug {} caught as `{kind}`, expected one of {:?}\n{failure}",
            bug.name(),
            expected(&bug),
        );
        // The trace must be concrete: non-empty, renderable, and pointing
        // into this crate's model sources.
        assert!(!failure.trace.is_empty(), "bug {} caught without a trace", bug.name());
        let rendered = failure.to_string();
        assert!(
            rendered.contains("schedule #"),
            "trace rendering missing schedule header for {}:\n{rendered}",
            bug.name()
        );
        assert!(
            failure.trace.iter().any(|ev| ev.loc.file().contains("models")),
            "trace for {} has no model-source provenance",
            bug.name()
        );
    }
}

#[test]
fn race_reports_carry_both_sites() {
    // The publication bug must name the annotated location and both
    // conflicting accesses with file:line provenance.
    let report = epoch::run(Some(epoch::Bug::RelaxedPublish), opts());
    let failure = report.failure.expect("RelaxedPublish must be caught");
    let FailureKind::Race(race) = &failure.kind else {
        panic!("expected a race, got: {failure}");
    };
    assert_eq!(race.what, "EpochCell.slot");
    assert_eq!(race.first.access, "write");
    assert_eq!(race.second.access, "read");
    assert!(race.first.loc.file().contains("epoch.rs"));
    assert!(race.second.loc.file().contains("epoch.rs"));
    assert_ne!(race.first.tid, race.second.tid);
}

#[test]
fn deadlock_reports_name_blocked_threads() {
    let report = batcher::run(Some(batcher::Bug::NotifyBeforePush), opts());
    let failure = report.failure.expect("NotifyBeforePush must be caught");
    let FailureKind::Deadlock(blocked) = &failure.kind else {
        panic!("expected a deadlock, got: {failure}");
    };
    assert!(
        blocked.iter().any(|line| line.contains("batch-worker")),
        "deadlock report must name the parked worker: {blocked:?}"
    );
}

#[test]
fn bugs_found_under_random_exploration_too() {
    // Random mode is the fallback for models too big to exhaust; it must
    // still catch an easy publication bug quickly.
    let o = ExploreOpts {
        max_schedules: 500,
        max_preemptions: 2,
        max_steps: 10_000,
        random_seed: Some(7),
    };
    let report = epoch::run(Some(epoch::Bug::RelaxedPublish), o);
    assert!(report.failure.is_some(), "random mode missed RelaxedPublish in 500 schedules");
}
