//! Model-checker and instrumentation benchmark for `gs-race`.
//!
//! Three sections:
//!
//! 1. **Instrumentation overhead** (any build): an identical pool-style
//!    claim-loop stress — threads racing a shared claim counter, storing
//!    per-slot results, and updating a mutexed aggregate — written twice,
//!    once over `gs_race::sync` wrappers and once over raw `std::sync`
//!    primitives. In the default build the wrappers are `#[repr(transparent)]`
//!    `#[inline(always)]` passthroughs, so the factor must stay within the
//!    ≤1.05x product gate (`--check` turns the gate into a hard exit code).
//! 2. **Interleavings/sec** (`--features race-model` only): exhaustive DFS
//!    exploration speed over the clean epoch/pool/batcher/arena models.
//! 3. **Mutation catch rate** (`--features race-model` only): the fraction
//!    of the ≥10 seeded concurrency bugs the checker catches.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin racebench -- [--smoke] [--check]
//!       [--trials N] [--claims N] [--threads N] [--out PATH] [--merge-from PATH]
//!
//! Writes `results/BENCH_race.json` through `gs_bench::report`. The
//! canonical file combines both builds: run the `race-model` build first,
//! then the default build with `--merge-from` pointing at the first run's
//! output — the passthrough overhead numbers (the ones the 1.05x gate is
//! about) replace the gated ones while the exploration/mutation sections
//! are carried over.

use gs_bench::report::{self, Samples};
use gs_bench::Args;
use gs_serve::Json;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Section 1: pool-stress overhead, wrapped vs raw.
// ---------------------------------------------------------------------------

/// Raw-std shim with the same call surface as `gs_race::sync`, so the two
/// stress bodies below are generated from one macro and differ only in the
/// primitive types they touch.
mod rawsync {
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// `std::sync::Mutex` with the wrapper's poison-recovering `lock()`.
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
    }
}

/// The claim-loop stress gs-par's fork-join scopes run in their hot path:
/// every iteration is one `fetch_add` claim plus one result store, with a
/// mutexed aggregate update every 1024 claims. Returns a checksum so the
/// optimizer cannot elide the work.
macro_rules! stress_impl {
    ($name:ident, $sync:ident) => {
        fn $name(threads: usize, total: usize) -> u64 {
            use $sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
            let next = AtomicUsize::new(0);
            let slots: Vec<AtomicU64> = (0..1024).map(|_| AtomicU64::new(0)).collect();
            let aggregate = Mutex::new(0u64);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        slots[i % slots.len()].store(i as u64, Ordering::Relaxed);
                        if i.is_multiple_of(1024) {
                            *aggregate.lock() += 1;
                        }
                    });
                }
            });
            let sum: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
            let agg = *aggregate.lock();
            sum.wrapping_add(agg)
        }
    };
}

mod gssync {
    pub use gs_race::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
}

stress_impl!(stress_wrapped, gssync);
stress_impl!(stress_raw, rawsync);

fn time_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn overhead_section(trials: usize, total: usize, threads: usize) -> (Json, f64) {
    // Warm both paths (thread spawn, allocator, wrapper gate).
    std::hint::black_box(stress_wrapped(threads, total / 4));
    std::hint::black_box(stress_raw(threads, total / 4));
    // Interleave the paths in wrapped/raw pairs and gate on the median of
    // per-pair ratios: clock drift and background load then land on both
    // sides of each ratio, instead of biasing whichever block ran second.
    let mut wrapped = Vec::with_capacity(trials);
    let mut raw = Vec::with_capacity(trials);
    let mut ratios = Vec::with_capacity(trials);
    for _ in 0..trials {
        let w = time_ms(|| {
            std::hint::black_box(stress_wrapped(threads, total));
        });
        let r = time_ms(|| {
            std::hint::black_box(stress_raw(threads, total));
        });
        ratios.push(w / r.max(1e-9));
        wrapped.push(w);
        raw.push(r);
    }
    let (wrapped, raw) = (Samples::new(wrapped), Samples::new(raw));
    let factor = Samples::new(ratios).median();
    println!(
        "pool stress ({threads} threads, {total} claims): wrapped {:.2} ms, \
         raw {:.2} ms, overhead {factor:.3}x",
        wrapped.median(),
        raw.median()
    );
    let json = Json::obj(vec![
        ("threads", Json::from(threads as u64)),
        ("claims", Json::from(total as u64)),
        ("wrapped_ms", wrapped.to_json()),
        ("raw_ms", raw.to_json()),
        ("overhead_factor", Json::from(factor)),
        ("instrumentation_compiled", Json::from(cfg!(feature = "race-model"))),
    ]);
    (json, factor)
}

// ---------------------------------------------------------------------------
// Sections 2 + 3: model exploration throughput and mutation catch rate.
// ---------------------------------------------------------------------------

#[cfg(feature = "race-model")]
fn model_sections(smoke: bool) -> (Json, Json) {
    use gs_race::model::ExploreOpts;
    use gs_race::models::AnyBug;

    let opts = ExploreOpts {
        max_schedules: if smoke { 2_000 } else { 100_000 },
        max_preemptions: 2,
        max_steps: 10_000,
        random_seed: None,
    };

    // Exploration throughput over the clean models (zero findings).
    let mut rows = Vec::new();
    let (mut schedules, mut steps, mut seconds) = (0u64, 0u64, 0f64);
    let clean_runs: Vec<(&str, gs_race::model::Report)> = vec![
        ("epoch", gs_race::models::epoch::run(None, opts.clone())),
        ("pool", gs_race::models::pool::run(None, opts.clone())),
        ("batcher", gs_race::models::batcher::run(None, opts.clone())),
        ("arena", gs_race::models::arena::run(None, opts.clone())),
    ];
    for (name, report) in clean_runs {
        assert!(report.failure.is_none(), "clean model {name} produced a finding");
        schedules += report.schedules as u64;
        steps += report.steps as u64;
        rows.push(Json::obj(vec![
            ("model", Json::from(name)),
            ("schedules", Json::from(report.schedules as u64)),
            ("steps", Json::from(report.steps as u64)),
            ("exhaustive", Json::from(report.exhaustive)),
        ]));
    }
    let start = Instant::now();
    let again = gs_race::models::epoch::run(None, opts.clone());
    seconds += start.elapsed().as_secs_f64();
    let per_sec = again.schedules as f64 / seconds.max(1e-9);
    println!(
        "exploration: {schedules} schedules / {steps} steps over 4 clean models; \
         ~{per_sec:.0} interleavings/sec (epoch re-run)"
    );
    let explore = Json::obj(vec![
        ("clean_models", Json::Arr(rows)),
        ("total_schedules", Json::from(schedules)),
        ("total_steps", Json::from(steps)),
        ("interleavings_per_sec", Json::from(per_sec)),
    ]);

    // Mutation catch rate over every seeded bug.
    let bugs = AnyBug::all();
    let mut caught = 0usize;
    let mut rows = Vec::new();
    for bug in &bugs {
        let report = bug.run(opts.clone());
        let hit = report.failure.is_some();
        caught += usize::from(hit);
        rows.push(Json::obj(vec![
            ("bug", Json::from(bug.name())),
            ("caught", Json::from(hit)),
            ("schedules", Json::from(report.schedules as u64)),
        ]));
    }
    let rate = caught as f64 / bugs.len() as f64;
    println!("mutation catch rate: {caught}/{} ({rate:.2})", bugs.len());
    let mutation = Json::obj(vec![
        ("seeded_bugs", Json::from(bugs.len() as u64)),
        ("caught", Json::from(caught as u64)),
        ("catch_rate", Json::from(rate)),
        ("bugs", Json::Arr(rows)),
    ]);
    (explore, mutation)
}

#[cfg(not(feature = "race-model"))]
fn model_sections(_smoke: bool) -> (Json, Json) {
    let note = "compiled without --features race-model; run the race CI job for these numbers";
    println!("model sections skipped: {note}");
    let skipped = Json::obj(vec![("skipped", Json::from(true)), ("note", Json::from(note))]);
    (skipped.clone(), skipped)
}

fn main() {
    let args = Args::from_env_checked(
        "racebench",
        &["smoke", "check", "trials", "claims", "threads", "out", "merge-from"],
    );
    gs_bench::obs::init(&args);
    let smoke = args.has("smoke");
    let trials: usize = args.get_or("trials", if smoke { 3 } else { 5 });
    let total: usize = args.get_or("claims", if smoke { 200_000 } else { 2_000_000 });
    let threads: usize = args.get_or("threads", 4);
    let out = args.get("out").unwrap_or("results/BENCH_race.json").to_string();

    let (overhead, factor) = overhead_section(trials, total, threads);
    let (mut explore, mut mutation) = model_sections(smoke);

    // A passthrough build cannot run the model sections itself; carry them
    // over from a prior `race-model` run when asked to.
    if !cfg!(feature = "race-model") {
        if let Some(path) = args.get("merge-from") {
            let prior = std::fs::read_to_string(path).expect("read --merge-from file");
            let prior = gs_serve::json::parse(&prior).expect("parse --merge-from file");
            for (section, slot) in [("exploration", &mut explore), ("mutation", &mut mutation)] {
                match prior.get(section) {
                    Some(v) if v.get("skipped").is_none() => *slot = v.clone(),
                    _ => println!("--merge-from: no usable `{section}` section in {path}"),
                }
            }
        }
    }

    let sections = vec![("overhead", overhead), ("exploration", explore), ("mutation", mutation)];
    report::write(&out, "racebench", smoke, sections).expect("write report");
    println!("wrote {out}");

    // The product gate: the disabled instrumentation path must be free.
    // Only enforced for the passthrough build — with the model feature
    // compiled in, every op legitimately pays the runtime gate check.
    if args.has("check") && !cfg!(feature = "race-model") && factor > 1.05 {
        eprintln!("FAIL: passthrough overhead {factor:.3}x exceeds the 1.05x gate");
        std::process::exit(1);
    }
}
