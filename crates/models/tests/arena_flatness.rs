//! The buffer arena must make steady-state inference allocation-free: after
//! a warm-up round inside an arena scope, repeated packed forwards recycle
//! every kernel buffer, so the arena's fresh-allocation counter stays
//! **flat** across 50 reuse rounds. A `GrowthMonitor` (gs-check's
//! leak detector) watches the cumulative counter; any upward drift means a
//! kernel started allocating outside the pool.
//!
//! The soaks run on the **serial schedule** (`with_threads(1)`), where
//! zero-alloc steady state is an exact contract. Under a multi-thread pool
//! the same buffers recycle, but two workers can race a bucket (one
//! requests while the other still holds), so an occasional fresh alloc —
//! bounded by the worker count — is legitimate there, and "flat" would be
//! timing-dependent rather than meaningful.

use gs_check::GrowthMonitor;
use gs_models::transformer::{ModelFamily, TokenClassifier, TransformerConfig};
use gs_tensor::arena;
use std::sync::Mutex;

/// The arena's counters are process-global, so the soak tests must not
/// overlap (cargo runs tests in one binary concurrently by default).
static SOAK: Mutex<()> = Mutex::new(());

fn bench_model() -> TokenClassifier {
    let config = TransformerConfig {
        name: "arena-bench".into(),
        family: ModelFamily::Roberta,
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        max_len: 48,
        dropout: 0.0,
        subword_budget: 100,
    };
    TokenClassifier::new(config, 120, 9, 17)
}

fn batch() -> Vec<Vec<usize>> {
    (0..6).map(|s| (0..24).map(|i| (s * 13 + i * 7) % 120).collect()).collect()
}

const WARMUP: usize = 3;
const ROUNDS: usize = 50;

/// Runs `forward` ROUNDS times after WARMUP rounds, on the serial
/// schedule, and asserts the arena's cumulative fresh-allocation count
/// never moves once warm.
fn assert_flat(label: &str, mut forward: impl FnMut()) {
    gs_par::with_threads(1, || {
        arena::clear();
        arena::reset_stats();
        for _ in 0..WARMUP {
            forward();
        }
        let warm = arena::stats();
        assert!(warm.recycled_allocs > 0, "{label}: arena never recycled during warm-up");

        let mut monitor = GrowthMonitor::new(2);
        for round in 0..ROUNDS {
            forward();
            let fresh = arena::stats().fresh_allocs as usize;
            if let Some(report) = monitor.observe(fresh) {
                panic!("{label}: arena allocations grew at round {round}: {report}");
            }
        }
        assert!(monitor.is_flat(), "{label}: fresh allocations moved across {ROUNDS} reuse rounds");
        assert_eq!(
            warm.fresh_allocs,
            arena::stats().fresh_allocs,
            "{label}: steady state allocated beyond warm-up"
        );
    });
}

#[test]
fn packed_forward_allocates_nothing_in_steady_state() {
    let _guard = SOAK.lock().unwrap_or_else(|e| e.into_inner());
    let model = bench_model();
    let seqs = batch();
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let baseline = model.predict_classes_batch(&refs);
    // Single persistent scope around the soak, mirroring the serve worker
    // loop (one scope alive for the process, one forward per request).
    arena::scope(|| {
        assert_flat("f32 packed forward", || {
            assert_eq!(model.predict_classes_batch(&refs), baseline);
        });
    });
    arena::clear();
}

#[test]
fn training_step_reuses_tape_buffers() {
    let _guard = SOAK.lock().unwrap_or_else(|e| e.into_inner());
    use gs_tensor::{Binder, Optimizer, Tape};

    let mut model = bench_model();
    let ids: Vec<usize> = (0..24).map(|i| (i * 11) % 120).collect();
    let targets: Vec<i64> = ids.iter().map(|&i| (i % 9) as i64).collect();
    let mut opt = Optimizer::adam(1e-3);
    let mut step = || {
        let tape = Tape::new();
        let mut binder = Binder::new(&tape);
        let logits = model.forward(&tape, &mut binder, &ids, None);
        let loss = tape.cross_entropy(logits, &targets);
        let mut grads = tape.backward(loss);
        binder.accumulate(&mut grads, model.store_mut());
        opt.step(model.store_mut());
    };
    arena::scope(|| {
        assert_flat("train step", &mut step);
    });
    arena::clear();
}
