//! Pool-reuse soak: repeatedly building, running, and dropping tapes on
//! top of a persistent gs-par pool must not grow the tape or the pool's
//! pending-work queue. The [`GrowthMonitor`] flatness contract is the
//! assertion surface: the workload replays one identical step, so any
//! drift in node count means state leaked across steps.

use gs_check::GrowthMonitor;
use gs_tensor::{Tape, TapeOps, Tensor};

/// One forward/backward large enough to cross every parallel cutoff
/// (matmul flops, elementwise volume, row-kernel volume); returns the
/// tape's final node count.
fn one_step() -> usize {
    let dim = 64;
    let a = Tensor::from_vec(
        vec![dim, dim],
        (0..dim * dim).map(|i| ((i % 13) as f32 - 6.0) * 0.05).collect(),
    );
    let b = Tensor::from_vec(
        vec![dim, dim],
        (0..dim * dim).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
    );
    let gamma = Tensor::full(&[dim], 1.0);
    let beta = Tensor::zeros(&[dim]);

    let tape = Tape::new();
    let va = tape.leaf(a);
    let vb = tape.leaf(b);
    let prod = tape.matmul(va, vb);
    let vg = tape.leaf(gamma);
    let vbeta = tape.leaf(beta);
    let normed = tape.layer_norm(prod, vg, vbeta);
    let soft = tape.softmax_last_dim(normed);
    let act = tape.gelu(soft);
    let loss = tape.mean_all(act);
    let grads = tape.backward(loss);
    assert!(grads.get(va).is_some(), "matmul input never received a gradient");
    tape.len()
}

#[test]
fn tape_stays_flat_across_pool_reuse() {
    let _scope = gs_par::ParScope::new(4);
    let before = gs_par::stats();
    let mut monitor = GrowthMonitor::new(8);
    for round in 0..50 {
        let nodes = one_step();
        assert_eq!(monitor.observe(nodes), None, "growth report on round {round}");
    }
    assert!(monitor.is_flat(), "identical steps produced varying tape sizes");
    assert_eq!(monitor.observations(), 50);
    assert!(monitor.peak() > 0);
    let after = gs_par::stats();
    assert!(after.dispatches > before.dispatches, "pool never engaged: {before:?} -> {after:?}");
}

#[test]
fn tape_size_is_pool_size_invariant() {
    // The tape records the same graph no matter how many workers execute
    // the kernels; a divergence would mean parallel dispatch changed what
    // was recorded, not just how it was computed.
    let sizes: Vec<usize> =
        [1usize, 2, 4].iter().map(|&threads| gs_par::with_threads(threads, one_step)).collect();
    assert_eq!(sizes[0], sizes[1]);
    assert_eq!(sizes[1], sizes[2]);
}

#[test]
fn pool_queue_stays_bounded_across_reuse() {
    let _scope = gs_par::ParScope::new(4);
    for _ in 0..20 {
        let _ = one_step();
    }
    let stats = gs_par::stats();
    // Each dispatch enqueues at most (threads - 1) helper jobs; reuse must
    // not let completed jobs pile up in the queue.
    assert!(stats.peak_queue <= 64, "queue peaked at {}", stats.peak_queue);
}
