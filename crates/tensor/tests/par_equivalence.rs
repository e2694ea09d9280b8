//! Property tests pinning parallel == serial bit-identically for every
//! parallelized kernel, over random shapes straddling the dispatch
//! cutoffs and random data. Complements `par_determinism.rs` (fixed
//! shapes) with randomized coverage.
//!
//! Inputs come from the seeded [`Rng`], one stream per case; a failure
//! names the case and its input.

use gs_obs::Rng;
use gs_tensor::{Tape, TapeOps, Tensor};

/// Cases per property.
const CASES: u64 = 24;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Values on a 1/64 grid in [-4, 4), exactly representable.
fn finite_f32(rng: &mut Rng) -> f32 {
    (rng.random_range(-4.0f32..4.0) * 64.0).round() / 64.0
}

fn tensor(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(vec![rows, cols], (0..rows * cols).map(|_| finite_f32(rng)).collect())
}

/// One of several ranges, chosen uniformly, then a value inside it.
fn one_of(rng: &mut Rng, ranges: &[std::ops::RangeInclusive<usize>]) -> usize {
    let range = rng.choose(ranges).expect("non-empty").clone();
    rng.random_range(range)
}

/// Dimensions that land on both sides of the matmul flops cutoff
/// (64 * 1024 multiply-adds) and the elementwise cutoff (16 * 1024).
fn dim(rng: &mut Rng) -> usize {
    one_of(rng, &[1..=5, 30..=33, 90..=99])
}

/// Contracted (`k`) dimensions straddling the cache-blocking tile edges:
/// the `MR`/`KU` micro-kernel sizes and the `KC` k-strip, each ±1, so a
/// panel remainder, a full panel, and a strip spill are all exercised.
fn blocked_k(rng: &mut Rng) -> usize {
    use gs_tensor::kernels::{KC, KU, MR};
    one_of(
        rng,
        &[
            (MR - 1)..=(MR + 1),
            (KU - 1)..=(KU + 1),
            (KC - 1)..=(KC + 1),
            (2 * KC - 1)..=(2 * KC + 1),
        ],
    )
}

/// Deterministic hashed fill on a 1/256 grid, salted per operand.
fn hashed(len: usize, seed: u64, salt: u64, mul: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((seed.wrapping_add(i as u64 + salt).wrapping_mul(mul) >> 40) as i32 % 512) as f32
                / 256.0
        })
        .collect()
}

const MUL_A: u64 = 0x2545F4914F6CDD1D;
const MUL_B: u64 = 0x9E3779B97F4A7C15;

#[test]
fn matmul_parallel_matches_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (m, k, n) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
        let seed = rng.next_u64();
        let a = Tensor::from_vec(vec![m, k], hashed(m * k, seed, 0, MUL_A));
        let b = Tensor::from_vec(vec![k, n], hashed(k * n, seed, 7, MUL_B));
        let serial = gs_par::with_threads(1, || a.matmul(&b));
        let parallel = gs_par::with_threads(4, || a.matmul(&b));
        assert_eq!(bits(&serial), bits(&parallel), "case {case}: m={m} k={k} n={n} seed={seed}");
    }
}

#[test]
fn matmul_blocked_boundaries_parallel_match_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (m, k, n) = (rng.random_range(1..10), blocked_k(&mut rng), rng.random_range(1..10));
        let seed = rng.next_u64();
        let input = format!("case {case}: m={m} k={k} n={n} seed={seed}");
        let a = Tensor::from_vec(vec![m, k], hashed(m * k, seed, 0, MUL_A));
        let b = Tensor::from_vec(vec![k, n], hashed(k * n, seed, 3, MUL_B));
        let serial = gs_par::with_threads(1, || a.matmul(&b));
        let parallel = gs_par::with_threads(4, || a.matmul(&b));
        assert_eq!(bits(&serial), bits(&parallel), "{input}");
        // The blocked kernel must also agree with the naive reference
        // bitwise at every tile edge.
        assert_eq!(bits(&serial), bits(&a.matmul_reference(&b)), "{input}");
    }
}

#[test]
fn matmul_transb_parallel_matches_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, b) = (tensor(&mut rng, 70, 80), tensor(&mut rng, 90, 80));
        let serial = gs_par::with_threads(1, || a.matmul_transb(&b));
        let parallel = gs_par::with_threads(4, || a.matmul_transb(&b));
        assert_eq!(bits(&serial), bits(&parallel), "case {case}: a={a:?} b={b:?}");
    }
}

#[test]
fn matmul_transb_blocked_boundaries_parallel_match_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (m, k, n) = (rng.random_range(1..8), blocked_k(&mut rng), rng.random_range(1..8));
        let salt = rng.next_u64();
        let input = format!("case {case}: m={m} k={k} n={n} salt={salt}");
        let a = Tensor::from_vec(vec![m, k], hashed(m * k, salt, 0, MUL_A));
        let b = Tensor::from_vec(vec![n, k], hashed(n * k, salt, 11, MUL_B));
        let serial = gs_par::with_threads(1, || a.matmul_transb(&b));
        let parallel = gs_par::with_threads(4, || a.matmul_transb(&b));
        assert_eq!(bits(&serial), bits(&parallel), "{input}");
        assert_eq!(bits(&serial), bits(&a.matmul_transb_reference(&b)), "{input}");
    }
}

#[test]
fn matmul_transa_parallel_matches_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, b) = (tensor(&mut rng, 80, 70), tensor(&mut rng, 80, 90));
        let serial = gs_par::with_threads(1, || a.matmul_transa(&b));
        let parallel = gs_par::with_threads(4, || a.matmul_transa(&b));
        assert_eq!(bits(&serial), bits(&parallel), "case {case}: a={a:?} b={b:?}");
    }
}

#[test]
fn matmul_transa_blocked_boundaries_parallel_match_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (m, k, n) = (rng.random_range(1..8), blocked_k(&mut rng), rng.random_range(1..8));
        let salt = rng.next_u64();
        let input = format!("case {case}: m={m} k={k} n={n} salt={salt}");
        // transa contracts over rows: a is [k, m], b is [k, n].
        let a = Tensor::from_vec(vec![k, m], hashed(k * m, salt, 0, MUL_A));
        let b = Tensor::from_vec(vec![k, n], hashed(k * n, salt, 17, MUL_B));
        let serial = gs_par::with_threads(1, || a.matmul_transa(&b));
        let parallel = gs_par::with_threads(4, || a.matmul_transa(&b));
        assert_eq!(bits(&serial), bits(&parallel), "{input}");
        assert_eq!(bits(&serial), bits(&a.matmul_transa_reference(&b)), "{input}");
    }
}

#[test]
fn elementwise_parallel_matches_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let rows = one_of(&mut rng, &[2..=3, 200..=259]);
        let a: Vec<f32> = (0..96).map(|_| finite_f32(&mut rng)).collect();
        let input = format!("case {case}: rows={rows} a={a:?}");
        let data: Vec<f32> = (0..rows * 96).map(|i| a[i % a.len()] + i as f32 * 1e-4).collect();
        let x = Tensor::from_vec(vec![rows, 96], data.clone());
        let y = Tensor::from_vec(vec![rows, 96], data.iter().rev().copied().collect());
        let serial_map = gs_par::with_threads(1, || x.map(|v| v * 0.5 + 1.0));
        let parallel_map = gs_par::with_threads(4, || x.map(|v| v * 0.5 + 1.0));
        assert_eq!(bits(&serial_map), bits(&parallel_map), "{input}");
        let serial_zip = gs_par::with_threads(1, || x.zip_map(&y, |p, q| p * q - p));
        let parallel_zip = gs_par::with_threads(4, || x.zip_map(&y, |p, q| p * q - p));
        assert_eq!(bits(&serial_zip), bits(&parallel_zip), "{input}");
        let serial_soft = gs_par::with_threads(1, || x.softmax_last_dim());
        let parallel_soft = gs_par::with_threads(4, || x.softmax_last_dim());
        assert_eq!(bits(&serial_soft), bits(&parallel_soft), "{input}");
    }
}

#[test]
fn taped_gradients_parallel_match_serial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let rows = one_of(&mut rng, &[2..=4, 180..=199]);
        let x: Vec<f32> = (0..96).map(|_| finite_f32(&mut rng)).collect();
        let target_salt: usize = rng.random_range(0..96);
        let d = 96;
        let run = || {
            let tape = Tape::new();
            let data: Vec<f32> = (0..rows * d).map(|i| x[i % x.len()] * 0.5).collect();
            let vx = tape.leaf(Tensor::from_vec(vec![rows, d], data));
            let gamma = tape
                .leaf(Tensor::from_vec(vec![d], (0..d).map(|j| 1.0 + j as f32 * 1e-3).collect()));
            let beta =
                tape.leaf(Tensor::from_vec(vec![d], (0..d).map(|j| j as f32 * 1e-3).collect()));
            let normed = tape.layer_norm(vx, gamma, beta);
            let soft = tape.softmax_last_dim(normed);
            let targets: Vec<i64> = (0..rows)
                .map(|r| if r % 4 == 0 { -1 } else { ((r + target_salt) % d) as i64 })
                .collect();
            let loss = tape.cross_entropy(soft, &targets);
            let mut grads = tape.backward(loss);
            let mut out = vec![(*tape.value(loss)).clone()];
            for var in [vx, gamma, beta] {
                out.push(grads.take(var).expect("gradient"));
            }
            out
        };
        let serial = gs_par::with_threads(1, run);
        let parallel = gs_par::with_threads(4, run);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(bits(s), bits(p), "case {case}: rows={rows} salt={target_salt} x={x:?}");
        }
    }
}
