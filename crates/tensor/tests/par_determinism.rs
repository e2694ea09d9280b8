//! Bit-identity of every parallelized kernel: running under a 4-thread
//! pool must produce byte-for-byte the same results as the serial path,
//! forward and backward. Shapes are chosen to straddle the dispatch
//! cutoffs so both the parallel and serial branches are exercised.

use gs_tensor::{Tape, TapeOps, Tensor};

/// Deterministic, generator-free pseudo-random fill (xorshift-ish on the
/// index) so the same data feeds both pool sizes.
fn fill(n: usize, salt: u32) -> Vec<f32> {
    (0..n as u32)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9e37_79b9).wrapping_add(salt);
            x ^= x >> 16;
            x = x.wrapping_mul(0x85eb_ca6b);
            x ^= x >> 13;
            (x % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn tensor(rows: usize, cols: usize, salt: u32) -> Tensor {
    Tensor::from_vec(vec![rows, cols], fill(rows * cols, salt))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` at 1 and 4 threads and asserts bitwise-equal tensor output.
fn assert_par_identical(label: &str, f: impl Fn() -> Tensor) {
    let serial = gs_par::with_threads(1, &f);
    let parallel = gs_par::with_threads(4, &f);
    assert_eq!(serial.shape(), parallel.shape(), "{label}: shape diverged");
    assert_eq!(bits(&serial), bits(&parallel), "{label}: bits diverged");
}

// Shapes above and below the matmul flops cutoff (64 * 1024 multiply-adds)
// and the elementwise cutoff (16 * 1024 elements).
const BIG: usize = 96; // 96^3 and 96*96*... comfortably above both cutoffs
const SMALL: usize = 8; // far below every cutoff

#[test]
fn matmul_is_pool_size_invariant() {
    for &(m, k, n) in &[(BIG, BIG, BIG), (SMALL, SMALL, SMALL), (BIG, 3, BIG), (2, BIG, BIG)] {
        let a = tensor(m, k, 1);
        let b = tensor(k, n, 2);
        assert_par_identical(&format!("matmul {m}x{k}x{n}"), || a.matmul(&b));
    }
}

#[test]
fn matmul_transb_is_pool_size_invariant() {
    for &(m, k, n) in &[(BIG, BIG, BIG), (SMALL, SMALL, SMALL), (BIG, 5, 7)] {
        let a = tensor(m, k, 3);
        let b = tensor(n, k, 4);
        assert_par_identical(&format!("matmul_transb {m}x{k}x{n}"), || a.matmul_transb(&b));
    }
}

#[test]
fn matmul_transa_is_pool_size_invariant() {
    for &(k, m, n) in &[(BIG, BIG, BIG), (SMALL, SMALL, SMALL), (7, BIG, BIG)] {
        let a = tensor(k, m, 5);
        let b = tensor(k, n, 6);
        assert_par_identical(&format!("matmul_transa {k}x{m}x{n}"), || a.matmul_transa(&b));
    }
}

#[test]
fn elementwise_maps_are_pool_size_invariant() {
    for &(r, c) in &[(256, 96), (SMALL, SMALL)] {
        let a = tensor(r, c, 7);
        let b = tensor(r, c, 8);
        assert_par_identical(&format!("map {r}x{c}"), || a.map(|x| x * 1.5 - 0.25));
        assert_par_identical(&format!("zip_map {r}x{c}"), || a.zip_map(&b, |x, y| x * y + x));
    }
}

#[test]
fn softmax_is_pool_size_invariant() {
    for &(r, c) in &[(256, 96), (SMALL, SMALL)] {
        let a = tensor(r, c, 9);
        assert_par_identical(&format!("softmax {r}x{c}"), || a.softmax_last_dim());
    }
}

/// Forward + every gradient of a taped layer-norm → softmax → cross-entropy
/// stack, the exact row-parallel tape kernels used by the transformer.
fn taped_stack(rows: usize, d: usize) -> Vec<Tensor> {
    let tape = Tape::new();
    let x = tape.leaf(tensor(rows, d, 10));
    let gamma = tape.leaf(Tensor::from_vec(vec![d], fill(d, 11)));
    let beta = tape.leaf(Tensor::from_vec(vec![d], fill(d, 12)));
    let normed = tape.layer_norm(x, gamma, beta);
    let soft = tape.softmax_last_dim(normed);
    let targets: Vec<i64> =
        (0..rows).map(|r| if r % 5 == 0 { -1 } else { (r % d) as i64 }).collect();
    let loss = tape.cross_entropy(soft, &targets);
    let mut grads = tape.backward(loss);
    let mut out = vec![(*tape.value(loss)).clone(), (*tape.value(soft)).clone()];
    for var in [x, gamma, beta] {
        out.push(grads.take(var).expect("gradient reached leaf"));
    }
    out
}

#[test]
fn taped_forward_and_gradients_are_pool_size_invariant() {
    for &(rows, d) in &[(192, 96), (SMALL, SMALL)] {
        let serial = gs_par::with_threads(1, || taped_stack(rows, d));
        let parallel = gs_par::with_threads(4, || taped_stack(rows, d));
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(bits(s), bits(p), "stack output {i} diverged at {rows}x{d}");
        }
    }
}

#[test]
fn thread_count_two_and_eight_agree_with_serial() {
    let a = tensor(BIG, BIG, 13);
    let b = tensor(BIG, BIG, 14);
    let reference = gs_par::with_threads(1, || a.matmul(&b));
    for threads in [2, 8] {
        let t = gs_par::with_threads(threads, || a.matmul(&b));
        assert_eq!(bits(&reference), bits(&t), "{threads} threads diverged");
    }
}
