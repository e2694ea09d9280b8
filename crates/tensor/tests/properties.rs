//! Property-based tests for the tensor algebra and autograd engine.
//!
//! Inputs come from the seeded [`Rng`], one stream per case; a failure
//! names the case and its input.

use gs_obs::Rng;
use gs_tensor::{Tape, TapeOps, Tensor};

/// Cases per property.
const CASES: u64 = 64;

/// A small matrix with bounded values (keeps float error manageable).
fn matrix(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        vec![rows, cols],
        (0..rows * cols).map(|_| rng.random_range(-2.0..2.0)).collect(),
    )
}

/// Matrix multiplication is associative: (AB)C == A(BC).
#[test]
fn matmul_is_associative() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, b, c) = (matrix(&mut rng, 3, 4), matrix(&mut rng, 4, 2), matrix(&mut rng, 2, 5));
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(
            left.approx_eq(&right, 1e-3),
            "case {case}: {a:?} {b:?} {c:?}: {left:?} vs {right:?}"
        );
    }
}

/// The transposed-operand product variants agree with explicit
/// transposition.
#[test]
fn matmul_variants_agree() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, b) = (matrix(&mut rng, 3, 4), matrix(&mut rng, 5, 4));
        let explicit = a.matmul(&b.transposed2());
        let fused = a.matmul_transb(&b);
        assert!(explicit.approx_eq(&fused, 1e-4), "case {case}: {a:?} {b:?}");

        let a_t = a.transposed2(); // [4,3]
        let explicit2 = a_t.transposed2().matmul(&b.transposed2());
        let fused2 = a_t.matmul_transa(&b.transposed2());
        assert!(explicit2.approx_eq(&fused2, 1e-4), "case {case}: {a:?} {b:?}");
    }
}

/// Softmax rows are probability distributions and preserve ordering.
#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let m = matrix(&mut Rng::seed_from_u64(case), 4, 6);
        let s = m.softmax_last_dim();
        for i in 0..4 {
            let row = s.row(i);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: {m:?}");
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}: {m:?}");
            // argmax is preserved
            let src = m.row(i);
            let arg_src = src.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(j, _)| j);
            let arg_out = row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(j, _)| j);
            assert_eq!(arg_src, arg_out, "case {case}: {m:?}");
        }
    }
}

/// Autograd linearity: grad of sum(a * x) w.r.t. x equals a.
#[test]
fn gradient_of_linear_form_is_the_coefficient() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, x) = (matrix(&mut rng, 3, 3), matrix(&mut rng, 3, 3));
        let input = format!("case {case}: a={a:?} x={x:?}");
        let tape = Tape::new();
        let xv = tape.leaf(x);
        let av = tape.constant(a.clone());
        let prod = tape.mul(av, xv);
        let loss = tape.sum_all(prod);
        let grads = tape.backward(loss);
        let gx = grads.get(xv).expect("grad");
        assert!(gx.approx_eq(&a, 1e-5), "{input}");
    }
}

/// Backward through matmul satisfies the shape contract and produces
/// finite gradients for bounded inputs.
#[test]
fn matmul_gradients_are_finite() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (a, b) = (matrix(&mut rng, 3, 4), matrix(&mut rng, 4, 2));
        let input = format!("case {case}: a={a:?} b={b:?}");
        let tape = Tape::new();
        let av = tape.leaf(a);
        let bv = tape.leaf(b);
        let y = tape.matmul(av, bv);
        let sq = tape.mul(y, y);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        let ga = grads.get(av).expect("grad a");
        let gb = grads.get(bv).expect("grad b");
        assert_eq!(ga.shape(), &[3, 4], "{input}");
        assert_eq!(gb.shape(), &[4, 2], "{input}");
        assert!(!ga.has_non_finite(), "{input}");
        assert!(!gb.has_non_finite(), "{input}");
    }
}

/// Layer norm output has (approximately) zero mean and unit variance
/// per row when gamma=1, beta=0.
#[test]
fn layer_norm_standardizes_rows() {
    for case in 0..CASES {
        let m = matrix(&mut Rng::seed_from_u64(case), 3, 8);
        // Degenerate (near-constant) rows normalize to ~0 variance by
        // design of the epsilon; skip them.
        let degenerate = (0..3).any(|i| {
            let row = m.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0 <= 1e-2
        });
        if degenerate {
            continue;
        }
        let input = format!("case {case}: {m:?}");
        let tape = Tape::new();
        let x = tape.leaf(m);
        let gamma = tape.constant(Tensor::full(&[8], 1.0));
        let beta = tape.constant(Tensor::zeros(&[8]));
        let y = tape.layer_norm(x, gamma, beta);
        let out = tape.value(y);
        for i in 0..3 {
            let row = out.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-3, "{input}: mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "{input}: var {var}");
        }
    }
}
