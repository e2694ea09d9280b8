//! Cache-blocked GEMM micro-kernels and the fast/exact activation toggles.
//!
//! All three matmul variants in [`Tensor`](crate::Tensor) funnel into one
//! panel kernel, [`gemm_panel`]: the left operand arrives as a contiguous
//! row panel `[rows, k]`, the right operand as a row-major `[k, n]` panel
//! (`matmul_transb` / `matmul_transa` transpose-pack into that layout
//! first), and the output accumulates in place. The kernel blocks over `k`
//! in [`KC`]-sized strips for L1/L2 reuse of the packed panel, walks rows
//! in [`MR`]-high micro-panels, and unrolls [`KU`] consecutive `k` steps so
//! the inner `j` loop is a straight chain of independent multiply-adds that
//! LLVM autovectorizes across the output row. The body uses unchecked
//! indexing (bounds established once per micro-panel).
//!
//! # Bit-identity contract
//!
//! Every output element receives its `k` products through a **single
//! accumulator chain in ascending `p` order** — the same order as the
//! pre-blocking reference kernels (kept as `*_reference` on `Tensor`).
//! Blocking only changes *which element* is worked on when, never the order
//! of adds *within* one element, and vectorization happens across `j`
//! (independent accumulators), so `Blocked` and `Reference` modes produce
//! bitwise-equal results at any thread count. One deliberate deviation: the
//! reference kernels skip `a == 0.0` products, the blocked kernels do not.
//! For finite operands this is bitwise unobservable — the accumulator can
//! never be `-0.0` (it starts at `+0.0`, `x + (-x)` rounds to `+0.0`, and
//! `±0.0` sums preserve `+0.0`), so adding `0.0 * b` is a no-op at the bit
//! level. Only a non-finite right operand opposite a zero left operand
//! could differ (`0.0 * inf = NaN`), which no supported model path
//! produces.

use std::sync::atomic::{AtomicU8, Ordering};

/// `k`-dimension block: one `[KC, n]` strip of the packed right panel plus
/// an `[MR, KC]` left micro-panel stay resident in L1/L2 while `MR` output
/// rows accumulate.
pub const KC: usize = 256;
/// Rows per micro-panel: four output rows share each loaded `b` row.
pub const MR: usize = 4;
/// Unrolled `k` steps per inner-loop iteration.
pub const KU: usize = 4;

/// Which matmul implementation [`Tensor`](crate::Tensor) dispatches to.
///
/// Both modes are bit-identical on finite data (pinned by
/// `tests/kernel_equivalence.rs`), so the mode may be flipped at runtime —
/// `kernelbench` uses this for honest before/after measurements on one
/// binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Cache-blocked panel kernels (default).
    Blocked,
    /// The pre-blocking loops, kept for equivalence tests and benchmarks.
    Reference,
}

/// 0 = uninitialised (consult `GS_KERNEL_MODE` on first use), 1 = blocked,
/// 2 = reference.
static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// The active [`KernelMode`].
#[inline]
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Blocked,
        2 => KernelMode::Reference,
        _ => {
            let mode = match std::env::var("GS_KERNEL_MODE").as_deref() {
                Ok("reference") => KernelMode::Reference,
                _ => KernelMode::Blocked,
            };
            set_kernel_mode(mode);
            mode
        }
    }
}

/// Select the matmul implementation (overrides `GS_KERNEL_MODE`).
pub fn set_kernel_mode(mode: KernelMode) {
    let v = match mode {
        KernelMode::Blocked => 1,
        KernelMode::Reference => 2,
    };
    KERNEL_MODE.store(v, Ordering::Relaxed);
}

/// 0 = uninitialised (consult `GS_EXACT_GELU`), 1 = fast, 2 = exact.
static GELU_MODE: AtomicU8 = AtomicU8::new(0);

/// Whether gelu uses the exact `libm` tanh instead of the fast rational
/// approximation. Unlike the kernel mode, the two gelu variants are **not**
/// bit-identical; see `DESIGN.md` for when each applies.
#[inline]
pub fn exact_gelu() -> bool {
    match GELU_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let exact = matches!(
                std::env::var("GS_EXACT_GELU").as_deref(),
                Ok("1") | Ok("true") | Ok("on")
            );
            set_exact_gelu(exact);
            exact
        }
    }
}

/// Select the exact (`true`) or fast (`false`) gelu implementation
/// (overrides `GS_EXACT_GELU`). The variants differ in low-order bits:
/// only flip this at a point where no bit-pinned comparison spans the
/// change (benchmarks, dedicated tests).
pub fn set_exact_gelu(exact: bool) {
    GELU_MODE.store(if exact { 2 } else { 1 }, Ordering::Relaxed);
}

/// `out[r, j] += sum_p a[r, p] * b[p, j]` for `r < rows`, `j < n`,
/// `p < k`, with `a` a contiguous `[rows, k]` row panel, `b` a row-major
/// `[k, n]` panel and `out` a `[rows, n]` row panel (pre-zeroed by the
/// caller, or holding partial sums).
///
/// Each `out` element's adds happen in ascending `p` order through a single
/// chain — see the module docs for why that pins bit-identity. On x86-64
/// hosts with AVX2 the same body runs compiled for AVX2 (see
/// [`gemm_build`]).
pub fn gemm_panel(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, the only feature the build enables.
        return unsafe { gemm_panel_avx2(a, b, out, rows, k, n) };
    }
    gemm_panel_portable(a, b, out, rows, k, n);
}

/// Which build of [`gemm_panel`] this host runs: `"avx2"` or `"portable"`.
pub fn gemm_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// [`gemm_panel`]'s body compiled for AVX2: 8-lane instead of 4-lane
/// vectors over `j`. FMA stays off, and Rust never contracts `a * b + c`
/// into one rounding, so every element keeps its two roundings per product
/// and its ascending-`p` chain: the results equal the portable build's
/// bit for bit.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panel_avx2(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    gemm_panel_portable(a, b, out, rows, k, n);
}

/// [`gemm_panel`]'s body for the baseline target; inlined into
/// [`gemm_panel_avx2`], where it compiles for AVX2.
#[inline(always)]
fn gemm_panel_portable(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    assert_eq!(a.len(), rows * k, "gemm_panel lhs panel size");
    assert_eq!(b.len(), k * n, "gemm_panel rhs panel size");
    assert_eq!(out.len(), rows * n, "gemm_panel out panel size");
    if n == 0 || k == 0 {
        return;
    }
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let mut i = 0;
        while i + MR <= rows {
            // SAFETY: i + MR <= rows and k0 + kc <= k bound every access.
            unsafe { micro_mr(a, b, out, i, k0, kc, k, n) };
            i += MR;
        }
        while i < rows {
            // SAFETY: i < rows and k0 + kc <= k bound every access.
            unsafe { micro_1(a, b, out, i, k0, kc, k, n) };
            i += 1;
        }
        k0 += kc;
    }
}

/// An `MR x KU`-register micro-kernel: rows `i..i+MR`, `k` strip
/// `k0..k0+kc`, vectorizing over the full output row `j in 0..n`.
///
/// # Safety
/// Requires `(i + MR) * k <= a.len()`, `(k0 + kc) * n <= b.len()` and
/// `(i + MR) * n <= out.len()`.
#[inline(always)]
unsafe fn micro_mr(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    k0: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let k_end = k0 + kc;
    let mut p = k0;
    while p + KU <= k_end {
        // MR x KU left-operand coefficients, loaded once per strip.
        let a0 = [
            *a.get_unchecked(i * k + p),
            *a.get_unchecked(i * k + p + 1),
            *a.get_unchecked(i * k + p + 2),
            *a.get_unchecked(i * k + p + 3),
        ];
        let a1 = [
            *a.get_unchecked((i + 1) * k + p),
            *a.get_unchecked((i + 1) * k + p + 1),
            *a.get_unchecked((i + 1) * k + p + 2),
            *a.get_unchecked((i + 1) * k + p + 3),
        ];
        let a2 = [
            *a.get_unchecked((i + 2) * k + p),
            *a.get_unchecked((i + 2) * k + p + 1),
            *a.get_unchecked((i + 2) * k + p + 2),
            *a.get_unchecked((i + 2) * k + p + 3),
        ];
        let a3 = [
            *a.get_unchecked((i + 3) * k + p),
            *a.get_unchecked((i + 3) * k + p + 1),
            *a.get_unchecked((i + 3) * k + p + 2),
            *a.get_unchecked((i + 3) * k + p + 3),
        ];
        let b0 = b.get_unchecked(p * n..p * n + n);
        let b1 = b.get_unchecked((p + 1) * n..(p + 1) * n + n);
        let b2 = b.get_unchecked((p + 2) * n..(p + 2) * n + n);
        let b3 = b.get_unchecked((p + 3) * n..(p + 3) * n + n);
        for j in 0..n {
            let bv0 = *b0.get_unchecked(j);
            let bv1 = *b1.get_unchecked(j);
            let bv2 = *b2.get_unchecked(j);
            let bv3 = *b3.get_unchecked(j);
            // Four independent accumulator chains (one per output row),
            // each adding its products in ascending p order.
            let mut o0 = *out.get_unchecked(i * n + j);
            o0 += a0[0] * bv0;
            o0 += a0[1] * bv1;
            o0 += a0[2] * bv2;
            o0 += a0[3] * bv3;
            *out.get_unchecked_mut(i * n + j) = o0;
            let mut o1 = *out.get_unchecked((i + 1) * n + j);
            o1 += a1[0] * bv0;
            o1 += a1[1] * bv1;
            o1 += a1[2] * bv2;
            o1 += a1[3] * bv3;
            *out.get_unchecked_mut((i + 1) * n + j) = o1;
            let mut o2 = *out.get_unchecked((i + 2) * n + j);
            o2 += a2[0] * bv0;
            o2 += a2[1] * bv1;
            o2 += a2[2] * bv2;
            o2 += a2[3] * bv3;
            *out.get_unchecked_mut((i + 2) * n + j) = o2;
            let mut o3 = *out.get_unchecked((i + 3) * n + j);
            o3 += a3[0] * bv0;
            o3 += a3[1] * bv1;
            o3 += a3[2] * bv2;
            o3 += a3[3] * bv3;
            *out.get_unchecked_mut((i + 3) * n + j) = o3;
        }
        p += KU;
    }
    while p < k_end {
        let av = [
            *a.get_unchecked(i * k + p),
            *a.get_unchecked((i + 1) * k + p),
            *a.get_unchecked((i + 2) * k + p),
            *a.get_unchecked((i + 3) * k + p),
        ];
        let brow = b.get_unchecked(p * n..p * n + n);
        for j in 0..n {
            let bv = *brow.get_unchecked(j);
            *out.get_unchecked_mut(i * n + j) += av[0] * bv;
            *out.get_unchecked_mut((i + 1) * n + j) += av[1] * bv;
            *out.get_unchecked_mut((i + 2) * n + j) += av[2] * bv;
            *out.get_unchecked_mut((i + 3) * n + j) += av[3] * bv;
        }
        p += 1;
    }
}

/// Single-row remainder kernel (rows beyond the last full `MR` panel).
///
/// # Safety
/// Requires `(i + 1) * k <= a.len()`, `(k0 + kc) * n <= b.len()` and
/// `(i + 1) * n <= out.len()`.
#[inline(always)]
unsafe fn micro_1(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    k0: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let k_end = k0 + kc;
    let mut p = k0;
    while p + KU <= k_end {
        let av = [
            *a.get_unchecked(i * k + p),
            *a.get_unchecked(i * k + p + 1),
            *a.get_unchecked(i * k + p + 2),
            *a.get_unchecked(i * k + p + 3),
        ];
        let b0 = b.get_unchecked(p * n..p * n + n);
        let b1 = b.get_unchecked((p + 1) * n..(p + 1) * n + n);
        let b2 = b.get_unchecked((p + 2) * n..(p + 2) * n + n);
        let b3 = b.get_unchecked((p + 3) * n..(p + 3) * n + n);
        for j in 0..n {
            let mut o = *out.get_unchecked(i * n + j);
            o += av[0] * *b0.get_unchecked(j);
            o += av[1] * *b1.get_unchecked(j);
            o += av[2] * *b2.get_unchecked(j);
            o += av[3] * *b3.get_unchecked(j);
            *out.get_unchecked_mut(i * n + j) = o;
        }
        p += KU;
    }
    while p < k_end {
        let av = *a.get_unchecked(i * k + p);
        let brow = b.get_unchecked(p * n..p * n + n);
        for j in 0..n {
            *out.get_unchecked_mut(i * n + j) += av * *brow.get_unchecked(j);
        }
        p += 1;
    }
}

/// Transpose-packs `src` (row-major `[r, c]`) into `dst` (row-major
/// `[c, r]`): `dst[j * r + i] = src[i * c + j]`. Used to bring the right
/// operand of `matmul_transb` / the left operand of `matmul_transa` into
/// the row-major-over-`k` layout [`gemm_panel`] wants. `dst` must hold
/// `r * c` elements.
pub(crate) fn pack_transpose(src: &[f32], dst: &mut [f32], r: usize, c: usize) {
    debug_assert_eq!(src.len(), r * c);
    debug_assert_eq!(dst.len(), r * c);
    for i in 0..r {
        let row = &src[i * c..(i + 1) * c];
        for (j, &v) in row.iter().enumerate() {
            // SAFETY: j < c and i < r, so j * r + i < c * r = dst.len().
            unsafe {
                *dst.get_unchecked_mut(j * r + i) = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn synth(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(seed | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 40) as f32 / 16_777_216.0) - 0.5
            })
            .collect()
    }

    #[test]
    fn gemm_panel_matches_naive_across_boundaries() {
        // Shapes straddling MR, KU and KC boundaries.
        for &(rows, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 3),
            (8, 255, 6),
            (2, 256, 5),
            (7, 257, 9),
            (4, 512, 2),
            (6, 300, 33),
        ] {
            let a = synth(rows * k, 3);
            let b = synth(k * n, 7);
            let mut out = vec![0.0f32; rows * n];
            gemm_panel(&a, &b, &mut out, rows, k, n);
            let want = naive(&a, &b, rows, k, n);
            assert_eq!(out, want, "rows={rows} k={k} n={n}");
        }
    }

    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// Every `gemm_panel` build this host can run, by name: the portable
    /// body runs on every host, so it stays pinned where the dispatch
    /// picks AVX2.
    fn builds() -> Vec<(&'static str, Gemm)> {
        let mut builds: Vec<(&'static str, Gemm)> =
            vec![("portable", |a, b, out, rows, k, n| gemm_panel_portable(a, b, out, rows, k, n))];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2.
            builds.push(("avx2", |a, b, out, rows, k, n| unsafe {
                gemm_panel_avx2(a, b, out, rows, k, n)
            }));
        }
        builds.push(("dispatched", gemm_panel));
        builds
    }

    /// Each build against the reference kernels on `Tensor` (the `ikj`
    /// matmul and the dot-product `matmul_transb`), on seeded shapes that
    /// cross the `MR`, `KU` and `KC` boundaries and on panels holding
    /// partial sums.
    #[test]
    fn every_build_matches_the_reference_kernels() {
        use crate::Tensor;
        let mut rng = gs_obs::Rng::seed_from_u64(31);
        for case in 0..60u64 {
            let rows = rng.random_range(1..12usize);
            let k = rng.random_range(1..600usize);
            let n = rng.random_range(1..80usize);
            let a = Tensor::from_vec(vec![rows, k], synth(rows * k, 2 * case + 1));
            let b = Tensor::from_vec(vec![k, n], synth(k * n, 2 * case + 2));
            let want = a.matmul_reference(&b);
            let bt = Tensor::from_vec(vec![n, k], {
                let mut t = vec![0.0; k * n];
                pack_transpose(b.data(), &mut t, k, n);
                t
            });
            assert_eq!(a.matmul_transb_reference(&bt).data(), want.data());
            let partial = synth(rows * n, 1000 + case);
            for (name, gemm) in builds() {
                let mut out = vec![0.0f32; rows * n];
                gemm(a.data(), b.data(), &mut out, rows, k, n);
                assert_eq!(out, want.data(), "{name} rows={rows} k={k} n={n}");
                // Accumulating onto partial sums: each element's chain starts
                // from its old value.
                let mut acc = partial.clone();
                gemm(a.data(), b.data(), &mut acc, rows, k, n);
                let mut expect = partial.clone();
                for i in 0..rows {
                    for j in 0..n {
                        for p in 0..k {
                            expect[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                        }
                    }
                }
                assert_eq!(acc, expect, "{name} accumulate rows={rows} k={k} n={n}");
            }
        }
    }

    #[test]
    fn pack_transpose_round_trips() {
        let src = synth(6 * 4, 11);
        let mut t = vec![0.0f32; 24];
        let mut back = vec![0.0f32; 24];
        pack_transpose(&src, &mut t, 6, 4);
        pack_transpose(&t, &mut back, 4, 6);
        assert_eq!(src, back);
        // dst[j * r + i] = src[i * c + j] with (i, j) = (2, 0)
        assert_eq!(t[2], src[8]);
    }

    #[test]
    fn mode_switches_round_trip() {
        let before = kernel_mode();
        set_kernel_mode(KernelMode::Reference);
        assert_eq!(kernel_mode(), KernelMode::Reference);
        set_kernel_mode(KernelMode::Blocked);
        assert_eq!(kernel_mode(), KernelMode::Blocked);
        set_kernel_mode(before);

        let exact_before = exact_gelu();
        set_exact_gelu(true);
        assert!(exact_gelu());
        set_exact_gelu(false);
        assert!(!exact_gelu());
        set_exact_gelu(exact_before);
    }
}
