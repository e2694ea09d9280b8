//! Analytic per-kernel work estimates for the op profiler.
//!
//! Each function maps an op's shape to a [`Cost`] — floating-point
//! operations and bytes moved — feeding the roofline columns of
//! `gs_obs::prof`. The estimates follow the usual conventions (a matmul is
//! `2·m·k·n` flops; elementwise kernels read their operands once and write
//! the result once); they rank kernels and locate them on a roofline, they
//! are not cycle-exact.

use gs_obs::prof::Cost;

/// Bytes per element (`f32`).
const ELEM: u64 = 4;

/// `[m,k] x [k,n]` (also `[m,k] x [n,k]^T`): `2mkn` flops, one read of each
/// operand and one write of the output.
pub fn matmul(m: usize, k: usize, n: usize) -> Cost {
    let (m, k, n) = (m as u64, k as u64, n as u64);
    Cost::new(2 * m * k * n, ELEM * (m * k + k * n + m * n))
}

/// Backward of a matmul-family op: two products of the same magnitude.
pub fn matmul_bwd(m: usize, k: usize, n: usize) -> Cost {
    let fwd = matmul(m, k, n);
    Cost::new(2 * fwd.flops, 2 * fwd.bytes)
}

/// Unary elementwise kernel over `len` elements at `flops_per_elt` each.
pub fn map(len: usize, flops_per_elt: u64) -> Cost {
    Cost::new(len as u64 * flops_per_elt, 2 * ELEM * len as u64)
}

/// Binary elementwise kernel over `len` elements at `flops_per_elt` each.
pub fn zip(len: usize, flops_per_elt: u64) -> Cost {
    Cost::new(len as u64 * flops_per_elt, 3 * ELEM * len as u64)
}

/// Pure data movement of `len` elements (gather, concat, slice).
pub fn copy(len: usize) -> Cost {
    Cost::new(0, 2 * ELEM * len as u64)
}

/// Forward gelu over `len` elements, mode-aware: the fast rational-tanh
/// kernel is ~27 mul/add/div per element of straight-line arithmetic; the
/// exact libm path is billed at the historical 10 (counting `tanh` as one
/// flop, which is why its measured GFLOP/s column ran so low). Both read
/// the input and write the output once.
pub fn gelu(len: usize) -> Cost {
    let per_elt = if crate::kernels::exact_gelu() { 10 } else { 27 };
    Cost::new(len as u64 * per_elt, 2 * ELEM * len as u64)
}

/// Backward gelu (`gout * gelu'(x)`): reads gout and x, writes gin.
pub fn gelu_bwd(len: usize) -> Cost {
    let per_elt = if crate::kernels::exact_gelu() { 12 } else { 32 };
    Cost::new(len as u64 * per_elt, 3 * ELEM * len as u64)
}

/// Row-wise softmax over `rows` rows of width `d`: max, subtract, exp, sum,
/// divide — about 5 flops per element. The fused kernel reads the input
/// twice (max scan, exp pass), writes the output in the exp pass, then
/// rescales it in place: 5 element transfers per element total. (The
/// pre-fusion kernel also cloned the input up front, which this accounting
/// no longer bills.)
pub fn softmax(rows: usize, d: usize) -> Cost {
    let len = (rows * d) as u64;
    Cost::new(5 * len, 5 * ELEM * len)
}

/// Fused attention over sequences of `lens` rows of width `d` in `heads`
/// heads: per sequence of `n` rows, `QKᵀ` and `·V` at `2·n²·d` flops
/// each, plus scale and softmax at 6 flops per score; q, k and v are read
/// once and the output written once.
pub fn attention(lens: impl IntoIterator<Item = usize>, d: usize, heads: usize) -> Cost {
    let (d, heads) = (d as u64, heads as u64);
    lens.into_iter().fold(Cost::new(0, 0), |acc, n| {
        let n = n as u64;
        Cost::new(acc.flops + 4 * n * n * d + 6 * n * n * heads, acc.bytes + 4 * ELEM * n * d)
    })
}

/// Layer norm over `rows` rows of width `d`: mean, variance, normalize,
/// scale and shift — about 8 flops per element. The kernel makes three
/// streaming reads of x (mean, variance, normalize) and one write each of
/// the output and the normalized aux buffer, plus gamma/beta once and one
/// inv-std per row.
pub fn layer_norm(rows: usize, d: usize) -> Cost {
    let len = (rows * d) as u64;
    Cost::new(8 * len, ELEM * (5 * len + 2 * d as u64 + rows as u64))
}

/// Token-masked cross-entropy over `[rows, classes]` logits: softmax plus
/// log-prob accumulation — about 6 flops per logit.
pub fn cross_entropy(rows: usize, classes: usize) -> Cost {
    let len = (rows * classes) as u64;
    Cost::new(6 * len, 2 * ELEM * len)
}

/// Embedding gather of `rows` rows of width `d` (no arithmetic).
pub fn gather(rows: usize, d: usize) -> Cost {
    copy(rows * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_counts_flops_and_traffic() {
        let c = matmul(2, 3, 4);
        assert_eq!(c.flops, 2 * 2 * 3 * 4);
        assert_eq!(c.bytes, 4 * (2 * 3 + 3 * 4 + 2 * 4));
        let b = matmul_bwd(2, 3, 4);
        assert_eq!(b.flops, 2 * c.flops);
    }

    #[test]
    fn elementwise_scales_with_len() {
        assert_eq!(map(10, 1).flops, 10);
        assert_eq!(zip(10, 1).bytes, 120);
        assert_eq!(copy(8).flops, 0);
        assert_eq!(softmax(2, 4).flops, 40);
        assert_eq!(softmax(2, 4).bytes, 5 * 4 * 8);
        assert_eq!(layer_norm(2, 4).flops, 64);
        assert_eq!(layer_norm(2, 4).bytes, 4 * (5 * 8 + 2 * 4 + 2));
        assert_eq!(cross_entropy(2, 4).flops, 48);
        assert_eq!(gather(3, 4), copy(12));
    }

    #[test]
    fn gelu_cost_tracks_active_mode() {
        let before = crate::kernels::exact_gelu();
        crate::kernels::set_exact_gelu(false);
        assert_eq!(gelu(10).flops, 270);
        assert_eq!(gelu_bwd(10).flops, 320);
        crate::kernels::set_exact_gelu(true);
        assert_eq!(gelu(10).flops, 100);
        assert_eq!(gelu_bwd(10).flops, 120);
        crate::kernels::set_exact_gelu(before);
        assert_eq!(gelu(8).bytes, 2 * 4 * 8);
        assert_eq!(gelu_bwd(8).bytes, 3 * 4 * 8);
    }
}
