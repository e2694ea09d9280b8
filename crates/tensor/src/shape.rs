//! Shape rules shared by the eager [`Tape`](crate::Tape) and static
//! analysis tools (gs-check).
//!
//! Every tape op has exactly one rule here that maps operand shapes to the
//! result shape or a [`ShapeError`]. The eager tape calls the rule before
//! executing the kernel and panics with the error's `Display` text; a static
//! checker calls the same rule over a symbolic graph and collects the error
//! as a finding. Both paths therefore report byte-identical messages for the
//! same violation.

use std::fmt;

/// A violated shape, rank, or index invariant for a single op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    msg: String,
}

impl ShapeError {
    /// Creates an error for `op` with a human-readable description.
    pub fn new(op: &'static str, msg: impl Into<String>) -> Self {
        ShapeError { op, msg: msg.into() }
    }

    /// The op name the rule belongs to (e.g. `"matmul"`).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The violation description, without the op prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error in {}: {}", self.op, self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// Result of applying a shape rule: the output shape or a violation.
pub type ShapeResult = Result<Vec<usize>, ShapeError>;

/// Renders a shape as `[a, b]` for error messages.
pub fn fmt_shape(shape: &[usize]) -> String {
    let dims: Vec<String> = shape.iter().map(ToString::to_string).collect();
    format!("[{}]", dims.join(", "))
}

fn require_rank2(op: &'static str, side: &str, s: &[usize]) -> Result<(), ShapeError> {
    if s.len() != 2 {
        return Err(ShapeError::new(op, format!("{side} must be rank 2, got {}", fmt_shape(s))));
    }
    Ok(())
}

/// Elementwise binary ops (`add`, `sub`, `mul`): shapes must match exactly.
pub fn same_shape(op: &'static str, a: &[usize], b: &[usize]) -> ShapeResult {
    if a != b {
        return Err(ShapeError::new(
            op,
            format!("operand shapes {} and {} differ", fmt_shape(a), fmt_shape(b)),
        ));
    }
    Ok(a.to_vec())
}

/// Elementwise unary ops (`relu`, `gelu`, `tanh`, `scale`): any shape.
pub fn unary(x: &[usize]) -> ShapeResult {
    Ok(x.to_vec())
}

/// `add_bias`: `[n, d] + [d] -> [n, d]`.
pub fn add_bias(x: &[usize], bias: &[usize]) -> ShapeResult {
    require_rank2("add_bias", "input", x)?;
    if bias.len() != 1 {
        return Err(ShapeError::new(
            "add_bias",
            format!("bias must be rank 1, got {}", fmt_shape(bias)),
        ));
    }
    if x[1] != bias[0] {
        return Err(ShapeError::new(
            "add_bias",
            format!("input width {} does not match bias width {}", x[1], bias[0]),
        ));
    }
    Ok(x.to_vec())
}

/// `matmul`: `[m, k] x [k, n] -> [m, n]`.
pub fn matmul(a: &[usize], b: &[usize]) -> ShapeResult {
    require_rank2("matmul", "lhs", a)?;
    require_rank2("matmul", "rhs", b)?;
    if a[1] != b[0] {
        return Err(ShapeError::new(
            "matmul",
            format!("inner dims of {} x {} do not agree", fmt_shape(a), fmt_shape(b)),
        ));
    }
    Ok(vec![a[0], b[1]])
}

/// `matmul_transb`: `[m, k] x [n, k]^T -> [m, n]`.
pub fn matmul_transb(a: &[usize], b: &[usize]) -> ShapeResult {
    require_rank2("matmul_transb", "lhs", a)?;
    require_rank2("matmul_transb", "rhs", b)?;
    if a[1] != b[1] {
        return Err(ShapeError::new(
            "matmul_transb",
            format!("inner dims of {} x {}^T do not agree", fmt_shape(a), fmt_shape(b)),
        ));
    }
    Ok(vec![a[0], b[0]])
}

/// `softmax_last_dim`: rank >= 1 with a non-empty last dimension.
pub fn softmax_last_dim(x: &[usize]) -> ShapeResult {
    match x.last() {
        None => Err(ShapeError::new("softmax_last_dim", "input must have rank >= 1".to_string())),
        Some(0) => Err(ShapeError::new("softmax_last_dim", "last dimension is empty".to_string())),
        Some(_) => Ok(x.to_vec()),
    }
}

/// `layer_norm`: rank-1 `gamma`/`beta` matching the last dimension of `x`.
pub fn layer_norm(x: &[usize], gamma: &[usize], beta: &[usize]) -> ShapeResult {
    let Some(&d) = x.last() else {
        return Err(ShapeError::new("layer_norm", "input must have rank >= 1".to_string()));
    };
    for (side, s) in [("gamma", gamma), ("beta", beta)] {
        if s.len() != 1 {
            return Err(ShapeError::new(
                "layer_norm",
                format!("{side} must be rank 1, got {}", fmt_shape(s)),
            ));
        }
        if s[0] != d {
            return Err(ShapeError::new(
                "layer_norm",
                format!("{side} width {} does not match input width {d}", s[0]),
            ));
        }
    }
    Ok(x.to_vec())
}

/// `embed_gather`: rank-2 table, all ids within the row count;
/// `[rows, d] gather n -> [n, d]`.
pub fn embed_gather(table: &[usize], num_ids: usize, max_id: Option<usize>) -> ShapeResult {
    require_rank2("embed_gather", "table", table)?;
    if let Some(max_id) = max_id {
        if max_id >= table[0] {
            return Err(ShapeError::new(
                "embed_gather",
                format!("id {max_id} out of bounds for table with {} rows", table[0]),
            ));
        }
    }
    Ok(vec![num_ids, table[1]])
}

/// `dropout`: the mask must match the input shape exactly.
pub fn dropout(x: &[usize], mask: &[usize]) -> ShapeResult {
    if x != mask {
        return Err(ShapeError::new(
            "dropout",
            format!("mask shape {} does not match input {}", fmt_shape(mask), fmt_shape(x)),
        ));
    }
    Ok(x.to_vec())
}

/// `concat_cols`: rank-2 parts with equal row counts; widths add.
pub fn concat_cols(parts: &[&[usize]]) -> ShapeResult {
    if parts.is_empty() {
        return Err(ShapeError::new("concat_cols", "needs at least one operand".to_string()));
    }
    for p in parts {
        require_rank2("concat_cols", "every operand", p)?;
    }
    let rows = parts[0][0];
    let mut cols = 0usize;
    for (i, p) in parts.iter().enumerate() {
        if p[0] != rows {
            return Err(ShapeError::new(
                "concat_cols",
                format!("operand {i} has {} rows, expected {rows}", p[0]),
            ));
        }
        cols += p[1];
    }
    Ok(vec![rows, cols])
}

/// `slice_cols`: `[n, c] -> [n, end - start]` with `start <= end <= c`.
pub fn slice_cols(x: &[usize], start: usize, end: usize) -> ShapeResult {
    require_rank2("slice_cols", "input", x)?;
    if start > end || end > x[1] {
        return Err(ShapeError::new(
            "slice_cols",
            format!("range {start}..{end} out of bounds for {} columns", x[1]),
        ));
    }
    Ok(vec![x[0], end - start])
}

/// `attention`: equal rank-2 `q`, `k`, `v` of shape `[rows, d]`, `d`
/// divisible by `n_heads`, and `seqs` (each sequence's `(start, len)` rows)
/// tiling `0..rows` in order with non-empty sequences. Output `[rows, d]`.
pub fn attention(
    q: &[usize],
    k: &[usize],
    v: &[usize],
    seqs: &[(usize, usize)],
    n_heads: usize,
) -> ShapeResult {
    require_rank2("attention", "queries", q)?;
    for (side, s) in [("keys", k), ("values", v)] {
        if s != q {
            return Err(ShapeError::new(
                "attention",
                format!("{side} {} do not match queries {}", fmt_shape(s), fmt_shape(q)),
            ));
        }
    }
    if n_heads == 0 || !q[1].is_multiple_of(n_heads) {
        return Err(ShapeError::new(
            "attention",
            format!("width {} does not split into {n_heads} heads", q[1]),
        ));
    }
    let not_tiled =
        || ShapeError::new("attention", format!("sequences {seqs:?} do not tile {} rows", q[0]));
    let mut next = 0;
    for &(start, len) in seqs {
        if start != next || len == 0 {
            return Err(not_tiled());
        }
        next += len;
    }
    if next != q[0] {
        return Err(not_tiled());
    }
    Ok(q.to_vec())
}

/// Full reductions (`mean_all`, `sum_all`): any input, scalar output.
pub fn reduce_all(_x: &[usize]) -> ShapeResult {
    Ok(Vec::new())
}

/// `cross_entropy`: rank-2 logits, one target per row, non-ignored targets
/// within the class count. Output is scalar.
pub fn cross_entropy(logits: &[usize], num_targets: usize, max_target: Option<i64>) -> ShapeResult {
    require_rank2("cross_entropy", "logits", logits)?;
    if logits[0] != num_targets {
        return Err(ShapeError::new(
            "cross_entropy",
            format!("{num_targets} targets for {} logit rows", logits[0]),
        ));
    }
    if let Some(t) = max_target {
        if t >= 0 && t as usize >= logits[1] {
            return Err(ShapeError::new(
                "cross_entropy",
                format!("target {t} out of bounds for {} classes", logits[1]),
            ));
        }
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_op_and_message() {
        let e = matmul(&[2, 3], &[4, 5]).unwrap_err();
        assert_eq!(e.op(), "matmul");
        assert_eq!(
            e.to_string(),
            "shape error in matmul: inner dims of [2, 3] x [4, 5] do not agree"
        );
    }

    #[test]
    fn rules_accept_valid_shapes() {
        assert_eq!(matmul(&[2, 3], &[3, 5]).unwrap(), vec![2, 5]);
        assert_eq!(matmul_transb(&[2, 3], &[5, 3]).unwrap(), vec![2, 5]);
        assert_eq!(add_bias(&[4, 7], &[7]).unwrap(), vec![4, 7]);
        assert_eq!(layer_norm(&[4, 7], &[7], &[7]).unwrap(), vec![4, 7]);
        assert_eq!(embed_gather(&[10, 3], 5, Some(9)).unwrap(), vec![5, 3]);
        assert_eq!(concat_cols(&[&[2, 3], &[2, 4]]).unwrap(), vec![2, 7]);
        assert_eq!(slice_cols(&[2, 8], 2, 5).unwrap(), vec![2, 3]);
        assert_eq!(cross_entropy(&[4, 3], 4, Some(2)).unwrap(), Vec::<usize>::new());
        assert!(cross_entropy(&[4, 3], 4, Some(-1)).is_ok());
        assert_eq!(attention(&[5, 8], &[5, 8], &[5, 8], &[(0, 2), (2, 3)], 4).unwrap(), vec![5, 8]);
    }

    #[test]
    fn rules_reject_invalid_shapes() {
        assert!(same_shape("add", &[2, 3], &[3, 2]).is_err());
        assert!(add_bias(&[4, 7], &[6]).is_err());
        assert!(add_bias(&[7], &[7]).is_err());
        assert!(matmul(&[3], &[3, 2]).is_err());
        assert!(matmul_transb(&[2, 3], &[5, 4]).is_err());
        assert!(layer_norm(&[4, 7], &[8], &[7]).is_err());
        assert!(embed_gather(&[10, 3], 5, Some(10)).is_err());
        assert!(dropout(&[2, 3], &[3, 2]).is_err());
        assert!(concat_cols(&[&[2, 3], &[3, 3]]).is_err());
        assert!(concat_cols(&[]).is_err());
        assert!(slice_cols(&[2, 8], 5, 9).is_err());
        assert!(cross_entropy(&[4, 3], 5, None).is_err());
        assert!(cross_entropy(&[4, 3], 4, Some(3)).is_err());
        let qkv = [5, 8];
        assert!(attention(&qkv, &[5, 8], &[4, 8], &[(0, 5)], 2).is_err());
        assert!(attention(&qkv, &qkv, &qkv, &[(0, 5)], 3).is_err());
        assert!(attention(&qkv, &qkv, &qkv, &[(0, 2), (3, 2)], 2).is_err());
        assert!(attention(&qkv, &qkv, &qkv, &[(0, 5), (5, 0)], 2).is_err());
        assert!(attention(&qkv, &qkv, &qkv, &[(0, 4)], 2).is_err());
    }
}
