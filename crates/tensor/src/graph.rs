//! A public, analysis-friendly mirror of recorded tape programs.
//!
//! [`Tape::export_graph`](crate::Tape::export_graph) (and the symbolic
//! recorder in gs-check) produce a [`Graph`]: a flat list of [`GraphNode`]s
//! in insertion order, each carrying its [`OpKind`], result shape, scope, and
//! optional parameter label. Static tools walk this structure instead of the
//! tape's private internals, and [`infer_shape`] re-derives every node's
//! shape from the same rules the eager tape enforces at runtime.

use crate::shape::{self, ShapeError};

/// Operation kinds as seen by analysis tools.
///
/// Operand fields hold node indices into the owning [`Graph`]. Data-carrying
/// ops are summarized by what their shape rules need (e.g. `embed_gather`
/// keeps the id count and the largest id rather than the full id list).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Input with no parents; `requires_grad` marks trainable parameters.
    Leaf {
        /// Whether backward propagates into this leaf.
        requires_grad: bool,
    },
    /// Elementwise `a + b`.
    Add {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// `[n, d] + [d]` broadcast.
    AddBias {
        /// Input matrix.
        x: usize,
        /// Bias vector.
        bias: usize,
    },
    /// Elementwise `a - b`.
    Sub {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// Elementwise `a * b`.
    Mul {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// Multiplication by a scalar constant.
    Scale {
        /// Input.
        x: usize,
        /// The constant factor.
        factor: f32,
    },
    /// `[m, k] x [k, n]`.
    MatMul {
        /// Left operand.
        a: usize,
        /// Right operand.
        b: usize,
    },
    /// `[m, k] x [n, k]^T`.
    MatMulTransB {
        /// Left operand.
        a: usize,
        /// Right (transposed) operand.
        b: usize,
    },
    /// Elementwise ReLU.
    Relu {
        /// Input.
        x: usize,
    },
    /// Elementwise GELU.
    Gelu {
        /// Input.
        x: usize,
    },
    /// Elementwise tanh.
    Tanh {
        /// Input.
        x: usize,
    },
    /// Softmax over the last dimension.
    SoftmaxLastDim {
        /// Input.
        x: usize,
    },
    /// Layer normalization with learned gain/bias.
    LayerNorm {
        /// Input.
        x: usize,
        /// Gain vector.
        gamma: usize,
        /// Bias vector.
        beta: usize,
    },
    /// Row gather from an embedding table.
    EmbedGather {
        /// The table node.
        table: usize,
        /// Number of gathered rows.
        num_ids: usize,
        /// Largest gathered row index (`None` for an empty id list).
        max_id: Option<usize>,
    },
    /// Inverted dropout with a fixed mask.
    Dropout {
        /// Input.
        x: usize,
        /// Shape of the recorded mask.
        mask_shape: Vec<usize>,
    },
    /// Column-wise concatenation.
    ConcatCols {
        /// The concatenated parts, left to right.
        parts: Vec<usize>,
    },
    /// Column slice `[start, end)`.
    SliceCols {
        /// Input.
        x: usize,
        /// First column.
        start: usize,
        /// One past the last column.
        end: usize,
    },
    /// Mean over all elements.
    MeanAll {
        /// Input.
        x: usize,
    },
    /// Sum over all elements.
    SumAll {
        /// Input.
        x: usize,
    },
    /// Multi-head self-attention within each packed sequence.
    Attention {
        /// Queries.
        q: usize,
        /// Keys.
        k: usize,
        /// Values.
        v: usize,
        /// Each sequence's `(start, len)` rows.
        seqs: Vec<(usize, usize)>,
        /// Number of heads the width splits into.
        n_heads: usize,
    },
    /// Token-masked mean cross-entropy.
    CrossEntropy {
        /// Logits node.
        logits: usize,
        /// Number of targets (must equal logit rows).
        num_targets: usize,
        /// Largest non-ignored target (`None` if all are ignored).
        max_target: Option<i64>,
    },
}

impl OpKind {
    /// The op's stable name, matching [`ShapeError::op`] for its rule.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Leaf { .. } => "leaf",
            OpKind::Add { .. } => "add",
            OpKind::AddBias { .. } => "add_bias",
            OpKind::Sub { .. } => "sub",
            OpKind::Mul { .. } => "mul",
            OpKind::Scale { .. } => "scale",
            OpKind::MatMul { .. } => "matmul",
            OpKind::MatMulTransB { .. } => "matmul_transb",
            OpKind::Relu { .. } => "relu",
            OpKind::Gelu { .. } => "gelu",
            OpKind::Tanh { .. } => "tanh",
            OpKind::SoftmaxLastDim { .. } => "softmax_last_dim",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::EmbedGather { .. } => "embed_gather",
            OpKind::Dropout { .. } => "dropout",
            OpKind::ConcatCols { .. } => "concat_cols",
            OpKind::SliceCols { .. } => "slice_cols",
            OpKind::MeanAll { .. } => "mean_all",
            OpKind::SumAll { .. } => "sum_all",
            OpKind::Attention { .. } => "attention",
            OpKind::CrossEntropy { .. } => "cross_entropy",
        }
    }

    /// Node indices of this op's operands, in rule order.
    pub fn operands(&self) -> Vec<usize> {
        match self {
            OpKind::Leaf { .. } => Vec::new(),
            OpKind::Add { a, b }
            | OpKind::Sub { a, b }
            | OpKind::Mul { a, b }
            | OpKind::MatMul { a, b }
            | OpKind::MatMulTransB { a, b } => vec![*a, *b],
            OpKind::AddBias { x, bias } => vec![*x, *bias],
            OpKind::Scale { x, .. }
            | OpKind::Relu { x }
            | OpKind::Gelu { x }
            | OpKind::Tanh { x }
            | OpKind::SoftmaxLastDim { x }
            | OpKind::Dropout { x, .. }
            | OpKind::SliceCols { x, .. }
            | OpKind::MeanAll { x }
            | OpKind::SumAll { x } => vec![*x],
            OpKind::LayerNorm { x, gamma, beta } => vec![*x, *gamma, *beta],
            OpKind::Attention { q, k, v, .. } => vec![*q, *k, *v],
            OpKind::EmbedGather { table, .. } => vec![*table],
            OpKind::ConcatCols { parts } => parts.clone(),
            OpKind::CrossEntropy { logits, .. } => vec![*logits],
        }
    }

    /// Whether this is a trainable-parameter leaf.
    pub fn is_param(&self) -> bool {
        matches!(self, OpKind::Leaf { requires_grad: true })
    }
}

/// One node of an exported graph.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// The operation that produced this node.
    pub kind: OpKind,
    /// The result shape; `None` when a symbolic recorder could not determine
    /// it (a shape rule failed on this node or upstream).
    pub shape: Option<Vec<usize>>,
    /// Index into [`Graph::scopes`] for the scope active at record time.
    pub scope: u32,
    /// Parameter name for labeled leaves (set by `Binder::bind`).
    pub label: Option<String>,
}

/// A recorded tensor program: nodes in insertion order plus the scope table.
///
/// Operands always precede results, so a single forward walk visits nodes in
/// topological order.
#[derive(Debug, Clone)]
pub struct Graph {
    /// The nodes, in insertion order.
    pub nodes: Vec<GraphNode>,
    /// Interned scope names; index 0 is the root scope `""`.
    pub scopes: Vec<String>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph { nodes: Vec::new(), scopes: vec![String::new()] }
    }
}

impl Graph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dotted scope path for a scope id (empty string for the root).
    pub fn scope_name(&self, id: u32) -> &str {
        self.scopes.get(id as usize).map_or("", String::as_str)
    }
}

/// Applies the shape rule for `kind` given a lookup of operand shapes.
///
/// Returns `Ok(None)` when any operand shape is unknown (the caller should
/// treat the result as unknown too, without reporting a second finding for
/// the same upstream violation). Leaves have no rule; their shape comes from
/// the recorded value, and this function returns `Ok(None)` for them.
pub fn infer_shape(
    kind: &OpKind,
    operand_shape: impl Fn(usize) -> Option<Vec<usize>>,
) -> Result<Option<Vec<usize>>, ShapeError> {
    let get = |idx: usize| operand_shape(idx);
    macro_rules! need {
        ($idx:expr) => {
            match get($idx) {
                Some(s) => s,
                None => return Ok(None),
            }
        };
    }
    let shape = match kind {
        OpKind::Leaf { .. } => return Ok(None),
        OpKind::Add { a, b } => shape::same_shape("add", &need!(*a), &need!(*b))?,
        OpKind::Sub { a, b } => shape::same_shape("sub", &need!(*a), &need!(*b))?,
        OpKind::Mul { a, b } => shape::same_shape("mul", &need!(*a), &need!(*b))?,
        OpKind::AddBias { x, bias } => shape::add_bias(&need!(*x), &need!(*bias))?,
        OpKind::Scale { x, .. } | OpKind::Relu { x } | OpKind::Gelu { x } | OpKind::Tanh { x } => {
            shape::unary(&need!(*x))?
        }
        OpKind::SoftmaxLastDim { x } => shape::softmax_last_dim(&need!(*x))?,
        OpKind::MatMul { a, b } => shape::matmul(&need!(*a), &need!(*b))?,
        OpKind::MatMulTransB { a, b } => shape::matmul_transb(&need!(*a), &need!(*b))?,
        OpKind::LayerNorm { x, gamma, beta } => {
            shape::layer_norm(&need!(*x), &need!(*gamma), &need!(*beta))?
        }
        OpKind::EmbedGather { table, num_ids, max_id } => {
            shape::embed_gather(&need!(*table), *num_ids, *max_id)?
        }
        OpKind::Dropout { x, mask_shape } => shape::dropout(&need!(*x), mask_shape)?,
        OpKind::ConcatCols { parts } => {
            let mut shapes = Vec::with_capacity(parts.len());
            for &p in parts {
                shapes.push(need!(p));
            }
            let refs: Vec<&[usize]> = shapes.iter().map(Vec::as_slice).collect();
            shape::concat_cols(&refs)?
        }
        OpKind::SliceCols { x, start, end } => shape::slice_cols(&need!(*x), *start, *end)?,
        OpKind::MeanAll { x } | OpKind::SumAll { x } => shape::reduce_all(&need!(*x))?,
        OpKind::Attention { q, k, v, seqs, n_heads } => {
            shape::attention(&need!(*q), &need!(*k), &need!(*v), seqs, *n_heads)?
        }
        OpKind::CrossEntropy { logits, num_targets, max_target } => {
            shape::cross_entropy(&need!(*logits), *num_targets, *max_target)?
        }
    };
    Ok(Some(shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_matches_rules_and_propagates_unknown() {
        let shapes = [Some(vec![2usize, 3]), Some(vec![3, 4]), None];
        let get = |i: usize| shapes[i].clone();
        let ok = infer_shape(&OpKind::MatMul { a: 0, b: 1 }, get).unwrap();
        assert_eq!(ok, Some(vec![2, 4]));
        let unknown = infer_shape(&OpKind::MatMul { a: 0, b: 2 }, get).unwrap();
        assert_eq!(unknown, None);
        let err = infer_shape(&OpKind::MatMul { a: 1, b: 1 }, get).unwrap_err();
        assert_eq!(err.op(), "matmul");
    }

    #[test]
    fn operands_cover_every_kind() {
        assert!(OpKind::Leaf { requires_grad: true }.operands().is_empty());
        assert_eq!(OpKind::LayerNorm { x: 0, gamma: 1, beta: 2 }.operands(), vec![0, 1, 2]);
        assert_eq!(OpKind::ConcatCols { parts: vec![3, 5] }.operands(), vec![3, 5]);
        assert_eq!(
            OpKind::CrossEntropy { logits: 7, num_targets: 4, max_target: Some(1) }.operands(),
            vec![7]
        );
    }
}
