//! A symbolic tape: records the same program an eager [`Tape`] would, but
//! computes only shapes, never values.
//!
//! [`SymTape`] implements [`TapeOps`], so any model code generic over the
//! trait (`TokenClassifier::forward`, loss construction, …) can be traced
//! without running a single matmul. Shape-rule violations do not panic as
//! they would on the eager tape; they are collected as [`Finding`]s carrying
//! the exact same message the runtime panic would have used, plus the node
//! index, op name, scope path, and parameter label.
//!
//! [`Tape`]: gs_tensor::Tape

use std::cell::RefCell;

use gs_tensor::{infer_shape, Graph, GraphNode, OpKind, ParamId, ParamStore, TapeOps, Tensor, Var};

use crate::analyze::{Finding, FindingKind};

/// Shape-only recorder implementing [`TapeOps`].
///
/// Interior mutability mirrors the eager tape so the two are drop-in
/// interchangeable behind `&T where T: TapeOps`.
#[derive(Default)]
pub struct SymTape {
    graph: RefCell<Graph>,
    scope_stack: RefCell<Vec<u32>>,
    findings: RefCell<Vec<Finding>>,
}

impl SymTape {
    /// Creates an empty symbolic tape.
    pub fn new() -> SymTape {
        SymTape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.graph.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.graph.borrow().is_empty()
    }

    /// The inferred shape of a recorded node (`None` if a rule failed on it
    /// or upstream of it).
    pub fn shape(&self, v: Var) -> Option<Vec<usize>> {
        self.graph.borrow().nodes[v.index()].shape.clone()
    }

    /// Findings collected so far (shape violations and non-finite leaves).
    pub fn findings(&self) -> Vec<Finding> {
        self.findings.borrow().clone()
    }

    /// Consumes the tape, returning the recorded graph and its findings.
    pub fn finish(self) -> (Graph, Vec<Finding>) {
        (self.graph.into_inner(), self.findings.into_inner())
    }

    fn current_scope(&self) -> u32 {
        self.scope_stack.borrow().last().copied().unwrap_or(0)
    }

    fn record_leaf(&self, value: &Tensor, requires_grad: bool, label: Option<&str>) -> Var {
        let scope = self.current_scope();
        let mut graph = self.graph.borrow_mut();
        let idx = graph.nodes.len();
        graph.nodes.push(GraphNode {
            kind: OpKind::Leaf { requires_grad },
            shape: Some(value.shape().to_vec()),
            scope,
            label: label.map(str::to_string),
        });
        if let Some(bad) = value.data().iter().find(|v| !v.is_finite()) {
            let what = if bad.is_nan() { "NaN" } else { "Inf" };
            self.findings.borrow_mut().push(Finding {
                kind: FindingKind::NonFiniteParam,
                node: idx,
                op: "leaf",
                scope: graph.scope_name(scope).to_string(),
                label: label.map(str::to_string),
                message: format!("leaf value contains {what}"),
            });
        }
        Var::from_index(idx)
    }

    fn record(&self, kind: OpKind) -> Var {
        let scope = self.current_scope();
        let mut graph = self.graph.borrow_mut();
        let idx = graph.nodes.len();
        let shape = match infer_shape(&kind, |i| graph.nodes[i].shape.clone()) {
            Ok(shape) => shape,
            Err(e) => {
                self.findings.borrow_mut().push(Finding {
                    kind: FindingKind::ShapeViolation,
                    node: idx,
                    op: kind.name(),
                    scope: graph.scope_name(scope).to_string(),
                    label: None,
                    message: e.to_string(),
                });
                None
            }
        };
        graph.nodes.push(GraphNode { kind, shape, scope, label: None });
        Var::from_index(idx)
    }
}

/// Ops the model code does not call directly; tests build graphs from
/// them.
impl SymTape {
    /// Records a trainable leaf.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.record_leaf(&value, true, None)
    }
    /// Records a constant leaf.
    pub fn constant(&self, value: Tensor) -> Var {
        self.record_leaf(&value, false, None)
    }
    /// Records a trainable leaf with a parameter label.
    pub fn leaf_labeled(&self, value: &Tensor, label: &str) -> Var {
        self.record_leaf(value, true, Some(label))
    }
    /// Records a labeled constant leaf.
    pub fn constant_labeled(&self, value: &Tensor, label: &str) -> Var {
        self.record_leaf(value, false, Some(label))
    }
    /// `[n, d] + [d]` broadcast.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
        self.record(OpKind::AddBias { x: x.index(), bias: bias.index() })
    }
    /// `[m, k] x [k, n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        self.record(OpKind::MatMul { a: a.index(), b: b.index() })
    }
    /// Elementwise `a * b`.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.record(OpKind::Mul { a: a.index(), b: b.index() })
    }
    /// Multiplication by a scalar constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        self.record(OpKind::Scale { x: a.index(), factor: c })
    }
    /// `[m, k] x [n, k]^T`.
    pub fn matmul_transb(&self, a: Var, b: Var) -> Var {
        self.record(OpKind::MatMulTransB { a: a.index(), b: b.index() })
    }
    /// Elementwise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        self.record(OpKind::Relu { x: a.index() })
    }
    /// Softmax over the last dimension.
    pub fn softmax_last_dim(&self, a: Var) -> Var {
        self.record(OpKind::SoftmaxLastDim { x: a.index() })
    }
    /// Column-wise concatenation.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        self.record(OpKind::ConcatCols { parts: parts.iter().map(|v| v.index()).collect() })
    }
    /// Column slice `[start, end)`.
    pub fn slice_cols(&self, x: Var, start: usize, end: usize) -> Var {
        self.record(OpKind::SliceCols { x: x.index(), start, end })
    }
    /// Mean over all elements.
    pub fn mean_all(&self, x: Var) -> Var {
        self.record(OpKind::MeanAll { x: x.index() })
    }
    /// Token-masked mean cross-entropy.
    pub fn cross_entropy(&self, logits: Var, targets: &[i64]) -> Var {
        self.record(OpKind::CrossEntropy {
            logits: logits.index(),
            num_targets: targets.len(),
            max_target: targets.iter().copied().filter(|&t| t >= 0).max(),
        })
    }
}

impl TapeOps for SymTape {
    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.record_leaf(store.value(id), true, Some(store.name(id)))
    }
    fn add(&self, a: Var, b: Var) -> Var {
        self.record(OpKind::Add { a: a.index(), b: b.index() })
    }
    fn linear(&self, x: Var, w: Var, b: Var) -> Var {
        self.add_bias(self.matmul(x, w), b)
    }
    fn gelu(&self, a: Var) -> Var {
        self.record(OpKind::Gelu { x: a.index() })
    }
    fn layer_norm(&self, x: Var, gamma: Var, beta: Var) -> Var {
        self.record(OpKind::LayerNorm { x: x.index(), gamma: gamma.index(), beta: beta.index() })
    }
    fn embed_gather(&self, table: Var, ids: &[usize]) -> Var {
        self.record(OpKind::EmbedGather {
            table: table.index(),
            num_ids: ids.len(),
            max_id: ids.iter().copied().max(),
        })
    }
    fn dropout_with_mask(&self, x: Var, mask: Tensor) -> Var {
        self.record(OpKind::Dropout { x: x.index(), mask_shape: mask.shape().to_vec() })
    }
    fn attention(
        &self,
        q: Var,
        k: Var,
        v: Var,
        seqs: &[(usize, usize)],
        n_heads: usize,
        _scale: f32,
    ) -> Var {
        self.record(OpKind::Attention {
            q: q.index(),
            k: k.index(),
            v: v.index(),
            seqs: seqs.to_vec(),
            n_heads,
        })
    }
    fn push_scope(&self, name: &str) {
        let parent = self.current_scope();
        let mut graph = self.graph.borrow_mut();
        let path = if graph.scopes[parent as usize].is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", graph.scopes[parent as usize], name)
        };
        let id = match graph.scopes.iter().position(|s| *s == path) {
            Some(i) => i as u32,
            None => {
                graph.scopes.push(path);
                (graph.scopes.len() - 1) as u32
            }
        };
        self.scope_stack.borrow_mut().push(id);
    }
    fn pop_scope(&self) {
        self.scope_stack.borrow_mut().pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_tensor::Evaluator;

    #[test]
    fn records_shapes_without_values() {
        let sym = SymTape::new();
        let a = sym.leaf(Tensor::zeros(&[4, 8]));
        let b = sym.leaf(Tensor::zeros(&[8, 2]));
        let y = sym.matmul(a, b);
        assert_eq!(sym.shape(y), Some(vec![4, 2]));
        assert!(sym.findings().is_empty());
    }

    #[test]
    fn violation_matches_eager_panic_message() {
        let sym = SymTape::new();
        let a = sym.leaf(Tensor::zeros(&[2, 2]));
        let b = sym.leaf(Tensor::zeros(&[1, 3]));
        let y = sym.matmul(a, b);
        let findings = sym.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::ShapeViolation);
        assert_eq!(findings[0].node, y.index());
        assert_eq!(
            findings[0].message,
            gs_tensor::shape::matmul(&[2, 2], &[1, 3]).unwrap_err().to_string()
        );
        // Downstream of the violation: unknown shape, but no second finding.
        let z = sym.relu(y);
        assert_eq!(sym.shape(z), None);
        assert_eq!(sym.findings().len(), 1);

        // The serving shape: sequences that do not tile the rows, and a
        // width that does not split into the heads. Each finding's message
        // is the evaluator's panic message for the same call.
        for (seqs, n_heads) in [(vec![(0, 2), (3, 1)], 2), (vec![(0, 4)], 4)] {
            let shape = [4, 6];
            let sym = SymTape::new();
            let q = sym.leaf(Tensor::zeros(&shape));
            let _ = sym.attention(q, q, q, &seqs, n_heads, 1.0);
            let findings = sym.findings();
            assert_eq!(findings.len(), 1);
            assert_eq!(findings[0].op, "attention");

            let mut store = ParamStore::new();
            let id = store.register("q", Tensor::zeros(&shape));
            let eager = std::panic::catch_unwind(|| {
                let eval = Evaluator::new(&store);
                let q = eval.param(&store, id);
                eval.attention(q, q, q, &seqs, n_heads, 1.0)
            })
            .expect_err("the evaluator must reject the shape");
            assert_eq!(eager.downcast_ref::<String>(), Some(&findings[0].message));
        }
    }

    #[test]
    fn scopes_and_labels_flow_into_findings() {
        let sym = SymTape::new();
        sym.push_scope("l0");
        sym.push_scope("ffn");
        let x = sym.leaf(Tensor::zeros(&[2, 4]));
        let w = sym.leaf_labeled(&Tensor::zeros(&[3, 4]), "l0.ffn.w1");
        let _ = sym.matmul(x, w);
        sym.pop_scope();
        sym.pop_scope();
        let findings = sym.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].scope, "l0.ffn");
    }

    #[test]
    fn non_finite_leaf_is_reported() {
        let sym = SymTape::new();
        let _ = sym.leaf_labeled(&Tensor::vector(&[1.0, f32::NAN]), "emb.tok");
        let findings = sym.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, FindingKind::NonFiniteParam);
        assert_eq!(findings[0].label.as_deref(), Some("emb.tok"));
    }
}
