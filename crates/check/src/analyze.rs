//! Autograd-graph lints over an exported [`Graph`].
//!
//! [`analyze`] walks a recorded program once and reports structural problems
//! the eager tape cannot see locally: parameters the loss never reaches,
//! constants sitting where a trainable parameter should be, values recorded
//! but never consumed, and a non-scalar loss.

use std::collections::HashSet;
use std::fmt;

use gs_tensor::{Graph, OpKind, Var};

/// What a [`Finding`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A shape rule rejected an op (message equals the eager panic text).
    ShapeViolation,
    /// A leaf tensor contains NaN or Inf before any op has run.
    NonFiniteParam,
    /// A trainable parameter the loss does not depend on: it will never
    /// receive a gradient, so training silently ignores it.
    DeadParam,
    /// A labeled constant on the path to the loss: a bound parameter was
    /// recorded with `requires_grad = false`, so it looks trained but is
    /// frozen.
    ConstantOnGradPath,
    /// A recorded value nothing consumes and that is not the loss: dead
    /// compute, or a wiring bug that dropped a connection.
    UnusedValue,
    /// The designated loss is not a scalar; `backward` would panic on it.
    NonScalarLoss,
}

impl FindingKind {
    /// Stable lowercase identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::ShapeViolation => "shape-violation",
            FindingKind::NonFiniteParam => "non-finite-param",
            FindingKind::DeadParam => "dead-param",
            FindingKind::ConstantOnGradPath => "constant-on-grad-path",
            FindingKind::UnusedValue => "unused-value",
            FindingKind::NonScalarLoss => "non-scalar-loss",
        }
    }
}

/// One problem found by static analysis, with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What kind of problem this is.
    pub kind: FindingKind,
    /// Index of the offending node in the recorded graph.
    pub node: usize,
    /// Name of the op at that node (matches `ShapeError::op`).
    pub op: &'static str,
    /// Dotted scope path active when the node was recorded.
    pub scope: String,
    /// Parameter label, for labeled leaves.
    pub label: Option<String>,
    /// Human-readable description; for shape violations this is exactly the
    /// message the eager tape would have panicked with.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] node {} ({})", self.kind.name(), self.node, self.op)?;
        if !self.scope.is_empty() {
            write!(f, " in scope {}", self.scope)?;
        }
        if let Some(label) = &self.label {
            write!(f, " param \"{label}\"")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Result of [`analyze`]: lint findings plus graph statistics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All findings, in node order.
    pub findings: Vec<Finding>,
    /// Total nodes inspected.
    pub nodes: usize,
    /// Trainable-parameter leaves seen.
    pub params: usize,
}

impl Analysis {
    /// Whether the graph passed every lint.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints `graph`, treating `loss` (if given) as the value `backward` will be
/// called on. This covers only the graph-level lints; use
/// [`check_traced`](crate::check_traced) to also merge in the shape and
/// non-finite findings a [`SymTape`](crate::SymTape) collected while
/// recording.
pub fn analyze(graph: &Graph, loss: Option<Var>) -> Analysis {
    let n = graph.len();
    let mut consumers = vec![0usize; n];
    for node in &graph.nodes {
        for operand in node.kind.operands() {
            consumers[operand] += 1;
        }
    }

    // Ancestors of the loss: everything backward will visit.
    let mut on_grad_path = vec![false; n];
    if let Some(loss) = loss {
        let mut stack = vec![loss.index()];
        let mut seen: HashSet<usize> = HashSet::new();
        while let Some(idx) = stack.pop() {
            if !seen.insert(idx) {
                continue;
            }
            on_grad_path[idx] = true;
            stack.extend(graph.nodes[idx].kind.operands());
        }
    }

    let mut findings = Vec::new();
    let mut params = 0usize;
    for (idx, node) in graph.nodes.iter().enumerate() {
        let provenance = |message: String, kind: FindingKind| Finding {
            kind,
            node: idx,
            op: node.kind.name(),
            scope: graph.scope_name(node.scope).to_string(),
            label: node.label.clone(),
            message,
        };
        match &node.kind {
            OpKind::Leaf { requires_grad: true } => {
                params += 1;
                if loss.is_some() && !on_grad_path[idx] {
                    findings.push(provenance(
                        "trainable parameter is unreachable from the loss; it will never receive a gradient".to_string(),
                        FindingKind::DeadParam,
                    ));
                }
            }
            OpKind::Leaf { requires_grad: false } => {
                if node.label.is_some() && on_grad_path[idx] {
                    findings.push(provenance(
                        "labeled constant feeds the loss; a bound parameter was recorded without requires_grad and will stay frozen".to_string(),
                        FindingKind::ConstantOnGradPath,
                    ));
                }
            }
            _ => {
                let is_loss = loss.map(Var::index) == Some(idx);
                if consumers[idx] == 0 && !is_loss {
                    findings.push(provenance(
                        "value is never consumed and is not the loss; dead compute or a dropped connection".to_string(),
                        FindingKind::UnusedValue,
                    ));
                }
            }
        }
    }

    if let Some(loss) = loss {
        let node = &graph.nodes[loss.index()];
        if let Some(shape) = &node.shape {
            if !shape.is_empty() && shape.iter().product::<usize>() != 1 {
                findings.push(Finding {
                    kind: FindingKind::NonScalarLoss,
                    node: loss.index(),
                    op: node.kind.name(),
                    scope: graph.scope_name(node.scope).to_string(),
                    label: node.label.clone(),
                    message: format!("loss has shape {shape:?}; backward requires a scalar"),
                });
            }
        }
    }

    findings.sort_by_key(|f| f.node);
    Analysis { findings, nodes: n, params }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymTape;
    use gs_tensor::Tensor;

    fn scalar_loss(sym: &SymTape, v: Var) -> Var {
        sym.mean_all(v)
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let sym = SymTape::new();
        let x = sym.constant(Tensor::zeros(&[2, 4]));
        let w = sym.leaf_labeled(&Tensor::zeros(&[4, 3]), "head.w");
        let y = sym.matmul(x, w);
        let loss = scalar_loss(&sym, y);
        let (graph, findings) = sym.finish();
        assert!(findings.is_empty());
        let analysis = analyze(&graph, Some(loss));
        assert!(analysis.is_clean(), "{:?}", analysis.findings);
        assert_eq!(analysis.params, 1);
    }

    #[test]
    fn dead_param_is_reported() {
        let sym = SymTape::new();
        let x = sym.constant(Tensor::zeros(&[2, 4]));
        let w = sym.leaf_labeled(&Tensor::zeros(&[4, 3]), "head.w");
        let orphan = sym.leaf_labeled(&Tensor::vector(&[0.0; 3]), "head.b");
        let y = sym.matmul(x, w);
        let loss = scalar_loss(&sym, y);
        let (graph, _) = sym.finish();
        let analysis = analyze(&graph, Some(loss));
        assert_eq!(analysis.findings.len(), 1);
        let f = &analysis.findings[0];
        assert_eq!(f.kind, FindingKind::DeadParam);
        assert_eq!(f.node, orphan.index());
        assert_eq!(f.label.as_deref(), Some("head.b"));
    }

    #[test]
    fn labeled_constant_on_grad_path_is_reported() {
        let sym = SymTape::new();
        let x = sym.constant(Tensor::zeros(&[2, 4]));
        let w = sym.constant_labeled(&Tensor::zeros(&[4, 3]), "head.w");
        let y = sym.matmul(x, w);
        let loss = scalar_loss(&sym, y);
        let (graph, _) = sym.finish();
        let analysis = analyze(&graph, Some(loss));
        assert_eq!(analysis.findings.len(), 1);
        assert_eq!(analysis.findings[0].kind, FindingKind::ConstantOnGradPath);
        assert_eq!(analysis.findings[0].node, w.index());
    }

    #[test]
    fn unused_value_and_non_scalar_loss_are_reported() {
        let sym = SymTape::new();
        let x = sym.constant(Tensor::zeros(&[2, 4]));
        let w = sym.leaf_labeled(&Tensor::zeros(&[4, 3]), "head.w");
        let y = sym.matmul(x, w);
        let _dangling = sym.relu(y);
        let (graph, _) = sym.finish();
        // `y` feeds relu, relu feeds nothing; use `y` itself as the loss.
        let analysis = analyze(&graph, Some(y));
        let kinds: Vec<_> = analysis.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FindingKind::UnusedValue));
        assert!(kinds.contains(&FindingKind::NonScalarLoss));
    }

    #[test]
    fn finding_display_includes_provenance() {
        let f = Finding {
            kind: FindingKind::DeadParam,
            node: 7,
            op: "leaf",
            scope: "l0.attn".to_string(),
            label: Some("l0.attn.wq".to_string()),
            message: "unreachable".to_string(),
        };
        assert_eq!(
            f.to_string(),
            "[dead-param] node 7 (leaf) in scope l0.attn param \"l0.attn.wq\": unreachable"
        );
    }
}
