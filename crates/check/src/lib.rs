//! # gs-check
//!
//! Static analysis for gs-tensor programs, run *before* any forward pass:
//!
//! - [`SymTape`]: a shape-only recorder implementing
//!   [`TapeOps`](gs_tensor::TapeOps). Tracing a model through it validates
//!   every op against the same shape rules the eager tape enforces at
//!   runtime — identical messages, plus node/op/scope/label provenance —
//!   in milliseconds, without computing a single value.
//! - [`analyze`] / [`check_traced`] / [`check_tape`]: autograd-graph lints
//!   over the recorded [`Graph`](gs_tensor::Graph) — dead parameters,
//!   labeled constants on the gradient path, unused values, non-scalar
//!   losses, non-finite parameter tensors.
//! - [`GrowthMonitor`]: tape-leak detection across training steps.
//!
//! The runtime counterpart is the opt-in numeric sanitizer in
//! [`gs_tensor::sanitize`]; together they form the check stack described in
//! `DESIGN.md`.

#![warn(missing_docs)]

mod analyze;
mod growth;
mod sym;

pub use analyze::{analyze, Analysis, Finding, FindingKind};
pub use growth::{GrowthMonitor, GrowthReport};
pub use sym::SymTape;

use gs_tensor::{Tape, Var};

/// Finishes a symbolic trace and lints the result, merging the recorder's
/// shape/non-finite findings with the graph lints, ordered by node index.
pub fn check_traced(sym: SymTape, loss: Option<Var>) -> Analysis {
    let (graph, mut findings) = sym.finish();
    let mut analysis = analyze(&graph, loss);
    findings.append(&mut analysis.findings);
    findings.sort_by_key(|f| f.node);
    analysis.findings = findings;
    analysis
}

/// Lints a program an eager [`Tape`] already recorded (shapes are always
/// known there; shape violations would have panicked at record time).
pub fn check_tape(tape: &Tape, loss: Option<Var>) -> Analysis {
    analyze(&tape.export_graph(), loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_tensor::Tensor;

    #[test]
    fn check_traced_merges_recorder_and_graph_findings() {
        let sym = SymTape::new();
        let x = sym.constant(Tensor::zeros(&[2, 4]));
        let w = sym.leaf_labeled(&Tensor::zeros(&[5, 5]), "head.w");
        let orphan = sym.leaf_labeled(&Tensor::vector(&[0.0]), "head.b");
        let y = sym.matmul(x, w); // shape violation (4 vs 5)
        let loss = sym.mean_all(y);
        let bad_matmul = y.index();
        let analysis = check_traced(sym, Some(loss));
        let kinds: Vec<_> = analysis.findings.iter().map(|f| (f.kind, f.node)).collect();
        assert!(kinds.contains(&(FindingKind::ShapeViolation, bad_matmul)));
        assert!(kinds.contains(&(FindingKind::DeadParam, orphan.index())));
        // Sorted by node index.
        let nodes: Vec<_> = analysis.findings.iter().map(|f| f.node).collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted);
    }

    #[test]
    fn check_tape_lints_eager_programs() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 4]));
        let w = tape.leaf_labeled(&Tensor::zeros(&[4, 3]), "head.w");
        let dead = tape.leaf_labeled(&Tensor::vector(&[0.0]), "head.b");
        let y = tape.matmul(x, w);
        let loss = tape.mean_all(y);
        let analysis = check_tape(&tape, Some(loss));
        assert_eq!(analysis.findings.len(), 1);
        assert_eq!(analysis.findings[0].kind, FindingKind::DeadParam);
        assert_eq!(analysis.findings[0].node, dead.index());
    }
}
