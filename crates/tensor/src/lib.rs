//! # gs-tensor
//!
//! A minimal dense-tensor and reverse-mode autodiff engine, built so the
//! GoalSpotter reproduction can fine-tune transformer encoders on CPU
//! without external ML frameworks.
//!
//! - [`Tensor`]: row-major `f32` tensors with the linear algebra a
//!   transformer needs (matmul variants, softmax, layer-norm helpers).
//! - [`Tape`] / [`Var`]: a flat autograd tape; every op's backward rule is
//!   verified against finite differences in unit tests.
//! - [`Evaluator`]: the values-only counterpart that serves inference from
//!   the same [`TapeOps`] model code, over packed multi-sequence batches.
//! - [`ParamStore`] / [`Optimizer`]: named parameters, gradient
//!   accumulation/clipping, SGD and Adam, warmup-linear LR schedules.
//! - [`shape`] / [`graph`]: shape rules and an exportable graph mirror,
//!   shared with the gs-check static analyzer so runtime panics and static
//!   findings report identically.
//! - [`sanitize`]: opt-in NaN/Inf guards over op outputs and gradients with
//!   first-occurrence provenance.
//! - [`serialize`]: JSON checkpoints.

#![warn(missing_docs)]

mod eval;
mod init;
mod optim;
mod tape;
mod tensor;

/// Recycling buffer arena backing every kernel allocation.
pub mod arena;
/// Analytic flop/byte estimates for profiled kernels.
pub mod cost;
/// Exportable graph mirror of recorded tapes.
pub mod graph;
/// Cache-blocked GEMM micro-kernels and kernel/gelu mode switches.
pub mod kernels;
/// Numeric sanitizer plumbing (global flag, issue types).
pub mod sanitize;
/// Checkpoint save/load for parameter stores.
pub mod serialize;
/// Shape rules shared by runtime checks and static analysis.
pub mod shape;

pub use eval::Evaluator;
pub use graph::{infer_shape, Graph, GraphNode, OpKind};
pub use init::{normal, ones, xavier_uniform, zeros};
pub use kernels::{exact_gelu, kernel_mode, set_exact_gelu, set_kernel_mode, KernelMode};
pub use optim::{Binder, Optimizer, ParamId, ParamStore, WarmupLinearSchedule};
pub use sanitize::{sanitize_enabled, set_sanitize, NumericIssue, NumericKind, SanitizePhase};
pub use shape::{ShapeError, ShapeResult};
pub use tape::{Grads, Tape, TapeOps, Var};
pub use tensor::{
    gelu, gelu_exact, gelu_fast, gelu_grad, gelu_grad_exact, gelu_grad_fast, tanh_fast, Tensor,
};
