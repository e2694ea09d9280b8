//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records every operation as a [`Node`] holding the forward
//! value, the operation kind, and (where needed) auxiliary buffers for the
//! backward pass. [`Var`] is a copyable handle into the tape. Calling
//! [`Tape::backward`] walks the nodes in reverse topological order (which is
//! simply reverse insertion order, since operands always precede results)
//! and accumulates gradients.
//!
//! The op set is exactly what a transformer encoder with a token
//! classification head needs; each op's backward rule is unit-tested against
//! finite differences in this module's tests.

use crate::arena;
use crate::cost;
use crate::graph::{Graph, GraphNode, OpKind};
use crate::optim::{ParamId, ParamStore};
use crate::sanitize::{self, NumericIssue, SanitizePhase};
use crate::shape::{self, ShapeError};
use crate::tensor::{Tensor, ELEMWISE_PAR_CUTOFF};
use gs_obs::prof;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Raw `f32` base pointer that may cross threads. Used by row-parallel
/// kernels that fill several output buffers at once: each task writes only
/// the rows it owns, and the fork-join scope joins before the buffers are
/// read, so the aliasing is benign.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// # Safety
    /// The caller must guarantee `[offset, offset + len)` is in bounds and
    /// not written by any other task in the same scope.
    unsafe fn slice_mut<'a>(self, offset: usize, len: usize) -> &'a mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

/// Whether a row-wise tape kernel over `rows` rows of `total` elements
/// should dispatch to the gs-par pool.
#[inline]
fn rows_par_worthwhile(rows: usize, total: usize) -> bool {
    rows > 1 && total >= ELEMWISE_PAR_CUTOFF && gs_par::max_threads() > 1
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// The node index within its tape.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a handle from a raw node index. Used by alternative
    /// [`TapeOps`] implementations (e.g. the gs-check symbolic tape);
    /// a handle is only meaningful on the tape that issued the index.
    pub fn from_index(index: usize) -> Var {
        Var(index)
    }
}

/// Operation kinds recorded on the tape.
#[derive(Debug)]
enum Op {
    /// Input with no parents. `requires_grad` distinguishes parameters from
    /// constants so backward can skip constant subtrees.
    Leaf { requires_grad: bool },
    /// Elementwise `a + b` for equal shapes.
    Add(usize, usize),
    /// `[n, d] + [d]` broadcast (bias add).
    AddBias(usize, usize),
    /// Elementwise `a - b`.
    Sub(usize, usize),
    /// Elementwise `a * b`.
    Mul(usize, usize),
    /// `a * c` for a scalar constant `c`.
    Scale(usize, f32),
    /// `[m,k] x [k,n]`.
    MatMul(usize, usize),
    /// `[m,k] x [n,k]^T` (attention scores).
    MatMulTransB(usize, usize),
    /// Elementwise ReLU.
    Relu(usize),
    /// Elementwise GELU (tanh approximation).
    Gelu(usize),
    /// Elementwise tanh.
    Tanh(usize),
    /// Softmax over the last dimension.
    SoftmaxLastDim(usize),
    /// Layer normalization over the last dimension with learned gain/bias.
    LayerNorm { x: usize, gamma: usize, beta: usize },
    /// Row gather from an embedding table: output `[ids.len, d]`.
    EmbedGather { table: usize, ids: Vec<usize> },
    /// Inverted-dropout: multiply by a fixed 0/(1/(1-p)) mask.
    Dropout { x: usize },
    /// Column-wise concatenation of rank-2 tensors with equal row counts.
    ConcatCols(Vec<usize>),
    /// Column slice `[start, end)` of a rank-2 tensor.
    SliceCols { x: usize, start: usize },
    /// Mean over all elements -> scalar.
    MeanAll(usize),
    /// Sum over all elements -> scalar.
    SumAll(usize),
    /// Token-masked mean cross-entropy over `[n, classes]` logits.
    /// `targets[i] < 0` marks an ignored position.
    CrossEntropy { logits: usize, targets: Vec<i64> },
}

struct Node {
    value: Rc<Tensor>,
    op: Op,
    /// Auxiliary forward buffers needed by backward:
    /// - `SoftmaxLastDim`: none (value suffices)
    /// - `LayerNorm`: normalized activations and per-row inverse stddev
    /// - `Dropout`: the scaled mask
    /// - `CrossEntropy`: softmax probabilities
    aux: Option<Tensor>,
    /// Second auxiliary buffer (LayerNorm inverse stddev per row).
    aux2: Option<Tensor>,
    /// Interned scope id active when the node was recorded.
    scope: u32,
    /// Parameter name for labeled leaves (provenance in analysis output).
    label: Option<String>,
}

/// Stable op name used by [`ShapeError`], exported graphs, and the
/// sanitizer, so every reporting path names ops identically.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf { .. } => "leaf",
        Op::Add(..) => "add",
        Op::AddBias(..) => "add_bias",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Scale(..) => "scale",
        Op::MatMul(..) => "matmul",
        Op::MatMulTransB(..) => "matmul_transb",
        Op::Relu(..) => "relu",
        Op::Gelu(..) => "gelu",
        Op::Tanh(..) => "tanh",
        Op::SoftmaxLastDim(..) => "softmax_last_dim",
        Op::LayerNorm { .. } => "layer_norm",
        Op::EmbedGather { .. } => "embed_gather",
        Op::Dropout { .. } => "dropout",
        Op::ConcatCols(..) => "concat_cols",
        Op::SliceCols { .. } => "slice_cols",
        Op::MeanAll(..) => "mean_all",
        Op::SumAll(..) => "sum_all",
        Op::CrossEntropy { .. } => "cross_entropy",
    }
}

/// Static backward-kernel names (`<op>.bwd`), so profiler rows distinguish
/// forward kernels from their gradient kernels without allocating.
fn bwd_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf { .. } => "leaf.bwd",
        Op::Add(..) => "add.bwd",
        Op::AddBias(..) => "add_bias.bwd",
        Op::Sub(..) => "sub.bwd",
        Op::Mul(..) => "mul.bwd",
        Op::Scale(..) => "scale.bwd",
        Op::MatMul(..) => "matmul.bwd",
        Op::MatMulTransB(..) => "matmul_transb.bwd",
        Op::Relu(..) => "relu.bwd",
        Op::Gelu(..) => "gelu.bwd",
        Op::Tanh(..) => "tanh.bwd",
        Op::SoftmaxLastDim(..) => "softmax_last_dim.bwd",
        Op::LayerNorm { .. } => "layer_norm.bwd",
        Op::EmbedGather { .. } => "embed_gather.bwd",
        Op::Dropout { .. } => "dropout.bwd",
        Op::ConcatCols(..) => "concat_cols.bwd",
        Op::SliceCols { .. } => "slice_cols.bwd",
        Op::MeanAll(..) => "mean_all.bwd",
        Op::SumAll(..) => "sum_all.bwd",
        Op::CrossEntropy { .. } => "cross_entropy.bwd",
    }
}

/// Work estimate for one backward step of `op` given the output gradient
/// length; matmul-family ops read their operand shapes off the tape.
fn bwd_cost(op: &Op, nodes: &[Node], gout_len: usize) -> prof::Cost {
    match op {
        Op::Leaf { .. } => prof::Cost::zero(),
        Op::MatMul(a, b) => {
            let (va, vb) = (&nodes[*a].value, &nodes[*b].value);
            cost::matmul_bwd(va.rows(), va.cols(), vb.cols())
        }
        Op::MatMulTransB(a, b) => {
            let (va, vb) = (&nodes[*a].value, &nodes[*b].value);
            cost::matmul_bwd(va.rows(), va.cols(), vb.rows())
        }
        Op::SoftmaxLastDim(a) => {
            let va = &nodes[*a].value;
            let d = *va.shape().last().unwrap_or(&1);
            cost::softmax(va.len() / d.max(1), d)
        }
        Op::LayerNorm { x, .. } => {
            let vx = &nodes[*x].value;
            let d = *vx.shape().last().unwrap_or(&1);
            let fwd = cost::layer_norm(vx.len() / d.max(1), d);
            // Two row passes (gx, then gamma/beta reductions).
            prof::Cost::new(2 * fwd.flops, 2 * fwd.bytes)
        }
        Op::CrossEntropy { logits, targets } => {
            let classes = nodes[*logits].value.cols();
            cost::cross_entropy(targets.len(), classes)
        }
        Op::EmbedGather { table, ids } => cost::gather(ids.len(), nodes[*table].value.cols()),
        Op::Gelu(..) => cost::gelu_bwd(gout_len),
        Op::Tanh(..) => cost::map(gout_len, 3),
        Op::Mul(..) => cost::zip(2 * gout_len, 1),
        Op::MeanAll(x) | Op::SumAll(x) => cost::map(nodes[*x].value.len(), 1),
        Op::ConcatCols(..) | Op::SliceCols { .. } => cost::copy(gout_len),
        _ => cost::zip(gout_len, 1),
    }
}

/// Panics with the rule's error text on a shape violation — the eager
/// counterpart of a gs-check finding, with an identical message.
pub(crate) fn enforce(result: Result<Vec<usize>, ShapeError>) {
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// Adds the `[d]` bias to every row of `[n, d]` `x` in place.
pub(crate) fn add_row_bias(x: &mut Tensor, bias: &Tensor) {
    for i in 0..x.rows() {
        for (o, &bv) in x.row_mut(i).iter_mut().zip(bias.data()) {
            *o += bv;
        }
    }
}

/// Layer-normalizes one row into `out` (`(x - mean) * istd * gamma + beta`)
/// and returns the row's `(mean, istd)`, so the tape can keep the
/// normalized values for backward.
pub(crate) fn normalize_row(
    row: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
) -> (f32, f32) {
    const EPS: f32 = 1e-5;
    let d = row.len();
    let mean: f32 = row.iter().sum::<f32>() / d as f32;
    let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    let istd = 1.0 / (var + EPS).sqrt();
    for j in 0..d {
        out[j] = (row[j] - mean) * istd * gamma[j] + beta[j];
    }
    (mean, istd)
}

/// Gradient results of a backward pass, indexed by [`Var`].
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// The gradient of the loss with respect to `var`, if it was reached.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.index()).and_then(Option::as_ref)
    }

    /// Takes ownership of a gradient, leaving `None` in its place.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.index()).and_then(Option::take)
    }
}

/// A flat autograd tape.
///
/// Tapes are cheap to create; training loops build one per step and drop it
/// after applying gradients.
///
/// Tapes also record *provenance*: a stack of named scopes
/// ([`push_scope`](Tape::push_scope)) and per-leaf parameter labels, which
/// exported graphs ([`export_graph`](Tape::export_graph)) and the numeric
/// sanitizer use to point findings at a layer and parameter by name.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Interned dotted scope paths; index 0 is the root scope `""`.
    scopes: RefCell<Vec<String>>,
    /// Stack of active scope ids; empty means the root scope.
    scope_stack: RefCell<Vec<u32>>,
    /// Latched from the process-global flag at construction, so the hot-path
    /// cost when disabled is one branch on a plain bool.
    sanitize: bool,
    /// Latched from `gs_obs::prof` at construction, same pattern as
    /// `sanitize`: op methods record per-kernel profiler samples only when
    /// this is set, costing one plain-bool branch otherwise.
    prof: bool,
    first_issue: RefCell<Option<NumericIssue>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape. Numeric sanitizing follows the process-global
    /// flag ([`crate::set_sanitize`]) at this moment.
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
            scopes: RefCell::new(vec![String::new()]),
            scope_stack: RefCell::new(Vec::new()),
            sanitize: sanitize::sanitize_enabled(),
            prof: prof::enabled(),
            first_issue: RefCell::new(None),
        }
    }

    /// Creates an empty tape with numeric sanitizing forced on, regardless
    /// of the global flag.
    pub fn sanitized() -> Self {
        let mut tape = Self::new();
        tape.sanitize = true;
        tape
    }

    /// Whether this tape scans op outputs and gradients for NaN/Inf.
    pub fn is_sanitizing(&self) -> bool {
        self.sanitize
    }

    /// Whether this tape records per-op profiler samples (latched from
    /// [`gs_obs::prof::enabled`] at construction).
    pub fn is_profiling(&self) -> bool {
        self.prof
    }

    /// Starts a profiler timer for op `name` keyed by the tape's current
    /// provenance scope path; a free no-op timer when profiling is off.
    #[inline]
    fn prof_op(&self, name: &'static str) -> prof::OpTimer {
        if !self.prof {
            return prof::OpTimer::noop();
        }
        let path = self.scopes.borrow()[self.current_scope() as usize].clone();
        prof::op_at(path, name)
    }

    /// The first NaN/Inf found by a sanitizing tape, if any.
    pub fn first_numeric_issue(&self) -> Option<NumericIssue> {
        self.first_issue.borrow().clone()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn current_scope(&self) -> u32 {
        self.scope_stack.borrow().last().copied().unwrap_or(0)
    }

    fn push(&self, value: Tensor, op: Op) -> Var {
        self.push_node(value, op, None, None, None)
    }

    fn push_with_aux(
        &self,
        value: Tensor,
        op: Op,
        aux: Option<Tensor>,
        aux2: Option<Tensor>,
    ) -> Var {
        self.push_node(value, op, aux, aux2, None)
    }

    fn push_node(
        &self,
        value: Tensor,
        op: Op,
        aux: Option<Tensor>,
        aux2: Option<Tensor>,
        label: Option<String>,
    ) -> Var {
        let scope = self.current_scope();
        if self.sanitize {
            self.scan_forward(&value, &op, scope, label.as_deref());
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value: Rc::new(value), op, aux, aux2, scope, label });
        Var(nodes.len() - 1)
    }

    /// Records the first non-finite forward value with full provenance.
    fn scan_forward(&self, value: &Tensor, op: &Op, scope: u32, label: Option<&str>) {
        if self.first_issue.borrow().is_some() {
            return;
        }
        if let Some(kind) = sanitize::scan(value.data()) {
            *self.first_issue.borrow_mut() = Some(NumericIssue {
                node: self.nodes.borrow().len(),
                op: op_name(op),
                scope: self.scopes.borrow()[scope as usize].clone(),
                label: label.map(str::to_string),
                kind,
                phase: SanitizePhase::Forward,
            });
        }
    }

    fn value_rc(&self, var: Var) -> Rc<Tensor> {
        Rc::clone(&self.nodes.borrow()[var.index()].value)
    }

    /// The forward value of a node (cheap `Rc` clone).
    pub fn value(&self, var: Var) -> Rc<Tensor> {
        self.value_rc(var)
    }

    /// Records a trainable leaf (parameter) on the tape.
    pub fn leaf(&self, value: Tensor) -> Var {
        let mut timer = self.prof_op("leaf");
        timer.set_cost(cost::copy(value.len()));
        self.push(value, Op::Leaf { requires_grad: true })
    }

    /// Records a constant leaf; backward will not propagate into it.
    pub fn constant(&self, value: Tensor) -> Var {
        let mut timer = self.prof_op("leaf");
        timer.set_cost(cost::copy(value.len()));
        self.push(value, Op::Leaf { requires_grad: false })
    }

    /// Records a trainable leaf carrying a parameter label for provenance.
    pub fn leaf_labeled(&self, value: &Tensor, label: &str) -> Var {
        let mut timer = self.prof_op("leaf");
        timer.set_cost(cost::copy(value.len()));
        self.push_node(
            value.clone(),
            Op::Leaf { requires_grad: true },
            None,
            None,
            Some(label.to_string()),
        )
    }

    /// Records a labeled constant leaf.
    pub fn constant_labeled(&self, value: &Tensor, label: &str) -> Var {
        let mut timer = self.prof_op("leaf");
        timer.set_cost(cost::copy(value.len()));
        self.push_node(
            value.clone(),
            Op::Leaf { requires_grad: false },
            None,
            None,
            Some(label.to_string()),
        )
    }

    /// Adds a `[d]` bias to every row of `[n, d]`.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
        let mut timer = self.prof_op("add_bias");
        let (vx, vb) = (self.value_rc(x), self.value_rc(bias));
        enforce(shape::add_bias(vx.shape(), vb.shape()));
        timer.set_cost(cost::zip(vx.len(), 1));
        let mut out = (*vx).clone();
        add_row_bias(&mut out, &vb);
        self.push(out, Op::AddBias(x.index(), bias.index()))
    }

    /// Elementwise subtraction of equal shapes.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let mut timer = self.prof_op("sub");
        let (va, vb) = (self.value_rc(a), self.value_rc(b));
        enforce(shape::same_shape("sub", va.shape(), vb.shape()));
        timer.set_cost(cost::zip(va.len(), 1));
        let out = va.zip_map(&vb, |x, y| x - y);
        self.push(out, Op::Sub(a.index(), b.index()))
    }

    /// Elementwise multiplication of equal shapes.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let mut timer = self.prof_op("mul");
        let (va, vb) = (self.value_rc(a), self.value_rc(b));
        enforce(shape::same_shape("mul", va.shape(), vb.shape()));
        timer.set_cost(cost::zip(va.len(), 1));
        let out = va.zip_map(&vb, |x, y| x * y);
        self.push(out, Op::Mul(a.index(), b.index()))
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        let mut timer = self.prof_op("scale");
        let va = self.value_rc(a);
        timer.set_cost(cost::map(va.len(), 1));
        let out = va.map(|x| x * c);
        self.push(out, Op::Scale(a.index(), c))
    }

    /// Matrix product `[m,k] x [k,n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let mut timer = self.prof_op("matmul");
        let (va, vb) = (self.value_rc(a), self.value_rc(b));
        enforce(shape::matmul(va.shape(), vb.shape()));
        timer.set_cost(cost::matmul(va.rows(), va.cols(), vb.cols()));
        let out = va.matmul(&vb);
        self.push(out, Op::MatMul(a.index(), b.index()))
    }

    /// Matrix product against a transposed right operand `[m,k] x [n,k]^T`.
    pub fn matmul_transb(&self, a: Var, b: Var) -> Var {
        let mut timer = self.prof_op("matmul_transb");
        let (va, vb) = (self.value_rc(a), self.value_rc(b));
        enforce(shape::matmul_transb(va.shape(), vb.shape()));
        timer.set_cost(cost::matmul(va.rows(), va.cols(), vb.rows()));
        let out = va.matmul_transb(&vb);
        self.push(out, Op::MatMulTransB(a.index(), b.index()))
    }

    /// Elementwise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let mut timer = self.prof_op("relu");
        let va = self.value_rc(a);
        timer.set_cost(cost::map(va.len(), 1));
        let out = va.map(|x| x.max(0.0));
        self.push(out, Op::Relu(a.index()))
    }

    /// Elementwise tanh.
    pub fn tanh(&self, a: Var) -> Var {
        let mut timer = self.prof_op("tanh");
        let va = self.value_rc(a);
        timer.set_cost(cost::map(va.len(), 5));
        let out = va.map(f32::tanh);
        self.push(out, Op::Tanh(a.index()))
    }

    /// Softmax over the last dimension.
    pub fn softmax_last_dim(&self, a: Var) -> Var {
        let mut timer = self.prof_op("softmax_last_dim");
        let va = self.value_rc(a);
        enforce(shape::softmax_last_dim(va.shape()));
        let d = *va.shape().last().expect("softmax shape");
        timer.set_cost(cost::softmax(va.len() / d, d));
        let out = va.softmax_last_dim();
        self.push(out, Op::SoftmaxLastDim(a.index()))
    }

    /// Column-wise concatenation of rank-2 tensors.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        let mut timer = self.prof_op("concat_cols");
        let values: Vec<Rc<Tensor>> = parts.iter().map(|&p| self.value_rc(p)).collect();
        let shapes: Vec<&[usize]> = values.iter().map(|v| v.shape()).collect();
        enforce(shape::concat_cols(&shapes));
        timer.set_cost(cost::copy(values.iter().map(|v| v.len()).sum()));
        let refs: Vec<&Tensor> = values.iter().map(|v| v.as_ref()).collect();
        let out = Tensor::concat_cols(&refs);
        self.push(out, Op::ConcatCols(parts.iter().map(|p| p.index()).collect()))
    }

    /// Column slice `[start, end)` of a rank-2 tensor.
    pub fn slice_cols(&self, x: Var, start: usize, end: usize) -> Var {
        let mut timer = self.prof_op("slice_cols");
        let vx = self.value_rc(x);
        enforce(shape::slice_cols(vx.shape(), start, end));
        timer.set_cost(cost::copy(vx.rows() * (end - start)));
        let out = vx.slice_cols(start, end);
        self.push(out, Op::SliceCols { x: x.index(), start })
    }

    /// Mean over all elements.
    pub fn mean_all(&self, x: Var) -> Var {
        let mut timer = self.prof_op("mean_all");
        let vx = self.value_rc(x);
        timer.set_cost(cost::map(vx.len(), 1));
        let out = Tensor::scalar(vx.mean());
        self.push(out, Op::MeanAll(x.index()))
    }

    /// Sum over all elements.
    pub fn sum_all(&self, x: Var) -> Var {
        let mut timer = self.prof_op("sum_all");
        let vx = self.value_rc(x);
        timer.set_cost(cost::map(vx.len(), 1));
        let out = Tensor::scalar(vx.sum());
        self.push(out, Op::SumAll(x.index()))
    }

    /// Mean cross-entropy between `[n, classes]` logits and integer targets.
    ///
    /// Positions with `targets[i] < 0` are ignored (padding / special
    /// tokens). The mean is taken over non-ignored positions.
    pub fn cross_entropy(&self, logits: Var, targets: &[i64]) -> Var {
        let mut timer = self.prof_op("cross_entropy");
        let vl = self.value_rc(logits);
        let max_target = targets.iter().copied().filter(|&t| t >= 0).max();
        enforce(shape::cross_entropy(vl.shape(), targets.len(), max_target));
        timer.set_cost(cost::cross_entropy(targets.len(), vl.cols()));
        let probs = vl.softmax_last_dim();
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (i, &t) in targets.iter().enumerate() {
            if t < 0 {
                continue;
            }
            let t = t as usize;
            let p = probs.at2(i, t).max(1e-12);
            total -= (p as f64).ln();
            count += 1;
        }
        let loss = if count == 0 { 0.0 } else { (total / count as f64) as f32 };
        self.push_with_aux(
            Tensor::scalar(loss),
            Op::CrossEntropy { logits: logits.index(), targets: targets.to_vec() },
            Some(probs),
            None,
        )
    }

    /// Runs reverse-mode differentiation from `loss` (which must be scalar)
    /// and returns the gradient of every reached node.
    pub fn backward(&self, loss: Var) -> Grads {
        let nodes = self.nodes.borrow();
        let n = nodes.len();
        assert!(loss.index() < n, "loss var not on this tape");
        assert_eq!(nodes[loss.index()].value.len(), 1, "backward requires a scalar loss");

        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss.index()] =
            Some(Tensor::from_vec(nodes[loss.index()].value.shape().to_vec(), vec![1.0]));

        for idx in (0..n).rev() {
            let Some(gout) = grads[idx].take() else { continue };
            // Reinsert so callers can read intermediate grads too.
            let node = &nodes[idx];
            let gout_len = gout.len();
            let prof_start = if self.prof { Some(Instant::now()) } else { None };
            if self.sanitize && self.first_issue.borrow().is_none() {
                if let Some(kind) = sanitize::scan(gout.data()) {
                    *self.first_issue.borrow_mut() = Some(NumericIssue {
                        node: idx,
                        op: op_name(&node.op),
                        scope: self.scopes.borrow()[node.scope as usize].clone(),
                        label: node.label.clone(),
                        kind,
                        phase: SanitizePhase::Backward,
                    });
                }
            }
            match &node.op {
                Op::Leaf { requires_grad } => {
                    // Keep gradients only for trainable leaves; constants
                    // (position ids, masks) drop theirs to save memory.
                    if *requires_grad {
                        grads[idx] = Some(gout);
                    }
                    continue;
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, gout.clone());
                    accumulate(&mut grads, *b, gout.clone());
                }
                Op::AddBias(x, bias) => {
                    accumulate(&mut grads, *bias, gout.col_sum());
                    accumulate(&mut grads, *x, gout.clone());
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, gout.clone());
                    accumulate(&mut grads, *b, gout.map(|g| -g));
                }
                Op::Mul(a, b) => {
                    let (va, vb) = (&nodes[*a].value, &nodes[*b].value);
                    accumulate(&mut grads, *a, gout.zip_map(vb, |g, y| g * y));
                    accumulate(&mut grads, *b, gout.zip_map(va, |g, x| g * x));
                }
                Op::Scale(a, c) => {
                    accumulate(&mut grads, *a, gout.map(|g| g * c));
                }
                Op::MatMul(a, b) => {
                    let (va, vb) = (&nodes[*a].value, &nodes[*b].value);
                    // dA = dY B^T ; dB = A^T dY
                    accumulate(&mut grads, *a, gout.matmul_transb(vb));
                    accumulate(&mut grads, *b, va.matmul_transa(&gout));
                }
                Op::MatMulTransB(a, b) => {
                    let (va, vb) = (&nodes[*a].value, &nodes[*b].value);
                    // Y = A B^T : dA = dY B ; dB = dY^T A
                    accumulate(&mut grads, *a, gout.matmul(vb));
                    accumulate(&mut grads, *b, gout.matmul_transa(va));
                }
                Op::Relu(a) => {
                    let va = &nodes[*a].value;
                    accumulate(
                        &mut grads,
                        *a,
                        gout.zip_map(va, |g, x| if x > 0.0 { g } else { 0.0 }),
                    );
                }
                Op::Gelu(a) => {
                    let va = &nodes[*a].value;
                    accumulate(&mut grads, *a, va.gelu_backward(&gout));
                }
                Op::Tanh(a) => {
                    // value is tanh(x); grad = (1 - value^2)
                    accumulate(&mut grads, *a, gout.zip_map(&node.value, |g, y| g * (1.0 - y * y)));
                }
                Op::SoftmaxLastDim(a) => {
                    let s = &node.value; // softmax output
                    let d = *s.shape().last().expect("softmax shape");
                    let rows = s.len() / d;
                    let mut gin = arena::alloc_zeroed(s.len());
                    let (s_data, g_all) = (s.data(), gout.data());
                    let bw_row = |r: usize, gin_row: &mut [f32]| {
                        let srow = &s_data[r * d..(r + 1) * d];
                        let grow = &g_all[r * d..(r + 1) * d];
                        let dot: f32 = srow.iter().zip(grow).map(|(&sv, &gv)| sv * gv).sum();
                        for j in 0..d {
                            gin_row[j] = srow[j] * (grow[j] - dot);
                        }
                    };
                    if rows_par_worthwhile(rows, s.len()) {
                        let gin_p = SendPtr(gin.as_mut_ptr());
                        gs_par::for_each_index(rows, |r| unsafe {
                            bw_row(r, gin_p.slice_mut(r * d, d));
                        });
                    } else {
                        for r in 0..rows {
                            bw_row(r, &mut gin[r * d..(r + 1) * d]);
                        }
                    }
                    accumulate(&mut grads, *a, Tensor::from_vec(s.shape().to_vec(), gin));
                }
                Op::LayerNorm { x, gamma, beta } => {
                    let xhat = node.aux.as_ref().expect("layer_norm aux");
                    let inv_std = node.aux2.as_ref().expect("layer_norm aux2");
                    let vg = &nodes[*gamma].value;
                    let d = *xhat.shape().last().expect("ln shape");
                    let rows = xhat.len() / d;
                    let mut gx = arena::alloc_zeroed(xhat.len());
                    let mut ggamma = arena::alloc_zeroed(d);
                    let mut gbeta = arena::alloc_zeroed(d);
                    // `gx` rows are independent; `ggamma`/`gbeta` reduce
                    // *across* rows, so they stay on this thread, summed in
                    // ascending row order regardless of thread count (the
                    // determinism contract forbids accumulating floats in
                    // thread arrival order).
                    let (xh_data, go_data, istd_data, vg_data) =
                        (xhat.data(), gout.data(), inv_std.data(), vg.data());
                    let gx_row = |r: usize, gx_row: &mut [f32]| {
                        let xh = &xh_data[r * d..(r + 1) * d];
                        let go = &go_data[r * d..(r + 1) * d];
                        let istd = istd_data[r];
                        // dxhat = dY * gamma
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..d {
                            let dxh = go[j] * vg_data[j];
                            sum_dxhat += dxh;
                            sum_dxhat_xhat += dxh * xh[j];
                        }
                        let inv_d = 1.0 / d as f32;
                        for j in 0..d {
                            let dxh = go[j] * vg_data[j];
                            gx_row[j] =
                                istd * (dxh - inv_d * sum_dxhat - xh[j] * inv_d * sum_dxhat_xhat);
                        }
                    };
                    if rows_par_worthwhile(rows, xhat.len()) {
                        let gx_p = SendPtr(gx.as_mut_ptr());
                        gs_par::for_each_index(rows, |r| unsafe {
                            gx_row(r, gx_p.slice_mut(r * d, d));
                        });
                    } else {
                        for r in 0..rows {
                            gx_row(r, &mut gx[r * d..(r + 1) * d]);
                        }
                    }
                    for r in 0..rows {
                        let xh = &xhat.data()[r * d..(r + 1) * d];
                        let go = &gout.data()[r * d..(r + 1) * d];
                        for j in 0..d {
                            ggamma[j] += go[j] * xh[j];
                            gbeta[j] += go[j];
                        }
                    }
                    accumulate(&mut grads, *x, Tensor::from_vec(xhat.shape().to_vec(), gx));
                    accumulate(&mut grads, *gamma, Tensor::from_vec(vec![d], ggamma));
                    accumulate(&mut grads, *beta, Tensor::from_vec(vec![d], gbeta));
                }
                Op::EmbedGather { table, ids } => {
                    let vt = &nodes[*table].value;
                    let (r, c) = (vt.rows(), vt.cols());
                    let mut gt = Tensor::zeros(&[r, c]);
                    for (pos, &id) in ids.iter().enumerate() {
                        let src = &gout.data()[pos * c..(pos + 1) * c];
                        let dst = gt.row_mut(id);
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    accumulate(&mut grads, *table, gt);
                }
                Op::Dropout { x } => {
                    let mask = node.aux.as_ref().expect("dropout mask");
                    accumulate(&mut grads, *x, gout.zip_map(mask, |g, m| g * m));
                }
                Op::ConcatCols(parts) => {
                    let mut start = 0usize;
                    for &p in parts {
                        let w = nodes[p].value.cols();
                        accumulate(&mut grads, p, gout.slice_cols(start, start + w));
                        start += w;
                    }
                }
                Op::SliceCols { x, start } => {
                    let vx = &nodes[*x].value;
                    let (r, c) = (vx.rows(), vx.cols());
                    let w = gout.cols();
                    let mut gx = Tensor::zeros(&[r, c]);
                    for i in 0..r {
                        let dst = &mut gx.row_mut(i)[*start..*start + w];
                        dst.copy_from_slice(gout.row(i));
                    }
                    accumulate(&mut grads, *x, gx);
                }
                Op::MeanAll(x) => {
                    let vx = &nodes[*x].value;
                    let g = gout.item() / vx.len() as f32;
                    accumulate(&mut grads, *x, Tensor::full(vx.shape(), g));
                }
                Op::SumAll(x) => {
                    let vx = &nodes[*x].value;
                    accumulate(&mut grads, *x, Tensor::full(vx.shape(), gout.item()));
                }
                Op::CrossEntropy { logits, targets } => {
                    let probs = node.aux.as_ref().expect("ce probs");
                    let count = targets.iter().filter(|&&t| t >= 0).count().max(1) as f32;
                    let scale = gout.item() / count;
                    let classes = probs.cols();
                    let mut gl = arena::alloc_zeroed(probs.len());
                    let ce_row = |i: usize, grow: &mut [f32]| {
                        let t = targets[i];
                        if t < 0 {
                            return;
                        }
                        let prow = probs.row(i);
                        for j in 0..classes {
                            grow[j] = scale * prow[j];
                        }
                        grow[t as usize] -= scale;
                    };
                    if rows_par_worthwhile(targets.len(), probs.len()) {
                        let gl_p = SendPtr(gl.as_mut_ptr());
                        gs_par::for_each_index(targets.len(), |i| unsafe {
                            ce_row(i, gl_p.slice_mut(i * classes, classes));
                        });
                    } else {
                        for i in 0..targets.len() {
                            ce_row(i, &mut gl[i * classes..(i + 1) * classes]);
                        }
                    }
                    accumulate(&mut grads, *logits, Tensor::from_vec(probs.shape().to_vec(), gl));
                }
            }
            if let Some(start) = prof_start {
                let ns = start.elapsed().as_nanos() as u64;
                let scopes = self.scopes.borrow();
                prof::record_at(
                    &scopes[node.scope as usize],
                    bwd_name(&node.op),
                    ns,
                    bwd_cost(&node.op, &nodes, gout_len),
                );
            }
        }
        Grads { grads }
    }

    /// Exports the recorded program as a [`Graph`] for static analysis.
    ///
    /// Data-carrying ops are summarized by what their shape rules need;
    /// every node keeps its concrete shape, scope, and label.
    pub fn export_graph(&self) -> Graph {
        let nodes = self.nodes.borrow();
        let graph_nodes = nodes
            .iter()
            .map(|node| GraphNode {
                kind: export_kind(node),
                shape: Some(node.value.shape().to_vec()),
                scope: node.scope,
                label: node.label.clone(),
            })
            .collect();
        Graph { nodes: graph_nodes, scopes: self.scopes.borrow().clone() }
    }
}

fn export_kind(node: &Node) -> OpKind {
    match &node.op {
        Op::Leaf { requires_grad } => OpKind::Leaf { requires_grad: *requires_grad },
        Op::Add(a, b) => OpKind::Add { a: *a, b: *b },
        Op::AddBias(x, bias) => OpKind::AddBias { x: *x, bias: *bias },
        Op::Sub(a, b) => OpKind::Sub { a: *a, b: *b },
        Op::Mul(a, b) => OpKind::Mul { a: *a, b: *b },
        Op::Scale(x, factor) => OpKind::Scale { x: *x, factor: *factor },
        Op::MatMul(a, b) => OpKind::MatMul { a: *a, b: *b },
        Op::MatMulTransB(a, b) => OpKind::MatMulTransB { a: *a, b: *b },
        Op::Relu(x) => OpKind::Relu { x: *x },
        Op::Gelu(x) => OpKind::Gelu { x: *x },
        Op::Tanh(x) => OpKind::Tanh { x: *x },
        Op::SoftmaxLastDim(x) => OpKind::SoftmaxLastDim { x: *x },
        Op::LayerNorm { x, gamma, beta } => OpKind::LayerNorm { x: *x, gamma: *gamma, beta: *beta },
        Op::EmbedGather { table, ids } => OpKind::EmbedGather {
            table: *table,
            num_ids: ids.len(),
            max_id: ids.iter().copied().max(),
        },
        Op::Dropout { x } => OpKind::Dropout {
            x: *x,
            mask_shape: node.aux.as_ref().expect("dropout mask").shape().to_vec(),
        },
        Op::ConcatCols(parts) => OpKind::ConcatCols { parts: parts.clone() },
        Op::SliceCols { x, start } => {
            OpKind::SliceCols { x: *x, start: *start, end: *start + node.value.cols() }
        }
        Op::MeanAll(x) => OpKind::MeanAll { x: *x },
        Op::SumAll(x) => OpKind::SumAll { x: *x },
        Op::CrossEntropy { logits, targets } => OpKind::CrossEntropy {
            logits: *logits,
            num_targets: targets.len(),
            max_target: targets.iter().copied().filter(|&t| t >= 0).max(),
        },
    }
}

/// The op surface generic model code runs on.
///
/// Model code written against this trait (`TokenClassifier::forward_impl`)
/// runs on three implementations: the eager autograd [`Tape`] for training,
/// the values-only [`Evaluator`](crate::Evaluator) for serving, and
/// gs-check's `SymTape`, which traces shapes in milliseconds without
/// touching tensor data. The trait holds exactly the ops that code calls;
/// the tape's other ops (`matmul`, `softmax_last_dim`, `cross_entropy`, …)
/// are inherent methods.
pub trait TapeOps {
    /// Binds parameter `id` of `store` as a trainable leaf labeled with its
    /// name.
    fn param(&self, store: &ParamStore, id: ParamId) -> Var;
    /// Elementwise `a + b`.
    fn add(&self, a: Var, b: Var) -> Var;
    /// `x w + b` for `[n, k]` `x`, `[k, m]` `w` and `[m]` `b`: the shape
    /// rules of `matmul` then `add_bias`.
    fn linear(&self, x: Var, w: Var, b: Var) -> Var;
    /// Elementwise GELU.
    fn gelu(&self, a: Var) -> Var;
    /// Layer normalization with learned gain/bias.
    fn layer_norm(&self, x: Var, gamma: Var, beta: Var) -> Var;
    /// Row gather from an embedding table.
    fn embed_gather(&self, table: Var, ids: &[usize]) -> Var;
    /// Inverted dropout with a precomputed mask (entries `0` or `1/(1-p)`).
    fn dropout_with_mask(&self, x: Var, mask: Tensor) -> Var;
    /// Multi-head self-attention of `q`, `k`, `v` (`[rows, d]`) within each
    /// sequence of `seqs` (`(start, len)` rows tiling `0..rows`), with
    /// scores scaled by `scale`; the shape rule is [`shape::attention`].
    /// The autograd [`Tape`] takes exactly one sequence (training runs one
    /// per tape) and panics on more. That limit is not part of the shape
    /// rule, so gs-check does not report it.
    fn attention(
        &self,
        q: Var,
        k: Var,
        v: Var,
        seqs: &[(usize, usize)],
        n_heads: usize,
        scale: f32,
    ) -> Var;
    /// Enters a named provenance scope; nested scopes join with dots
    /// (`l0` then `attn` is `l0.attn`).
    fn push_scope(&self, name: &str);
    /// Leaves the innermost scope.
    fn pop_scope(&self);
}

impl TapeOps for Tape {
    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.leaf_labeled(store.value(id), store.name(id))
    }

    fn add(&self, a: Var, b: Var) -> Var {
        let mut timer = self.prof_op("add");
        let (va, vb) = (self.value_rc(a), self.value_rc(b));
        enforce(shape::same_shape("add", va.shape(), vb.shape()));
        timer.set_cost(cost::zip(va.len(), 1));
        let out = va.zip_map(&vb, |x, y| x + y);
        self.push(out, Op::Add(a.index(), b.index()))
    }

    fn linear(&self, x: Var, w: Var, b: Var) -> Var {
        self.add_bias(self.matmul(x, w), b)
    }

    fn gelu(&self, a: Var) -> Var {
        let mut timer = self.prof_op("gelu");
        let va = self.value_rc(a);
        timer.set_cost(cost::gelu(va.len()));
        let out = va.gelu_forward();
        self.push(out, Op::Gelu(a.index()))
    }

    fn layer_norm(&self, x: Var, gamma: Var, beta: Var) -> Var {
        let mut timer = self.prof_op("layer_norm");
        let vx = self.value_rc(x);
        let vg = self.value_rc(gamma);
        let vb = self.value_rc(beta);
        enforce(shape::layer_norm(vx.shape(), vg.shape(), vb.shape()));
        let d = *vx.shape().last().expect("layer_norm on rank-0");
        let n = vx.len() / d;
        timer.set_cost(cost::layer_norm(n, d));
        let mut xhat = arena::alloc_zeroed(vx.len());
        let mut inv_std = arena::alloc_zeroed(n);
        let mut out = arena::alloc_zeroed(vx.len());
        let (x_data, g_data, b_data) = (vx.data(), vg.data(), vb.data());
        let ln_row = |r: usize, xhat_row: &mut [f32], out_row: &mut [f32], istd_out: &mut f32| {
            let row = &x_data[r * d..(r + 1) * d];
            let (mean, istd) = normalize_row(row, g_data, b_data, out_row);
            *istd_out = istd;
            for (xh, &v) in xhat_row.iter_mut().zip(row) {
                *xh = (v - mean) * istd;
            }
        };
        if rows_par_worthwhile(n, vx.len()) {
            // Rows normalize independently; each task owns disjoint rows of
            // all three outputs, with per-row math identical to the serial
            // loop.
            let (xhat_p, istd_p, out_p) = (
                SendPtr(xhat.as_mut_ptr()),
                SendPtr(inv_std.as_mut_ptr()),
                SendPtr(out.as_mut_ptr()),
            );
            gs_par::for_each_index(n, |r| unsafe {
                ln_row(
                    r,
                    xhat_p.slice_mut(r * d, d),
                    out_p.slice_mut(r * d, d),
                    &mut istd_p.slice_mut(r, 1)[0],
                );
            });
        } else {
            for r in 0..n {
                ln_row(
                    r,
                    &mut xhat[r * d..(r + 1) * d],
                    &mut out[r * d..(r + 1) * d],
                    &mut inv_std[r],
                );
            }
        }
        self.push_with_aux(
            Tensor::from_vec(vx.shape().to_vec(), out),
            Op::LayerNorm { x: x.index(), gamma: gamma.index(), beta: beta.index() },
            Some(Tensor::from_vec(vx.shape().to_vec(), xhat)),
            Some(Tensor::from_vec(vec![n], inv_std)),
        )
    }

    fn embed_gather(&self, table: Var, ids: &[usize]) -> Var {
        let mut timer = self.prof_op("embed_gather");
        let vt = self.value_rc(table);
        enforce(shape::embed_gather(vt.shape(), ids.len(), ids.iter().copied().max()));
        timer.set_cost(cost::gather(ids.len(), vt.cols()));
        let out = vt.gather_rows(ids);
        self.push(out, Op::EmbedGather { table: table.index(), ids: ids.to_vec() })
    }

    fn dropout_with_mask(&self, x: Var, mask: Tensor) -> Var {
        let mut timer = self.prof_op("dropout");
        let vx = self.value_rc(x);
        enforce(shape::dropout(vx.shape(), mask.shape()));
        timer.set_cost(cost::zip(vx.len(), 1));
        let out = vx.zip_map(&mask, |a, m| a * m);
        self.push_with_aux(out, Op::Dropout { x: x.index() }, Some(mask), None)
    }

    fn attention(
        &self,
        q: Var,
        k: Var,
        v: Var,
        seqs: &[(usize, usize)],
        n_heads: usize,
        scale: f32,
    ) -> Var {
        let width = {
            let (vq, vk, vv) = (self.value_rc(q), self.value_rc(k), self.value_rc(v));
            enforce(shape::attention(vq.shape(), vk.shape(), vv.shape(), seqs, n_heads));
            vq.cols()
        };
        assert_eq!(seqs.len(), 1, "the tape runs attention over one sequence");
        let dh = width / n_heads;
        let heads: Vec<Var> = (0..n_heads)
            .map(|head| {
                let (s, e) = (head * dh, (head + 1) * dh);
                let qh = self.slice_cols(q, s, e);
                let kh = self.slice_cols(k, s, e);
                let vh = self.slice_cols(v, s, e);
                let scores = self.scale(self.matmul_transb(qh, kh), scale);
                let attn = self.softmax_last_dim(scores);
                self.matmul(attn, vh)
            })
            .collect();
        self.concat_cols(&heads)
    }

    fn push_scope(&self, name: &str) {
        let parent = self.current_scope();
        let full = {
            let scopes = self.scopes.borrow();
            let parent_name = &scopes[parent as usize];
            if parent_name.is_empty() {
                name.to_string()
            } else {
                format!("{parent_name}.{name}")
            }
        };
        let id = {
            let mut scopes = self.scopes.borrow_mut();
            match scopes.iter().position(|s| *s == full) {
                Some(i) => i as u32,
                None => {
                    scopes.push(full);
                    (scopes.len() - 1) as u32
                }
            }
        };
        self.scope_stack.borrow_mut().push(id);
    }

    fn pop_scope(&self) {
        self.scope_stack.borrow_mut().pop();
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks `d loss / d input` for a scalar-producing graph.
    fn finite_diff_check(input: Tensor, build: impl Fn(&Tape, Var) -> Var, tol: f32) {
        let tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("input grad").clone();

        let h = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += h;
            let mut minus = input.clone();
            minus.data_mut()[i] -= h;
            let tp = Tape::new();
            let lp = build(&tp, tp.leaf(plus));
            let tm = Tape::new();
            let lm = build(&tm, tm.leaf(minus));
            let fd = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * h);
            let a = analytic.data()[i];
            assert!(
                (a - fd).abs() <= tol * (1.0 + fd.abs()),
                "element {}: analytic {} vs finite-diff {}",
                i,
                a,
                fd
            );
        }
    }

    fn sample_matrix() -> Tensor {
        Tensor::matrix(&[vec![0.5, -1.2, 0.3], vec![1.1, 0.0, -0.7]])
    }

    #[test]
    fn grad_add_mul_chain() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let y = t.mul(x, x); // x^2
                let z = t.add(y, x); // x^2 + x
                t.sum_all(z)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_sub_scale() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let y = t.scale(x, 3.0);
                let z = t.sub(y, x);
                t.mean_all(z)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let w =
                    t.constant(Tensor::matrix(&[vec![0.2, -0.5], vec![1.0, 0.3], vec![-0.7, 0.8]]));
                let y = t.matmul(x, w);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_weight_side() {
        // Check gradient flowing into the right operand of a matmul.
        finite_diff_check(
            Tensor::matrix(&[vec![0.1, -0.4], vec![0.9, 0.2], vec![-0.3, 0.6]]),
            |t, w| {
                let x = t.constant(Tensor::matrix(&[vec![1.0, 2.0, -1.0], vec![0.5, -0.5, 2.0]]));
                let y = t.matmul(x, w);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_matmul_transb() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let b = t.constant(Tensor::matrix(&[vec![0.3, -0.2, 0.9], vec![1.5, 0.4, -0.6]]));
                let y = t.matmul_transb(x, b);
                let y2 = t.mul(y, y);
                t.mean_all(y2)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_activations() {
        for act in ["relu", "gelu", "tanh"] {
            finite_diff_check(
                Tensor::matrix(&[vec![0.5, -1.2, 0.3], vec![1.1, 0.25, -0.7]]),
                |t, x| {
                    let y = match act {
                        "relu" => t.relu(x),
                        "gelu" => t.gelu(x),
                        _ => t.tanh(x),
                    };
                    let y2 = t.mul(y, y);
                    t.sum_all(y2)
                },
                3e-2,
            );
        }
    }

    #[test]
    fn grad_softmax() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let s = t.softmax_last_dim(x);
                let w = t.constant(Tensor::matrix(&[vec![1.0, -2.0, 0.5], vec![0.3, 0.9, -1.1]]));
                let p = t.mul(s, w);
                t.sum_all(p)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm_input() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let gamma = t.constant(Tensor::vector(&[1.2, 0.8, 1.0]));
                let beta = t.constant(Tensor::vector(&[0.1, -0.2, 0.0]));
                let y = t.layer_norm(x, gamma, beta);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            5e-2,
        );
    }

    #[test]
    fn grad_layer_norm_gamma_beta() {
        let tape = Tape::new();
        let x = tape.constant(sample_matrix());
        let gamma = tape.leaf(Tensor::vector(&[1.2, 0.8, 1.0]));
        let beta = tape.leaf(Tensor::vector(&[0.1, -0.2, 0.0]));
        let y = tape.layer_norm(x, gamma, beta);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // d(sum)/d(beta_j) = number of rows (each row adds beta_j once)
        let gb = grads.get(beta).expect("beta grad");
        for &g in gb.data() {
            assert!((g - 2.0).abs() < 1e-4, "beta grad {}", g);
        }
        // gamma grad = column sums of xhat, which are ~0 per row-normalized
        // columns only when rows are symmetric; just check finiteness here.
        let gg = grads.get(gamma).expect("gamma grad");
        assert!(!gg.has_non_finite());
    }

    #[test]
    fn grad_embed_gather_scatters() {
        let tape = Tape::new();
        let table = tape.leaf(Tensor::matrix(&[vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]));
        let e = tape.embed_gather(table, &[1, 1, 2]);
        let loss = tape.sum_all(e);
        let grads = tape.backward(loss);
        let gt = grads.get(table).expect("table grad");
        assert_eq!(gt.row(0), &[0.0, 0.0]);
        assert_eq!(gt.row(1), &[2.0, 2.0]); // gathered twice
        assert_eq!(gt.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn grad_concat_slice_roundtrip() {
        finite_diff_check(
            sample_matrix(),
            |t, x| {
                let left = t.slice_cols(x, 0, 2);
                let right = t.slice_cols(x, 2, 3);
                let back = t.concat_cols(&[right, left]);
                let sq = t.mul(back, back);
                t.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_cross_entropy() {
        finite_diff_check(
            Tensor::matrix(&[vec![0.2, -0.3, 0.8], vec![1.5, 0.1, -0.9]]),
            |t, x| t.cross_entropy(x, &[2, 0]),
            2e-2,
        );
    }

    #[test]
    fn cross_entropy_ignores_negative_targets() {
        let tape = Tape::new();
        let logits =
            tape.leaf(Tensor::matrix(&[vec![10.0, 0.0], vec![0.0, 10.0], vec![-5.0, 5.0]]));
        // Only the first row counts; it is confidently correct, so the loss
        // should be near zero regardless of the other rows.
        let loss = tape.cross_entropy(logits, &[0, -1, -1]);
        assert!(tape.value(loss).item() < 1e-3);
        let grads = tape.backward(loss);
        let gl = grads.get(logits).expect("logit grad");
        // Ignored rows must receive exactly zero gradient.
        assert_eq!(gl.row(1), &[0.0, 0.0]);
        assert_eq!(gl.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn cross_entropy_all_ignored_is_zero() {
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::matrix(&[vec![1.0, 2.0]]));
        let loss = tape.cross_entropy(logits, &[-1]);
        assert_eq!(tape.value(loss).item(), 0.0);
    }

    #[test]
    fn dropout_mask_applies_and_backprops() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::vector(&[1.0, 2.0, 3.0, 4.0]).reshaped(&[2, 2]));
        let mask = Tensor::from_vec(vec![2, 2], vec![2.0, 0.0, 2.0, 0.0]);
        let y = tape.dropout_with_mask(x, mask);
        assert_eq!(tape.value(y).data(), &[2.0, 0.0, 6.0, 0.0]);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).expect("grad").data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let tape = Tape::new();
        let x = tape.leaf(sample_matrix());
        let y = tape.relu(x);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(y);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn grad_accumulates_over_shared_subexpression() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0));
        let y = tape.add(x, x); // 2x -> dy/dx = 2
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).expect("grad").item(), 2.0);
    }

    #[test]
    fn add_bias_broadcasts_and_backprops() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = tape.leaf(Tensor::vector(&[10.0, 20.0]));
        let y = tape.add_bias(x, b);
        assert_eq!(tape.value(y).data(), &[11.0, 22.0, 13.0, 24.0]);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(b).expect("bias grad").data(), &[2.0, 2.0]);
        assert_eq!(grads.get(x).expect("x grad").data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn shape_violation_panics_with_rule_message() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = tape.leaf(Tensor::matrix(&[vec![1.0, 2.0, 3.0]]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.matmul(a, b);
        }));
        let payload = *result.unwrap_err().downcast::<String>().expect("panic message");
        assert_eq!(
            payload,
            crate::shape::matmul(&[2, 2], &[1, 3]).unwrap_err().to_string(),
            "runtime panic must carry the shared rule's message"
        );
    }

    #[test]
    fn scopes_nest_and_intern() {
        let tape = Tape::new();
        tape.push_scope("l0");
        tape.push_scope("attn");
        let x = tape.leaf(Tensor::scalar(1.0));
        tape.pop_scope();
        tape.pop_scope();
        tape.push_scope("l0");
        tape.push_scope("attn");
        let y = tape.leaf(Tensor::scalar(2.0));
        tape.pop_scope();
        tape.pop_scope();
        let graph = tape.export_graph();
        assert_eq!(graph.scope_name(graph.nodes[x.index()].scope), "l0.attn");
        // Re-entering the same path reuses the interned id.
        assert_eq!(graph.nodes[x.index()].scope, graph.nodes[y.index()].scope);
    }

    #[test]
    fn export_graph_mirrors_ops_shapes_and_labels() {
        let tape = Tape::new();
        let table = tape.leaf_labeled(
            &Tensor::matrix(&[vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]),
            "emb.tok",
        );
        let e = tape.embed_gather(table, &[2, 0, 2]);
        let loss = tape.cross_entropy(e, &[1, -1, 0]);
        let graph = tape.export_graph();
        assert_eq!(graph.len(), 3);
        assert_eq!(graph.nodes[table.index()].label.as_deref(), Some("emb.tok"));
        assert!(graph.nodes[table.index()].kind.is_param());
        assert_eq!(
            graph.nodes[e.index()].kind,
            OpKind::EmbedGather { table: table.index(), num_ids: 3, max_id: Some(2) }
        );
        assert_eq!(graph.nodes[e.index()].shape.as_deref(), Some(&[3, 2][..]));
        assert_eq!(
            graph.nodes[loss.index()].kind,
            OpKind::CrossEntropy { logits: e.index(), num_targets: 3, max_target: Some(1) }
        );
        assert_eq!(graph.nodes[loss.index()].shape.as_deref(), Some(&[][..]));
    }

    #[test]
    fn sanitizer_reports_first_forward_issue_with_provenance() {
        let tape = Tape::sanitized();
        assert!(tape.is_sanitizing());
        tape.push_scope("emb");
        let mut bad = Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        bad.data_mut()[1] = f32::NAN;
        let x = tape.leaf_labeled(&bad, "emb.tok");
        tape.pop_scope();
        // A later Inf must not displace the first NaN report.
        let _ = tape.scale(x, f32::INFINITY);
        let issue = tape.first_numeric_issue().expect("issue");
        assert_eq!(issue.node, x.index());
        assert_eq!(issue.op, "leaf");
        assert_eq!(issue.scope, "emb");
        assert_eq!(issue.label.as_deref(), Some("emb.tok"));
        assert_eq!(issue.kind, crate::sanitize::NumericKind::NaN);
        assert_eq!(issue.phase, SanitizePhase::Forward);
    }

    #[test]
    fn sanitizer_catches_backward_issue() {
        let tape = Tape::sanitized();
        let x = tape.leaf(Tensor::vector(&[1.0e-35]));
        // Forward stays finite (1e-35 -> 1e-5 -> 1e25), but the backward
        // chain multiplies the two scale factors: 1e30 * 1e30 overflows.
        let y = tape.scale(tape.scale(x, 1.0e30), 1.0e30);
        let loss = tape.sum_all(y);
        assert!(tape.first_numeric_issue().is_none(), "forward was clean");
        let _ = tape.backward(loss);
        let issue = tape.first_numeric_issue().expect("backward overflow");
        assert_eq!(issue.phase, SanitizePhase::Backward);
        assert_eq!(issue.kind, crate::sanitize::NumericKind::Inf);
    }

    #[test]
    fn profiler_attributes_forward_and_backward_ops() {
        // The profiler store is process-global; restrict assertions to the
        // unique scope path this test uses so parallel tests can't collide.
        gs_obs::prof::reset();
        gs_obs::prof::set_enabled(true);
        let tape = Tape::new();
        assert!(tape.is_profiling());
        tape.push_scope("prof_test_blk");
        let x = tape.leaf(sample_matrix());
        let w = tape.constant(Tensor::matrix(&[vec![0.2, -0.5], vec![1.0, 0.3], vec![-0.7, 0.8]]));
        let y = tape.matmul(x, w);
        let s = tape.softmax_last_dim(y);
        let loss = tape.mean_all(s);
        tape.pop_scope();
        let _ = tape.backward(loss);
        gs_obs::prof::set_enabled(false);
        let snap = gs_obs::prof::snapshot();
        let find = |op: &str| {
            snap.rows
                .iter()
                .find(|r| r.op == op && r.path == "prof_test_blk")
                .unwrap_or_else(|| panic!("missing profiled op {op}"))
        };
        let mm = find("matmul");
        assert_eq!(mm.calls, 1);
        assert_eq!(mm.flops, 2 * 2 * 3 * 2); // [2,3] x [3,2]
        let bwd = find("matmul.bwd");
        assert_eq!(bwd.flops, 2 * mm.flops);
        find("leaf");
        find("softmax_last_dim");
        find("softmax_last_dim.bwd");
        find("mean_all.bwd");
        gs_obs::prof::reset();
    }

    #[test]
    fn sanitizer_off_reports_nothing() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::vector(&[f32::NAN]));
        let _ = tape.scale(x, 2.0);
        assert!(!tape.is_sanitizing());
        assert!(tape.first_numeric_issue().is_none());
    }
}
