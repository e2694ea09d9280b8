//! A values-only [`TapeOps`] implementation: the serving forward.
//!
//! [`Evaluator`] runs the same model code the autograd [`Tape`](crate::Tape)
//! records, but keeps only each op's output. Parameters are bound by
//! reference to their [`ParamStore`] (no copy), nothing is kept for a
//! backward pass, every output comes from the buffer arena, and there is
//! no dropout, which serving never applies. Its
//! [`attention`](TapeOps::attention) takes any number of sequences packed
//! into one row block and fans the sequences out across the gs-par pool,
//! so one forward serves a whole micro-batch while each sequence attends
//! only within itself. Each sequence is one fused pass over arena scratch
//! (scores, softmax and the value mix per head and query row, written
//! straight into the head's output columns), where the tape records
//! per-head nodes for its backward pass; `tests/attention_equivalence.rs`
//! pins the two bit for bit.
//!
//! Profiler samples are keyed by the evaluator's scope path and op name,
//! one sample per op on the calling thread; attention is one `attention`
//! sample that includes its pool fan-out.

use crate::arena;
use crate::cost;
use crate::optim::{ParamId, ParamStore};
use crate::shape;
use crate::tape::{add_row_bias, enforce, normalize_row, TapeOps, Var};
use crate::tensor::{softmax_row_into, Tensor};
use gs_obs::prof;
use std::cell::{Ref, RefCell};

/// A bound parameter (borrowed from the store) or a computed value.
enum Slot<'p> {
    Param(&'p Tensor),
    Value(Tensor),
}

impl Slot<'_> {
    fn tensor(&self) -> &Tensor {
        match self {
            Slot::Param(t) => t,
            Slot::Value(t) => t,
        }
    }
}

/// Evaluates a forward pass over the parameters of one [`ParamStore`],
/// keeping values only.
///
/// Values live until the evaluator drops; inside an arena scope their
/// buffers then return to the pool for the next forward.
pub struct Evaluator<'p> {
    store: &'p ParamStore,
    values: RefCell<Vec<Slot<'p>>>,
    /// Dotted path of the open scopes; kept only while profiling.
    scope: RefCell<String>,
    /// `scope`'s length before each open scope, for `pop_scope`.
    marks: RefCell<Vec<usize>>,
    /// Latched from `gs_obs::prof` at construction, like the tape's flag.
    prof: bool,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator that binds parameters from `store`.
    pub fn new(store: &'p ParamStore) -> Self {
        Evaluator {
            store,
            values: RefCell::new(Vec::new()),
            scope: RefCell::new(String::new()),
            marks: RefCell::new(Vec::new()),
            prof: prof::enabled(),
        }
    }

    /// The value of `var`; drop the guard before recording another op.
    pub fn value(&self, var: Var) -> Ref<'_, Tensor> {
        Ref::map(self.values.borrow(), |values| values[var.index()].tensor())
    }

    fn push(&self, slot: Slot<'p>) -> Var {
        let mut values = self.values.borrow_mut();
        values.push(slot);
        Var::from_index(values.len() - 1)
    }

    /// Computes one op from the values of `args` and records the output.
    fn op<const N: usize>(&self, args: [Var; N], f: impl FnOnce([&Tensor; N]) -> Tensor) -> Var {
        let out = {
            let values = self.values.borrow();
            f(args.map(|v| values[v.index()].tensor()))
        };
        self.push(Slot::Value(out))
    }

    /// Runs `f` as profiler op `op` under the current scope path.
    fn timed<R>(&self, op: &'static str, cost: prof::Cost, f: impl FnOnce() -> R) -> R {
        prof::time_at(self.prof, &self.scope.borrow(), op, cost, f)
    }
}

impl TapeOps for Evaluator<'_> {
    /// # Panics
    /// Panics if `store` is not the store the evaluator was created over.
    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        assert!(std::ptr::eq(store, self.store), "parameter bound from another store");
        self.push(Slot::Param(self.store.value(id)))
    }

    fn add(&self, a: Var, b: Var) -> Var {
        self.op([a, b], |[a, b]| {
            enforce(shape::same_shape("add", a.shape(), b.shape()));
            self.timed("add", cost::zip(a.len(), 1), || a.zip_map(b, |x, y| x + y))
        })
    }

    /// The bias is added in place to the product, which no other op sees.
    fn linear(&self, x: Var, w: Var, b: Var) -> Var {
        self.op([x, w, b], |[x, w, b]| {
            enforce(shape::matmul(x.shape(), w.shape()));
            let mut out =
                self.timed("matmul", cost::matmul(x.rows(), x.cols(), w.cols()), || x.matmul(w));
            enforce(shape::add_bias(out.shape(), b.shape()));
            self.timed("add_bias", cost::zip(out.len(), 1), || add_row_bias(&mut out, b));
            out
        })
    }

    fn gelu(&self, a: Var) -> Var {
        self.op([a], |[a]| self.timed("gelu", cost::gelu(a.len()), || a.gelu_forward()))
    }

    fn layer_norm(&self, x: Var, gamma: Var, beta: Var) -> Var {
        self.op([x, gamma, beta], |[x, gamma, beta]| {
            enforce(shape::layer_norm(x.shape(), gamma.shape(), beta.shape()));
            let d = gamma.len();
            let rows = x.len() / d;
            self.timed("layer_norm", cost::layer_norm(rows, d), || {
                let mut out = arena::alloc_zeroed(x.len());
                for (row, out_row) in x.data().chunks(d).zip(out.chunks_mut(d)) {
                    normalize_row(row, gamma.data(), beta.data(), out_row);
                }
                Tensor::from_vec(x.shape().to_vec(), out)
            })
        })
    }

    fn embed_gather(&self, table: Var, ids: &[usize]) -> Var {
        self.op([table], |[table]| {
            enforce(shape::embed_gather(table.shape(), ids.len(), ids.iter().copied().max()));
            self.timed("embed_gather", cost::gather(ids.len(), table.cols()), || {
                table.gather_rows(ids)
            })
        })
    }

    fn dropout_with_mask(&self, _x: Var, _mask: Tensor) -> Var {
        unreachable!("serving runs without dropout")
    }

    /// One fused pass per sequence (`attend`) runs every head
    /// without building a per-head tensor. Sequences fan out across the
    /// gs-par pool and write disjoint rows of the output, so the result is
    /// the same at any pool size.
    fn attention(
        &self,
        q: Var,
        k: Var,
        v: Var,
        seqs: &[(usize, usize)],
        n_heads: usize,
        scale: f32,
    ) -> Var {
        self.op([q, k, v], |[q, k, v]| {
            enforce(shape::attention(q.shape(), k.shape(), v.shape(), seqs, n_heads));
            let (rows, d) = (q.rows(), q.cols());
            let cost = cost::attention(seqs.iter().map(|&(_, n)| n), d, n_heads);
            self.timed("attention", cost, || {
                let mut out = arena::alloc_zeroed(rows * d);
                // The shape rule checked that `seqs` tile the rows in order.
                let mut parts: Vec<&mut [f32]> = Vec::with_capacity(seqs.len());
                let mut rest = out.as_mut_slice();
                for &(_, n) in seqs {
                    let (part, tail) = rest.split_at_mut(n * d);
                    parts.push(part);
                    rest = tail;
                }
                gs_par::for_each_chunk_mut(&mut parts, 1, |si, part| {
                    let (start, n) = seqs[si];
                    let span = start * d..(start + n) * d;
                    attend(
                        &q.data()[span.clone()],
                        &k.data()[span.clone()],
                        &v.data()[span],
                        d,
                        n_heads,
                        scale,
                        part[0],
                    );
                });
                Tensor::from_vec(vec![rows, d], out)
            })
        })
    }

    fn push_scope(&self, name: &str) {
        if !self.prof {
            return;
        }
        let mut scope = self.scope.borrow_mut();
        self.marks.borrow_mut().push(scope.len());
        if !scope.is_empty() {
            scope.push('.');
        }
        scope.push_str(name);
    }

    fn pop_scope(&self) {
        if let Some(mark) = self.marks.borrow_mut().pop() {
            self.scope.borrow_mut().truncate(mark);
        }
    }
}

/// One sequence's attention over all heads: `q`, `k` and `v` hold its rows
/// (`[n, d]`), and `out` (`[n, d]`, zeroed) receives each head's mix in
/// that head's columns. For each head and query row it takes the scores
/// against every key as ascending-`k` dot products times `scale`, then
/// `softmax_row_into`'s sequence (max, `exp` with a running sum, scale by
/// the inverse), then `Σ_j w·v` in ascending `j`. Those are the
/// operations, in the same order for every element, of the tape's per-head
/// composition (`slice_cols`, `matmul_transb`, `scale`, `softmax_last_dim`,
/// `matmul`, `concat_cols`), so the output equals it bit for bit.
fn attend(q: &[f32], k: &[f32], v: &[f32], d: usize, n_heads: usize, scale: f32, out: &mut [f32]) {
    let (n, dh) = (out.len() / d, d / n_heads);
    // One head's keys transposed (`[dh, n]`), so each score row
    // accumulates over `k` with `j` as the vector lane.
    let mut keys = arena::alloc_zeroed(dh * n);
    let mut scores = arena::alloc_zeroed(n);
    let mut weights = arena::alloc_zeroed(n);
    for c0 in (0..d).step_by(dh) {
        for (j, row) in k.chunks_exact(d).enumerate() {
            for (p, &x) in row[c0..c0 + dh].iter().enumerate() {
                keys[p * n + j] = x;
            }
        }
        for (q_row, out_row) in q.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            scores.fill(0.0);
            for (&qp, keys_p) in q_row[c0..c0 + dh].iter().zip(keys.chunks_exact(n)) {
                for (s, &kp) in scores.iter_mut().zip(keys_p) {
                    *s += qp * kp;
                }
            }
            for s in scores.iter_mut() {
                *s *= scale;
            }
            softmax_row_into(&scores, &mut weights);
            let mix = &mut out_row[c0..c0 + dh];
            for (&w, v_row) in weights.iter().zip(v.chunks_exact(d)) {
                for (m, &x) in mix.iter_mut().zip(&v_row[c0..c0 + dh]) {
                    *m += w * x;
                }
            }
        }
    }
    arena::recycle(keys);
    arena::recycle(scores);
    arena::recycle(weights);
}
