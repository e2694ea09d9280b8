//! A values-only [`TapeOps`] implementation: the serving forward.
//!
//! [`Evaluator`] runs the same model code the autograd [`Tape`](crate::Tape)
//! records, but keeps only each op's output. Parameters are bound by
//! reference to their [`ParamStore`] (no copy), nothing is kept for a
//! backward pass, every output comes from the buffer arena, and there is
//! no dropout, which serving never applies. Its
//! [`attention`](TapeOps::attention) takes any number of sequences packed
//! into one row block and fans the per-sequence work out across the gs-par
//! pool, so one forward serves a whole micro-batch while each sequence
//! attends only within itself.
//!
//! Profiler samples are keyed by the evaluator's scope path and op name and
//! recorded through explicit paths, because the attention loop runs on pool
//! workers that never see scopes opened on the calling thread.

use crate::arena;
use crate::cost;
use crate::optim::{ParamId, ParamStore};
use crate::shape;
use crate::tape::{add_row_bias, enforce, normalize_row, TapeOps, Var};
use crate::tensor::Tensor;
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

    /// Each sequence's attention is independent of every other's, so the
    /// per-sequence mixes fan out across the gs-par pool; results are
    /// concatenated in sequence order, making the output bit-identical to
    /// the serial loop at any pool size.
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
            let dh = d / n_heads;
            let scope = self.scope.borrow();
            let (prof, path) = (self.prof, scope.as_str());
            let per_seq: Vec<Vec<f32>> = gs_par::map_collect(seqs.len(), |si| {
                let (start, n) = seqs[si];
                let (qs, ks, vs) =
                    prof::time_at(prof, path, "slice_rows", cost::copy(3 * n * d), || {
                        (
                            q.slice_rows(start, start + n),
                            k.slice_rows(start, start + n),
                            v.slice_rows(start, start + n),
                        )
                    });
                let mut heads = Vec::with_capacity(n_heads);
                for head in 0..n_heads {
                    let (s, e) = (head * dh, (head + 1) * dh);
                    let (qh, kh, vh) =
                        prof::time_at(prof, path, "slice_cols", cost::copy(3 * n * dh), || {
                            (qs.slice_cols(s, e), ks.slice_cols(s, e), vs.slice_cols(s, e))
                        });
                    let scores =
                        prof::time_at(prof, path, "matmul_transb", cost::matmul(n, dh, n), || {
                            qh.matmul_transb(&kh)
                        });
                    let scores = prof::time_at(prof, path, "scale", cost::map(n * n, 1), || {
                        scores.map(|x| x * scale)
                    });
                    let weights = prof::time_at(prof, path, "softmax", cost::softmax(n, n), || {
                        scores.softmax_last_dim()
                    });
                    heads.push(prof::time_at(prof, path, "matmul", cost::matmul(n, n, dh), || {
                        weights.matmul(&vh)
                    }));
                }
                let head_refs: Vec<&Tensor> = heads.iter().collect();
                prof::time_at(prof, path, "concat_cols", cost::copy(n * d), || {
                    Tensor::concat_cols(&head_refs).into_data()
                })
            });
            prof::time_at(prof, path, "concat_cols", cost::copy(rows * d), || {
                let mut mixed = arena::alloc_empty(rows * d);
                for seq in per_seq {
                    mixed.extend_from_slice(&seq);
                    arena::recycle(seq);
                }
                Tensor::from_vec(vec![rows, d], mixed)
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
