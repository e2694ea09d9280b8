//! Dense, row-major `f32` tensors.
//!
//! The tensor type is deliberately small: a shape vector and a flat data
//! buffer. All operations needed by the autograd layer (matrix products,
//! broadcasts over the last dimension, reductions, and elementwise maps) are
//! implemented here as plain functions so they can be unit-tested in
//! isolation and reused by the backward passes.

use crate::arena;
use crate::kernels::{self, KernelMode};
use std::fmt;

/// Minimum multiply-add count before a matrix product is worth splitting
/// across the gs-par pool; below it, dispatch overhead dominates.
pub(crate) const PAR_FLOPS_CUTOFF: usize = 64 * 1024;

/// Minimum element count before elementwise / row-wise kernels go parallel.
pub(crate) const ELEMWISE_PAR_CUTOFF: usize = 16 * 1024;

/// Elements per task for chunked elementwise kernels.
const ELEMWISE_CHUNK: usize = 4 * 1024;

/// Minimum multiply-add count before the transposed matmul forms pay for a
/// transpose pack; smaller products use the (bit-identical) reference
/// loops directly.
pub(crate) const PACK_FLOPS_CUTOFF: usize = 16 * 1024;

/// Whether a row-blocked kernel of `rows x cols` output and `flops`
/// multiply-adds should dispatch to the pool.
#[inline]
fn par_worthwhile(rows: usize, cols: usize, flops: usize) -> bool {
    rows > 1 && cols > 0 && flops >= PAR_FLOPS_CUTOFF && gs_par::max_threads() > 1
}

/// Splits `out` (row-major `[rows, cols]`) into contiguous row blocks and
/// runs `per_row(row_index, out_row)` for every row, in parallel. Each row
/// is produced by exactly one task with the same per-row arithmetic as the
/// serial loop, so results are bit-identical at any thread count.
fn par_rows(out: &mut [f32], rows: usize, cols: usize, per_row: impl Fn(usize, &mut [f32]) + Sync) {
    let rows_per_block = rows.div_ceil(gs_par::max_threads() * 4).max(1);
    gs_par::for_each_chunk_mut(out, rows_per_block * cols, |ci, block| {
        let row0 = ci * rows_per_block;
        for (r, out_row) in block.chunks_mut(cols).enumerate() {
            per_row(row0 + r, out_row);
        }
    });
}

/// Like [`par_rows`] but hands each task its whole contiguous row block
/// (`row0`, row count, block slice) so panel kernels can run block-at-a-
/// time. Block boundaries cannot affect results: every output row is
/// produced by exactly one task with per-row arithmetic identical to the
/// serial call.
fn par_row_blocks(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    per_block: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let rows_per_block = rows.div_ceil(gs_par::max_threads() * 4).max(1);
    gs_par::for_each_chunk_mut(out, rows_per_block * cols, |ci, block| {
        per_block(ci * rows_per_block, block.len() / cols, block);
    });
}

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == shape.iter().product()`. Rank-0 tensors are
/// represented with an empty shape and a single element.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { shape: self.shape.clone(), data: arena::alloc_copy(&self.data) }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Offer the backing buffer to the arena (no-op outside a scope).
        if self.data.capacity() >= arena::MIN_POOL_ELEMS {
            arena::recycle(std::mem::take(&mut self.data));
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let volume: usize = shape.iter().product();
        assert_eq!(
            volume,
            data.len(),
            "shape {:?} (volume {}) does not match buffer of length {}",
            shape,
            volume,
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let volume: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: arena::alloc_zeroed(volume) }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let volume: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; volume] }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: vec![], data: vec![value] }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn vector(values: &[f32]) -> Self {
        Tensor { shape: vec![values.len()], data: values.to_vec() }
    }

    /// Creates a rank-2 tensor from rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn matrix(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::matrix");
            data.extend_from_slice(row);
        }
        Tensor { shape: vec![r, c], data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat row-major buffer.
    pub fn into_data(mut self) -> Vec<f32> {
        // `Tensor` has a `Drop` impl, so the buffer is moved out with
        // `take`; the subsequent drop sees an empty vec and does nothing.
        std::mem::take(&mut self.data)
    }

    /// The value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Number of rows of a rank-2 tensor.
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows() requires rank 2, got shape {:?}", self.shape);
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() requires rank 2, got shape {:?}", self.shape);
        self.shape[1]
    }

    /// Element accessor for rank-2 tensors.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Borrow row `i` of a rank-2 tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        let c = self.cols();
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutably borrow row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Returns a copy with a new shape of identical volume.
    ///
    /// # Panics
    /// Panics if the volumes differ.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let volume: usize = shape.iter().product();
        assert_eq!(volume, self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        Tensor { shape: shape.to_vec(), data: arena::alloc_copy(&self.data) }
    }

    /// Elementwise map into a new tensor. Large tensors are mapped in
    /// chunks across the gs-par pool; elementwise kernels are trivially
    /// order-independent, so the result is identical at any thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = &self.data;
        if src.len() < ELEMWISE_PAR_CUTOFF || gs_par::max_threads() <= 1 {
            let mut data = arena::alloc_empty(src.len());
            data.extend(src.iter().map(|&x| f(x)));
            return Tensor { shape: self.shape.clone(), data };
        }
        let mut data = arena::alloc_zeroed(src.len());
        gs_par::for_each_chunk_mut(&mut data, ELEMWISE_CHUNK, |ci, chunk| {
            let start = ci * ELEMWISE_CHUNK;
            let len = chunk.len();
            for (o, &x) in chunk.iter_mut().zip(&src[start..start + len]) {
                *o = f(x);
            }
        });
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise combination of two same-shape tensors (chunked across
    /// the pool above the elementwise cutoff, like [`map`](Self::map)).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let (lhs, rhs) = (&self.data, &other.data);
        if lhs.len() < ELEMWISE_PAR_CUTOFF || gs_par::max_threads() <= 1 {
            let mut data = arena::alloc_empty(lhs.len());
            data.extend(lhs.iter().zip(rhs).map(|(&a, &b)| f(a, b)));
            return Tensor { shape: self.shape.clone(), data };
        }
        let mut data = arena::alloc_zeroed(lhs.len());
        gs_par::for_each_chunk_mut(&mut data, ELEMWISE_CHUNK, |ci, chunk| {
            let start = ci * ELEMWISE_CHUNK;
            let end = start + chunk.len();
            for ((o, &a), &b) in chunk.iter_mut().zip(&lhs[start..end]).zip(&rhs[start..end]) {
                *o = f(a, b);
            }
        });
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place `self += other` for same-shape tensors.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * *b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale_assign(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Index of the maximum value in each row of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = (self.rows(), self.cols());
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Matrix product `self [m,k] x other [k,n] -> [m,n]`.
    ///
    /// Dispatches on [`crate::kernels::kernel_mode`]: the default `Blocked`
    /// mode runs the cache-blocked panel kernel from [`crate::kernels`]
    /// (KC-strip blocking, MRxKU register micro-panels, autovectorized over
    /// the output row); `Reference` keeps the pre-blocking loops. The two
    /// are bit-identical on finite data at any thread count, pinned by
    /// `tests/kernel_equivalence.rs`.
    ///
    /// # Panics
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        match kernels::kernel_mode() {
            KernelMode::Blocked => self.matmul_blocked(other),
            KernelMode::Reference => self.matmul_reference(other),
        }
    }

    fn matmul_blocked(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: [{},{}] x [{},{}]", m, k, k2, n);
        let mut out = arena::alloc_zeroed(m * n);
        // `self`'s rows already form the contiguous [rows, k] panel the
        // kernel wants, and row-major B is the packed [k, n] layout.
        if par_worthwhile(m, n, m * k * n) {
            par_row_blocks(&mut out, m, n, |row0, nrows, block| {
                let a_panel = &self.data[row0 * k..(row0 + nrows) * k];
                kernels::gemm_panel(a_panel, &other.data, block, nrows, k, n);
            });
        } else {
            kernels::gemm_panel(&self.data, &other.data, &mut out, m, k, n);
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// The pre-blocking `ikj` matmul, kept for bitwise equivalence tests
    /// and before/after benchmarks (see [`crate::kernels::KernelMode`]).
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: [{},{}] x [{},{}]", m, k, k2, n);
        let mut out = arena::alloc_zeroed(m * n);
        let per_row = |i: usize, out_row: &mut [f32]| {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        };
        if par_worthwhile(m, n, m * k * n) {
            // Output rows are independent, so row-blocking across the pool
            // keeps each row's accumulation order — and thus every bit of
            // the result — identical to the serial loop.
            par_rows(&mut out, m, n, per_row);
        } else {
            for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
                per_row(i, out_row);
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// Matrix product with a transposed right operand:
    /// `self [m,k] x other [n,k]^T -> [m,n]`.
    ///
    /// This is the cache-friendly form for attention scores, where both
    /// operands are stored row-major over the shared `k` dimension.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        match kernels::kernel_mode() {
            KernelMode::Blocked => self.matmul_transb_blocked(other),
            KernelMode::Reference => self.matmul_transb_reference(other),
        }
    }

    fn matmul_transb_blocked(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_transb lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_transb rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_transb inner dims: [{},{}] x [{},{}]^T", m, k, n, k2);
        // Below the cutoff the transpose pack costs more than it saves;
        // the reference dot-product form is bit-identical, so size-based
        // dispatch is unobservable in the results.
        if m * k * n < PACK_FLOPS_CUTOFF {
            return self.matmul_transb_reference(other);
        }
        // Transpose-pack B [n, k] into the [k, n] panel layout once; the
        // O(k*n) pack amortizes over m output rows of O(k*n) flops each.
        let mut bt = arena::alloc_zeroed(k * n);
        kernels::pack_transpose(&other.data, &mut bt, n, k);
        let mut out = arena::alloc_zeroed(m * n);
        if par_worthwhile(m, n, m * k * n) {
            par_row_blocks(&mut out, m, n, |row0, nrows, block| {
                let a_panel = &self.data[row0 * k..(row0 + nrows) * k];
                kernels::gemm_panel(a_panel, &bt, block, nrows, k, n);
            });
        } else {
            kernels::gemm_panel(&self.data, &bt, &mut out, m, k, n);
        }
        arena::recycle(bt);
        Tensor { shape: vec![m, n], data: out }
    }

    /// The pre-blocking per-element dot-product form of
    /// [`matmul_transb`](Self::matmul_transb).
    pub fn matmul_transb_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_transb lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_transb rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_transb inner dims: [{},{}] x [{},{}]^T", m, k, n, k2);
        let mut out = arena::alloc_zeroed(m * n);
        let per_row = |i: usize, out_row: &mut [f32]| {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        };
        if par_worthwhile(m, n, m * k * n) {
            par_rows(&mut out, m, n, per_row);
        } else {
            for (i, out_row) in out.chunks_mut(n.max(1)).enumerate() {
                per_row(i, out_row);
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// Matrix product with a transposed left operand:
    /// `self [k,m]^T x other [k,n] -> [m,n]`.
    ///
    /// Used by backward passes (`dW = X^T dY`) without materializing the
    /// transpose.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        match kernels::kernel_mode() {
            KernelMode::Blocked => self.matmul_transa_blocked(other),
            KernelMode::Reference => self.matmul_transa_reference(other),
        }
    }

    fn matmul_transa_blocked(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_transa lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_transa rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_transa inner dims: [{},{}]^T x [{},{}]", k, m, k2, n);
        if m * k * n < PACK_FLOPS_CUTOFF {
            return self.matmul_transa_reference(other);
        }
        let mut out = arena::alloc_zeroed(m * n);
        // Transpose-pack the owned strip of A^T per row block (columns
        // row0..row0+nrows of the [k, m] left operand become a contiguous
        // [nrows, k] panel), then run the shared panel kernel against
        // row-major B.
        let pack_and_multiply = |row0: usize, nrows: usize, block: &mut [f32]| {
            let mut at = arena::alloc_zeroed(nrows * k);
            for r in 0..nrows {
                let col = row0 + r;
                let dst = &mut at[r * k..(r + 1) * k];
                for (p, d) in dst.iter_mut().enumerate() {
                    *d = self.data[p * m + col];
                }
            }
            kernels::gemm_panel(&at, &other.data, block, nrows, k, n);
            arena::recycle(at);
        };
        if par_worthwhile(m, n, m * k * n) {
            par_row_blocks(&mut out, m, n, pack_and_multiply);
        } else {
            pack_and_multiply(0, m, &mut out);
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// The pre-blocking form of [`matmul_transa`](Self::matmul_transa).
    pub fn matmul_transa_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_transa lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_transa rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_transa inner dims: [{},{}]^T x [{},{}]", k, m, k2, n);
        let mut out = arena::alloc_zeroed(m * n);
        if par_worthwhile(m, n, m * k * n) {
            // Row-parallel form: each task owns output rows, scanning `p`
            // ascending. Every output element sees the same sequence of
            // adds (ascending `p`, identical zero-skips) as the serial
            // p-outer loop below, so the two paths are bit-identical.
            par_rows(&mut out, m, n, |i, out_row| {
                for p in 0..k {
                    let av = self.data[p * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &other.data[p * n..(p + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            });
        } else {
            for p in 0..k {
                let a_row = &self.data[p * m..(p + 1) * m];
                let b_row = &other.data[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transposed2(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = arena::alloc_zeroed(r * c);
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor { shape: vec![c, r], data: out }
    }

    /// Softmax over the last dimension, numerically stabilized.
    ///
    /// Restructured (not approximated): instead of cloning the input and
    /// transforming it in place, each row's `exp(x - max)` is written
    /// straight into the output buffer while the normalizer accumulates in
    /// the same pass — one fewer full-tensor copy, identical arithmetic
    /// per element, so the result is bit-equal to the pre-restructure
    /// kernel.
    pub fn softmax_last_dim(&self) -> Tensor {
        assert!(self.rank() >= 1, "softmax on rank-0 tensor");
        let d = *self.shape.last().expect("non-empty shape");
        assert!(d > 0, "softmax over empty last dimension");
        let src = &self.data;
        let mut out = arena::alloc_zeroed(src.len());
        let rows = src.len() / d;
        if rows > 1 && src.len() >= ELEMWISE_PAR_CUTOFF && gs_par::max_threads() > 1 {
            // Rows are independent; each row's max/exp/normalize sequence
            // is untouched, so the parallel split is bit-exact.
            let rows_per_block = rows.div_ceil(gs_par::max_threads() * 4).max(1);
            gs_par::for_each_chunk_mut(&mut out, rows_per_block * d, |ci, block| {
                let start = ci * rows_per_block * d;
                for (r, chunk) in block.chunks_mut(d).enumerate() {
                    let row0 = start + r * d;
                    softmax_row_into(&src[row0..row0 + d], chunk);
                }
            });
        } else {
            for (src_row, chunk) in src.chunks(d).zip(out.chunks_mut(d)) {
                softmax_row_into(src_row, chunk);
            }
        }
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// Sum over rows of a rank-2 tensor, producing a rank-1 tensor of length
    /// `cols` (i.e. a column-wise sum). Used for bias gradients.
    pub fn col_sum(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = arena::alloc_zeroed(c);
        for i in 0..r {
            for (o, &v) in out.iter_mut().zip(&self.data[i * c..(i + 1) * c]) {
                *o += v;
            }
        }
        Tensor { shape: vec![c], data: out }
    }

    /// Concatenates rank-2 tensors along columns. All inputs must share the
    /// same row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let r = parts[0].rows();
        let total_c: usize = parts.iter().map(|t| t.cols()).sum();
        let mut out = arena::alloc_empty(r * total_c);
        for i in 0..r {
            for t in parts {
                assert_eq!(t.rows(), r, "concat_cols row mismatch");
                out.extend_from_slice(t.row(i));
            }
        }
        Tensor { shape: vec![r, total_c], data: out }
    }

    /// Extracts the column range `[start, end)` of a rank-2 tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        assert!(start <= end && end <= c, "slice_cols {}..{} of {} cols", start, end, c);
        let w = end - start;
        let mut out = arena::alloc_empty(r * w);
        for i in 0..r {
            out.extend_from_slice(&self.data[i * c + start..i * c + end]);
        }
        Tensor { shape: vec![r, w], data: out }
    }

    /// Extracts the row range `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        assert!(start <= end && end <= r, "slice_rows {}..{} of {} rows", start, end, r);
        Tensor {
            shape: vec![end - start, c],
            data: arena::alloc_copy(&self.data[start * c..end * c]),
        }
    }

    /// Gathers rows of a rank-2 table by index, producing `[ids.len(), cols]`.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, ids: &[usize]) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = arena::alloc_empty(ids.len() * c);
        for &id in ids {
            assert!(id < r, "gather_rows index {} out of {} rows", id, r);
            out.extend_from_slice(&self.data[id * c..(id + 1) * c]);
        }
        Tensor { shape: vec![ids.len(), c], data: out }
    }

    /// Elementwise GELU, latching the fast/exact mode once for the whole
    /// tensor so the mapped closure stays branch- and atomic-free (the
    /// per-element [`gelu`] function re-reads the mode on every call,
    /// which blocks autovectorization).
    pub fn gelu_forward(&self) -> Tensor {
        if kernels::exact_gelu() {
            self.map(gelu_exact)
        } else {
            self.map(gelu_fast)
        }
    }

    /// `gout * gelu'(self)` — the backward companion of
    /// [`gelu_forward`](Self::gelu_forward), with the same mode latching.
    pub fn gelu_backward(&self, gout: &Tensor) -> Tensor {
        if kernels::exact_gelu() {
            gout.zip_map(self, |g, x| g * gelu_grad_exact(x))
        } else {
            gout.zip_map(self, |g, x| g * gelu_grad_fast(x))
        }
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Approximate equality within `tol`, element by element.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{} elements, first={:?}...]",
                self.shape,
                self.data.len(),
                &self.data[..8]
            )
        }
    }
}

/// One numerically stabilized softmax row: `dst = softmax(src)`.
/// Same per-element operation sequence as the old in-place kernel
/// (max scan, `exp` + running sum ascending, scale), so results are
/// bit-equal; only the destination differs.
pub(crate) fn softmax_row_into(src: &[f32], dst: &mut [f32]) {
    let max = src.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for (d, &x) in dst.iter_mut().zip(src) {
        let e = (x - max).exp();
        *d = e;
        total += e;
    }
    let inv = 1.0 / total;
    for d in dst.iter_mut() {
        *d *= inv;
    }
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044715;

/// The GELU activation used by BERT-style encoders (tanh form), dispatching
/// on [`crate::kernels::exact_gelu`]: the default fast path evaluates tanh
/// with [`tanh_fast`] (≤ ~1e-6 absolute error, autovectorizable); the
/// opt-in exact path (`GS_EXACT_GELU=1`) keeps the libm `tanh` the model
/// was originally trained and profiled with.
pub fn gelu(x: f32) -> f32 {
    if kernels::exact_gelu() {
        gelu_exact(x)
    } else {
        gelu_fast(x)
    }
}

/// Derivative of [`gelu`] (same fast/exact dispatch).
pub fn gelu_grad(x: f32) -> f32 {
    if kernels::exact_gelu() {
        gelu_grad_exact(x)
    } else {
        gelu_grad_fast(x)
    }
}

/// GELU via libm `tanh` — the original scalar kernel.
pub fn gelu_exact(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)).tanh())
}

/// Derivative of [`gelu_exact`].
pub fn gelu_grad_exact(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// GELU via [`tanh_fast`]; branch-free straight-line arithmetic, so the
/// elementwise map over a tensor autovectorizes.
pub fn gelu_fast(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_fast(SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)))
}

/// Derivative of [`gelu_fast`].
pub fn gelu_grad_fast(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x3);
    let t = tanh_fast(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// A rational-polynomial `tanh` (13/6-degree odd/even quotient over the
/// clamped range, the widely used Padé-style approximation from Eigen's
/// vectorized `ptanh`): absolute error is below ~1e-6 across the reals,
/// and the function saturates exactly to ±1 beyond |x| ≈ 7.9. Straight-
/// line mul/add/div, so LLVM vectorizes loops over it.
pub fn tanh_fast(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_31;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = x * (A1 + x2 * (A3 + x2 * (A5 + x2 * (A7 + x2 * (A9 + x2 * (A11 + x2 * A13))))));
    let q = B0 + x2 * (B2 + x2 * (B4 + x2 * B6));
    p / q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match buffer")]
    fn from_vec_rejects_bad_volume() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::matrix(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Tensor::matrix(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Tensor::matrix(&[vec![1.0, 0.0, 2.0], vec![-1.0, 3.0, 1.0]]);
        let via_t = a.matmul(&b.transposed2());
        let direct = a.matmul_transb(&b);
        assert!(via_t.approx_eq(&direct, 1e-6));
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let a = Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Tensor::matrix(&[vec![1.0], vec![2.0], vec![3.0]]);
        let via_t = a.transposed2().matmul(&b);
        let direct = a.matmul_transa(&b);
        assert!(via_t.approx_eq(&direct, 1e-6));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::matrix(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = t.softmax_last_dim();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // larger logits get larger probabilities
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::vector(&[100.0, 101.0, 102.0]);
        let b = Tensor::vector(&[0.0, 1.0, 2.0]);
        assert!(a.softmax_last_dim().approx_eq(&b.softmax_last_dim(), 1e-6));
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Tensor::matrix(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::matrix(&[vec![5.0], vec![6.0]]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(c.slice_cols(2, 3).approx_eq(&b, 0.0));
    }

    #[test]
    fn gather_rows_picks_rows() {
        let table = Tensor::matrix(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        let g = table.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[2.0, 2.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn col_sum_sums_over_rows() {
        let t = Tensor::matrix(&[vec![1.0, 2.0], vec![10.0, 20.0]]);
        assert_eq!(t.col_sum().data(), &[11.0, 22.0]);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::matrix(&[vec![0.1, 0.9], vec![3.0, -1.0]]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn tanh_fast_tracks_libm_tanh() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 0.003;
        }
        assert!(worst < 2e-6, "worst tanh_fast error {worst}");
        // Beyond the clamp the rational saturates to within one ulp-scale
        // step of ±1 (it never overshoots past ±1 exactly, but lands a hair
        // inside), and the odd numerator makes the origin exact.
        assert!((tanh_fast(40.0) - 1.0).abs() < 5e-7);
        assert!((tanh_fast(-40.0) + 1.0).abs() < 5e-7);
        assert_eq!(tanh_fast(0.0), 0.0);
        assert_eq!(tanh_fast(40.0), tanh_fast(8.0));
    }

    #[test]
    fn fast_and_exact_gelu_agree_tightly() {
        let mut x = -9.0f32;
        while x <= 9.0 {
            let d = (gelu_fast(x) - gelu_exact(x)).abs();
            assert!(d < 1e-5, "gelu mismatch at {x}: {d}");
            let dg = (gelu_grad_fast(x) - gelu_grad_exact(x)).abs();
            assert!(dg < 1e-4, "gelu_grad mismatch at {x}: {dg}");
            x += 0.007;
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={} analytic={} fd={}",
                x,
                gelu_grad(x),
                fd
            );
        }
    }
}
