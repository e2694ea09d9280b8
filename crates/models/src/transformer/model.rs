//! The transformer encoder with a token-classification head, built on the
//! `gs-tensor` autograd tape.
//!
//! Architecture (post-LayerNorm, as in BERT/RoBERTa):
//!
//! ```text
//! h0 = LN(tok_emb[ids] + pos_emb[0..n] (+ seg_emb))
//! for each layer: h = LN(h + MHA(h)); h = LN(h + FFN(h))
//! logits = h W_head + b_head            // [n, num_classes]
//! ```

use super::config::{ModelFamily, TransformerConfig};
use gs_obs::prof;
use gs_obs::Rng;
use gs_tensor::{
    cost, normal, xavier_uniform, Binder, ParamId, ParamStore, Tape, TapeOps, Tensor, Var,
};
use std::time::Instant;

/// Runs `f` as profiler op `op` under the explicit `path` when `on` is set.
///
/// The packed forward keys ops by explicit paths instead of the thread-local
/// scope stack because its attention inner loop fans out across gs-par
/// workers, which never see scopes opened on the coordinating thread.
#[inline]
pub(crate) fn timed<R>(
    on: bool,
    path: &str,
    op: &'static str,
    cost: prof::Cost,
    f: impl FnOnce() -> R,
) -> R {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    prof::record_at(path, op, start.elapsed().as_nanos() as u64, cost);
    out
}

/// A transformer encoder plus linear token-classification head.
#[derive(Clone)]
pub struct TokenClassifier {
    config: TransformerConfig,
    num_classes: usize,
    store: ParamStore,
}

/// Where dropout masks come from during a forward pass.
///
/// Training normally draws masks from an RNG inline ([`Rng`](Self::Rng)),
/// but data-parallel training pre-draws every mask on the coordinating
/// thread in serial order ([`Masks`](Self::Masks)) so worker threads never
/// touch the RNG — the stream, and therefore the run, stays bit-identical
/// to single-threaded training.
enum DropoutSource<'a> {
    /// Inference: no dropout.
    Off,
    /// Training: draw a fresh mask per dropout site from this RNG.
    Rng(&'a mut Rng),
    /// Training with masks pre-drawn by
    /// [`TokenClassifier::draw_dropout_masks`], consumed in site order.
    Masks(std::slice::Iter<'a, Tensor>),
}

impl TokenClassifier {
    /// Creates a randomly initialized model for `vocab_size` tokens and
    /// `num_classes` output classes.
    pub fn new(
        config: TransformerConfig,
        vocab_size: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        config.validate();
        assert!(vocab_size > 0 && num_classes > 0);
        let mut rng = Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let d = config.d_model;

        store.register("emb.tok", normal(&mut rng, &[vocab_size, d], 0.02));
        store.register("emb.pos", normal(&mut rng, &[config.max_len, d], 0.02));
        if config.family == ModelFamily::Bert {
            store.register("emb.seg", normal(&mut rng, &[2, d], 0.02));
        }
        store.register("emb.ln.g", Tensor::full(&[d], 1.0));
        store.register("emb.ln.b", Tensor::zeros(&[d]));

        for l in 0..config.n_layers {
            for w in ["wq", "wk", "wv", "wo"] {
                store.register(&format!("l{l}.attn.{w}"), xavier_uniform(&mut rng, d, d));
                store.register(&format!("l{l}.attn.{}", w.replace('w', "b")), Tensor::zeros(&[d]));
            }
            store.register(&format!("l{l}.ln1.g"), Tensor::full(&[d], 1.0));
            store.register(&format!("l{l}.ln1.b"), Tensor::zeros(&[d]));
            store.register(&format!("l{l}.ffn.w1"), xavier_uniform(&mut rng, d, config.d_ff));
            store.register(&format!("l{l}.ffn.b1"), Tensor::zeros(&[config.d_ff]));
            store.register(&format!("l{l}.ffn.w2"), xavier_uniform(&mut rng, config.d_ff, d));
            store.register(&format!("l{l}.ffn.b2"), Tensor::zeros(&[d]));
            store.register(&format!("l{l}.ln2.g"), Tensor::full(&[d], 1.0));
            store.register(&format!("l{l}.ln2.b"), Tensor::zeros(&[d]));
        }
        store.register("head.w", xavier_uniform(&mut rng, d, num_classes));
        store.register("head.b", Tensor::zeros(&[num_classes]));

        TokenClassifier { config, num_classes, store }
    }

    /// Rebuilds a model from persisted parts (see
    /// [`TransformerExtractor::save_text`](super::TransformerExtractor::save_text)).
    ///
    /// # Panics
    /// Panics if the store is missing expected parameters.
    pub fn from_store(config: TransformerConfig, num_classes: usize, store: ParamStore) -> Self {
        config.validate();
        for required in ["emb.tok", "emb.pos", "head.w", "head.b"] {
            assert!(store.id(required).is_some(), "missing parameter {required}");
        }
        TokenClassifier { config, num_classes, store }
    }

    /// The model configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Immutable parameter access (checkpointing).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter access (optimizers, loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total scalar parameter count.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    fn id(&self, name: &str) -> ParamId {
        self.store.id(name).unwrap_or_else(|| panic!("missing parameter {name}"))
    }

    /// Replaces the classification head with a freshly initialized one for
    /// `num_classes` outputs, keeping the encoder and embeddings — the
    /// standard pretrain-then-fine-tune weight surgery.
    pub fn reset_head(&mut self, num_classes: usize, seed: u64) {
        assert!(num_classes > 0);
        let mut rng = Rng::seed_from_u64(seed.wrapping_add(0x9e3779b9));
        let d = self.config.d_model;
        let w_id = self.id("head.w");
        let b_id = self.id("head.b");
        self.store.replace(w_id, xavier_uniform(&mut rng, d, num_classes));
        self.store.replace(b_id, Tensor::zeros(&[num_classes]));
        self.num_classes = num_classes;
    }

    /// Runs the encoder over `ids` (already truncated to `max_len`),
    /// returning the `[n, num_classes]` logits variable. When `dropout_rng`
    /// is provided the model runs in training mode with inverted dropout.
    ///
    /// Generic over [`TapeOps`], so the same code path drives both the eager
    /// autograd [`Tape`] and the gs-check symbolic tape (shape-only tracing
    /// with no value computation).
    pub fn forward<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        ids: &[usize],
        dropout_rng: Option<&mut Rng>,
    ) -> Var {
        let mut source = match dropout_rng {
            Some(rng) => DropoutSource::Rng(rng),
            None => DropoutSource::Off,
        };
        self.forward_impl(tape, binder, ids, &mut source)
    }

    /// [`forward`](Self::forward) with dropout masks pre-drawn by
    /// [`draw_dropout_masks`](Self::draw_dropout_masks), consumed in site
    /// order. This is the worker-thread entry point for data-parallel
    /// training: the coordinating thread draws every batch's masks from the
    /// shared RNG in serial order, then shards the forwards across threads
    /// without any RNG access. Passing an empty slice runs without dropout.
    ///
    /// # Panics
    /// Panics if `masks` is non-empty but shorter than the number of
    /// dropout sites (`1 + 2 * n_layers` when `dropout > 0`).
    pub fn forward_with_masks<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        ids: &[usize],
        masks: &[Tensor],
    ) -> Var {
        let mut source =
            if masks.is_empty() { DropoutSource::Off } else { DropoutSource::Masks(masks.iter()) };
        self.forward_impl(tape, binder, ids, &mut source)
    }

    /// Draws the dropout masks one [`forward`](Self::forward) over an
    /// `n`-token sequence would draw, in the exact site order the forward
    /// consumes them (embedding output, then per layer: attention output,
    /// FFN output). Returns an empty vector — without touching `rng` —
    /// when the configured dropout probability is zero, mirroring
    /// `forward`'s behavior of not advancing the RNG in that case.
    pub fn draw_dropout_masks(&self, n: usize, rng: &mut Rng) -> Vec<Tensor> {
        let p = self.config.dropout;
        if p <= 0.0 {
            return Vec::new();
        }
        let keep = 1.0 - p;
        let d = self.config.d_model;
        (0..1 + 2 * self.config.n_layers)
            .map(|_| {
                let mask: Vec<f32> = (0..n * d)
                    .map(|_| if rng.random_bool(keep as f64) { 1.0 / keep } else { 0.0 })
                    .collect();
                Tensor::from_vec(vec![n, d], mask)
            })
            .collect()
    }

    fn forward_impl<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        ids: &[usize],
        dropout: &mut DropoutSource<'_>,
    ) -> Var {
        let n = ids.len();
        assert!(n > 0, "empty input sequence");
        assert!(n <= self.config.max_len, "sequence of {n} exceeds max_len");
        let d = self.config.d_model;

        // Embeddings.
        tape.push_scope("emb");
        let tok_table = binder.bind(&self.store, self.id("emb.tok"));
        let pos_table = binder.bind(&self.store, self.id("emb.pos"));
        let tok = tape.embed_gather(tok_table, ids);
        let positions: Vec<usize> = (0..n).collect();
        let pos = tape.embed_gather(pos_table, &positions);
        let mut h = tape.add(tok, pos);
        if self.config.family == ModelFamily::Bert {
            let seg_table = binder.bind(&self.store, self.id("emb.seg"));
            // Single-segment inputs: all segment ids are 0.
            let seg = tape.embed_gather(seg_table, &vec![0; n]);
            h = tape.add(h, seg);
        }
        let g = binder.bind(&self.store, self.id("emb.ln.g"));
        let b = binder.bind(&self.store, self.id("emb.ln.b"));
        h = tape.layer_norm(h, g, b);
        h = self.maybe_dropout(tape, h, dropout, &[n, d]);
        tape.pop_scope();

        for l in 0..self.config.n_layers {
            h = self.attention_block(tape, binder, h, l, n, dropout);
            h = self.ffn_block(tape, binder, h, l, n, dropout);
        }

        tape.push_scope("head");
        let w = binder.bind(&self.store, self.id("head.w"));
        let bh = binder.bind(&self.store, self.id("head.b"));
        let logits = tape.matmul(h, w);
        let out = tape.add_bias(logits, bh);
        tape.pop_scope();
        out
    }

    fn attention_block<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        h: Var,
        layer: usize,
        n: usize,
        dropout: &mut DropoutSource<'_>,
    ) -> Var {
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let bind =
            |binder: &mut Binder<'_, T>, name: String| binder.bind(&self.store, self.id(&name));
        tape.push_scope(&format!("l{layer}.attn"));

        let wq = bind(binder, format!("l{layer}.attn.wq"));
        let bq = bind(binder, format!("l{layer}.attn.bq"));
        let wk = bind(binder, format!("l{layer}.attn.wk"));
        let bk = bind(binder, format!("l{layer}.attn.bk"));
        let wv = bind(binder, format!("l{layer}.attn.wv"));
        let bv = bind(binder, format!("l{layer}.attn.bv"));
        let wo = bind(binder, format!("l{layer}.attn.wo"));
        let bo = bind(binder, format!("l{layer}.attn.bo"));

        let q = tape.add_bias(tape.matmul(h, wq), bq);
        let k = tape.add_bias(tape.matmul(h, wk), bk);
        let v = tape.add_bias(tape.matmul(h, wv), bv);

        let scale = 1.0 / (dh as f32).sqrt();
        let mut heads = Vec::with_capacity(self.config.n_heads);
        for head in 0..self.config.n_heads {
            let (s, e) = (head * dh, (head + 1) * dh);
            let qh = tape.slice_cols(q, s, e);
            let kh = tape.slice_cols(k, s, e);
            let vh = tape.slice_cols(v, s, e);
            let scores = tape.scale(tape.matmul_transb(qh, kh), scale);
            let attn = tape.softmax_last_dim(scores);
            heads.push(tape.matmul(attn, vh));
        }
        let concat = tape.concat_cols(&heads);
        let mut out = tape.add_bias(tape.matmul(concat, wo), bo);
        out = self.maybe_dropout(tape, out, dropout, &[n, d]);

        let sum = tape.add(h, out);
        let g = bind(binder, format!("l{layer}.ln1.g"));
        let b = bind(binder, format!("l{layer}.ln1.b"));
        let normed = tape.layer_norm(sum, g, b);
        tape.pop_scope();
        normed
    }

    fn ffn_block<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        h: Var,
        layer: usize,
        n: usize,
        dropout: &mut DropoutSource<'_>,
    ) -> Var {
        let d = self.config.d_model;
        let bind =
            |binder: &mut Binder<'_, T>, name: String| binder.bind(&self.store, self.id(&name));
        tape.push_scope(&format!("l{layer}.ffn"));
        let w1 = bind(binder, format!("l{layer}.ffn.w1"));
        let b1 = bind(binder, format!("l{layer}.ffn.b1"));
        let w2 = bind(binder, format!("l{layer}.ffn.w2"));
        let b2 = bind(binder, format!("l{layer}.ffn.b2"));

        let inner = tape.gelu(tape.add_bias(tape.matmul(h, w1), b1));
        let mut out = tape.add_bias(tape.matmul(inner, w2), b2);
        out = self.maybe_dropout(tape, out, dropout, &[n, d]);

        let sum = tape.add(h, out);
        let g = bind(binder, format!("l{layer}.ln2.g"));
        let b = bind(binder, format!("l{layer}.ln2.b"));
        let normed = tape.layer_norm(sum, g, b);
        tape.pop_scope();
        normed
    }

    fn maybe_dropout<T: TapeOps>(
        &self,
        tape: &T,
        x: Var,
        dropout: &mut DropoutSource<'_>,
        shape: &[usize],
    ) -> Var {
        let p = self.config.dropout;
        if p <= 0.0 {
            return x;
        }
        match dropout {
            DropoutSource::Off => x,
            DropoutSource::Rng(rng) => {
                let keep = 1.0 - p;
                let volume: usize = shape.iter().product();
                let mask: Vec<f32> = (0..volume)
                    .map(|_| if rng.random_bool(keep as f64) { 1.0 / keep } else { 0.0 })
                    .collect();
                tape.dropout_with_mask(x, Tensor::from_vec(shape.to_vec(), mask))
            }
            DropoutSource::Masks(iter) => {
                let mask = iter.next().expect("ran out of pre-drawn dropout masks").clone();
                assert_eq!(mask.shape(), shape, "pre-drawn dropout mask shape");
                tape.dropout_with_mask(x, mask)
            }
        }
    }

    /// Predicts class ids for a sequence (inference mode, no dropout).
    pub fn predict_classes(&self, ids: &[usize]) -> Vec<usize> {
        if ids.is_empty() {
            return Vec::new();
        }
        gs_tensor::arena::scope(|| {
            let truncated = &ids[..ids.len().min(self.config.max_len)];
            let tape = Tape::new();
            let mut binder = Binder::new(&tape);
            let logits = self.forward(&tape, &mut binder, truncated, None);
            let mut classes = tape.value(logits).argmax_rows();
            // Truncated tail: repeat the O class (0) so callers get one class
            // per input id.
            classes.resize(ids.len(), 0);
            classes
        })
    }

    /// Batched [`predict_classes`](Self::predict_classes): packs every
    /// sequence into one `[total_tokens, d]` activation matrix so the
    /// row-wise layers (embeddings, QKV/FFN projections, layer norms, and
    /// the classification head) run as a handful of large matrix products
    /// instead of one small product per request, while attention is
    /// evaluated per sequence — tokens never attend across sequence
    /// boundaries, so results are identical to the one-at-a-time path.
    ///
    /// This is the serving hot path: it skips the autograd tape entirely
    /// (no gradients at inference), which also removes the per-op value
    /// cloning the taped forward pays.
    pub fn predict_classes_batch(&self, seqs: &[&[usize]]) -> Vec<Vec<usize>> {
        let packed = pack_sequences(seqs, self.config.max_len);
        if packed.flat_ids.is_empty() {
            return seqs.iter().map(|_| Vec::new()).collect();
        }

        // Arena scope: every kernel buffer the packed forward frees is
        // recycled into the next allocation, so steady-state serving does no
        // per-op heap allocation (pinned by tests/arena_flatness.rs).
        let classes = gs_tensor::arena::scope(|| {
            let h = self.forward_packed(&packed.flat_ids, &packed.positions, &packed.ranges);
            timed(prof::enabled(), "head", "argmax", cost::map(h.len(), 1), || h.argmax_rows())
        });
        packed.unpack_classes(seqs, &classes)
    }

    /// The packed inference forward shared by
    /// [`predict_classes_batch`](Self::predict_classes_batch): returns the
    /// `[total_tokens, num_classes]` logits. Every operation replicates
    /// the taped forward's math exactly (same kernels, same evaluation
    /// order per row), which the batch-equivalence tests pin down.
    fn forward_packed(
        &self,
        flat_ids: &[usize],
        positions: &[usize],
        ranges: &[Option<(usize, usize)>],
    ) -> Tensor {
        let p = |name: &str| self.store.value(self.id(name));
        let d = self.config.d_model;
        let dh = self.config.d_head();
        let seq_ranges: Vec<(usize, usize)> = ranges.iter().flatten().copied().collect();
        let rows = flat_ids.len();
        // Latched once: keeps the disabled path to one atomic load per
        // forward and makes enable/disable races mid-forward harmless.
        let prof = prof::enabled();

        // Embeddings: token + position (+ segment 0 for BERT), layer norm.
        let tok = timed(prof, "emb", "embed_gather", cost::gather(rows, d), || {
            p("emb.tok").gather_rows(flat_ids)
        });
        let pos = timed(prof, "emb", "embed_gather", cost::gather(rows, d), || {
            p("emb.pos").gather_rows(positions)
        });
        let mut h =
            timed(prof, "emb", "add", cost::zip(rows * d, 1), || tok.zip_map(&pos, |x, y| x + y));
        if self.config.family == ModelFamily::Bert {
            let seg = timed(prof, "emb", "embed_gather", cost::gather(rows, d), || {
                p("emb.seg").gather_rows(&vec![0; rows])
            });
            h = timed(prof, "emb", "add", cost::zip(rows * d, 1), || h.zip_map(&seg, |x, y| x + y));
        }
        h = timed(prof, "emb", "layer_norm", cost::layer_norm(rows, d), || {
            layer_norm_rows(&h, p("emb.ln.g"), p("emb.ln.b"))
        });

        for l in 0..self.config.n_layers {
            let attn = format!("l{l}.attn");
            // Attention block: projections are batched; score/softmax/mix
            // run per sequence so attention stays within each request.
            let project = |w: &str, b: &str| {
                let mm = timed(prof, &attn, "matmul", cost::matmul(rows, d, d), || {
                    h.matmul(p(&format!("l{l}.attn.{w}")))
                });
                timed(prof, &attn, "add_bias", cost::zip(rows * d, 1), || {
                    add_bias_rows(mm, p(&format!("l{l}.attn.{b}")))
                })
            };
            let q = project("wq", "bq");
            let k = project("wk", "bk");
            let v = project("wv", "bv");
            let scale = 1.0 / (dh as f32).sqrt();
            // Each sequence's attention is independent of every other's, so
            // the per-sequence mixes fan out across the gs-par pool; results
            // are concatenated in sequence order, making the output (and
            // thus serving responses) bit-identical to the serial loop.
            // Worker threads record through explicit paths (`timed`), so the
            // profile merges per-sequence work under this layer's key.
            let per_seq: Vec<Vec<f32>> = gs_par::map_collect(seq_ranges.len(), |si| {
                let (start, n) = seq_ranges[si];
                let (qs, ks, vs) = timed(prof, &attn, "slice_rows", cost::copy(3 * n * d), || {
                    (
                        q.slice_rows(start, start + n),
                        k.slice_rows(start, start + n),
                        v.slice_rows(start, start + n),
                    )
                });
                let mut heads = Vec::with_capacity(self.config.n_heads);
                for head in 0..self.config.n_heads {
                    let (s, e) = (head * dh, (head + 1) * dh);
                    let (qh, kh, vh) =
                        timed(prof, &attn, "slice_cols", cost::copy(3 * n * dh), || {
                            (qs.slice_cols(s, e), ks.slice_cols(s, e), vs.slice_cols(s, e))
                        });
                    let scores =
                        timed(prof, &attn, "matmul_transb", cost::matmul(n, dh, n), || {
                            qh.matmul_transb(&kh)
                        });
                    let scores = timed(prof, &attn, "scale", cost::map(n * n, 1), || {
                        scores.map(|x| x * scale)
                    });
                    let weights = timed(prof, &attn, "softmax", cost::softmax(n, n), || {
                        scores.softmax_last_dim()
                    });
                    heads.push(timed(prof, &attn, "matmul", cost::matmul(n, n, dh), || {
                        weights.matmul(&vh)
                    }));
                }
                let head_refs: Vec<&Tensor> = heads.iter().collect();
                timed(prof, &attn, "concat_cols", cost::copy(n * d), || {
                    Tensor::concat_cols(&head_refs).into_data()
                })
            });
            let concat = timed(prof, &attn, "concat_cols", cost::copy(rows * d), || {
                let mut mixed = gs_tensor::arena::alloc_empty(h.len());
                for seq in per_seq {
                    mixed.extend_from_slice(&seq);
                    gs_tensor::arena::recycle(seq);
                }
                Tensor::from_vec(vec![rows, d], mixed)
            });
            let mm = timed(prof, &attn, "matmul", cost::matmul(rows, d, d), || {
                concat.matmul(p(&format!("l{l}.attn.wo")))
            });
            let out = timed(prof, &attn, "add_bias", cost::zip(rows * d, 1), || {
                add_bias_rows(mm, p(&format!("l{l}.attn.bo")))
            });
            let sum =
                timed(prof, &attn, "add", cost::zip(rows * d, 1), || h.zip_map(&out, |x, y| x + y));
            h = timed(prof, &attn, "layer_norm", cost::layer_norm(rows, d), || {
                layer_norm_rows(&sum, p(&format!("l{l}.ln1.g")), p(&format!("l{l}.ln1.b")))
            });

            // FFN block, fully batched.
            let ffn = format!("l{l}.ffn");
            let d_ff = self.config.d_ff;
            let mm = timed(prof, &ffn, "matmul", cost::matmul(rows, d, d_ff), || {
                h.matmul(p(&format!("l{l}.ffn.w1")))
            });
            let pre = timed(prof, &ffn, "add_bias", cost::zip(rows * d_ff, 1), || {
                add_bias_rows(mm, p(&format!("l{l}.ffn.b1")))
            });
            let inner = timed(prof, &ffn, "gelu", cost::gelu(rows * d_ff), || pre.gelu_forward());
            let mm = timed(prof, &ffn, "matmul", cost::matmul(rows, d_ff, d), || {
                inner.matmul(p(&format!("l{l}.ffn.w2")))
            });
            let out = timed(prof, &ffn, "add_bias", cost::zip(rows * d, 1), || {
                add_bias_rows(mm, p(&format!("l{l}.ffn.b2")))
            });
            let sum =
                timed(prof, &ffn, "add", cost::zip(rows * d, 1), || h.zip_map(&out, |x, y| x + y));
            h = timed(prof, &ffn, "layer_norm", cost::layer_norm(rows, d), || {
                layer_norm_rows(&sum, p(&format!("l{l}.ln2.g")), p(&format!("l{l}.ln2.b")))
            });
        }

        let mm = timed(prof, "head", "matmul", cost::matmul(rows, d, self.num_classes), || {
            h.matmul(p("head.w"))
        });
        timed(prof, "head", "add_bias", cost::zip(rows * self.num_classes, 1), || {
            add_bias_rows(mm, p("head.b"))
        })
    }
}

/// Sequences packed into one flat id stream for a batched forward, with
/// enough bookkeeping to scatter per-token results back to their inputs.
struct PackedSeqs {
    /// Every non-empty sequence's ids (truncated to `max_len`), contiguous.
    flat_ids: Vec<usize>,
    /// Position index of each flat id within its own sequence.
    positions: Vec<usize>,
    /// Per input sequence: `Some((start, len))` into `flat_ids`, or `None`
    /// for empty inputs.
    ranges: Vec<Option<(usize, usize)>>,
}

/// Packs non-empty sequences (truncated to `max_len`) into one flat stream.
fn pack_sequences(seqs: &[&[usize]], max_len: usize) -> PackedSeqs {
    let mut flat_ids: Vec<usize> = Vec::new();
    let mut positions: Vec<usize> = Vec::new();
    let mut ranges: Vec<Option<(usize, usize)>> = Vec::with_capacity(seqs.len());
    for seq in seqs {
        if seq.is_empty() {
            ranges.push(None);
            continue;
        }
        let n = seq.len().min(max_len);
        let start = flat_ids.len();
        flat_ids.extend_from_slice(&seq[..n]);
        positions.extend(0..n);
        ranges.push(Some((start, n)));
    }
    PackedSeqs { flat_ids, positions, ranges }
}

impl PackedSeqs {
    /// Scatters flat per-token classes back to one vector per input
    /// sequence, padding truncated tails with the O class (0).
    fn unpack_classes(&self, seqs: &[&[usize]], classes: &[usize]) -> Vec<Vec<usize>> {
        seqs.iter()
            .zip(&self.ranges)
            .map(|(seq, range)| match range {
                None => Vec::new(),
                Some((start, n)) => {
                    let mut out = classes[*start..*start + *n].to_vec();
                    out.resize(seq.len(), 0);
                    out
                }
            })
            .collect()
    }
}

/// Adds a `[d]` bias to every row of `[n, d]` — the inference twin of
/// `Tape::add_bias` (same accumulation order for bitwise-equal results).
fn add_bias_rows(mut x: Tensor, bias: &Tensor) -> Tensor {
    assert_eq!(x.cols(), bias.len(), "add_bias width mismatch");
    for i in 0..x.rows() {
        for (o, &bv) in x.row_mut(i).iter_mut().zip(bias.data()) {
            *o += bv;
        }
    }
    x
}

/// Row-wise layer norm — the inference twin of `Tape::layer_norm` (same
/// epsilon and evaluation order).
fn layer_norm_rows(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Tensor {
    const EPS: f32 = 1e-5;
    let d = x.cols();
    assert_eq!(gamma.len(), d, "layer_norm gamma width");
    assert_eq!(beta.len(), d, "layer_norm beta width");
    let n = x.rows();
    let mut out = gs_tensor::arena::alloc_zeroed(x.len());
    for r in 0..n {
        let row = x.row(r);
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        for j in 0..d {
            out[r * d + j] = (row[j] - mean) * istd * gamma.data()[j] + beta.data()[j];
        }
    }
    Tensor::from_vec(vec![n, d], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_tensor::Optimizer;

    fn tiny_config() -> TransformerConfig {
        TransformerConfig {
            name: "tiny".into(),
            family: ModelFamily::Roberta,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 16,
            dropout: 0.1,
            subword_budget: 50,
        }
    }

    #[test]
    fn forward_shapes_are_correct() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 1);
        let tape = Tape::new();
        let mut binder = Binder::new(&tape);
        let logits = model.forward(&tape, &mut binder, &[1, 5, 9, 2], None);
        assert_eq!(tape.value(logits).shape(), &[4, 5]);
        assert!(!tape.value(logits).has_non_finite());
    }

    #[test]
    fn bert_family_adds_segment_embeddings() {
        let mut cfg = tiny_config();
        cfg.family = ModelFamily::Bert;
        let model = TokenClassifier::new(cfg, 30, 5, 1);
        assert!(model.store().id("emb.seg").is_some());
        let tape = Tape::new();
        let mut binder = Binder::new(&tape);
        let logits = model.forward(&tape, &mut binder, &[3, 4], None);
        assert_eq!(tape.value(logits).shape(), &[2, 5]);
    }

    #[test]
    fn deterministic_init_per_seed() {
        let a = TokenClassifier::new(tiny_config(), 30, 5, 7);
        let b = TokenClassifier::new(tiny_config(), 30, 5, 7);
        assert_eq!(a.predict_classes(&[1, 2, 3]), b.predict_classes(&[1, 2, 3]));
    }

    #[test]
    fn overfits_single_sequence() {
        // One gradient sanity check on the whole stack: a tiny model must be
        // able to memorize one labeling.
        let mut model = TokenClassifier::new(tiny_config(), 20, 3, 3);
        let ids = [4usize, 7, 9, 11];
        let targets = [0i64, 1, 2, 0];
        let mut opt = Optimizer::adam(5e-3);
        let mut dropout_rng = Rng::seed_from_u64(9);
        let mut last_loss = f32::INFINITY;
        for step in 0..120 {
            let tape = Tape::new();
            let mut binder = Binder::new(&tape);
            let logits = model.forward(&tape, &mut binder, &ids, Some(&mut dropout_rng));
            let loss = tape.cross_entropy(logits, &targets);
            let loss_val = tape.value(loss).item();
            let mut grads = tape.backward(loss);
            binder.accumulate(&mut grads, model.store_mut());
            model.store_mut().clip_grad_norm(5.0);
            opt.step(model.store_mut());
            if step == 119 {
                last_loss = loss_val;
            }
        }
        assert!(last_loss < 0.5, "loss did not fall: {last_loss}");
        assert_eq!(model.predict_classes(&ids), vec![0, 1, 2, 0]);
    }

    #[test]
    fn predict_handles_truncation() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 1);
        let long_ids: Vec<usize> = (0..25).map(|i| i % 30).collect();
        let classes = model.predict_classes(&long_ids);
        assert_eq!(classes.len(), 25);
    }

    #[test]
    fn empty_input_predicts_empty() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 1);
        assert!(model.predict_classes(&[]).is_empty());
    }

    #[test]
    fn batched_prediction_matches_single_roberta() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 11);
        let seqs: Vec<Vec<usize>> = vec![
            vec![1, 5, 9, 2],
            vec![3],
            vec![7, 7, 7, 7, 7, 7],
            (0..25).map(|i| i % 30).collect(), // exceeds max_len: truncated
        ];
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let batched = model.predict_classes_batch(&refs);
        for (seq, batch_out) in seqs.iter().zip(&batched) {
            assert_eq!(batch_out, &model.predict_classes(seq));
        }
    }

    #[test]
    fn batched_prediction_matches_single_bert() {
        let mut cfg = tiny_config();
        cfg.family = ModelFamily::Bert;
        let model = TokenClassifier::new(cfg, 30, 5, 13);
        let seqs: Vec<Vec<usize>> = vec![vec![2, 4, 6], vec![1, 1], vec![9, 8, 7, 6, 5]];
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let batched = model.predict_classes_batch(&refs);
        for (seq, batch_out) in seqs.iter().zip(&batched) {
            assert_eq!(batch_out, &model.predict_classes(seq));
        }
    }

    #[test]
    fn batched_prediction_handles_empty_and_all_empty() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 11);
        let out = model.predict_classes_batch(&[&[][..], &[1, 2][..], &[][..]]);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_empty());
        assert_eq!(out[1], model.predict_classes(&[1, 2]));
        assert!(out[2].is_empty());
        assert_eq!(model.predict_classes_batch(&[]), Vec::<Vec<usize>>::new());
        assert_eq!(model.predict_classes_batch(&[&[][..]]), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn packed_forward_records_profile() {
        let model = TokenClassifier::new(tiny_config(), 30, 5, 1);
        prof::reset();
        prof::set_enabled(true);
        let out = model.predict_classes_batch(&[&[1, 2, 3][..], &[4, 5][..]]);
        prof::set_enabled(false);
        assert_eq!(out.len(), 2);
        let snap = prof::snapshot();
        // Presence only: the profiler is process-global, so concurrent tests
        // may add rows; exact counts are pinned by gs-obs's own tests.
        for (path, op) in [
            ("emb", "embed_gather"),
            ("emb", "layer_norm"),
            ("l0.attn", "matmul"),
            ("l0.attn", "softmax"),
            ("l0.ffn", "gelu"),
            ("head", "matmul"),
            ("head", "argmax"),
        ] {
            assert!(
                snap.rows.iter().any(|r| r.path == path && r.op == op),
                "missing profiled op {path}/{op}"
            );
        }
        let mm = snap.rows.iter().find(|r| r.path == "l0.ffn" && r.op == "matmul").unwrap();
        assert!(mm.flops > 0 && mm.bytes > 0);
        prof::reset();
    }

    #[test]
    fn param_count_scales_with_layers() {
        let base = TokenClassifier::new(tiny_config(), 30, 5, 1).num_weights();
        let mut cfg = tiny_config();
        cfg.n_layers = 2;
        let deeper = TokenClassifier::new(cfg, 30, 5, 1).num_weights();
        assert!(deeper > base);
    }
}
