//! The transformer encoder with a token-classification head.
//!
//! Architecture (post-LayerNorm, as in BERT/RoBERTa):
//!
//! ```text
//! h0 = LN(tok_emb[ids] + pos_emb[0..n] (+ seg_emb))
//! for each layer: h = LN(h + MHA(h)); h = LN(h + FFN(h))
//! logits = h W_head + b_head            // [n, num_classes]
//! ```
//!
//! The encoder is defined once, in `TokenClassifier::forward_impl`, generic
//! over [`TapeOps`] and taking packed rows: token ids, their in-sequence
//! positions, and each sequence's `(start, len)` rows. Training records it
//! on the autograd [`Tape`](gs_tensor::Tape), one sequence per tape; serving evaluates it
//! over a packed micro-batch on the values-only [`Evaluator`]; gs-check
//! traces it shape-only on `SymTape`.

use super::config::{ModelFamily, TransformerConfig};
use gs_obs::prof;
use gs_obs::Rng;
use gs_tensor::{
    cost, normal, xavier_uniform, Binder, Evaluator, ParamId, ParamStore, TapeOps, Tensor, Var,
};

/// A transformer encoder plus linear token-classification head.
#[derive(Clone)]
pub struct TokenClassifier {
    config: TransformerConfig,
    num_classes: usize,
    store: ParamStore,
    ids: ParamIds,
}

/// Every parameter id the forward binds, resolved from the store's names
/// once at construction, so no forward formats or looks up a name.
#[derive(Clone)]
struct ParamIds {
    /// `emb.tok`, `emb.pos`.
    emb: [ParamId; 2],
    /// `emb.seg` (BERT family only).
    seg: Option<ParamId>,
    /// `emb.ln.g`, `emb.ln.b`.
    emb_ln: [ParamId; 2],
    layers: Vec<LayerIds>,
    /// `head.w`, `head.b`.
    head: [ParamId; 2],
}

/// One encoder layer's parameter ids, each group in binding order, and the
/// layer's two scope names.
#[derive(Clone)]
struct LayerIds {
    attn_scope: String,
    ffn_scope: String,
    /// `wq, bq, wk, bk, wv, bv, wo, bo`.
    attn: [ParamId; 8],
    /// `ln1.g`, `ln1.b`.
    ln1: [ParamId; 2],
    /// `w1, b1, w2, b2`.
    ffn: [ParamId; 4],
    /// `ln2.g`, `ln2.b`.
    ln2: [ParamId; 2],
}

impl ParamIds {
    /// Resolves every parameter `config` uses.
    ///
    /// # Panics
    /// Panics naming the first parameter `store` lacks.
    fn resolve(store: &ParamStore, config: &TransformerConfig) -> Self {
        let id = |name: &str| store.id(name).unwrap_or_else(|| panic!("missing parameter {name}"));
        let layers = (0..config.n_layers)
            .map(|l| LayerIds {
                attn_scope: format!("l{l}.attn"),
                ffn_scope: format!("l{l}.ffn"),
                attn: ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
                    .map(|w| id(&format!("l{l}.attn.{w}"))),
                ln1: ["g", "b"].map(|w| id(&format!("l{l}.ln1.{w}"))),
                ffn: ["w1", "b1", "w2", "b2"].map(|w| id(&format!("l{l}.ffn.{w}"))),
                ln2: ["g", "b"].map(|w| id(&format!("l{l}.ln2.{w}"))),
            })
            .collect();
        ParamIds {
            emb: [id("emb.tok"), id("emb.pos")],
            seg: (config.family == ModelFamily::Bert).then(|| id("emb.seg")),
            emb_ln: [id("emb.ln.g"), id("emb.ln.b")],
            layers,
            head: [id("head.w"), id("head.b")],
        }
    }
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

        Self::from_store(config, num_classes, store)
    }

    /// Rebuilds a model from persisted parts (see
    /// [`TransformerExtractor::save_text`](super::TransformerExtractor::save_text)).
    ///
    /// # Panics
    /// Panics naming the first parameter the config needs that the store
    /// lacks.
    pub fn from_store(config: TransformerConfig, num_classes: usize, store: ParamStore) -> Self {
        config.validate();
        let ids = ParamIds::resolve(&store, &config);
        TokenClassifier { config, num_classes, store, ids }
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

    /// Replaces the classification head with a freshly initialized one for
    /// `num_classes` outputs, keeping the encoder and embeddings — the
    /// standard pretrain-then-fine-tune weight surgery.
    pub fn reset_head(&mut self, num_classes: usize, seed: u64) {
        assert!(num_classes > 0);
        let mut rng = Rng::seed_from_u64(seed.wrapping_add(0x9e3779b9));
        let d = self.config.d_model;
        let [w_id, b_id] = self.ids.head;
        self.store.replace(w_id, xavier_uniform(&mut rng, d, num_classes));
        self.store.replace(b_id, Tensor::zeros(&[num_classes]));
        self.num_classes = num_classes;
    }

    /// Runs the encoder over `ids` (already truncated to `max_len`),
    /// returning the `[n, num_classes]` logits variable. When `dropout_rng`
    /// is provided the model runs in training mode with inverted dropout.
    ///
    /// Generic over [`TapeOps`], so the same code path drives the eager
    /// autograd [`Tape`](gs_tensor::Tape), the values-only [`Evaluator`] and the gs-check
    /// symbolic tape (shape-only tracing with no value computation).
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
        self.forward_one(tape, binder, ids, &mut source)
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
        self.forward_one(tape, binder, ids, &mut source)
    }

    /// Runs the encoder over several sequences packed into one `[rows, d]`
    /// block, returning the `[rows, num_classes]` logits variable in input
    /// order. Empty sequences contribute no rows and longer ones are cut to
    /// `max_len`. The row-wise layers (embeddings, projections, layer
    /// norms, the head) run as one large product over every row, while
    /// attention stays within each sequence, so each sequence's rows equal
    /// a [`forward`](Self::forward) over it alone. This is the serving path
    /// (on the [`Evaluator`]); it never applies dropout.
    ///
    /// # Panics
    /// Panics if every sequence is empty, and on the autograd
    /// [`Tape`](gs_tensor::Tape) unless exactly one is non-empty: the
    /// tape's [`attention`](TapeOps::attention) runs one sequence.
    pub fn forward_batch<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        seqs: &[&[usize]],
    ) -> Var {
        let (mut ids, mut positions, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        for seq in seqs.iter().filter(|seq| !seq.is_empty()) {
            let n = seq.len().min(self.config.max_len);
            spans.push((ids.len(), n));
            ids.extend_from_slice(&seq[..n]);
            positions.extend(0..n);
        }
        assert!(!ids.is_empty(), "no tokens to run");
        self.forward_impl(tape, binder, &ids, &positions, &spans, &mut DropoutSource::Off)
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

    /// One sequence as a packed block of one.
    fn forward_one<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        ids: &[usize],
        dropout: &mut DropoutSource<'_>,
    ) -> Var {
        let n = ids.len();
        assert!(n > 0, "empty input sequence");
        assert!(n <= self.config.max_len, "sequence of {n} exceeds max_len");
        let positions: Vec<usize> = (0..n).collect();
        self.forward_impl(tape, binder, ids, &positions, &[(0, n)], dropout)
    }

    /// The encoder: `ids` and their in-sequence `positions` are the packed
    /// rows, and `seqs` lists each sequence's `(start, len)` rows.
    fn forward_impl<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        ids: &[usize],
        positions: &[usize],
        seqs: &[(usize, usize)],
        dropout: &mut DropoutSource<'_>,
    ) -> Var {
        let rows = ids.len();
        let shape = [rows, self.config.d_model];

        // Embeddings.
        tape.push_scope("emb");
        let [tok_table, pos_table] = self.ids.emb.map(|id| binder.bind(&self.store, id));
        let tok = tape.embed_gather(tok_table, ids);
        let pos = tape.embed_gather(pos_table, positions);
        let mut h = tape.add(tok, pos);
        if let Some(seg) = self.ids.seg {
            let seg_table = binder.bind(&self.store, seg);
            // Single-segment inputs: all segment ids are 0.
            let seg = tape.embed_gather(seg_table, &vec![0; rows]);
            h = tape.add(h, seg);
        }
        let [g, b] = self.ids.emb_ln.map(|id| binder.bind(&self.store, id));
        h = tape.layer_norm(h, g, b);
        h = self.maybe_dropout(tape, h, dropout, &shape);
        tape.pop_scope();

        for layer in &self.ids.layers {
            h = self.attention_block(tape, binder, h, layer, seqs, dropout, &shape);
            h = self.ffn_block(tape, binder, h, layer, dropout, &shape);
        }

        tape.push_scope("head");
        let [w, bh] = self.ids.head.map(|id| binder.bind(&self.store, id));
        let out = tape.linear(h, w, bh);
        tape.pop_scope();
        out
    }

    fn attention_block<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        h: Var,
        layer: &LayerIds,
        seqs: &[(usize, usize)],
        dropout: &mut DropoutSource<'_>,
        shape: &[usize],
    ) -> Var {
        tape.push_scope(&layer.attn_scope);
        let [wq, bq, wk, bk, wv, bv, wo, bo] = layer.attn.map(|id| binder.bind(&self.store, id));

        let q = tape.linear(h, wq, bq);
        let k = tape.linear(h, wk, bk);
        let v = tape.linear(h, wv, bv);

        let scale = 1.0 / (self.config.d_head() as f32).sqrt();
        let mixed = tape.attention(q, k, v, seqs, self.config.n_heads, scale);
        let mut out = tape.linear(mixed, wo, bo);
        out = self.maybe_dropout(tape, out, dropout, shape);

        let sum = tape.add(h, out);
        let [g, b] = layer.ln1.map(|id| binder.bind(&self.store, id));
        let normed = tape.layer_norm(sum, g, b);
        tape.pop_scope();
        normed
    }

    fn ffn_block<T: TapeOps>(
        &self,
        tape: &T,
        binder: &mut Binder<'_, T>,
        h: Var,
        layer: &LayerIds,
        dropout: &mut DropoutSource<'_>,
        shape: &[usize],
    ) -> Var {
        tape.push_scope(&layer.ffn_scope);
        let [w1, b1, w2, b2] = layer.ffn.map(|id| binder.bind(&self.store, id));

        let inner = tape.gelu(tape.linear(h, w1, b1));
        let mut out = tape.linear(inner, w2, b2);
        out = self.maybe_dropout(tape, out, dropout, shape);

        let sum = tape.add(h, out);
        let [g, b] = layer.ln2.map(|id| binder.bind(&self.store, id));
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

    /// Predicts class ids for a sequence (inference mode, no dropout): a
    /// batch of one.
    pub fn predict_classes(&self, ids: &[usize]) -> Vec<usize> {
        self.predict_classes_batch(&[ids]).pop().expect("one sequence in, one out")
    }

    /// Predicts class ids for every sequence with one
    /// [`forward_batch`](Self::forward_batch) on the [`Evaluator`]: one
    /// class per input id, with truncated tails given the O class (0) and
    /// empty inputs an empty vector. This is the serving hot path.
    pub fn predict_classes_batch(&self, seqs: &[&[usize]]) -> Vec<Vec<usize>> {
        if seqs.iter().all(|seq| seq.is_empty()) {
            return vec![Vec::new(); seqs.len()];
        }
        // Arena scope: every buffer the forward frees is recycled into the
        // next allocation, so steady-state serving does no per-op heap
        // allocation (pinned by tests/arena_flatness.rs).
        let classes = gs_tensor::arena::scope(|| {
            let eval = Evaluator::new(&self.store);
            let mut binder = Binder::new(&eval);
            let logits = self.forward_batch(&eval, &mut binder, seqs);
            let logits = eval.value(logits);
            prof::time_at(prof::enabled(), "head", "argmax", cost::map(logits.len(), 1), || {
                logits.argmax_rows()
            })
        });
        let mut rows = classes.into_iter();
        seqs.iter()
            .map(|seq| {
                let n = seq.len().min(self.config.max_len);
                let mut out: Vec<usize> = rows.by_ref().take(n).collect();
                out.resize(seq.len(), 0);
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_tensor::{Optimizer, Tape};

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

    /// An over-length sequence mid-batch: its kept rows match the taped
    /// forward, its cut tail is class 0, and the sequences after it read
    /// their own rows.
    #[test]
    fn over_length_sequence_mid_batch_pads_its_tail_with_class_zero() {
        for family in [ModelFamily::Roberta, ModelFamily::Bert] {
            let mut cfg = tiny_config();
            cfg.family = family;
            let model = TokenClassifier::new(cfg, 30, 5, 17);
            let long: Vec<usize> = (0..25).map(|i| (i * 7) % 30).collect();
            let seqs: [&[usize]; 4] = [&[4, 8], &long, &[], &[3, 1, 4, 1, 5]];
            let batched = model.predict_classes_batch(&seqs);
            for (seq, classes) in seqs.iter().zip(&batched) {
                let kept = &seq[..seq.len().min(16)];
                let mut want = Vec::new();
                if !kept.is_empty() {
                    let tape = Tape::new();
                    let logits = model.forward(&tape, &mut Binder::new(&tape), kept, None);
                    want = tape.value(logits).argmax_rows();
                }
                want.resize(seq.len(), 0);
                assert_eq!(classes, &want, "{family:?}: {seq:?}");
            }
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
            ("l0.attn", "attention"),
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
    #[should_panic(expected = "missing parameter l0.ffn.w2")]
    fn from_store_names_a_missing_parameter_at_load() {
        let full = TokenClassifier::new(tiny_config(), 30, 5, 1);
        let mut store = ParamStore::new();
        for id in full.store().ids().filter(|&id| full.store().name(id) != "l0.ffn.w2") {
            store.register(full.store().name(id), full.store().value(id).clone());
        }
        let _ = TokenClassifier::from_store(tiny_config(), 5, store);
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
