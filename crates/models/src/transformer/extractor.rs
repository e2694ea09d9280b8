//! The paper's full development + production pipeline around the
//! transformer (Figure 2):
//!
//! - development: tokenize objectives, run Algorithm 1 on the word level,
//!   project weak labels to subwords, fine-tune the encoder;
//! - production: tokenize a new objective, predict token labels, collapse
//!   to words, decode structured details.

use super::config::{ModelFamily, TrainConfig, TransformerConfig};
use super::model::TokenClassifier;
use super::pretrain::PretrainedEncoder;
use super::trainer::{train_token_classifier_cb, EpochStats, TrainExample};
use crate::traits::DetailExtractor;
use gs_core::{
    collapse_to_words, decode_details, project_to_subwords, weak_label_tokens, ExtractedDetails,
    MultiSpanPolicy, Objective, WeakLabelConfig, WeakLabelStats,
};
use gs_obs::{prof, Json};
use gs_text::labels::{repair_iob, LabelSet, Tag};
use gs_text::{pretokenize, Encoding, Normalizer, NormalizerConfig, PreToken, Tokenizer};
use std::sync::Arc;

/// End-to-end options for training a [`TransformerExtractor`].
#[derive(Clone)]
pub struct ExtractorOptions {
    /// Encoder architecture.
    pub model: TransformerConfig,
    /// Optimization hyperparameters.
    pub train: TrainConfig,
    /// Algorithm 1 configuration.
    pub weak_label: WeakLabelConfig,
    /// Multi-span reduction at decode time.
    pub multi_span: MultiSpanPolicy,
    /// A pretrained encoder to fine-tune from (paper setting). `None`
    /// trains from random initialization.
    pub base: Option<Arc<PretrainedEncoder>>,
}

impl Default for ExtractorOptions {
    fn default() -> Self {
        ExtractorOptions {
            model: TransformerConfig::roberta_sim(),
            train: TrainConfig::default(),
            weak_label: WeakLabelConfig::default(),
            multi_span: MultiSpanPolicy::default(),
            base: None,
        }
    }
}

/// A trained transformer-based detail extractor (the GoalSpotter extraction
/// service).
#[derive(Clone)]
pub struct TransformerExtractor {
    name: String,
    labels: LabelSet,
    tokenizer: Tokenizer,
    case_normalizer: Normalizer,
    model: TokenClassifier,
    options: ExtractorOptions,
    /// Per-epoch training losses (Figure 4's convergence data).
    pub train_stats: Vec<EpochStats>,
    /// Weak-supervision quality over the training set.
    pub weak_stats: WeakLabelStats,
}

impl TransformerExtractor {
    /// Trains the extractor on annotated objectives.
    ///
    /// # Panics
    /// Panics if no objective yields a usable training sequence.
    pub fn train(objectives: &[&Objective], labels: &LabelSet, options: ExtractorOptions) -> Self {
        Self::train_with_checkpoints(objectives, labels, options, &mut |_, _| {})
    }

    /// Trains while invoking `on_epoch(epoch_1based, view)` after each
    /// epoch, so callers can measure convergence (paper Figure 4's
    /// epochs/learning-rate study).
    pub fn train_with_checkpoints(
        objectives: &[&Objective],
        labels: &LabelSet,
        options: ExtractorOptions,
        on_epoch: &mut dyn FnMut(usize, &ExtractorView<'_>),
    ) -> Self {
        options.model.validate();
        if let Some(base) = &options.base {
            assert_eq!(
                base.model.config(),
                &options.model,
                "pretrained encoder config differs from the requested model"
            );
        }
        let texts: Vec<&str> = objectives.iter().map(|o| o.text.as_str()).collect();
        let tokenizer = match &options.base {
            Some(base) => base.tokenizer.clone(),
            None => build_tokenizer(&options.model, &texts),
        };
        let case_normalizer = Normalizer::new(NormalizerConfig::default());

        let mut weak_stats = WeakLabelStats::new(labels);
        let mut examples = Vec::with_capacity(objectives.len());
        for o in objectives {
            let Some((example, labeling, annotated_kinds)) = encode_example(
                o,
                labels,
                &tokenizer,
                &case_normalizer,
                options.weak_label,
                options.model.max_len,
            ) else {
                continue;
            };
            weak_stats.record(&labeling, &annotated_kinds);
            examples.push(example);
        }
        assert!(!examples.is_empty(), "no trainable objectives");

        let mut model = match &options.base {
            Some(base) => base.fine_tune_model(labels.num_classes(), options.train.seed),
            None => TokenClassifier::new(
                options.model.clone(),
                tokenizer.vocab().len(),
                labels.num_classes(),
                options.train.seed,
            ),
        };
        let multi_span = options.multi_span;
        let train_stats =
            train_token_classifier_cb(&mut model, &examples, &options.train, &mut |epoch, m| {
                let view = ExtractorView {
                    tokenizer: &tokenizer,
                    case_normalizer: &case_normalizer,
                    labels,
                    model: m,
                    multi_span,
                };
                on_epoch(epoch + 1, &view);
            });

        TransformerExtractor {
            name: options.model.name.clone(),
            labels: labels.clone(),
            tokenizer,
            case_normalizer,
            model,
            options,
            train_stats,
            weak_stats,
        }
    }

    /// The label set this extractor predicts.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// The trained encoder (for checkpointing / inspection).
    pub fn model(&self) -> &TokenClassifier {
        &self.model
    }

    /// Predicts word-level tags for a new objective, returning the
    /// case-preserved normalized text, its word tokens, and one tag per
    /// word: [`predict_tags_batch`](Self::predict_tags_batch) on a batch of
    /// one.
    pub fn predict_tags(&self, text: &str) -> (String, Vec<PreToken>, Vec<Tag>) {
        self.predict_tags_batch(&[text]).pop().expect("one text in, one out")
    }

    /// Batched [`predict_tags`](Self::predict_tags): encodes every text,
    /// runs the encoder's one forward once over all sequences packed into
    /// one row block, on the values-only evaluator (see
    /// [`TokenClassifier::predict_classes_batch`]), and decodes each
    /// result. Output is positionally identical to calling `predict_tags`
    /// per text, which is a batch of one; this is the path the serving
    /// layer's micro-batcher uses to amortize the forward across
    /// concurrent requests.
    pub fn predict_tags_batch(&self, texts: &[&str]) -> Vec<(String, Vec<PreToken>, Vec<Tag>)> {
        self.view().predict_tags_batch(texts)
    }

    /// Batched [`DetailExtractor::extract`]: one packed forward for all
    /// texts, then per-text decoding. Positionally identical to calling
    /// `extract` per text, which is a batch of one.
    pub fn extract_batch(&self, texts: &[&str]) -> Vec<ExtractedDetails> {
        self.view().extract_batch(texts)
    }

    /// The trained extractor seen through the one inference path that
    /// checkpoint views also run.
    fn view(&self) -> ExtractorView<'_> {
        ExtractorView {
            tokenizer: &self.tokenizer,
            case_normalizer: &self.case_normalizer,
            labels: &self.labels,
            model: &self.model,
            multi_span: self.options.multi_span,
        }
    }
}

/// Everything the production phase computes before the model forward:
/// case-preserved tokens for decoding plus the BOS/EOS-wrapped id
/// sequence. `ids` is empty when the text has no usable tokens, in which
/// case decoding yields no tags.
struct InferenceInput {
    case_text: String,
    case_tokens: Vec<PreToken>,
    enc: Encoding,
    ids: Vec<usize>,
}

/// Tokenizes `text` for inference: `<s> ids </s>`, truncated to `max_len`.
fn encode_for_inference(
    tokenizer: &Tokenizer,
    case_normalizer: &Normalizer,
    max_len: usize,
    text: &str,
) -> InferenceInput {
    let case_text = case_normalizer.normalize(text);
    let case_tokens = pretokenize(&case_text);
    let enc = tokenizer.encode(text);
    if enc.is_empty() || case_tokens.is_empty() {
        return InferenceInput { case_text, case_tokens, enc, ids: Vec::new() };
    }

    let vocab = tokenizer.vocab();
    let mut ids: Vec<usize> = Vec::with_capacity(enc.ids.len() + 2);
    ids.push(vocab.bos_id() as usize);
    ids.extend(enc.ids.iter().map(|&i| i as usize));
    ids.truncate(max_len - 1);
    ids.push(vocab.eos_id() as usize);
    InferenceInput { case_text, case_tokens, enc, ids }
}

/// Turns predicted subword classes back into word-level tags over the
/// case-preserved tokens.
fn decode_predictions(
    labels: &LabelSet,
    input: InferenceInput,
    classes: &[usize],
) -> (String, Vec<PreToken>, Vec<Tag>) {
    let InferenceInput { case_text, case_tokens, enc, ids } = input;
    if ids.is_empty() {
        return (case_text, case_tokens, Vec::new());
    }

    // Strip specials; positions beyond truncation default to O.
    let content_len = enc.ids.len();
    let mut subword_tags: Vec<Tag> = Vec::with_capacity(content_len);
    for i in 0..content_len {
        let class = classes.get(i + 1).copied().filter(|_| i + 1 < classes.len() - 1);
        subword_tags.push(labels.tag_of(class.unwrap_or(0)));
    }
    let mut word_tags = collapse_to_words(&subword_tags, &enc.word_index, enc.pretokens.len());
    repair_iob(&mut word_tags);

    // The tokenizer's normalization (e.g. BERT lowercasing) must not
    // change word boundaries; if it ever does, fall back to the
    // tokenizer's own tokens for decoding.
    if word_tags.len() == case_tokens.len() {
        (case_text, case_tokens, word_tags)
    } else {
        (enc.text.clone(), enc.pretokens, word_tags)
    }
}

/// A borrowed view over a model mid-training, letting checkpoint callbacks
/// evaluate extraction quality without cloning the model. It holds the
/// production-phase inference path, which the trained extractor runs
/// through a view of itself.
pub struct ExtractorView<'a> {
    tokenizer: &'a Tokenizer,
    case_normalizer: &'a Normalizer,
    labels: &'a LabelSet,
    model: &'a TokenClassifier,
    multi_span: MultiSpanPolicy,
}

impl ExtractorView<'_> {
    /// See [`TransformerExtractor::predict_tags_batch`].
    fn predict_tags_batch(&self, texts: &[&str]) -> Vec<(String, Vec<PreToken>, Vec<Tag>)> {
        // Per-text tokenization is independent and dominates the
        // non-forward cost of a batch, so it fans out across the gs-par
        // pool; map_collect preserves index order, keeping the output
        // positionally identical to the serial loop.
        let prof_on = prof::enabled();
        let inputs: Vec<InferenceInput> = gs_par::map_collect(texts.len(), |i| {
            prof::time_at(prof_on, "tokenize", "encode", prof::Cost::zero(), || {
                encode_for_inference(
                    self.tokenizer,
                    self.case_normalizer,
                    self.model.config().max_len,
                    texts[i],
                )
            })
        });
        let seqs: Vec<&[usize]> = inputs.iter().map(|i| i.ids.as_slice()).collect();
        let classes = self.model.predict_classes_batch(&seqs);
        inputs
            .into_iter()
            .zip(classes)
            .map(|(input, classes)| {
                prof::time_at(prof_on, "decode", "collapse", prof::Cost::zero(), || {
                    decode_predictions(self.labels, input, &classes)
                })
            })
            .collect()
    }

    /// See [`TransformerExtractor::extract_batch`].
    fn extract_batch(&self, texts: &[&str]) -> Vec<ExtractedDetails> {
        self.predict_tags_batch(texts)
            .into_iter()
            .map(|(case_text, tokens, tags)| {
                if tags.is_empty() {
                    ExtractedDetails::new()
                } else {
                    decode_details(&case_text, &tokens, &tags, self.labels, self.multi_span)
                }
            })
            .collect()
    }
}

impl DetailExtractor for ExtractorView<'_> {
    fn name(&self) -> &str {
        "checkpoint"
    }

    fn extract(&self, text: &str) -> ExtractedDetails {
        self.extract_batch(&[text]).pop().expect("one text in, one out")
    }
}

/// Magic line of the extractor text checkpoint.
const CHECKPOINT_MAGIC: &str = "gs-extractor v1";

impl TransformerExtractor {
    /// Serializes the trained extractor as text: a magic line, one JSON
    /// line holding the label set, encoder config, multi-span policy and
    /// tokenizer, then the weights in the bit-exact
    /// [`save_params_text`](gs_tensor::serialize::save_params_text) format.
    /// [`load_text`](Self::load_text) restores an extractor whose
    /// predictions are bit-identical; training-only options (optimizer,
    /// weak-labeling policy) and training statistics are not kept.
    pub fn save_text(&self) -> String {
        let c = self.model.config();
        let kinds: Vec<&str> = self.labels.kind_names().collect();
        let model = Json::obj(vec![
            ("name", c.name.as_str().into()),
            ("family", format!("{:?}", c.family).into()),
            ("d_model", c.d_model.into()),
            ("n_heads", c.n_heads.into()),
            ("n_layers", c.n_layers.into()),
            ("d_ff", c.d_ff.into()),
            ("max_len", c.max_len.into()),
            ("dropout", c.dropout.into()),
            ("subword_budget", c.subword_budget.into()),
        ]);
        let header = Json::obj(vec![
            ("labels", kinds.into()),
            ("model", model),
            ("multi_span", format!("{:?}", self.options.multi_span).into()),
            ("tokenizer", self.tokenizer.to_json()),
        ]);
        let mut out = format!("{CHECKPOINT_MAGIC}\n{header}\n").into_bytes();
        gs_tensor::serialize::save_params_text(self.model.store(), &mut out)
            .expect("writing to memory cannot fail");
        String::from_utf8(out).expect("checkpoint text is UTF-8")
    }

    /// Restores an extractor from [`save_text`](Self::save_text) output.
    ///
    /// # Errors
    /// Names the first missing or malformed part of the checkpoint,
    /// including weights whose names or shapes differ from what the
    /// encoder config registers.
    pub fn load_text(text: &str) -> Result<Self, String> {
        let body = text
            .strip_prefix(CHECKPOINT_MAGIC)
            .and_then(|rest| rest.strip_prefix('\n'))
            .ok_or("not a gs-extractor v1 checkpoint")?;
        let (header, params) = body.split_once('\n').ok_or("checkpoint: missing weights")?;
        let header = gs_obs::json::parse(header).map_err(|e| format!("checkpoint header: {e}"))?;

        let kinds: Vec<&str> = header
            .get("labels")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(Json::as_str).collect())
            .ok_or("checkpoint: bad labels")?;
        if (1..kinds.len()).any(|i| kinds[..i].contains(&kinds[i])) {
            return Err("checkpoint: duplicate label kind".to_string());
        }
        let labels = LabelSet::new(&kinds);

        let m = header.get("model").ok_or("checkpoint: missing model")?;
        let size = |key: &str| {
            m.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or(format!("checkpoint: bad model.{key}"))
        };
        let family = match m.get("family").and_then(Json::as_str) {
            Some("Roberta") => ModelFamily::Roberta,
            Some("Bert") => ModelFamily::Bert,
            _ => return Err("checkpoint: bad model.family".to_string()),
        };
        let config = TransformerConfig {
            name: m.get("name").and_then(Json::as_str).ok_or("checkpoint: bad model.name")?.into(),
            family,
            d_model: size("d_model")?,
            n_heads: size("n_heads")?,
            n_layers: size("n_layers")?,
            d_ff: size("d_ff")?,
            max_len: size("max_len")?,
            dropout: m
                .get("dropout")
                .and_then(Json::as_f64)
                .ok_or("checkpoint: bad model.dropout")? as f32,
            subword_budget: size("subword_budget")?,
        };
        let multi_span = match header.get("multi_span").and_then(Json::as_str) {
            Some("First") => MultiSpanPolicy::First,
            Some("Longest") => MultiSpanPolicy::Longest,
            Some("JoinAll") => MultiSpanPolicy::JoinAll,
            _ => return Err("checkpoint: bad multi_span".to_string()),
        };
        config.check().map_err(|e| format!("checkpoint: {e}"))?;
        let tokenizer =
            Tokenizer::from_json(header.get("tokenizer").ok_or("checkpoint: missing tokenizer")?)?;
        let params = gs_tensor::serialize::load_params_text(params.as_bytes())
            .map_err(|e| format!("checkpoint weights: {e}"))?;
        // The weights must be exactly what this config registers: same
        // names, order and shapes.
        let num_classes = labels.num_classes();
        let fresh = TokenClassifier::new(config.clone(), tokenizer.vocab().len(), num_classes, 0);
        fn layout(store: &gs_tensor::ParamStore) -> Vec<(&str, &[usize])> {
            store.ids().map(|id| (store.name(id), store.value(id).shape())).collect()
        }
        if layout(fresh.store()) != layout(&params) {
            return Err("checkpoint: weights do not match the model config".to_string());
        }
        Ok(Self::from_parts(labels, tokenizer, config, num_classes, params, multi_span))
    }

    /// Assembles an extractor from independently persisted pieces: a label
    /// set, a tokenizer, the encoder config, and a parameter store whose
    /// entries match what [`TokenClassifier`] registers for that config.
    ///
    /// Golden-fixture tests restore through it: the tokenizer is rebuilt
    /// deterministically from the training corpus and the weights come
    /// from a plain-text checkpoint
    /// (`gs_tensor::serialize::load_params_text`), so extraction behavior
    /// is fully pinned by the fixture files alone.
    pub fn from_parts(
        labels: LabelSet,
        tokenizer: Tokenizer,
        model_config: TransformerConfig,
        num_classes: usize,
        params: gs_tensor::ParamStore,
        multi_span: MultiSpanPolicy,
    ) -> Self {
        let model = TokenClassifier::from_store(model_config.clone(), num_classes, params);
        let mut weak_stats = WeakLabelStats::new(&labels);
        weak_stats.objectives = 0;
        TransformerExtractor {
            name: model_config.name.clone(),
            labels,
            tokenizer,
            case_normalizer: Normalizer::new(NormalizerConfig::default()),
            model,
            options: ExtractorOptions {
                model: model_config,
                train: TrainConfig::default(),
                weak_label: WeakLabelConfig::default(),
                multi_span,
                base: None,
            },
            train_stats: Vec::new(),
            weak_stats,
        }
    }
}

impl DetailExtractor for TransformerExtractor {
    fn name(&self) -> &str {
        &self.name
    }

    fn extract(&self, text: &str) -> ExtractedDetails {
        self.view().extract(text)
    }
}

/// Builds the family-appropriate tokenizer from training texts.
fn build_tokenizer(config: &TransformerConfig, texts: &[&str]) -> Tokenizer {
    match config.family {
        ModelFamily::Roberta => {
            Tokenizer::train_bpe(texts, Normalizer::default(), config.subword_budget)
        }
        ModelFamily::Bert => {
            let lowercasing =
                Normalizer::new(NormalizerConfig { lowercase: true, ..Default::default() });
            Tokenizer::train_wordpiece(texts, lowercasing, config.subword_budget)
        }
    }
}

/// Converts one annotated objective into a training example:
/// weak-label at the word level (case-preserved), project onto this
/// tokenizer's subwords, and wrap with BOS/EOS carrying ignored targets.
fn encode_example(
    objective: &Objective,
    labels: &LabelSet,
    tokenizer: &Tokenizer,
    case_normalizer: &Normalizer,
    weak_config: WeakLabelConfig,
    max_len: usize,
) -> Option<(TrainExample, gs_core::WeakLabeling, Vec<usize>)> {
    let annotations = objective.annotations.as_ref()?;
    let enc = tokenizer.encode(&objective.text);
    if enc.is_empty() {
        return None;
    }

    // Weak-label on case-preserved tokens when boundaries agree with the
    // tokenizer's pre-tokens (they do unless normalization changed token
    // structure), otherwise on the tokenizer's own tokens.
    let case_text = case_normalizer.normalize(&objective.text);
    let case_tokens = pretokenize(&case_text);
    let label_tokens =
        if case_tokens.len() == enc.pretokens.len() { &case_tokens } else { &enc.pretokens };

    let pairs: Vec<(usize, String)> = annotations
        .present()
        .filter_map(|(k, v)| labels.kind_index(k).map(|ki| (ki, v.to_string())))
        .collect();
    let annotated_kinds: Vec<usize> = pairs.iter().map(|(k, _)| *k).collect();
    let labeling = weak_label_tokens(label_tokens, &pairs, labels, weak_config);
    let subword_tags = project_to_subwords(&labeling.tags, &enc.word_index);

    let vocab = tokenizer.vocab();
    let mut ids: Vec<usize> = Vec::with_capacity(enc.ids.len() + 2);
    let mut targets: Vec<i64> = Vec::with_capacity(enc.ids.len() + 2);
    ids.push(vocab.bos_id() as usize);
    targets.push(-1);
    for (id, tag) in enc.ids.iter().zip(&subword_tags) {
        ids.push(*id as usize);
        targets.push(labels.class_id(*tag) as i64);
    }
    ids.truncate(max_len - 1);
    targets.truncate(max_len - 1);
    ids.push(vocab.eos_id() as usize);
    targets.push(-1);

    Some((TrainExample { ids, targets }, labeling, annotated_kinds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_core::Annotations;

    fn tiny_options(family: ModelFamily) -> ExtractorOptions {
        ExtractorOptions {
            model: TransformerConfig {
                name: format!("tiny-{family:?}"),
                family,
                d_model: 32,
                n_heads: 2,
                n_layers: 1,
                d_ff: 64,
                max_len: 48,
                dropout: 0.05,
                subword_budget: 300,
            },
            train: TrainConfig {
                epochs: 30,
                lr: 3e-3,
                batch_size: 8,
                seed: 1,
                ..Default::default()
            },
            weak_label: WeakLabelConfig::default(),
            multi_span: MultiSpanPolicy::First,
            base: None,
        }
    }

    /// A small but learnable corpus: the deadline always follows "by", the
    /// amount is always a percent.
    fn corpus() -> Vec<Objective> {
        let verbs = ["Reduce", "Cut", "Lower", "Decrease", "Trim", "Shrink"];
        let things = ["emissions", "waste", "usage", "consumption", "footprint", "intake"];
        let mut out = Vec::new();
        let mut id = 0;
        for (vi, v) in verbs.iter().enumerate() {
            for (ti, t) in things.iter().enumerate() {
                let pct = 5 + (vi * 7 + ti * 13) % 90;
                let year = 2025 + (vi + ti) % 20;
                let text = format!("{v} {t} by {pct}% by {year}.");
                let ann = Annotations::new()
                    .with("Action", v)
                    .with("Qualifier", t)
                    .with("Amount", &format!("{pct}%"))
                    .with("Deadline", &year.to_string());
                out.push(Objective::annotated(id, text, ann));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn trains_and_extracts_on_held_out_text() {
        // Hold out one diagonal of the 6x6 (verb, thing) grid: every held-out
        // sentence is a new combination of words seen in training. (Holding
        // out a whole verb instead makes the probe depend on how BPE splits
        // the unseen word, which shifts every later position; that version
        // extracted the probe correctly for 2 of 10 training seeds.)
        let data = corpus();
        let held_out = |i: usize| (i / 6 + i % 6) % 6 == 4;
        let refs: Vec<&Objective> = (0..36).filter(|&i| !held_out(i)).map(|i| &data[i]).collect();
        let labels = LabelSet::sustainability_goals();
        let ex = TransformerExtractor::train(&refs, &labels, tiny_options(ModelFamily::Roberta));

        // Weak supervision on this clean corpus matches everything.
        assert!(ex.weak_stats.overall_match_rate() > 0.99);
        // Loss fell substantially: over training seeds 0-15 the last/first
        // epoch loss ratio was 0.0004-0.0009.
        let first = ex.train_stats.first().expect("stats").mean_loss;
        let last = ex.train_stats.last().expect("stats").mean_loss;
        assert!(last < first * 0.01, "loss {first} -> {last}");

        // Every held-out sentence extracts all four fields exactly, as it
        // did for each of training seeds 0-15; so does a probe whose amount
        // and year appear nowhere in the corpus.
        for o in (0..36).filter(|&i| held_out(i)).map(|i| &data[i]) {
            let want = o.annotations.as_ref().expect("annotated");
            let details = ex.extract(&o.text);
            for field in ["Action", "Amount", "Qualifier", "Deadline"] {
                assert_eq!(details.get(field), want.get(field), "{}: {details:?}", o.text);
            }
        }
        let details = ex.extract("Shrink intake by 33% by 2031.");
        assert_eq!(details.get("Deadline"), Some("2031"), "details: {:?}", details);
        assert_eq!(details.get("Amount"), Some("33%"));
    }

    #[test]
    fn bert_family_trains_too() {
        let data = corpus();
        let refs: Vec<&Objective> = data.iter().take(24).collect();
        let labels = LabelSet::sustainability_goals();
        let ex = TransformerExtractor::train(&refs, &labels, tiny_options(ModelFamily::Bert));
        let details = ex.extract("Cut waste by 44% by 2033.");
        // BERT-sim lowercases internally but decoding must preserve case.
        assert_eq!(details.get("Deadline"), Some("2033"), "details: {:?}", details);
    }

    #[test]
    fn batch_prediction_matches_single_exactly() {
        let data = corpus();
        let refs: Vec<&Objective> = data.iter().take(20).collect();
        let labels = LabelSet::sustainability_goals();
        for family in [ModelFamily::Roberta, ModelFamily::Bert] {
            let ex = TransformerExtractor::train(&refs, &labels, tiny_options(family));
            let texts = [
                "Shrink intake by 33% by 2031.",
                "",
                "Cut waste by 44% by 2033.",
                "   ",
                "Reduce emissions by 9% by 2040.",
            ];
            let batched = ex.predict_tags_batch(&texts);
            assert_eq!(batched.len(), texts.len());
            for (text, got) in texts.iter().zip(&batched) {
                assert_eq!(got, &ex.predict_tags(text), "family {family:?}, text {text:?}");
            }
            let details = ex.extract_batch(&texts);
            for (text, got) in texts.iter().zip(&details) {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", ex.extract(text)),
                    "family {family:?}, text {text:?}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_predicts_empty() {
        let data = corpus();
        let refs: Vec<&Objective> = data.iter().take(12).collect();
        let labels = LabelSet::sustainability_goals();
        let ex = TransformerExtractor::train(&refs, &labels, tiny_options(ModelFamily::Roberta));
        assert!(ex.predict_tags_batch(&[]).is_empty());
        assert!(ex.extract_batch(&[]).is_empty());
    }

    #[test]
    fn empty_text_extracts_nothing() {
        let data = corpus();
        let refs: Vec<&Objective> = data.iter().take(12).collect();
        let labels = LabelSet::sustainability_goals();
        let ex = TransformerExtractor::train(&refs, &labels, tiny_options(ModelFamily::Roberta));
        assert!(ex.extract("").is_empty());
        assert!(ex.extract("   ").is_empty());
    }
}
