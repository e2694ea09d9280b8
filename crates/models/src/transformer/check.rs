//! Pre-flight static validation of classifier configurations via gs-check.
//!
//! [`validate_classifier`] drives the encoder's one definition, the
//! generic forward that training records on the tape and serving runs on
//! the evaluator, over a gs-check [`SymTape`]: every op's shapes are
//! checked against the shared rules and the autograd graph is linted (dead
//! parameters, detached heads, constants on the gradient path), all in
//! milliseconds, without computing a single activation. A RoBERTa-like or
//! BERT-like config is validated end to end before any training or serving
//! forward runs.

use super::model::TokenClassifier;
use gs_check::{check_traced, Analysis, SymTape};
use gs_tensor::{Binder, TapeOps};

/// Symbolically traces the two ways the encoder runs and returns the
/// gs-check analysis of both under one loss (their sum). Both traces bind
/// the same parameter leaves, so each parameter is checked once:
///
/// - training: one full-length sequence, whose ids sweep the vocabulary
///   and the position table end to end, plus its cross-entropy with one
///   target of `-1` to exercise the ignored-position path;
/// - serving: a packed batch of a full-length, an over-length, an empty
///   and a one-token sequence, so attention is traced over several
///   sequences in one row block, plus its cross-entropy.
pub fn validate_classifier(model: &TokenClassifier) -> Analysis {
    let store = model.store();
    let vocab =
        store.id("emb.tok").map(|id| store.value(id).rows()).expect("model has no emb.tok table");
    let n = model.config().max_len;
    let num_classes = model.num_classes();
    let targets = |rows: usize| -> Vec<i64> {
        let mut targets: Vec<i64> = (0..rows).map(|i| (i % num_classes) as i64).collect();
        targets[0] = -1; // BOS-style ignored position
        targets
    };

    let sym = SymTape::new();
    let mut binder = Binder::new(&sym);
    let ids: Vec<usize> = (0..n).map(|i| i % vocab).collect();
    let logits = model.forward(&sym, &mut binder, &ids, None);
    let train_loss = sym.cross_entropy(logits, &targets(n));

    let long: Vec<usize> = (0..n + 3).map(|i| (i * 7) % vocab).collect();
    let batch: [&[usize]; 4] = [&ids, &long, &[], &ids[..1]];
    let logits = model.forward_batch(&sym, &mut binder, &batch);
    let serve_loss = sym.cross_entropy(logits, &targets(2 * n + 1));
    let loss = sym.add(train_loss, serve_loss);
    check_traced(sym, Some(loss))
}

/// Panics with every finding (one per line, full provenance) unless
/// [`validate_classifier`] comes back clean. Called by the trainers so a
/// broken configuration fails before the first forward pass.
pub fn assert_classifier_valid(model: &TokenClassifier, context: &str) {
    let analysis = validate_classifier(model);
    if !analysis.is_clean() {
        let report: Vec<String> = analysis.findings.iter().map(ToString::to_string).collect();
        panic!(
            "static graph check failed for {context} ({} finding(s)):\n{}",
            analysis.findings.len(),
            report.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::config::{ModelFamily, TransformerConfig};
    use gs_check::FindingKind;
    use gs_tensor::Tensor;

    fn tiny_config(family: ModelFamily) -> TransformerConfig {
        TransformerConfig {
            name: "tiny".into(),
            family,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            d_ff: 32,
            max_len: 12,
            dropout: 0.1,
            subword_budget: 50,
        }
    }

    #[test]
    fn clean_models_validate_for_both_families() {
        for family in [ModelFamily::Roberta, ModelFamily::Bert] {
            let model = TokenClassifier::new(tiny_config(family), 30, 5, 1);
            let analysis = validate_classifier(&model);
            assert!(analysis.is_clean(), "{family:?}: {:?}", analysis.findings);
            // Both traces share one leaf per parameter.
            assert_eq!(analysis.params, model.store().ids().count());
        }
    }

    #[test]
    fn store_surgery_with_wrong_gamma_shape_is_caught() {
        let mut model = TokenClassifier::new(tiny_config(ModelFamily::Roberta), 30, 5, 1);
        let id = model.store().id("l0.ln1.g").expect("gamma");
        let d = model.config().d_model;
        model.store_mut().replace(id, Tensor::full(&[d + 1], 1.0));
        let analysis = validate_classifier(&model);
        let f = analysis
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ShapeViolation)
            .expect("shape finding");
        assert_eq!(f.op, "layer_norm");
        assert_eq!(f.scope, "l0.attn");
        // Identical message to the eager panic for the same violation.
        assert!(f.message.starts_with("shape error in layer_norm:"), "{}", f.message);
    }

    #[test]
    fn nan_in_embedding_table_is_caught() {
        let mut model = TokenClassifier::new(tiny_config(ModelFamily::Roberta), 30, 5, 1);
        let id = model.store().id("emb.tok").expect("emb.tok");
        let shape = model.store().value(id).shape().to_vec();
        let mut data = model.store().value(id).data().to_vec();
        data[7] = f32::NAN;
        model.store_mut().replace(id, Tensor::from_vec(shape, data));
        let analysis = validate_classifier(&model);
        let found: Vec<_> =
            analysis.findings.iter().filter(|f| f.kind == FindingKind::NonFiniteParam).collect();
        let [f] = found[..] else { panic!("want one non-finite finding: {found:?}") };
        assert_eq!(f.label.as_deref(), Some("emb.tok"));
        assert_eq!(f.scope, "emb");
    }

    #[test]
    #[should_panic(expected = "static graph check failed")]
    fn assert_valid_panics_with_context() {
        let mut model = TokenClassifier::new(tiny_config(ModelFamily::Roberta), 30, 5, 1);
        let id = model.store().id("head.w").expect("head.w");
        let d = model.config().d_model;
        // Transposed head: [num_classes, d] instead of [d, num_classes].
        model.store_mut().replace(id, Tensor::zeros(&[5, d]));
        assert_classifier_valid(&model, "unit test");
    }
}
