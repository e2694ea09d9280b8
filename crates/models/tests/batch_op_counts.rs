//! What micro-batching buys, as an exact count: a packed batch shares one
//! encoder forward, so `predict_classes_batch` over eight sequences makes
//! the same kernel calls as over one of them. A batch that ran one forward
//! per sequence would multiply every count by eight.
//!
//! The profiler is process-global, so this binary holds this one test.

use gs_models::transformer::{TokenClassifier, TransformerConfig};
use gs_obs::prof;
use std::collections::BTreeMap;

const VOCAB: usize = 300;

/// `(path, op) → calls` recorded while `seqs` run as one batch.
fn op_calls(model: &TokenClassifier, seqs: &[&[usize]]) -> BTreeMap<(String, &'static str), u64> {
    prof::reset();
    prof::set_enabled(true);
    let classes = model.predict_classes_batch(seqs);
    prof::set_enabled(false);
    let calls = prof::snapshot().rows.into_iter().map(|r| ((r.path, r.op), r.calls)).collect();
    prof::reset();
    assert_eq!(classes.len(), seqs.len());
    calls
}

#[test]
fn a_packed_batch_makes_the_kernel_calls_of_one_sequence() {
    let config = TransformerConfig {
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        max_len: 48,
        subword_budget: VOCAB,
        ..TransformerConfig::roberta_sim()
    };
    let model = TokenClassifier::new(config, VOCAB, 5, 42);
    let seqs: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..12 + 4 * s).map(|i| 2 + (s * 31 + i * 7) % (VOCAB - 2)).collect())
        .collect();
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();

    let one = op_calls(&model, &refs[..1]);
    let eight = op_calls(&model, &refs);
    assert!(one.len() > 1 && one.values().all(|&calls| calls > 0), "{one:?}");
    assert_eq!(eight, one, "8 sequences (left) against 1 (right)");
}
