//! The serving forward is the encoder's one definition run on the
//! values-only `Evaluator`: its logits over a packed batch must equal the
//! taped forward's, run one sequence per tape, bit for bit, for both model
//! families and for every packing edge case (empty, length-1, exactly
//! `max_len` and over-length sequences in one batch).

use gs_models::transformer::{ModelFamily, TokenClassifier, TransformerConfig};
use gs_obs::Rng;
use gs_tensor::{Binder, Evaluator, Tape, Tensor};

const VOCAB: usize = 40;
const MAX_LEN: usize = 12;

fn model(family: ModelFamily) -> TokenClassifier {
    let config = TransformerConfig {
        name: "forward-equivalence".into(),
        family,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_len: MAX_LEN,
        // Inference must ignore dropout.
        dropout: 0.1,
        subword_budget: VOCAB,
    };
    TokenClassifier::new(config, VOCAB, 5, 19)
}

fn seq(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (salt * 7 + i * 5) % VOCAB).collect()
}

/// Fixed edge-case batches, then seeded random ones; every batch holds at
/// least one non-empty sequence.
fn batches() -> Vec<Vec<Vec<usize>>> {
    let mut out = vec![
        vec![seq(1, 1)],
        vec![seq(MAX_LEN, 2)],
        vec![seq(MAX_LEN + 7, 3)],
        vec![vec![], seq(1, 4), vec![], seq(MAX_LEN, 5), seq(MAX_LEN + 3, 6), seq(5, 7), vec![]],
    ];
    let mut rng = Rng::seed_from_u64(41);
    for case in 0..12 {
        let batch: Vec<Vec<usize>> = (0..rng.random_range(1..7))
            .map(|i| {
                let len = match rng.random_range(0..5) {
                    0 => 0,
                    1 => 1,
                    2 => MAX_LEN,
                    3 => MAX_LEN + rng.random_range(1..9),
                    _ => rng.random_range(2..MAX_LEN),
                };
                seq(len, case * 10 + i)
            })
            .collect();
        if batch.iter().any(|s| !s.is_empty()) {
            out.push(batch);
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn evaluator_logits(model: &TokenClassifier, seqs: &[&[usize]]) -> Vec<u32> {
    let eval = Evaluator::new(model.store());
    let mut binder = Binder::new(&eval);
    let logits = model.forward_batch(&eval, &mut binder, seqs);
    let logits = eval.value(logits);
    bits(&logits)
}

/// The taped forward's logits, one sequence per tape, rows concatenated in
/// packing order: empty sequences skipped, long ones cut to `max_len`.
fn taped_logits(model: &TokenClassifier, seqs: &[&[usize]]) -> Vec<u32> {
    seqs.iter()
        .filter(|seq| !seq.is_empty())
        .flat_map(|seq| {
            let tape = Tape::new();
            let mut binder = Binder::new(&tape);
            let logits = model.forward(&tape, &mut binder, &seq[..seq.len().min(MAX_LEN)], None);
            bits(&tape.value(logits))
        })
        .collect()
}

#[test]
fn evaluator_logits_equal_the_taped_forward_bit_for_bit() {
    for family in [ModelFamily::Roberta, ModelFamily::Bert] {
        let model = model(family);
        for (case, batch) in batches().iter().enumerate() {
            let refs: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
            assert_eq!(
                evaluator_logits(&model, &refs),
                taped_logits(&model, &refs),
                "{family:?} case {case}: {batch:?}"
            );
        }
    }
}
