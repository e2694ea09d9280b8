//! Training loop for the token classifier: per-sequence tapes, gradient
//! accumulation over a mini-batch (paper batch size 16), Adam with linear
//! warmup/decay, and global-norm clipping.

use super::check::assert_classifier_valid;
use super::config::TrainConfig;
use super::model::TokenClassifier;
use gs_check::GrowthMonitor;
use gs_obs::prof;
use gs_obs::Rng;
use gs_tensor::{cost, Binder, Optimizer, Tape, Tensor, WarmupLinearSchedule};

/// One training sequence: subword ids and per-subword targets (`-1` =
/// ignored position).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainExample {
    /// Subword ids (already truncated to the model's `max_len`).
    pub ids: Vec<usize>,
    /// Class targets, parallel to `ids`.
    pub targets: Vec<i64>,
}

/// Per-epoch training diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over sequences.
    pub mean_loss: f32,
}

/// Trains `model` on `examples`; returns per-epoch mean losses.
pub fn train_token_classifier(
    model: &mut TokenClassifier,
    examples: &[TrainExample],
    config: &TrainConfig,
) -> Vec<EpochStats> {
    train_token_classifier_cb(model, examples, config, &mut |_, _| {})
}

/// Like [`train_token_classifier`], invoking `on_epoch(epoch_index, model)`
/// after every completed epoch (for convergence studies like Figure 4).
pub fn train_token_classifier_cb(
    model: &mut TokenClassifier,
    examples: &[TrainExample],
    config: &TrainConfig,
    on_epoch: &mut dyn FnMut(usize, &TokenClassifier),
) -> Vec<EpochStats> {
    assert!(!examples.is_empty(), "no training examples");
    let max_len = model.config().max_len;
    for ex in examples {
        assert_eq!(ex.ids.len(), ex.targets.len(), "ids/targets mismatch");
        assert!(ex.ids.len() <= max_len, "example exceeds max_len");
        assert!(!ex.ids.is_empty(), "empty example");
    }

    // Fail fast, before any forward: symbolic shape check + graph lints.
    let prof_on = prof::enabled();
    prof::time_at(prof_on, "train", "graph_check", prof::Cost::zero(), || {
        assert_classifier_valid(model, "fine-tuning");
    });

    let steps_per_epoch = examples.len().div_ceil(config.batch_size.max(1));
    let total_steps = (steps_per_epoch * config.epochs) as u64;
    let schedule = WarmupLinearSchedule {
        base_lr: config.lr,
        warmup_steps: ((total_steps as f32) * config.warmup_frac) as u64,
        total_steps,
    };
    let mut opt = Optimizer::adam(config.lr);
    let mut shuffle_rng = Rng::seed_from_u64(config.seed.wrapping_add(1));
    let mut dropout_rng = Rng::seed_from_u64(config.seed.wrapping_add(2));

    let mut run_span = gs_obs::span("train.finetune");
    run_span.add("examples", examples.len() as u64);
    run_span.add("par_threads", gs_par::max_threads() as u64);
    gs_obs::gauge("train.par_threads", gs_par::max_threads() as f64);
    let mut stats = Vec::with_capacity(config.epochs);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut step: u64 = 0;
    // Sequence lengths vary, so a long monotone run of growing tapes is a
    // leak signal, not data noise.
    let mut growth = GrowthMonitor::new(64);
    // One arena scope across every epoch: once warm, each step's tape and
    // kernel buffers are recycled from the pool instead of hitting the
    // allocator (`arena_flatness.rs` pins steady-state training flat).
    gs_tensor::arena::scope(|| {
        for epoch in 0..config.epochs {
            shuffle_rng.shuffle(&mut order);
            let epoch_start = gs_obs::enabled().then(std::time::Instant::now);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size.max(1)) {
                // Pre-draw every sequence's dropout masks on this thread, in
                // batch order, so the RNG stream is identical to serial
                // training regardless of pool size.
                let batch_masks: Vec<Vec<Tensor>> =
                    prof::time_at(prof_on, "train", "draw_dropout", prof::Cost::zero(), || {
                        batch
                            .iter()
                            .map(|&i| {
                                model.draw_dropout_masks(examples[i].ids.len(), &mut dropout_rng)
                            })
                            .collect()
                    });
                // Data-parallel shard: each sequence's forward/backward runs on
                // its own tape, possibly on a pool worker, and hands back its
                // loss and gradient pairs.
                let shard_model: &TokenClassifier = model;
                let shards = gs_par::map_collect(batch.len(), |j| {
                    let ex = &examples[batch[j]];
                    let tape = Tape::new();
                    let mut binder = Binder::new(&tape);
                    let logits = shard_model.forward_with_masks(
                        &tape,
                        &mut binder,
                        &ex.ids,
                        &batch_masks[j],
                    );
                    let loss = tape.cross_entropy(logits, &ex.targets);
                    let loss_val = f64::from(tape.value(loss).item());
                    let mut grads = tape.backward(loss);
                    let pairs = binder.take_param_grads(&mut grads);
                    (loss_val, pairs, tape.first_numeric_issue(), tape.len())
                });
                // Fold shards in batch order: loss totals and gradient sums see
                // contributions in exactly the serial order, so every float is
                // bit-identical to single-threaded training.
                let mut batch_loss = 0.0f64;
                for (loss_val, pairs, issue, tape_len) in shards {
                    batch_loss += loss_val;
                    let accum_len: usize = pairs.iter().map(|(_, g)| g.len()).sum();
                    prof::time_at(prof_on, "train", "accum_grad", cost::zip(accum_len, 1), || {
                        for (id, g) in &pairs {
                            model.store_mut().accumulate_grad(*id, g);
                        }
                    });
                    if let Some(issue) = issue {
                        gs_obs::counter("train.sanitizer_trips", 1);
                        panic!("numeric sanitizer tripped at step {step} (epoch {epoch}): {issue}");
                    }
                    if let Some(report) = growth.observe(tape_len) {
                        gs_obs::counter("train.tape_growth_alerts", 1);
                        gs_obs::emit(
                            "tape_growth",
                            "finetune",
                            vec![
                                ("step", step.into()),
                                ("epoch", epoch.into()),
                                ("detail", report.to_string().into()),
                            ],
                        );
                    }
                }
                epoch_loss += batch_loss;
                let max_norm = config.clip_norm * batch.len() as f32;
                let grad_norm = model.store_mut().clip_grad_norm(max_norm);
                let lr = schedule.lr_at(step);
                opt.set_lr(lr);
                opt.step(model.store_mut());
                step += 1;
                if gs_obs::enabled() {
                    let clipped = grad_norm > max_norm;
                    gs_obs::counter("train.steps", 1);
                    gs_obs::counter("train.sequences", batch.len() as u64);
                    if clipped {
                        gs_obs::counter("train.clip_events", 1);
                    }
                    gs_obs::emit(
                        "train_step",
                        "finetune",
                        vec![
                            ("step", step.into()),
                            ("epoch", epoch.into()),
                            ("loss", (batch_loss / batch.len() as f64).into()),
                            ("lr", lr.into()),
                            ("grad_norm", grad_norm.into()),
                            ("clipped", clipped.into()),
                            ("sequences", batch.len().into()),
                        ],
                    );
                }
            }
            let mean_loss = (epoch_loss / examples.len() as f64) as f32;
            stats.push(EpochStats { epoch, mean_loss });
            if let Some(start) = epoch_start {
                let seconds = start.elapsed().as_secs_f64();
                gs_obs::observe("train.epoch_seconds", seconds);
                gs_obs::emit(
                    "train_epoch",
                    "finetune",
                    vec![
                        ("epoch", epoch.into()),
                        ("mean_loss", mean_loss.into()),
                        ("seconds", seconds.into()),
                        ("sequences_per_sec", (examples.len() as f64 / seconds.max(1e-9)).into()),
                    ],
                );
            }
            on_epoch(epoch, model);
        }
    });
    drop(run_span);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::config::{ModelFamily, TransformerConfig};

    fn tiny_config() -> TransformerConfig {
        TransformerConfig {
            name: "tiny".into(),
            family: ModelFamily::Roberta,
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 12,
            dropout: 0.05,
            subword_budget: 50,
        }
    }

    /// Synthetic task: class of token id i is 1 if the id is even, else 2;
    /// position 0 is an ignored "BOS".
    fn examples(n: usize) -> Vec<TrainExample> {
        (0..n)
            .map(|s| {
                let ids: Vec<usize> = (0..8).map(|i| ((s * 7 + i * 3) % 18) + 2).collect();
                let targets: Vec<i64> = ids
                    .iter()
                    .enumerate()
                    .map(|(pos, &id)| if pos == 0 { -1 } else { (1 + id % 2) as i64 })
                    .collect();
                TrainExample { ids, targets }
            })
            .collect()
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut model = TokenClassifier::new(tiny_config(), 20, 3, 5);
        let config = TrainConfig { epochs: 8, lr: 3e-3, batch_size: 4, ..Default::default() };
        let stats = train_token_classifier(&mut model, &examples(24), &config);
        assert_eq!(stats.len(), 8);
        assert!(
            stats.last().expect("stats").mean_loss < stats[0].mean_loss * 0.5,
            "first {} last {}",
            stats[0].mean_loss,
            stats.last().expect("stats").mean_loss
        );
    }

    #[test]
    fn learns_the_parity_rule() {
        let mut model = TokenClassifier::new(tiny_config(), 20, 3, 5);
        let config = TrainConfig { epochs: 12, lr: 3e-3, batch_size: 4, ..Default::default() };
        train_token_classifier(&mut model, &examples(24), &config);
        // Evaluate on a fresh sequence.
        let ids = vec![2usize, 3, 4, 5, 6, 7];
        let classes = model.predict_classes(&ids);
        let correct = ids.iter().zip(&classes).skip(1).filter(|(&id, &c)| c == 1 + id % 2).count();
        assert!(correct >= 4, "classes {:?}", classes);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut model = TokenClassifier::new(tiny_config(), 20, 3, 5);
            let config = TrainConfig { epochs: 2, lr: 1e-3, batch_size: 4, ..Default::default() };
            let stats = train_token_classifier(&mut model, &examples(12), &config);
            stats.last().expect("stats").mean_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "no training examples")]
    fn rejects_empty_training_set() {
        let mut model = TokenClassifier::new(tiny_config(), 20, 3, 5);
        train_token_classifier(&mut model, &[], &TrainConfig::default());
    }
}
