//! Multi-seed comparison of all detail-extraction approaches on a dataset —
//! the engine behind the Table 4 harness.

use gs_core::Objective;
use gs_core::WeakLabelConfig;
use gs_data::Dataset;
use gs_eval::{run_stats, RunStats};
use gs_models::transformer::{
    pretrain_encoder_shared, ExtractorOptions, PretrainConfig, PretrainedEncoder, TrainConfig,
    TransformerConfig, TransformerExtractor,
};
use gs_models::{
    CrfConfig, CrfExtractor, FewShotExtractor, HmmConfig, HmmExtractor, ZeroShotExtractor,
};
use gs_pipeline::evaluate_extractor;
use std::sync::Arc;
use std::time::Duration;

/// Which approach to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApproachKind {
    /// Linear-chain CRF on handcrafted features.
    Crf,
    /// HMM (extended baseline, not in the paper's Table 4).
    Hmm,
    /// Keyword-window search (extended baseline, paper §6.2's comparison
    /// point for zero-shot prompting).
    KeywordSearch,
    /// Zero-shot LLM-prompting simulator.
    ZeroShot,
    /// Few-shot LLM-prompting simulator (3 examples from the train split).
    FewShot,
    /// GoalSpotter: the weakly supervised fine-tuned transformer.
    GoalSpotter,
}

impl ApproachKind {
    /// The paper's Table 4 lineup, in row order.
    pub fn table4() -> Vec<ApproachKind> {
        vec![
            ApproachKind::Crf,
            ApproachKind::ZeroShot,
            ApproachKind::FewShot,
            ApproachKind::GoalSpotter,
        ]
    }
}

/// Options shared by a comparison run.
#[derive(Clone, Debug)]
pub struct ComparisonOptions {
    /// Test fraction (paper: 0.2).
    pub test_fraction: f64,
    /// Seeds — one independent run each (paper: mean of 5 runs).
    pub seeds: Vec<u64>,
    /// Transformer configuration for GoalSpotter.
    pub model: TransformerConfig,
    /// Transformer training configuration (seed overridden per run).
    pub train: TrainConfig,
    /// Weak labeling configuration (shared by CRF/HMM/transformer).
    pub weak_label: WeakLabelConfig,
    /// Simulated per-call LLM latency for the prompting baselines.
    pub llm_latency: Duration,
    /// MLM pretraining configuration; `None` trains from scratch.
    pub pretrain: Option<PretrainConfig>,
    /// Unlabeled corpus for pretraining (required when `pretrain` is set).
    pub pretrain_corpus: Vec<String>,
}

impl Default for ComparisonOptions {
    fn default() -> Self {
        ComparisonOptions {
            test_fraction: 0.2,
            seeds: vec![1, 2, 3, 4, 5],
            model: TransformerConfig::roberta_sim(),
            train: TrainConfig::default(),
            weak_label: WeakLabelConfig::default(),
            llm_latency: gs_models::DEFAULT_CALL_LATENCY,
            pretrain: None,
            pretrain_corpus: Vec::new(),
        }
    }
}

/// One result row: an approach's scores and times aggregated over seeds.
#[derive(Clone, Debug)]
pub struct ApproachRow {
    /// Approach display name.
    pub name: String,
    /// Precision over runs.
    pub precision: RunStats,
    /// Recall over runs.
    pub recall: RunStats,
    /// F1 over runs.
    pub f1: RunStats,
    /// Mean training seconds (real).
    pub train_seconds: f64,
    /// Mean inference seconds including simulated LLM latency.
    pub inference_seconds_total: f64,
    /// Mean inference seconds, real only.
    pub inference_seconds_real: f64,
}

/// Builds and evaluates one approach on one split. Returns
/// (result, train_seconds).
fn run_once(
    kind: ApproachKind,
    train: &[&Objective],
    test: &[&Objective],
    dataset: &Dataset,
    options: &ComparisonOptions,
    seed: u64,
    base: Option<&Arc<PretrainedEncoder>>,
) -> (gs_pipeline::ApproachResult, f64) {
    let labels = &dataset.labels;
    match kind {
        ApproachKind::Crf => {
            let (ex, secs) = gs_obs::time_it(|| {
                CrfExtractor::train(
                    train,
                    labels,
                    CrfConfig { seed, ..Default::default() },
                    options.weak_label,
                )
            });
            (evaluate_extractor(&ex, test, labels), secs)
        }
        ApproachKind::Hmm => {
            let (ex, secs) = gs_obs::time_it(|| {
                HmmExtractor::train(train, labels, HmmConfig::default(), options.weak_label)
            });
            (evaluate_extractor(&ex, test, labels), secs)
        }
        ApproachKind::KeywordSearch => {
            let ex = gs_models::KeywordSearchExtractor::new(labels);
            (evaluate_extractor(&ex, test, labels), 0.0)
        }
        ApproachKind::ZeroShot => {
            let ex = ZeroShotExtractor::with_latency(labels, options.llm_latency);
            (evaluate_extractor(&ex, test, labels), 0.0)
        }
        ApproachKind::FewShot => {
            // Three in-context examples from the train split, as the paper
            // does (following NetZeroFacts).
            let examples: Vec<&Objective> = train.iter().copied().take(3).collect();
            let ex = FewShotExtractor::with_latency(labels, &examples, options.llm_latency);
            (evaluate_extractor(&ex, test, labels), 0.0)
        }
        ApproachKind::GoalSpotter => {
            let extractor_options = ExtractorOptions {
                model: options.model.clone(),
                train: TrainConfig { seed, ..options.train.clone() },
                weak_label: options.weak_label,
                multi_span: Default::default(),
                base: base.cloned(),
            };
            let (ex, secs) =
                gs_obs::time_it(|| TransformerExtractor::train(train, labels, extractor_options));
            (evaluate_extractor(&ex, test, labels), secs)
        }
    }
}

/// Runs every approach over every seed's split of `dataset` and aggregates.
pub fn compare_approaches(
    dataset: &Dataset,
    kinds: &[ApproachKind],
    options: &ComparisonOptions,
) -> Vec<ApproachRow> {
    assert!(!options.seeds.is_empty(), "need at least one seed");
    // Pretrain once; every GoalSpotter seed fine-tunes from the same
    // encoder, mirroring how every fine-tuning run in the paper starts from
    // the same public checkpoint. Pretraining wall-clock is amortized into
    // each run's training time below.
    let mut pretrain_seconds = 0.0f64;
    let base: Option<Arc<PretrainedEncoder>> = match &options.pretrain {
        Some(pc) if kinds.contains(&ApproachKind::GoalSpotter) => {
            assert!(
                !options.pretrain_corpus.is_empty(),
                "pretraining requested but no unlabeled corpus supplied"
            );
            let texts: Vec<&str> = options.pretrain_corpus.iter().map(String::as_str).collect();
            let (encoder, secs) =
                gs_obs::time_it(|| pretrain_encoder_shared(&texts, &options.model, pc));
            pretrain_seconds = secs;
            Some(encoder)
        }
        _ => None,
    };
    let mut rows = Vec::with_capacity(kinds.len());
    for &kind in kinds {
        let mut ps = Vec::new();
        let mut rs = Vec::new();
        let mut fs = Vec::new();
        let mut train_secs = Vec::new();
        let mut infer_total = Vec::new();
        let mut infer_real = Vec::new();
        let mut name = String::new();
        for &seed in &options.seeds {
            let (train, test) = dataset.split(options.test_fraction, seed);
            let (result, secs) =
                run_once(kind, &train, &test, dataset, options, seed, base.as_ref());
            name = result.name.clone();
            ps.push(result.precision());
            rs.push(result.recall());
            fs.push(result.f1());
            train_secs.push(secs);
            infer_total.push(result.inference_total.as_secs_f64());
            infer_real.push(result.inference_real.as_secs_f64());
        }
        let pretrain_share = if kind == ApproachKind::GoalSpotter {
            pretrain_seconds / options.seeds.len() as f64
        } else {
            0.0
        };
        rows.push(ApproachRow {
            name,
            precision: run_stats(&ps),
            recall: run_stats(&rs),
            f1: run_stats(&fs),
            train_seconds: mean(&train_secs) + pretrain_share,
            inference_seconds_total: mean(&infer_total),
            inference_seconds_real: mean(&infer_real),
        });
    }
    rows
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_lineup_matches_paper_rows() {
        let kinds = ApproachKind::table4();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], ApproachKind::Crf);
        assert_eq!(kinds[3], ApproachKind::GoalSpotter);
    }

    #[test]
    fn quick_comparison_on_small_data() {
        let dataset = gs_data::sustaingoals::generate(60, 3);
        let options = ComparisonOptions {
            seeds: vec![1],
            model: TransformerConfig {
                d_model: 32,
                n_heads: 2,
                n_layers: 1,
                d_ff: 64,
                subword_budget: 200,
                ..TransformerConfig::roberta_sim()
            },
            train: TrainConfig { epochs: 3, lr: 3e-3, batch_size: 8, ..Default::default() },
            llm_latency: Duration::ZERO,
            ..Default::default()
        };
        let rows =
            compare_approaches(&dataset, &[ApproachKind::ZeroShot, ApproachKind::Crf], &options);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.f1.mean >= 0.0 && row.f1.mean <= 1.0);
        }
    }
}
