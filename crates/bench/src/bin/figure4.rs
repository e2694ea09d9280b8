//! Regenerates **Figure 4**: the effect of internal design decisions on the
//! *Sustainability Goals* dataset —
//!
//! 1. per-target-label F1 (with each label's annotation availability, which
//!    the paper uses to explain the differences);
//! 2. transformer model selection (RoBERTa-sim / DistilRoBERTa-sim /
//!    BERT-sim / DistilBERT-sim), effectiveness and fine-tuning time;
//! 3. convergence across epochs for several learning rates.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin figure4 [--quick] [--json PATH]
//!       [--sg-size N] [--pretrain-size N] [--pretrain-epochs N]

use gs_bench::Args;
use gs_core::Objective;
use gs_data::Dataset;
use gs_eval::{fmt2, fmt_duration, TextTable};
use gs_models::transformer::{
    pretrain_encoder_shared, ExtractorOptions, PretrainConfig, PretrainedEncoder, TrainConfig,
    TransformerConfig, TransformerExtractor,
};
use gs_obs::Json;
use gs_pipeline::evaluate_extractor;
use std::sync::Arc;

struct Harness {
    dataset: Dataset,
    pretrain_corpus: Vec<String>,
    pretrain: PretrainConfig,
    train: TrainConfig,
    json: std::collections::BTreeMap<String, Json>,
}

impl Harness {
    fn pretrain_base(&self, model: &TransformerConfig) -> Arc<PretrainedEncoder> {
        let texts: Vec<&str> = self.pretrain_corpus.iter().map(String::as_str).collect();
        pretrain_encoder_shared(&texts, model, &self.pretrain)
    }

    fn split(&self) -> (Vec<&Objective>, Vec<&Objective>) {
        self.dataset.split(0.2, 1)
    }

    /// Part 1: per-target-label F1 with annotation availability.
    fn per_label(&mut self) {
        println!("\n## Figure 4a — effectiveness per target label\n");
        let (train, test) = self.split();
        let base = self.pretrain_base(&TransformerConfig::roberta_sim());
        let ex = TransformerExtractor::train(
            &train,
            &self.dataset.labels,
            ExtractorOptions { train: self.train.clone(), base: Some(base), ..Default::default() },
        );
        let result = evaluate_extractor(&ex, &test, &self.dataset.labels);

        // Annotation availability over the whole dataset (paper §4.3 cites
        // Action 85%, Baseline 14%, Deadline 34%).
        let mut table = TextTable::new(&["Target label", "Available", "P", "R", "F1"]);
        let mut json_rows = Vec::new();
        for (kind, name) in self.dataset.labels.kind_names().enumerate() {
            let available = self
                .dataset
                .objectives
                .iter()
                .filter(|o| {
                    o.annotations.as_ref().and_then(|a| a.get(name)).is_some_and(|v| !v.is_empty())
                })
                .count() as f64
                / self.dataset.len() as f64;
            let c = &result.eval.per_field[kind];
            table.row(&[
                name.to_string(),
                format!("{:.0}%", available * 100.0),
                fmt2(c.precision()),
                fmt2(c.recall()),
                fmt2(c.f1()),
            ]);
            json_rows.push(Json::obj(vec![
                ("label", name.into()),
                ("available", available.into()),
                ("f1", c.f1().into()),
                ("precision", c.precision().into()),
                ("recall", c.recall().into()),
            ]));
        }
        print!("{}", table.render());
        self.json.insert("per_label".into(), json_rows.into());
    }

    /// Part 2: transformer model selection.
    fn model_selection(&mut self) {
        println!("\n## Figure 4b — effect of the transformer model\n");
        let (train, test) = self.split();
        let mut table = TextTable::new(&["Model", "P", "R", "F1", "Pretrain", "Fine-tune"]);
        let mut json_rows = Vec::new();
        for model in TransformerConfig::figure4_variants() {
            let (base, pre_secs) = gs_obs::time_it(|| self.pretrain_base(&model));
            let (ex, ft_secs) = gs_obs::time_it(|| {
                TransformerExtractor::train(
                    &train,
                    &self.dataset.labels,
                    ExtractorOptions {
                        model: model.clone(),
                        train: self.train.clone(),
                        base: Some(base),
                        ..Default::default()
                    },
                )
            });
            let result = evaluate_extractor(&ex, &test, &self.dataset.labels);
            table.row(&[
                model.name.clone(),
                fmt2(result.precision()),
                fmt2(result.recall()),
                fmt2(result.f1()),
                fmt_duration(pre_secs),
                fmt_duration(ft_secs),
            ]);
            json_rows.push(Json::obj(vec![
                ("model", model.name.into()),
                ("f1", result.f1().into()),
                ("pretrain_seconds", pre_secs.into()),
                ("finetune_seconds", ft_secs.into()),
            ]));
        }
        print!("{}", table.render());
        self.json.insert("model_selection".into(), json_rows.into());
    }

    /// Part 3: epochs x learning-rate convergence at the (ascending)
    /// `checkpoints`; a repeated checkpoint is reported once.
    fn convergence(&mut self, lrs: &[f32], checkpoints: &[usize]) {
        println!("\n## Figure 4c — epochs and learning rate (F1 at epoch checkpoints)\n");
        let mut checkpoints = checkpoints.to_vec();
        checkpoints.dedup();
        let (train, test) = self.split();
        let base = self.pretrain_base(&TransformerConfig::roberta_sim());
        let header: Vec<String> = std::iter::once("lr \\ epochs".to_string())
            .chain(checkpoints.iter().map(|c| c.to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&header_refs);
        let mut json_rows = Vec::new();
        let max_epochs = *checkpoints.iter().max().expect("checkpoints");
        for &lr in lrs {
            let mut f1_at: Vec<(usize, f64)> = Vec::new();
            let labels = self.dataset.labels.clone();
            let test_ref = &test;
            let _ = TransformerExtractor::train_with_checkpoints(
                &train,
                &self.dataset.labels,
                ExtractorOptions {
                    train: TrainConfig { epochs: max_epochs, lr, ..self.train.clone() },
                    base: Some(Arc::clone(&base)),
                    ..Default::default()
                },
                &mut |epoch, view| {
                    if checkpoints.contains(&epoch) {
                        let result = evaluate_extractor(view, test_ref, &labels);
                        f1_at.push((epoch, result.f1()));
                    }
                },
            );
            let mut row = vec![format!("{lr:.0e}")];
            row.extend(f1_at.iter().map(|(_, f)| fmt2(*f)));
            table.row(&row);
            json_rows.push(Json::obj(vec![
                ("lr", lr.into()),
                (
                    "checkpoints",
                    Json::from(
                        f1_at
                            .iter()
                            .map(|(e, f)| {
                                Json::obj(vec![("epoch", Json::from(*e)), ("f1", Json::from(*f))])
                            })
                            .collect::<Vec<_>>(),
                    ),
                ),
            ]));
        }
        print!("{}", table.render());
        self.json.insert("convergence".into(), json_rows.into());
    }

    /// Extra ablation: weak-label matching policy (the paper's §5.3
    /// limitation / §7 future work).
    fn matching_policy(&mut self) {
        use gs_core::{MatchPolicy, WeakLabelConfig};
        println!("\n## Ablation — weak-label matching policy (paper §5.3/§7)\n");
        let (train, test) = self.split();
        let base = self.pretrain_base(&TransformerConfig::roberta_sim());
        let mut table = TextTable::new(&["Matching", "Weak-label match rate", "P", "R", "F1"]);
        let mut json_rows = Vec::new();
        for (name, policy) in [
            ("Exact (paper default)", MatchPolicy::Exact),
            ("Normalized", MatchPolicy::Normalized),
            ("Fuzzy (<=2 edits)", MatchPolicy::Fuzzy { max_edits: 2 }),
        ] {
            let ex = TransformerExtractor::train(
                &train,
                &self.dataset.labels,
                ExtractorOptions {
                    train: self.train.clone(),
                    weak_label: WeakLabelConfig { match_policy: policy, ..Default::default() },
                    base: Some(Arc::clone(&base)),
                    ..Default::default()
                },
            );
            let match_rate = ex.weak_stats.overall_match_rate();
            let result = evaluate_extractor(&ex, &test, &self.dataset.labels);
            table.row(&[
                name.to_string(),
                format!("{:.1}%", match_rate * 100.0),
                fmt2(result.precision()),
                fmt2(result.recall()),
                fmt2(result.f1()),
            ]);
            json_rows.push(Json::obj(vec![
                ("policy", name.into()),
                ("match_rate", match_rate.into()),
                ("f1", result.f1().into()),
            ]));
        }
        print!("{}", table.render());
        self.json.insert("matching_policy".into(), json_rows.into());
    }

    /// Extra ablation: effect of MLM pretraining (our substitution's analog
    /// of "pretrained vs from-scratch").
    fn pretraining_effect(&mut self) {
        println!("\n## Ablation — effect of MLM pretraining\n");
        let (train, test) = self.split();
        let mut table = TextTable::new(&["Initialization", "P", "R", "F1"]);
        let mut json_rows = Vec::new();
        for (name, base) in [
            ("Random init", None),
            ("MLM-pretrained", Some(self.pretrain_base(&TransformerConfig::roberta_sim()))),
        ] {
            let ex = TransformerExtractor::train(
                &train,
                &self.dataset.labels,
                ExtractorOptions { train: self.train.clone(), base, ..Default::default() },
            );
            let result = evaluate_extractor(&ex, &test, &self.dataset.labels);
            table.row(&[
                name.to_string(),
                fmt2(result.precision()),
                fmt2(result.recall()),
                fmt2(result.f1()),
            ]);
            json_rows.push(Json::obj(vec![("init", name.into()), ("f1", result.f1().into())]));
        }
        print!("{}", table.render());
        self.json.insert("pretraining".into(), json_rows.into());
    }
}

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let quick = args.has("quick");
    let sg_size: usize =
        args.get_or("sg-size", if quick { 400 } else { gs_data::sustaingoals::PAPER_SIZE });
    let pretrain_n: usize = args.get_or("pretrain-size", if quick { 1200 } else { 4000 });
    let pretrain_epochs: usize = args.get_or("pretrain-epochs", if quick { 4 } else { 12 });
    let epochs: usize = args.get_or("epochs", if quick { 10 } else { 40 });

    let mut harness = Harness {
        dataset: gs_data::sustaingoals::generate(sg_size, 42),
        pretrain_corpus: gs_data::unlabeled::sustaingoals_corpus(pretrain_n, 777),
        pretrain: PretrainConfig { epochs: pretrain_epochs, ..Default::default() },
        train: TrainConfig { epochs, lr: 1e-3, ..Default::default() },
        json: std::collections::BTreeMap::new(),
    };

    println!(
        "Figure 4 reproduction on {} ({} objectives, single split seed 1)",
        harness.dataset.name,
        harness.dataset.len()
    );

    harness.per_label();
    harness.model_selection();
    if quick {
        harness.convergence(&[5e-4, 1e-3, 2e-3], &[2, 5, 10]);
    } else {
        let max = epochs.max(20);
        harness.convergence(&[5e-4, 1e-3, 2e-3], &[5, 10, max / 2, max]);
    }
    harness.matching_policy();
    harness.pretraining_effect();

    if let Some(path) = args.get("json") {
        std::fs::write(path, Json::Obj(harness.json).to_pretty_string()).expect("write json");
        println!("\nwrote {path}");
    }

    gs_bench::obs::finish(&args);
}
