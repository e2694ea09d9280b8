//! End-to-end integration: develop GoalSpotter on synthetic data, run the
//! production phase over generated reports, and verify the structured store
//! plus the extractor's text checkpoint.

use goalspotter::core::Objective;
use goalspotter::data::documents::{generate_report, ReportConfig};
use goalspotter::models::transformer::{
    ExtractorOptions, ModelFamily, TrainConfig, TransformerConfig, TransformerExtractor,
};
use goalspotter::models::DetailExtractor;
use goalspotter::pipeline::{evaluate_extractor, process_report, GoalSpotter, GoalSpotterConfig};
use goalspotter::store::ObjectiveDb;
use goalspotter::text::labels::LabelSet;

fn tiny_extractor_options() -> ExtractorOptions {
    ExtractorOptions {
        model: TransformerConfig {
            d_model: 32,
            n_heads: 2,
            n_layers: 1,
            d_ff: 64,
            subword_budget: 300,
            ..TransformerConfig::roberta_sim()
        },
        train: TrainConfig { epochs: 8, lr: 2e-3, batch_size: 8, ..Default::default() },
        ..Default::default()
    }
}

fn tiny_system() -> GoalSpotter {
    let dataset = goalspotter::data::sustaingoals::generate(120, 21);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let noise: Vec<&str> = goalspotter::data::banks::NOISE_BLOCKS.to_vec();
    GoalSpotter::develop(
        &refs,
        &noise,
        &LabelSet::sustainability_goals(),
        GoalSpotterConfig { extractor: tiny_extractor_options(), ..Default::default() },
    )
}

#[test]
fn full_pipeline_fills_the_store_with_consistent_records() {
    let gs = tiny_system();
    let mut rng = gs_obs::Rng::seed_from_u64(5);
    let report =
        generate_report("AcmeCorp", "Acme ESG 2025", 10, 9, &ReportConfig::default(), &mut rng);
    let store = ObjectiveDb::new();
    let mut reader = store.reader();
    let stats = process_report(&gs, &report, &store);

    assert_eq!(stats.pages, 10);
    assert_eq!(store.len(), stats.inserted);
    assert_eq!(
        stats.inserted + stats.updated + stats.unchanged + stats.store_errors,
        stats.detected
    );
    // Detection on clean synthetic data is near-perfect.
    assert!(stats.false_positives + stats.false_negatives <= 2, "{stats:?}");

    // Every stored record belongs to this report's company and keeps the
    // full objective text.
    for record in reader.by_company("AcmeCorp") {
        assert_eq!(record.company, "AcmeCorp");
        assert!(!record.objective.is_empty());
        assert!(record.score >= 0.5, "only detected blocks are stored");
    }

    // Monitoring query never returns records without a parsed deadline.
    for record in reader.deadlines_between(2000, 2100) {
        assert!(record.deadline.is_some());
    }
}

#[test]
fn extractor_text_checkpoint_roundtrip_is_bit_identical() {
    let dataset = goalspotter::data::sustaingoals::generate(100, 31);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let labels = LabelSet::sustainability_goals();
    let corpus_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corpus.txt");
    let corpus = std::fs::read_to_string(corpus_path).expect("read golden corpus");
    let bits = |store: &goalspotter::tensor::ParamStore| {
        store
            .ids()
            .map(|id| {
                let v = store.value(id);
                let data: Vec<u32> = v.data().iter().map(|x| x.to_bits()).collect();
                (store.name(id).to_string(), v.shape().to_vec(), data)
            })
            .collect::<Vec<_>>()
    };

    for family in [ModelFamily::Roberta, ModelFamily::Bert] {
        let mut options = tiny_extractor_options();
        options.model.family = family;
        let extractor = TransformerExtractor::train(&refs, &labels, options);

        let saved = extractor.save_text();
        let loaded = TransformerExtractor::load_text(&saved).expect("load");
        assert_eq!(loaded.save_text(), saved, "{family:?}: checkpoint text is not stable");
        assert_eq!(bits(loaded.model().store()), bits(extractor.model().store()), "{family:?}");
        assert_eq!(loaded.model().config(), extractor.model().config(), "{family:?}");
        for line in corpus.lines().chain([""]) {
            assert_eq!(
                extractor.extract(line),
                loaded.extract(line),
                "{family:?}: prediction mismatch after reload on {line:?}"
            );
        }
    }
}

#[test]
fn load_rejects_corrupt_checkpoints() {
    for bad in [
        "",
        "{",
        "gs-extractor v1",
        "gs-extractor v1\n{}\n",
        "gs-extractor v1\n{\"labels\":[\"A\",\"A\"]}\ngs-params v1\n0\n",
        "gs-params v1\n0\n",
    ] {
        assert!(TransformerExtractor::load_text(bad).is_err(), "accepted {bad:?}");
    }

    // A well-formed checkpoint whose header or weights were edited out of
    // step with each other is rejected, not loaded into a panic.
    let dataset = goalspotter::data::sustaingoals::generate(40, 3);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let mut options = tiny_extractor_options();
    options.train.epochs = 1;
    let saved = TransformerExtractor::train(&refs, &dataset.labels, options).save_text();
    assert!(TransformerExtractor::load_text(&saved).is_ok());
    for (from, to) in [
        ("\"d_model\":32", "\"d_model\":48"),
        ("\"n_heads\":2", "\"n_heads\":3"),
        ("head.b 1 11", "head.b 1 10"),
        ("\"Deadline\"]", "\"Deadline\",\"Extra\"]"),
    ] {
        assert!(saved.contains(from), "fixture lacks {from:?}");
        let edited = saved.replacen(from, to, 1);
        assert!(TransformerExtractor::load_text(&edited).is_err(), "accepted {from:?} -> {to:?}");
    }
}

#[test]
fn evaluation_driver_scores_the_trained_extractor_sanely() {
    let dataset = goalspotter::data::sustaingoals::generate(150, 41);
    let (train, test) = dataset.split(0.2, 1);
    let extractor = TransformerExtractor::train(&train, &dataset.labels, tiny_extractor_options());
    let result = evaluate_extractor(&extractor, &test, &dataset.labels);
    // A tiny 1-layer model without pretraining still beats trivial levels
    // (predicting nothing scores 0). Over training seeds 0-7 on this split
    // F1 ranged 0.254-0.365 (seed 0, used here: 0.286), and over dataset
    // seeds {1..5, 41} x split seeds {1, 2} at training seed 0 it ranged
    // 0.279-0.394; 0.2 sits below every observed run.
    assert!(result.f1() > 0.2, "f1 {}", result.f1());
    assert!(result.precision() <= 1.0 && result.recall() <= 1.0);
    assert!(result.inference_total >= result.inference_real);
}

#[test]
fn checkpoint_callback_sees_improving_model() {
    let dataset = goalspotter::data::sustaingoals::generate(100, 51);
    let (train, test) = dataset.split(0.2, 1);
    let labels = dataset.labels.clone();
    let mut checkpoint_f1 = Vec::new();
    let _ = TransformerExtractor::train_with_checkpoints(
        &train,
        &labels,
        tiny_extractor_options(),
        &mut |epoch, view| {
            if epoch == 1 || epoch == 8 {
                let r = evaluate_extractor(view, &test, &labels);
                checkpoint_f1.push((epoch, r.f1()));
            }
        },
    );
    assert_eq!(checkpoint_f1.len(), 2);
    let (first, last) = (checkpoint_f1[0].1, checkpoint_f1[1].1);
    assert!(last >= first, "F1 regressed across epochs: {first} -> {last}");
}

#[test]
fn detection_scores_are_calibrated_probabilities() {
    let gs = tiny_system();
    for text in
        ["Reduce water use by 30% by 2030.", "The glossary defines key terms used in this report."]
    {
        let score = gs.detection_score(text);
        assert!((0.0..=1.0).contains(&score), "score {score} for {text:?}");
    }
    assert!(gs.detect("Cut scope 1 emissions by half by 2035."));
    assert!(!gs.detect("Forward-looking statements involve risks and uncertainties."));
}
