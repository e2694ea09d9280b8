//! Golden regression test: a frozen fixed-seed checkpoint plus its
//! training corpus pin the exact spans the extractor produces, so any
//! unintended change to the tokenizer, encoder forward, decoding, or the
//! parallel kernels shows up as a span-level diff.
//!
//! The fixture is entirely plain text (see `crates/bench/src/bin/goldengen.rs`
//! for regeneration): the tokenizer is rebuilt deterministically from
//! `corpus.txt` and the weights load from hex `f32` bits in `params.txt`,
//! so this test touches no RNG — its behavior is fully
//! determined by the committed files. Every assertion runs under a
//! 1-thread and a 4-thread gs-par pool: the golden spans must be
//! identical at every pool size.

use goalspotter::core::MultiSpanPolicy;
use goalspotter::models::transformer::{ModelFamily, TransformerConfig, TransformerExtractor};
use goalspotter::models::{DetailExtractor, LinearDetector};
use goalspotter::pipeline::{ingest_report_text, ingest_snapshot, GoalSpotter};
use goalspotter::store::ObjectiveDb;
use goalspotter::text::labels::LabelSet;
use goalspotter::text::{Normalizer, Tokenizer};
use std::path::{Path, PathBuf};

/// Mirrors `golden_config()` in goldengen — the architecture the frozen
/// weights in `params.txt` were trained with.
fn golden_config() -> TransformerConfig {
    TransformerConfig {
        name: "golden-roberta".into(),
        family: ModelFamily::Roberta,
        d_model: 32,
        n_heads: 2,
        n_layers: 1,
        d_ff: 64,
        max_len: 48,
        dropout: 0.05,
        subword_budget: 300,
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Parses `expected.txt`: `>>> text` lines introduce a case, each followed
/// by its `field<TAB>value` lines.
fn parse_expected(raw: &str) -> Vec<(String, Vec<(String, String)>)> {
    let mut cases: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for line in raw.lines() {
        if let Some(text) = line.strip_prefix(">>> ") {
            cases.push((text.to_string(), Vec::new()));
        } else if !line.trim().is_empty() {
            let (kind, value) = line.split_once('\t').expect("field lines are kind<TAB>value");
            let case = cases.last_mut().expect("field line before any >>> line");
            case.1.push((kind.to_string(), value.to_string()));
        }
    }
    cases
}

fn load_golden_extractor() -> TransformerExtractor {
    let dir = fixture_dir();
    let corpus = std::fs::read_to_string(dir.join("corpus.txt")).expect("read corpus.txt");
    let texts: Vec<&str> = corpus.lines().collect();
    assert!(!texts.is_empty(), "empty golden corpus");
    let config = golden_config();
    // Must match `build_tokenizer` for the Roberta family exactly.
    let tokenizer = Tokenizer::train_bpe(&texts, Normalizer::default(), config.subword_budget);
    let params = goalspotter::tensor::serialize::load_params_text_file(&dir.join("params.txt"))
        .expect("read params.txt");
    let labels = LabelSet::sustainability_goals();
    let num_classes = labels.num_classes();
    TransformerExtractor::from_parts(
        labels,
        tokenizer,
        config,
        num_classes,
        params,
        MultiSpanPolicy::First,
    )
}

fn extracted_fields(ex: &TransformerExtractor, text: &str) -> Vec<(String, String)> {
    ex.extract(text).fields.into_iter().filter(|(_, v)| !v.is_empty()).collect()
}

#[test]
fn frozen_checkpoint_extracts_the_golden_spans() {
    let ex = load_golden_extractor();
    let raw = std::fs::read_to_string(fixture_dir().join("expected.txt")).expect("read expected");
    let cases = parse_expected(&raw);
    assert!(!cases.is_empty(), "empty expected.txt");

    for threads in [1usize, 4] {
        gs_par::with_threads(threads, || {
            for (text, want) in &cases {
                let got = extracted_fields(&ex, text);
                assert_eq!(&got, want, "spans drifted for {text:?} at {threads} threads");
            }
        });
    }
}

/// The frozen full system: detector from `detector.txt` (never retrained
/// — training shuffles with an RNG; loading is RNG-free), extractor from
/// the shared extraction fixture.
fn load_golden_spotter() -> GoalSpotter {
    let text = std::fs::read_to_string(fixture_dir().join("detector.txt")).expect("detector.txt");
    let detector = LinearDetector::load_text(&text).expect("parse frozen detector");
    GoalSpotter::from_parts(detector, load_golden_extractor(), 0.5)
}

/// Full-report golden ingest: `report.txt` flows through
/// parse → detect → extract → store, and the run's snapshot (section
/// tree, stats, every objective with score bits and provenance) must be
/// byte-identical to `ingest_expected.txt` — at 1 and at 4 pool threads,
/// and the store contents must also be bit-identical across pool sizes
/// and idempotent under re-ingestion.
#[test]
fn frozen_ingest_pipeline_reproduces_the_golden_snapshot() {
    let gs = load_golden_spotter();
    let report = std::fs::read_to_string(fixture_dir().join("report.txt")).expect("report.txt");
    let want =
        std::fs::read_to_string(fixture_dir().join("ingest_expected.txt")).expect("expected");

    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        gs_par::with_threads(threads, || {
            let store = ObjectiveDb::new();
            let (stats, objectives) =
                ingest_report_text(&gs, "Golden Corp", "golden-report", &report, &store);
            let doc = goalspotter::ingest::parse(&report);
            let got = ingest_snapshot(&doc, &stats, &objectives);
            assert_eq!(got, want, "golden ingest snapshot drifted at {threads} threads");
            assert!(stats.detected > 0, "frozen system must detect something");

            let before = store.reader().export_json();
            let (again, _) =
                ingest_report_text(&gs, "Golden Corp", "golden-report", &report, &store);
            assert_eq!(again.inserted, 0, "re-ingest must not insert");
            assert_eq!(again.unchanged, again.detected);
            assert_eq!(
                store.reader().export_json(),
                before,
                "re-ingest must leave the store untouched"
            );
            exports.push(before);
        });
    }
    assert_eq!(exports[0], exports[1], "store contents must not depend on pool size");
    assert!(exports[0].contains("section_path"), "stored records carry provenance");
}

#[test]
fn golden_batch_path_matches_the_per_text_path() {
    let ex = load_golden_extractor();
    let raw = std::fs::read_to_string(fixture_dir().join("expected.txt")).expect("read expected");
    let cases = parse_expected(&raw);
    let texts: Vec<&str> = cases.iter().map(|(t, _)| t.as_str()).collect();

    let batched = gs_par::with_threads(4, || ex.extract_batch(&texts));
    assert_eq!(batched.len(), cases.len());
    for (details, (text, want)) in batched.into_iter().zip(&cases) {
        let got: Vec<(String, String)> =
            details.fields.into_iter().filter(|(_, v)| !v.is_empty()).collect();
        assert_eq!(&got, want, "batched spans drifted for {text:?}");
    }
}
