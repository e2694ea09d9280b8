//! Golden-fixture generator for `tests/golden_extraction.rs`.
//!
//! Trains the tiny fixed-seed extractor once and freezes everything the
//! regression test needs into three plain-text files:
//!
//! - `corpus.txt` — the training texts, one per line, in training order
//!   (the test rebuilds the BPE tokenizer from these deterministically);
//! - `params.txt` — every trained weight as hex `f32` bits
//!   (`gs_tensor::serialize::save_params_text`), bit-exact;
//! - `expected.txt` — each held-out evaluation text (`>>> text` lines)
//!   followed by the exact `field<TAB>value` pairs the frozen model
//!   extracts.
//!
//! Regenerate with `cargo run --release -p gs-bench --bin goldengen` from
//! the repo root whenever the model, tokenizer, or decoding intentionally
//! changes; the test failing without such a change means extraction
//! behavior drifted. Fixture constants (architecture, seed, label set)
//! live in this file and are mirrored in the test.
//!
//! With `--ingest`, regenerates the *ingest* fixture instead — the frozen
//! detection stage (`detector.txt`), a full synthetic report
//! (`report.txt`, fixed seed), and the bit-exact ingest snapshot
//! (`ingest_expected.txt`, see `gs_pipeline::ingest_snapshot`) the frozen
//! detector + extractor produce on it. The extractor itself is *loaded*
//! from the committed `corpus.txt`/`params.txt`, never retrained, so the
//! ingest fixture stays consistent with the extraction fixture.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin goldengen --
//!       [--ingest] [--out DIR] [--obs-jsonl PATH] [--no-obs] [--no-obs-report]

use gs_bench::Args;
use gs_core::{Annotations, MultiSpanPolicy, Objective};
use gs_models::transformer::{
    ExtractorOptions, ModelFamily, TrainConfig, TransformerConfig, TransformerExtractor,
};
use gs_models::{DetailExtractor, LinearDetector, LinearDetectorConfig};
use gs_obs::Rng;
use gs_pipeline::{ingest_report_text, ingest_snapshot, GoalSpotter};
use gs_store::ObjectiveDb;
use gs_text::labels::LabelSet;
use gs_text::{Normalizer, Tokenizer};
use std::fmt::Write as _;
use std::path::Path;

/// The frozen architecture — mirrored in `tests/golden_extraction.rs`.
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

/// A small clean corpus where the deadline always follows "by" and the
/// amount is always a percentage; annotations are derivable from the
/// template so the fixture stays self-describing.
fn corpus() -> Vec<Objective> {
    let verbs = ["Reduce", "Cut", "Lower", "Decrease", "Trim", "Shrink"];
    let things = ["emissions", "waste", "usage", "consumption", "footprint"];
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

/// Held-out (verb, thing, amount, year) combinations never seen in
/// training; the test asserts the exact spans extracted from these.
const EVAL_TEXTS: &[&str] = &[
    "Shrink footprint by 33% by 2031.",
    "Cut usage by 44% by 2033.",
    "Reduce waste by 9% by 2040.",
    "Lower emissions by 61% by 2027.",
    "Trim consumption by 18% by 2038.",
];

/// Rebuilds the frozen golden extractor from the committed fixture files,
/// exactly as `tests/golden_extraction.rs` does.
fn load_golden_extractor(out: &Path) -> TransformerExtractor {
    let corpus = std::fs::read_to_string(out.join("corpus.txt"))
        .expect("read corpus.txt (run goldengen without --ingest first)");
    let texts: Vec<&str> = corpus.lines().collect();
    let config = golden_config();
    let tokenizer = Tokenizer::train_bpe(&texts, Normalizer::default(), config.subword_budget);
    let params =
        gs_tensor::serialize::load_params_text_file(&out.join("params.txt")).expect("params.txt");
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

/// `--ingest` mode: freeze the detection stage and pin the full
/// report → parse → detect → extract → store path.
fn generate_ingest_fixture(out: &Path) {
    let extractor = load_golden_extractor(out);

    // The detector trains on the golden corpus vs boilerplate noise plus
    // indicator names — the hard negatives an ingested table serves up.
    let data = corpus();
    let mut detection_data: Vec<(&str, bool)> =
        data.iter().map(|o| (o.text.as_str(), true)).collect();
    detection_data.extend(gs_data::banks::NOISE_BLOCKS.iter().map(|n| (*n, false)));
    detection_data.extend(gs_data::banks::INDICATOR_NAMES.iter().map(|n| (*n, false)));
    println!("training golden detector on {} examples...", detection_data.len());
    let detector = LinearDetector::train(&detection_data, LinearDetectorConfig::default());
    std::fs::write(out.join("detector.txt"), detector.save_text()).expect("write detector.txt");

    let mut rng = Rng::seed_from_u64(5);
    let report = gs_data::fullreport::generate_full_report(
        "Golden Corp",
        "CSR Report 2026",
        &gs_data::fullreport::FullReportConfig::default(),
        &mut rng,
    );
    std::fs::write(out.join("report.txt"), &report.text).expect("write report.txt");

    let gs = GoalSpotter::from_parts(detector, extractor, 0.5);
    let store = ObjectiveDb::new();
    let (stats, objectives) =
        ingest_report_text(&gs, "Golden Corp", "golden-report", &report.text, &store);
    let doc = gs_ingest::parse(&report.text);
    let snapshot = ingest_snapshot(&doc, &stats, &objectives);
    std::fs::write(out.join("ingest_expected.txt"), &snapshot).expect("write ingest_expected");
    println!(
        "wrote detector.txt, report.txt ({} bytes), ingest_expected.txt ({} objectives; {}/{} truths detected)",
        report.text.len(),
        objectives.len(),
        report
            .truths
            .iter()
            .filter(|t| objectives
                .iter()
                .any(|o| o.byte_range.0 < t.span.1 && t.span.0 < o.byte_range.1))
            .count(),
        report.truths.len(),
    );
}

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let out_dir = args.get("out").unwrap_or("tests/golden").to_string();
    std::fs::create_dir_all(&out_dir).expect("create fixture directory");
    let out = Path::new(&out_dir);
    if args.has("ingest") {
        generate_ingest_fixture(out);
        gs_bench::obs::finish(&args);
        return;
    }

    let data = corpus();
    let refs: Vec<&Objective> = data.iter().collect();
    let labels = LabelSet::sustainability_goals();
    let options = ExtractorOptions {
        model: golden_config(),
        train: TrainConfig { epochs: 30, lr: 3e-3, batch_size: 8, seed: 1, ..Default::default() },
        multi_span: MultiSpanPolicy::First,
        ..Default::default()
    };
    println!("training golden extractor on {} objectives...", refs.len());
    let extractor = TransformerExtractor::train(&refs, &labels, options);

    let mut corpus_txt = String::new();
    for o in &data {
        writeln!(corpus_txt, "{}", o.text).unwrap();
    }
    std::fs::write(out.join("corpus.txt"), corpus_txt).expect("write corpus.txt");

    gs_tensor::serialize::save_params_text_file(extractor.model().store(), &out.join("params.txt"))
        .expect("write params.txt");

    let mut expected = String::new();
    for text in EVAL_TEXTS {
        let details = extractor.extract(text);
        writeln!(expected, ">>> {text}").unwrap();
        for (kind, value) in &details.fields {
            if !value.is_empty() {
                writeln!(expected, "{kind}\t{value}").unwrap();
            }
        }
        expected.push('\n');
        println!("{text} -> {:?}", details.fields);
    }
    std::fs::write(out.join("expected.txt"), expected).expect("write expected.txt");

    println!(
        "wrote {}/corpus.txt, params.txt ({} weights), expected.txt",
        out_dir,
        extractor.model().store().num_weights()
    );

    gs_bench::obs::finish(&args);
}
