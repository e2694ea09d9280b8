//! End-to-end observability check (the PR's acceptance test): install a
//! JSONL sink, run a small develop + extract + store-write pass, and verify
//! the emitted event stream covers every instrumented subsystem —
//! tokenization, weak labeling, a training step carrying loss/lr/grad-norm,
//! an extraction-latency span, and a store write.
//!
//! This lives in its own integration-test binary so the process-global
//! collector cannot race with other tests.

use goalspotter::core::Objective;
use goalspotter::models::transformer::{ExtractorOptions, TrainConfig, TransformerConfig};
use goalspotter::obs::{Collector, Json, JsonlSink};
use goalspotter::pipeline::{GoalSpotter, GoalSpotterConfig};
use goalspotter::store::{ObjectiveDb, ObjectiveRecord};
use goalspotter::text::labels::LabelSet;

fn tiny_config() -> GoalSpotterConfig {
    GoalSpotterConfig {
        extractor: ExtractorOptions {
            model: TransformerConfig {
                d_model: 32,
                n_heads: 2,
                n_layers: 1,
                d_ff: 64,
                subword_budget: 250,
                ..TransformerConfig::roberta_sim()
            },
            train: TrainConfig { epochs: 3, lr: 2e-3, batch_size: 8, ..Default::default() },
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn jsonl_sink_captures_every_instrumented_subsystem() {
    let path = std::env::temp_dir().join(format!("gs_obs_e2e_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create jsonl sink");
    let handle = goalspotter::obs::install(Collector::with_sink(Box::new(sink)));

    // Develop on a small corpus (tokenization, weak labeling, pretraining is
    // off by default here, fine-tuning), then run the production phase.
    let dataset = goalspotter::data::sustaingoals::generate(60, 7);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let noise: Vec<&str> = goalspotter::data::banks::NOISE_BLOCKS.to_vec();
    let gs = GoalSpotter::develop(&refs, &noise, &LabelSet::sustainability_goals(), tiny_config());

    let text = "Reduce water use by 30% by 2030.";
    assert!(gs.detection_score(text).is_finite());
    let details = gs.extract(text);

    let store = ObjectiveDb::new();
    store
        .upsert(&ObjectiveRecord::from_details("AcmeCorp", "ESG 2026", text, &details, 0.9))
        .expect("upsert");

    // Metrics side: the registry saw the same traffic the sink did.
    let snapshot = goalspotter::obs::snapshot().expect("collector installed");
    assert!(snapshot.counter("text.tokenize.calls") > 0);
    assert!(snapshot.counter("core.weak_label.objectives") >= 1);
    assert!(snapshot.counter("train.steps") > 0);
    assert_eq!(snapshot.counter("store.upserts.inserted"), 1);
    let extract_latency = snapshot.histogram("span.pipeline.extract").expect("extract histogram");
    assert!(extract_latency.total >= 1);

    // Uninstall flushes the sink; from here on telemetry is disabled.
    let _ = goalspotter::obs::uninstall();
    drop(handle);

    let raw = std::fs::read_to_string(&path).expect("read jsonl");
    let _ = std::fs::remove_file(&path);
    assert!(!raw.is_empty(), "sink wrote no events");

    let mut kinds = std::collections::HashSet::new();
    let mut train_step_ok = false;
    let mut extract_span_ok = false;
    for line in raw.lines() {
        let event = goalspotter::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(matches!(event, Json::Obj(_)), "event is not an object: {line:?}");
        assert!(event.get("at_us").is_some(), "missing timestamp in {line:?}");
        let kind = event.get("kind").and_then(Json::as_str).expect("kind is a string").to_string();
        let name = event.get("name").and_then(Json::as_str).expect("name is a string");
        if kind == "train_step" {
            for field in ["loss", "lr", "grad_norm"] {
                assert!(
                    event.get(field).and_then(Json::as_f64).is_some(),
                    "train_step missing numeric {field}: {line:?}"
                );
            }
            train_step_ok = true;
        }
        if kind == "span" && name.contains("pipeline.extract") {
            extract_span_ok = true;
        }
        kinds.insert(kind);
    }

    for kind in ["tokenize", "weak_label", "train_step", "train_epoch", "span", "store_write"] {
        assert!(kinds.contains(kind), "no {kind:?} events; saw kinds {kinds:?}");
    }
    assert!(train_step_ok, "no train_step event carried loss/lr/grad_norm");
    assert!(extract_span_ok, "no span event for pipeline.extract");
}

#[test]
fn telemetry_is_inert_without_a_collector() {
    // This test runs in the same binary as the one above; Rust runs tests
    // in parallel threads, so rather than assert global disabled state we
    // check the cheap contract directly: the free functions are safe no-ops
    // when no collector is installed (see gs-obs's own overhead test for
    // the timing bound).
    goalspotter::obs::counter("nobody.listening", 1);
    goalspotter::obs::observe("nobody.listening.hist", 1.0);
    let span = goalspotter::obs::span("nobody.listening.span");
    drop(span);
}
