//! The GoalSpotter extraction server: loads (or trains) a transformer
//! extractor and serves it over HTTP with dynamic micro-batching (see
//! `gs-serve`): an idle worker runs a lone request at once, and requests
//! that arrive while a forward runs share the next one, up to
//! `--max-batch`.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin gs-served --
//!       [--model PATH | --train-tiny] [--save-model PATH]
//!       [--addr HOST:PORT] [--max-batch N] [--queue-cap N]
//!       [--workers N] [--deadline-ms N]
//!       [--size N] [--epochs N] [--store-dir PATH]
//!
//! Any other flag, apart from the shared telemetry ones (`--no-obs`,
//! `--obs-jsonl PATH`, `--no-obs-report`, `--sanitize`), is refused with a
//! non-zero exit that names it.
//!
//! With `--model PATH` the extractor is restored from a
//! `TransformerExtractor::save_text` checkpoint (`--save-model` writes one); with `--train-tiny` (the
//! default when no model is given) a small extractor is trained on the
//! synthetic Sustainability Goals corpus first — handy for smoke tests.
//!
//! With `--store-dir PATH` the server opens (or creates) a persistent
//! `ObjectiveDb` there: extractions whose request body carries a `company`
//! are upserted, and `GET /v1/objectives?company=NAME` serves the stored
//! records. Re-starting against the same directory replays the logs.
//! The store also enables `POST /v1/ingest` — a quickly-trained linear
//! detector (synthetic objectives vs boilerplate + indicator-name noise)
//! pairs with the extractor so whole reports flow through
//! parse → detect → extract → store with section provenance.
//!
//! The server prints `listening on http://ADDR` once ready and serves until
//! the process is killed. Try:
//!   curl -s localhost:8462/healthz
//!   curl -s localhost:8462/v1/extract -d '{"text": "Reduce emissions by 20% by 2030."}'
//!   curl -s localhost:8462/v1/extract -d '{"text": "Cut waste 10% by 2030.", "company": "Acme"}'
//!   curl -s 'localhost:8462/v1/objectives?company=Acme'

use gs_bench::Args;
use gs_core::Objective;
use gs_models::transformer::{
    ExtractorOptions, TrainConfig, TransformerConfig, TransformerExtractor,
};
use gs_models::{LinearDetector, LinearDetectorConfig};
use gs_pipeline::{DbStoreHook, ExtractorEngine, GoalSpotter};
use gs_serve::{BatchConfig, ExtractEngine, IngestHook, ObjectiveStoreHook, Server, ServerConfig};
use gs_store::{ObjectiveDb, StoreConfig};
use std::sync::Arc;
use std::time::Duration;

fn tiny_extractor(size: usize, epochs: usize) -> TransformerExtractor {
    let dataset = gs_data::sustaingoals::generate(size, 42);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let options = ExtractorOptions {
        model: TransformerConfig {
            name: "served-tiny".into(),
            d_model: 32,
            n_heads: 2,
            n_layers: 1,
            d_ff: 64,
            max_len: 48,
            subword_budget: 250,
            ..TransformerConfig::roberta_sim()
        },
        train: TrainConfig { epochs, lr: 3e-3, batch_size: 8, ..Default::default() },
        ..Default::default()
    };
    TransformerExtractor::train(&refs, &dataset.labels, options)
}

/// Every flag gs-served takes; `--train-tiny` names the default and needs
/// no reading.
const FLAGS: &[&str] = &[
    "model",
    "train-tiny",
    "save-model",
    "addr",
    "max-batch",
    "queue-cap",
    "workers",
    "deadline-ms",
    "size",
    "epochs",
    "store-dir",
];

fn main() {
    let args = Args::from_env_checked("gs-served", FLAGS);
    gs_bench::obs::init(&args);

    let extractor = match args.get("model") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read --model {path:?}: {e}"));
            TransformerExtractor::load_text(&text)
                .unwrap_or_else(|e| panic!("cannot load --model {path:?}: {e}"))
        }
        None => {
            let size: usize = args.get_or("size", 64);
            let epochs: usize = args.get_or("epochs", 10);
            eprintln!(
                "no --model given: training a tiny extractor ({size} objectives, {epochs} epochs)"
            );
            tiny_extractor(size, epochs)
        }
    };
    if let Some(path) = args.get("save-model") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, extractor.save_text()).expect("save model");
        eprintln!("saved model to {path}");
    }

    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8462").to_string(),
        batch: BatchConfig {
            max_batch: args.get_or("max-batch", 8),
            queue_capacity: args.get_or("queue-cap", 256),
            workers: args.get_or("workers", 1),
        },
        default_deadline: Duration::from_millis(args.get_or("deadline-ms", 5_000)),
        ..Default::default()
    };
    let hook: Option<Arc<DbStoreHook>> = args.get("store-dir").map(|dir| {
        let (db, recovery) = ObjectiveDb::open(std::path::Path::new(dir), StoreConfig::default())
            .unwrap_or_else(|e| panic!("cannot open --store-dir {dir:?}: {e}"));
        eprintln!(
            "store {dir}: {} records replayed from {} frames ({} torn tails)",
            db.len(),
            recovery.frames(),
            recovery.torn_tails()
        );
        // A linear detector trains in well under a second; pairing it with
        // the extractor gives /v1/ingest a full detect → extract path
        // and scores store-hook upserts comparably to the batch pipeline.
        let dataset = gs_data::sustaingoals::generate(64, 42);
        let mut detection: Vec<(&str, bool)> =
            dataset.objectives.iter().map(|o| (o.text.as_str(), true)).collect();
        detection.extend(gs_data::banks::NOISE_BLOCKS.iter().map(|n| (*n, false)));
        detection.extend(gs_data::banks::INDICATOR_NAMES.iter().map(|n| (*n, false)));
        let detector = LinearDetector::train(&detection, LinearDetectorConfig::default());
        let spotter = Arc::new(GoalSpotter::from_parts(detector, extractor.clone(), 0.5));
        Arc::new(DbStoreHook::with_spotter(Arc::new(db), spotter))
    });
    let store = hook.clone().map(|h| h as Arc<dyn ObjectiveStoreHook>);
    let ingest = hook.map(|h| h as Arc<dyn IngestHook>);
    let engine: Arc<dyn ExtractEngine> = Arc::new(ExtractorEngine(extractor));
    let server = Server::start_with_hooks(engine, config, store, ingest)
        .unwrap_or_else(|e| panic!("cannot start server: {e}"));
    println!("listening on http://{}", server.addr());

    // Serve until killed; shutdown-on-drop drains in-flight batches.
    loop {
        std::thread::park();
    }
}
