//! Thread-pool scaling benchmark: measures the paper-config encoder
//! forward, a fine-tuning step, and batched serving extraction under
//! gs-par pools of 1, 2, 4, and 8 threads.
//!
//! Every cell runs the identical workload (gs-par guarantees bit-identical
//! results at every pool size), so the only variable is wall-clock. Each
//! cell reports the median of `--trials` runs with their min and max; the
//! report envelope's `host_cores` records
//! `std::thread::available_parallelism()` because speedups are physically
//! bounded by it — on a single-core host every multi-thread cell measures
//! pure pool overhead, not scaling.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin parbench --
//!       [--trials N] [--out PATH]
//!
//! Writes `results/BENCH_par.json` through `gs_bench::report`.

use gs_bench::report::{self, Samples};
use gs_bench::Args;
use gs_core::Objective;
use gs_models::transformer::{
    train_token_classifier, ExtractorOptions, TokenClassifier, TrainConfig, TrainExample,
    TransformerConfig, TransformerExtractor,
};
use gs_serve::Json;
use std::time::Instant;

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Runs `work` once per trial under an N-thread pool; returns each trial's
/// wall-clock in milliseconds.
fn time_cell(threads: usize, trials: usize, mut work: impl FnMut()) -> Samples {
    Samples::new(
        (0..trials)
            .map(|_| {
                gs_par::with_threads(threads, || {
                    let start = Instant::now();
                    work();
                    start.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect(),
    )
}

/// One benchmark dimension: a name plus a closure running the workload.
fn run_dimension(name: &str, trials: usize, mut work: impl FnMut()) -> Json {
    // Warm the pool and every lazy allocation before measuring.
    gs_par::with_threads(THREADS[THREADS.len() - 1], &mut work);
    let mut cells = Vec::new();
    let mut baseline = None;
    for &threads in THREADS {
        let ms = time_cell(threads, trials, &mut work);
        let base = *baseline.get_or_insert(ms.median());
        let speedup = base / ms.median().max(1e-9);
        println!("{name:12} threads={threads}: {:8.1} ms  speedup {speedup:4.2}x", ms.median());
        gs_obs::gauge(&format!("par.{name}.speedup.{threads}"), speedup);
        cells.push(Json::obj(vec![
            ("threads", Json::from(threads as u64)),
            ("ms", ms.to_json()),
            ("speedup_vs_1", Json::from(speedup)),
        ]));
    }
    Json::obj(vec![("dimension", Json::from(name)), ("cells", Json::Arr(cells))])
}

/// Fixed-length training examples exercising the full paper sequence
/// length (96 tokens after specials).
fn paper_examples(n: usize, config: &TransformerConfig, num_classes: usize) -> Vec<TrainExample> {
    (0..n)
        .map(|s| {
            let len = config.max_len;
            let ids: Vec<usize> = (0..len).map(|i| (s * 31 + i * 7) % 1200).collect();
            let targets: Vec<i64> =
                (0..len).map(|i| if i % 9 == 0 { -1 } else { (i % num_classes) as i64 }).collect();
            TrainExample { ids, targets }
        })
        .collect()
}

fn main() {
    let args = Args::from_env_checked("parbench", &["trials", "out"]);
    gs_bench::obs::init(&args);
    let trials: usize = args.get_or("trials", 3);
    let out = args.get("out").unwrap_or("results/BENCH_par.json").to_string();

    let config = TransformerConfig::roberta_sim();
    let num_classes = 9;
    let model = TokenClassifier::new(config.clone(), 1200, num_classes, 17);

    // Dimension 1: the packed tape-free encoder forward (the serving
    // kernel) over a full batch of paper-length sequences.
    let seqs: Vec<Vec<usize>> =
        (0..8).map(|s| (0..config.max_len).map(|i| (s * 13 + i * 3) % 1200).collect()).collect();
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let forward = run_dimension("forward", trials, || {
        let _ = model.predict_classes_batch(&refs);
    });

    // Dimension 2: a full fine-tuning epoch (taped forward + backward +
    // optimizer) with the paper architecture; the model is rebuilt inside
    // the timed region's setup so every trial trains from the same init.
    let examples = paper_examples(16, &config, num_classes);
    let train_config = TrainConfig { epochs: 1, batch_size: 8, seed: 17, ..Default::default() };
    let (cfg2, ex2, tc2) = (config.clone(), examples, train_config);
    let train_step = run_dimension("train_step", trials, move || {
        let mut m = TokenClassifier::new(cfg2.clone(), 1200, num_classes, 17);
        let _ = train_token_classifier(&mut m, &ex2, &tc2);
    });

    // Dimension 3: batched serving extraction (tokenize + packed forward +
    // decode), the exact path gs-serve's micro-batch worker runs.
    println!("training serving extractor...");
    let dataset = goalspotter_dataset();
    let refs_obj: Vec<&Objective> = dataset.objectives.iter().collect();
    let options = ExtractorOptions {
        model: TransformerConfig {
            d_model: 32,
            n_heads: 2,
            n_layers: 1,
            d_ff: 64,
            max_len: 48,
            subword_budget: 250,
            ..TransformerConfig::roberta_sim()
        },
        train: TrainConfig { epochs: 6, lr: 3e-3, batch_size: 8, ..Default::default() },
        ..Default::default()
    };
    let extractor = TransformerExtractor::train(&refs_obj, &dataset.labels, options);
    let texts: Vec<&str> = dataset.texts().into_iter().take(16).collect();
    let serve = run_dimension("serve_batch", trials, || {
        let _ = extractor.extract_batch(&texts);
    });

    let sections = vec![
        ("trials", Json::from(trials as u64)),
        (
            "note",
            Json::from(
                "speedups are bounded by host_cores; on a 1-core host multi-thread \
                 cells measure pool overhead, not scaling",
            ),
        ),
        ("dimensions", Json::Arr(vec![forward, train_step, serve])),
    ];
    report::write(&out, "parbench", false, sections).expect("write report");
    println!("wrote {out}");
}

fn goalspotter_dataset() -> gs_data::Dataset {
    gs_data::sustaingoals::generate(48, 7)
}
