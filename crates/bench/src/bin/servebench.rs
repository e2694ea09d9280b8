//! Serving benchmark: drives the `gs-serve` extraction service with
//! closed-loop client fleets and compares micro-batched serving against a
//! `batch_size = 1` baseline on the same trained extractor, plus an
//! overload run demonstrating load shedding (503s, not unbounded latency).
//!
//! The two arms share the whole HTTP/admission/queue stack and the same
//! weights; they differ only in what the micro-batching subsystem adds:
//!
//! - `unbatched`: `max_batch = 1` and every request runs the standard
//!   single-text inference path (the taped forward every other part of
//!   the codebase uses) — serving as it would exist without this crate.
//! - `microbatch`: requests coalesce in the bounded queue and run through
//!   the packed, tape-free batched kernel (`predict_tags_batch`).
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin servebench --
//!       [--size N] [--epochs N] [--requests N] [--trials N] [--out PATH]
//!       [--quantized]
//!
//! With `--quantized` a third arm serves the same weights through the int8
//! quantized packed forward (`QuantizedEngine`), so the summary compares
//! f32 and int8 serving under identical batching.
//!
//! Writes `results/BENCH_serve.json` with throughput and client-side
//! latency percentiles per (scheduling, client-count) cell; each cell is
//! the median-throughput trial of `--trials` runs (single-box scheduling
//! noise is several percent, so one trial is not trustworthy). The gate,
//! `microbatch_beats_unbatched`, holds only if micro-batching is faster
//! at every client count (1, 4 and 16), the lone-client case included.

use gs_bench::Args;
use gs_core::Objective;
use gs_models::transformer::{
    ExtractorOptions, TrainConfig, TransformerConfig, TransformerExtractor,
};
use gs_models::DetailExtractor;
use gs_serve::{BatchConfig, Client, ExtractEngine, Extraction, Json, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn to_extraction(details: gs_core::ExtractedDetails) -> Extraction {
    Extraction { fields: details.fields.into_iter().filter(|(_, v)| !v.is_empty()).collect() }
}

/// The `batch_size = 1` serving baseline: each request runs the standard
/// single-text inference path, exactly as a service built on the public
/// per-text API (before micro-batching existed) would.
struct PerRequestEngine(Arc<TransformerExtractor>);

impl ExtractEngine for PerRequestEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        texts.iter().map(|t| to_extraction(self.0.extract(t))).collect()
    }
}

/// The micro-batched serving engine: one packed, tape-free encoder
/// forward per coalesced batch.
struct PackedEngine(Arc<TransformerExtractor>);

impl ExtractEngine for PackedEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        self.0.extract_batch(&refs).into_iter().map(to_extraction).collect()
    }
}

/// One client fleet's aggregated view of a run.
struct FleetResult {
    elapsed: Duration,
    /// Per-request client-side latencies for 200 responses.
    latencies: Vec<Duration>,
    ok: usize,
    shed: usize,
    other: usize,
}

impl FleetResult {
    fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `clients` closed-loop clients, each sending `requests` extract
/// calls over one keep-alive connection.
fn run_fleet(
    addr: std::net::SocketAddr,
    texts: &[&str],
    clients: usize,
    requests: usize,
) -> FleetResult {
    let start = Instant::now();
    let mut per_client: Vec<(Vec<Duration>, usize, usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(30)).expect("connect");
                    let mut latencies = Vec::with_capacity(requests);
                    let (mut ok, mut shed, mut other) = (0usize, 0usize, 0usize);
                    for i in 0..requests {
                        let text = texts[(c * requests + i) % texts.len()];
                        let body = format!("{{\"text\": {}}}", gs_serve::Json::from(text));
                        let sent = Instant::now();
                        let resp = client.post_json("/v1/extract", &body).expect("request");
                        match resp.status {
                            200 => {
                                latencies.push(sent.elapsed());
                                ok += 1;
                            }
                            503 => shed += 1,
                            _ => other += 1,
                        }
                    }
                    (latencies, ok, shed, other)
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread"));
        }
    });
    let elapsed = start.elapsed();
    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut other) = (0, 0, 0);
    for (l, o, s, x) in per_client {
        latencies.extend(l);
        ok += o;
        shed += s;
        other += x;
    }
    latencies.sort();
    FleetResult { elapsed, latencies, ok, shed, other }
}

/// Runs a cell `trials` times and keeps the median-throughput trial.
fn run_cell(
    addr: std::net::SocketAddr,
    texts: &[&str],
    clients: usize,
    requests: usize,
    trials: usize,
) -> FleetResult {
    let mut runs: Vec<FleetResult> =
        (0..trials.max(1)).map(|_| run_fleet(addr, texts, clients, requests)).collect();
    runs.sort_by(|a, b| a.throughput().total_cmp(&b.throughput()));
    runs.swap_remove(runs.len() / 2)
}

fn quantile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64()
}

// The summary is serialized with the service's own `Json` type: the bench
// then exercises the exact encoder the wire responses use.
fn cell_json(name: &str, clients: usize, r: &FleetResult) -> Json {
    Json::obj(vec![
        ("scheduling", Json::from(name)),
        ("clients", Json::from(clients)),
        ("ok", Json::from(r.ok)),
        ("shed", Json::from(r.shed)),
        ("other", Json::from(r.other)),
        ("seconds", Json::from(r.elapsed.as_secs_f64())),
        ("throughput_rps", Json::from(r.throughput())),
        (
            "latency_seconds",
            Json::obj(vec![
                ("p50", Json::from(quantile(&r.latencies, 0.50))),
                ("p95", Json::from(quantile(&r.latencies, 0.95))),
                ("p99", Json::from(quantile(&r.latencies, 0.99))),
            ]),
        ),
    ])
}

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let size: usize = args.get_or("size", 64);
    let epochs: usize = args.get_or("epochs", 10);
    let requests: usize = args.get_or("requests", 40);
    let trials: usize = args.get_or("trials", 3);
    let out = args.get("out").unwrap_or("results/BENCH_serve.json").to_string();

    // A small encoder keeps training fast while leaving the forward as the
    // dominant per-request cost, which is the regime serving cares about.
    let dataset = gs_data::sustaingoals::generate(size, 42);
    let refs: Vec<&Objective> = dataset.objectives.iter().collect();
    let options = ExtractorOptions {
        model: TransformerConfig {
            name: "servebench-tiny".into(),
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            max_len: 48,
            subword_budget: 250,
            ..TransformerConfig::roberta_sim()
        },
        train: TrainConfig { epochs, lr: 3e-3, batch_size: 8, ..Default::default() },
        ..Default::default()
    };
    let extractor = Arc::new(TransformerExtractor::train(&refs, &dataset.labels, options));
    let texts = dataset.texts();

    // Throughput sweep: per-request baseline vs micro-batched serving,
    // same weights, same single worker, growing concurrency. With
    // `--quantized`, a third arm serves the int8 encoder under the same
    // micro-batching config as the f32 packed arm.
    let mut schedules: Vec<(&str, Arc<dyn ExtractEngine>, BatchConfig)> = vec![
        (
            "unbatched",
            Arc::new(PerRequestEngine(Arc::clone(&extractor))),
            BatchConfig { max_batch: 1, ..Default::default() },
        ),
        (
            "microbatch",
            Arc::new(PackedEngine(Arc::clone(&extractor))),
            BatchConfig { max_batch: 8, ..Default::default() },
        ),
    ];
    if args.has("quantized") {
        schedules.push((
            "quantized",
            Arc::new(gs_pipeline::QuantizedEngine::from_extractor(&extractor)),
            BatchConfig { max_batch: 8, ..Default::default() },
        ));
    }
    const CLIENTS: [usize; 3] = [1, 4, 16];
    let mut cells = Vec::new();
    let mut schedule_stats = Vec::new();
    // Median-trial throughput per (schedule, client count).
    let mut throughput: Vec<(&str, usize, f64)> = Vec::new();
    // serve.batch.size accumulates across schedules; per-schedule means
    // come from deltas of its running (sum, count).
    let (mut batch_sum, mut batch_count) = (0.0f64, 0u64);
    for (name, engine, batch) in &schedules {
        let server = Server::start(
            Arc::clone(engine),
            ServerConfig { batch: batch.clone(), ..Default::default() },
        )
        .expect("server");
        for clients in CLIENTS {
            let result = run_cell(server.addr(), &texts, clients, requests, trials);
            let rps = result.throughput();
            println!(
                "{name:>10} clients={clients:<3} ok={:<5} shed={:<4} {:>8.1} req/s p95={:.1}ms",
                result.ok,
                result.shed,
                rps,
                quantile(&result.latencies, 0.95) * 1e3,
            );
            throughput.push((name, clients, rps));
            cells.push(cell_json(name, clients, &result));
        }
        server.shutdown();
        let hist = gs_obs::snapshot().and_then(|s| s.histogram("serve.batch.size").cloned());
        let (sum, count) = hist.map_or((batch_sum, batch_count), |h| (h.sum, h.total));
        let dispatched = count.saturating_sub(batch_count);
        let mean_batch = if dispatched == 0 { 0.0 } else { (sum - batch_sum) / dispatched as f64 };
        (batch_sum, batch_count) = (sum, count);
        println!("{name:>10} dispatched {dispatched} batches, mean size {mean_batch:.2}");
        schedule_stats.push(Json::obj(vec![
            ("scheduling", Json::from(*name)),
            (
                "engine",
                Json::from(match *name {
                    "unbatched" => "per-request taped single-text forward",
                    "quantized" => "int8 packed tape-free batched forward",
                    _ => "packed tape-free batched forward",
                }),
            ),
            ("max_batch", Json::from(batch.max_batch)),
            ("dispatched_batches", Json::from(dispatched)),
            ("mean_batch_size", Json::from(mean_batch)),
        ]));
    }

    // Overload run: tiny queue + flood; the service must answer quickly
    // with 503s instead of queueing without bound.
    let overload_server = Server::start(
        Arc::new(PackedEngine(Arc::clone(&extractor))),
        ServerConfig {
            batch: BatchConfig { max_batch: 1, queue_capacity: 2, workers: 1 },
            ..Default::default()
        },
    )
    .expect("server");
    let overload = run_fleet(overload_server.addr(), &texts, 16, requests);
    println!(
        "  overload clients=16  ok={:<5} shed={:<4} ({:.0}% shed)",
        overload.ok,
        overload.shed,
        100.0 * overload.shed as f64 / (overload.ok + overload.shed).max(1) as f64,
    );
    overload_server.shutdown();

    let rps = |name: &str, clients: usize| {
        throughput.iter().find(|t| t.0 == name && t.1 == clients).map_or(0.0, |t| t.2)
    };
    // The gate: micro-batching must beat unbatched serving at every client
    // count, the lone-client case included.
    let speedups: Vec<(usize, f64)> = CLIENTS
        .iter()
        .map(|&c| (c, rps("microbatch", c) / rps("unbatched", c).max(1e-9)))
        .collect();
    for &(clients, speedup) in &speedups {
        let verdict = if speedup > 1.0 { "beats" } else { "LOSES TO" };
        println!("microbatch {verdict} unbatched at {clients} clients: {speedup:.2}x");
    }
    let mut summary_fields = vec![
        ("bench", Json::from("servebench")),
        ("corpus_size", Json::from(size)),
        ("requests_per_client", Json::from(requests)),
        ("trials_per_cell", Json::from(trials)),
        ("schedules", Json::Arr(schedule_stats)),
        ("cells", Json::Arr(cells)),
        (
            "speedup_by_clients",
            Json::Arr(
                speedups
                    .iter()
                    .map(|&(c, x)| {
                        Json::obj(vec![("clients", Json::from(c)), ("speedup", Json::from(x))])
                    })
                    .collect(),
            ),
        ),
        ("microbatch_beats_unbatched", Json::from(speedups.iter().all(|&(_, x)| x > 1.0))),
    ];
    if args.has("quantized") {
        summary_fields.push((
            "quantized_vs_f32_at_16_clients",
            Json::from(rps("quantized", 16) / rps("microbatch", 16).max(1e-9)),
        ));
    }
    summary_fields.extend([(
        "overload",
        Json::obj(vec![
            ("ok", Json::from(overload.ok)),
            ("shed", Json::from(overload.shed)),
            ("other", Json::from(overload.other)),
            (
                "shed_fraction",
                Json::from(
                    overload.shed as f64
                        / (overload.ok + overload.shed + overload.other).max(1) as f64,
                ),
            ),
        ]),
    )]);
    let summary = Json::obj(summary_fields);

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, summary.to_string()).expect("write summary");
    println!("wrote {out}");

    gs_bench::obs::finish(&args);
}
