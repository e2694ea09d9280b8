//! Profiler harness: runs the three hot paths of the system — the packed
//! inference forward, the fine-tuning train step, and the micro-batched
//! serving path — under the `gs_obs::prof` op profiler and writes a
//! machine-readable attribution summary.
//!
//! The headline number per phase is **coverage**: the fraction of phase
//! wall time attributed to named kernel ops by the profiler. The harness
//! fails (exit 1) when forward or train-step coverage drops below
//! `--min-coverage` (default 0.9) — a regression there means somebody
//! added un-instrumented work to a hot path. (The floor was 0.95 before
//! the blocked kernels and the buffer arena; with kernel time ~2.5x
//! smaller, per-node tape bookkeeping between instrumented ops is now a
//! visible single-digit share of the train step.)
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin profbench --
//!       [--smoke] [--reps N] [--out PATH] [--collapsed-out PATH]
//!       [--min-coverage F] [--obs-jsonl PATH] [--no-obs] [--no-obs-report]
//!
//! Writes `results/BENCH_prof.json` (top-op tables, roofline columns,
//! coverage per phase) and `results/BENCH_prof.collapsed` (flamegraph-
//! compatible collapsed stacks, lines prefixed with the phase name).

use gs_bench::Args;
use gs_models::transformer::{
    train_token_classifier, TokenClassifier, TrainConfig, TrainExample, TransformerConfig,
};
use gs_obs::prof;
use gs_obs::Json;
use gs_serve::{BatchConfig, Client, ExtractEngine, Extraction, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vocabulary size shared by every phase's synthetic token streams.
const VOCAB: usize = 300;

fn bench_config(smoke: bool) -> TransformerConfig {
    TransformerConfig {
        name: "profbench".into(),
        d_model: if smoke { 32 } else { 64 },
        n_heads: if smoke { 2 } else { 4 },
        n_layers: 2,
        d_ff: if smoke { 64 } else { 128 },
        max_len: 64,
        subword_budget: VOCAB,
        ..TransformerConfig::roberta_sim()
    }
}

/// Deterministic synthetic token sequences (ids in `[2, VOCAB)`).
fn synth_seqs(count: usize, len: usize) -> Vec<Vec<usize>> {
    (0..count).map(|s| (0..len).map(|i| 2 + (s * 31 + i * 7) % (VOCAB - 2)).collect()).collect()
}

/// Runs `f` with the profiler enabled from a clean slate; returns the
/// wall time and the op snapshot the phase produced.
fn profiled_phase<R>(f: impl FnOnce() -> R) -> (Duration, prof::ProfSnapshot, R) {
    prof::reset();
    prof::set_enabled(true);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    prof::set_enabled(false);
    let snapshot = prof::snapshot();
    prof::reset();
    (wall, snapshot, out)
}

/// Top-of-table rows (aggregated by op) as JSON.
fn top_ops_json(snapshot: &prof::ProfSnapshot, limit: usize) -> Json {
    let rows: Vec<Json> = snapshot
        .by_op()
        .into_iter()
        .take(limit)
        .map(|t| {
            Json::obj(vec![
                ("op", t.op.into()),
                ("calls", t.calls.into()),
                ("seconds", t.seconds.into()),
                ("share", t.share.into()),
                ("gflops_per_sec", t.gflops_per_sec().into()),
                ("flops_per_byte", t.intensity().into()),
            ])
        })
        .collect();
    Json::Arr(rows)
}

fn phase_json(wall: Duration, snapshot: &prof::ProfSnapshot) -> Json {
    let wall_s = wall.as_secs_f64();
    let profiled = snapshot.total_seconds();
    Json::obj(vec![
        ("wall_seconds", wall_s.into()),
        ("profiled_seconds", profiled.into()),
        ("coverage", Json::from(profiled / wall_s.max(1e-9))),
        ("distinct_rows", snapshot.rows.len().into()),
        ("top_ops", top_ops_json(snapshot, 12)),
    ])
}

fn coverage(wall: Duration, snapshot: &prof::ProfSnapshot) -> f64 {
    snapshot.total_seconds() / wall.as_secs_f64().max(1e-9)
}

/// Serving engine for the profiler bench: maps request bytes onto token
/// ids and runs the packed tape-free batched forward.
struct TokenEngine {
    model: TokenClassifier,
}

impl ExtractEngine for TokenEngine {
    fn extract_batch(&self, texts: &[String]) -> Vec<Extraction> {
        let max_len = self.model.config().max_len;
        let seqs: Vec<Vec<usize>> = texts
            .iter()
            .map(|t| {
                let ids: Vec<usize> =
                    t.bytes().take(max_len).map(|b| 2 + (b as usize) % (VOCAB - 2)).collect();
                if ids.is_empty() {
                    vec![2]
                } else {
                    ids
                }
            })
            .collect();
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let classes = self.model.predict_classes_batch(&refs);
        classes
            .into_iter()
            .map(|c| Extraction { fields: vec![("Classes".into(), c.len().to_string())] })
            .collect()
    }
}

/// Drives `clients` closed-loop clients against the profiler-bench server;
/// returns sorted latencies, ok count, and how many responses carried a
/// trace id (every one should).
fn drive_serve(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
) -> (Vec<Duration>, usize, usize) {
    let mut per_client = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(30)).expect("connect");
                    let mut latencies = Vec::with_capacity(requests);
                    let (mut ok, mut traced) = (0usize, 0usize);
                    for i in 0..requests {
                        let text = format!("objective {c}-{i}: reduce emissions by {}%", i % 80);
                        let body = format!("{{\"text\": {}}}", gs_serve::Json::from(text.as_str()));
                        let sent = Instant::now();
                        let resp = client.post_json("/v1/extract", &body).expect("request");
                        if resp.status == 200 {
                            latencies.push(sent.elapsed());
                            ok += 1;
                            if resp.header("x-trace-id").is_some_and(|id| id.len() == 16) {
                                traced += 1;
                            }
                        }
                    }
                    (latencies, ok, traced)
                })
            })
            .collect();
        for h in handles {
            per_client.push(h.join().expect("client thread"));
        }
    });
    let mut latencies = Vec::new();
    let (mut ok, mut traced) = (0, 0);
    for (l, o, t) in per_client {
        latencies.extend(l);
        ok += o;
        traced += t;
    }
    latencies.sort();
    (latencies, ok, traced)
}

fn quantile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64()
}

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let smoke = args.has("smoke");
    let reps: usize = args.get_or("reps", if smoke { 3 } else { 20 });
    let min_coverage: f64 = args.get_or("min-coverage", 0.9);
    let out = args.get("out").unwrap_or("results/BENCH_prof.json").to_string();
    let collapsed_out =
        args.get("collapsed-out").unwrap_or("results/BENCH_prof.collapsed").to_string();

    let config = bench_config(smoke);
    let num_classes = 5;
    let model = TokenClassifier::new(config.clone(), VOCAB, num_classes, 42);

    // Phase 1: packed inference forward (the serving kernel), reps ×
    // one batch of sequences.
    let seqs = synth_seqs(if smoke { 4 } else { 16 }, 48);
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let _warm = model.predict_classes_batch(&refs);
    let (fwd_wall, fwd_snapshot, _) = profiled_phase(|| {
        for _ in 0..reps {
            let _ = model.predict_classes_batch(&refs);
        }
    });
    let fwd_cov = coverage(fwd_wall, &fwd_snapshot);
    println!(
        "forward    wall {:>8.3}s coverage {:>5.1}% ({} rows)",
        fwd_wall.as_secs_f64(),
        fwd_cov * 100.0,
        fwd_snapshot.rows.len()
    );
    print!("{}", fwd_snapshot.table());

    // Phase 2: fine-tuning train steps (taped forward + backward + the
    // optimizer path) over a synthetic token-classification task.
    let examples: Vec<TrainExample> = synth_seqs(if smoke { 8 } else { 32 }, 32)
        .into_iter()
        .map(|ids| {
            let targets: Vec<i64> = ids
                .iter()
                .enumerate()
                .map(|(p, &id)| if p == 0 { -1 } else { (id % 4) as i64 + 1 })
                .collect();
            TrainExample { ids, targets }
        })
        .collect();
    let train_config = TrainConfig {
        epochs: if smoke { 1 } else { 3 },
        lr: 3e-3,
        batch_size: 8,
        ..Default::default()
    };
    let mut train_model = TokenClassifier::new(config.clone(), VOCAB, num_classes, 43);
    let (train_wall, train_snapshot, stats) =
        profiled_phase(|| train_token_classifier(&mut train_model, &examples, &train_config));
    let train_cov = coverage(train_wall, &train_snapshot);
    println!(
        "train_step wall {:>8.3}s coverage {:>5.1}% ({} rows, final loss {:.4})",
        train_wall.as_secs_f64(),
        train_cov * 100.0,
        train_snapshot.rows.len(),
        stats.last().map_or(f32::NAN, |s| s.mean_loss),
    );
    print!("{}", train_snapshot.table());

    // Phase 3: the micro-batched serving path end to end — HTTP, queue,
    // coalescing, packed forward — with per-request trace ids.
    let server = Server::start(
        Arc::new(TokenEngine { model }),
        ServerConfig {
            batch: BatchConfig { max_batch: 8, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("server");
    let clients = if smoke { 2 } else { 4 };
    let requests = if smoke { 8 } else { 50 };
    let (serve_wall, serve_snapshot, (latencies, ok, traced)) =
        profiled_phase(|| drive_serve(server.addr(), clients, requests));
    let traces_recorded = server.trace_count();
    server.shutdown();
    println!(
        "serve      wall {:>8.3}s ok {} traced {} p99 {:.1}ms ({} recorded traces)",
        serve_wall.as_secs_f64(),
        ok,
        traced,
        quantile(&latencies, 0.99) * 1e3,
        traces_recorded,
    );
    print!("{}", serve_snapshot.table());
    assert_eq!(traced, ok, "every 200 response must carry a 16-hex x-trace-id");
    assert!(traces_recorded > 0, "flight recorder captured no traces");

    let summary = Json::obj(vec![
        ("bench", "profbench".into()),
        ("smoke", smoke.into()),
        ("reps", reps.into()),
        (
            "model",
            Json::obj(vec![
                ("d_model", config.d_model.into()),
                ("n_heads", config.n_heads.into()),
                ("n_layers", config.n_layers.into()),
                ("d_ff", config.d_ff.into()),
            ]),
        ),
        (
            "phases",
            Json::obj(vec![
                ("forward", phase_json(fwd_wall, &fwd_snapshot)),
                ("train_step", phase_json(train_wall, &train_snapshot)),
                (
                    "serve",
                    Json::obj(vec![
                        ("wall_seconds", serve_wall.as_secs_f64().into()),
                        ("profiled_seconds", serve_snapshot.total_seconds().into()),
                        ("requests_ok", ok.into()),
                        ("responses_with_trace_id", traced.into()),
                        ("flight_recorder_traces", traces_recorded.into()),
                        (
                            "latency_seconds",
                            Json::obj(vec![
                                ("p50", Json::from(quantile(&latencies, 0.50))),
                                ("p95", Json::from(quantile(&latencies, 0.95))),
                                ("p99", Json::from(quantile(&latencies, 0.99))),
                            ]),
                        ),
                        ("top_ops", top_ops_json(&serve_snapshot, 12)),
                    ]),
                ),
            ]),
        ),
        (
            "attribution",
            Json::obj(vec![
                ("forward_coverage", fwd_cov.into()),
                ("train_step_coverage", train_cov.into()),
                ("min_required", min_coverage.into()),
                ("pass", Json::from(fwd_cov >= min_coverage && train_cov >= min_coverage)),
            ]),
        ),
    ]);

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, summary.to_pretty_string()).expect("write summary");
    println!("wrote {out}");

    // Flamegraph-compatible collapsed stacks, phase-prefixed so one file
    // holds all three profiles.
    let mut collapsed = String::new();
    for (phase, snapshot) in
        [("forward", &fwd_snapshot), ("train_step", &train_snapshot), ("serve", &serve_snapshot)]
    {
        for line in snapshot.collapsed().lines() {
            collapsed.push_str(phase);
            collapsed.push(';');
            collapsed.push_str(line);
            collapsed.push('\n');
        }
    }
    std::fs::write(&collapsed_out, collapsed).expect("write collapsed");
    println!("wrote {collapsed_out}");

    gs_bench::obs::finish(&args);

    if fwd_cov < min_coverage || train_cov < min_coverage {
        eprintln!(
            "attribution below --min-coverage {min_coverage}: forward {fwd_cov:.3}, train {train_cov:.3}"
        );
        std::process::exit(1);
    }
}
