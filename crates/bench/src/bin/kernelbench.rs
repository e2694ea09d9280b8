//! Kernel benchmark: measures what the cache-blocked kernels, the fast
//! gelu, and the buffer arena buy over the seed implementation, per op and
//! end to end, and writes a machine-readable summary.
//!
//! Every comparison runs both arms in one process by flipping the runtime
//! switches the kernels already expose:
//!
//! - **before**: `KernelMode::Reference` (naive triple loops), exact libm
//!   gelu, arena pool disabled — the seed configuration.
//! - **after**: `KernelMode::Blocked` (packed panels + unrolled micro-
//!   kernel), fast rational-tanh gelu, arena pool recycling buffers.
//!
//! Reported per matmul variant: ns/call and GFLOP/s in both modes. End to
//! end: the serving forward (`predict_classes_batch`) and the fine-tuning
//! train step, timed single-threaded in both configurations, plus the
//! serving forward on the default pool. The two end-to-end arms are
//! interleaved: each round times both back to back, alternating which goes
//! first, so drift in host speed lands on both arms alike; each arm reports
//! its median with min and max over the rounds, and the gates compare
//! medians. The after-forward additionally runs under `gs_obs::prof` so the
//! gelu share of attributed forward time is pinned.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin kernelbench -- [--smoke]
//!       [--reps N] [--out PATH]
//!
//! Writes `results/BENCH_kernels.json`. In full mode (no `--smoke`) the
//! bench **fails** (exit 1) unless the blocked forward's median is >= 2x
//! the reference forward's, the train step's is >= 1.5x, and gelu is <= 10%
//! of attributed forward time; `--smoke` still reports the ratios but skips
//! enforcement (tiny smoke shapes are overhead-dominated).

use gs_bench::Args;
use gs_models::transformer::{
    train_token_classifier, TokenClassifier, TrainConfig, TrainExample, TransformerConfig,
};
use gs_obs::prof;
use gs_obs::Json;
use gs_tensor::{arena, set_exact_gelu, set_kernel_mode, KernelMode, Tensor};
use std::time::Instant;

/// Vocabulary size for the synthetic token streams.
const VOCAB: usize = 300;

/// Speedup the blocked single-thread forward must reach over reference.
const FORWARD_GATE: f64 = 2.0;
/// Speedup the blocked train step must reach over reference.
const TRAIN_GATE: f64 = 1.5;
/// Largest share of attributed forward time gelu may take.
const GELU_SHARE_GATE: f64 = 0.10;

fn bench_config(smoke: bool) -> TransformerConfig {
    TransformerConfig {
        name: "kernelbench".into(),
        d_model: if smoke { 32 } else { 64 },
        n_heads: if smoke { 2 } else { 4 },
        n_layers: 2,
        d_ff: if smoke { 64 } else { 128 },
        max_len: 64,
        subword_budget: VOCAB,
        ..TransformerConfig::roberta_sim()
    }
}

/// Deterministic pseudo-random fill in [-1, 1) (no RNG crate in the loop).
fn synth(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            ((h % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn synth_seqs(count: usize, len: usize) -> Vec<Vec<usize>> {
    (0..count).map(|s| (0..len).map(|i| 2 + (s * 31 + i * 7) % (VOCAB - 2)).collect()).collect()
}

/// Mean ns per call over `reps` timed iterations (after `reps / 4` warm-up
/// calls), single-threaded so the per-op numbers are scheduling-free.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    gs_par::with_threads(1, || {
        for _ in 0..(reps / 4).max(1) {
            f();
        }
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    })
}

/// Puts the process in the seed ("before") or optimized ("after")
/// configuration. The pool is cleared so arms never share warm buffers.
fn configure(after: bool) {
    set_kernel_mode(if after { KernelMode::Blocked } else { KernelMode::Reference });
    set_exact_gelu(!after);
    arena::set_pool_enabled(after);
    arena::clear();
}

/// Times the seed ("before", index 0) and optimized ("after", index 1)
/// arms `rounds` times each with `sample(after)`, interleaved: every round
/// runs both arms back to back and alternates which goes first. Returns
/// each arm's samples in ns, sorted.
fn interleaved(rounds: usize, mut sample: impl FnMut(bool) -> f64) -> [Vec<f64>; 2] {
    let mut arms = [Vec::new(), Vec::new()];
    for round in 0..rounds {
        for after in [round % 2 == 1, round % 2 == 0] {
            configure(after);
            arms[usize::from(after)].push(sample(after));
        }
    }
    arms.map(|mut samples| {
        samples.sort_by(f64::total_cmp);
        samples
    })
}

fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// An end-to-end comparison as JSON: each arm's median with its range.
fn arms_json([before, after]: &[Vec<f64>; 2]) -> Vec<(&'static str, Json)> {
    vec![
        ("before_ns", median(before).into()),
        ("before_min_ns", before[0].into()),
        ("before_max_ns", before[before.len() - 1].into()),
        ("after_ns", median(after).into()),
        ("after_min_ns", after[0].into()),
        ("after_max_ns", after[after.len() - 1].into()),
        ("speedup", Json::from(median(before) / median(after))),
    ]
}

/// One matmul variant measured in both kernel modes.
fn matmul_row(
    name: &str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    run: impl Fn(&Tensor, &Tensor) -> Tensor,
    a: Tensor,
    b: Tensor,
) -> Json {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    configure(false);
    let before_ns = time_ns(reps, || {
        let _ = run(&a, &b);
    });
    configure(true);
    let after_ns = arena::scope(|| {
        time_ns(reps, || {
            let _ = run(&a, &b);
        })
    });
    let row = Json::obj(vec![
        ("op", name.into()),
        ("shape", Json::Arr(vec![m.into(), k.into(), n.into()])),
        ("before_ns", before_ns.into()),
        ("after_ns", after_ns.into()),
        ("before_gflops", Json::from(flops / before_ns)),
        ("after_gflops", Json::from(flops / after_ns)),
        ("speedup", Json::from(before_ns / after_ns)),
    ]);
    println!(
        "{name:>14} ({m}x{k}x{n})  {:>10.0} -> {:>10.0} ns  {:>5.2} -> {:>5.2} GFLOP/s  ({:.2}x)",
        before_ns,
        after_ns,
        flops / before_ns,
        flops / after_ns,
        before_ns / after_ns,
    );
    row
}

/// An elementwise op measured before/after (gelu flips exact -> fast;
/// softmax runs the same restructured code in both arms, so its ratio
/// isolates the arena).
fn elementwise_row(
    name: &str,
    rows: usize,
    cols: usize,
    reps: usize,
    run: impl Fn(&Tensor) -> Tensor,
) -> Json {
    let x = Tensor::from_vec(vec![rows, cols], synth(rows * cols, 77));
    configure(false);
    let before_ns = time_ns(reps, || {
        let _ = run(&x);
    });
    configure(true);
    let after_ns = arena::scope(|| {
        time_ns(reps, || {
            let _ = run(&x);
        })
    });
    println!(
        "{name:>14} ({rows}x{cols})  {before_ns:>10.0} -> {after_ns:>10.0} ns  ({:.2}x)",
        before_ns / after_ns
    );
    Json::obj(vec![
        ("op", name.into()),
        ("shape", Json::Arr(vec![rows.into(), cols.into()])),
        ("before_ns", before_ns.into()),
        ("after_ns", after_ns.into()),
        ("speedup", Json::from(before_ns / after_ns)),
    ])
}

fn train_examples(count: usize, len: usize) -> Vec<TrainExample> {
    synth_seqs(count, len)
        .into_iter()
        .map(|ids| {
            let targets: Vec<i64> = ids
                .iter()
                .enumerate()
                .map(|(p, &id)| if p == 0 { -1 } else { (id % 4) as i64 + 1 })
                .collect();
            TrainExample { ids, targets }
        })
        .collect()
}

fn main() {
    let args = Args::from_env();
    gs_bench::obs::init(&args);
    let smoke = args.has("smoke");
    let reps: usize = args.get_or("reps", if smoke { 5 } else { 40 });
    let out = args.get("out").unwrap_or("results/BENCH_kernels.json").to_string();

    // Per-op micro-bench: one mid-size shape that crosses the KC k-strip
    // (k > KC = 256) so packing, strip spill, and the micro-kernel all run.
    let (m, k, n) = if smoke { (48, 64, 48) } else { (192, 320, 192) };
    let mm = matmul_row(
        "matmul",
        m,
        k,
        n,
        reps,
        |a, b| a.matmul(b),
        Tensor::from_vec(vec![m, k], synth(m * k, 1)),
        Tensor::from_vec(vec![k, n], synth(k * n, 2)),
    );
    let mmtb = matmul_row(
        "matmul_transb",
        m,
        k,
        n,
        reps,
        |a, b| a.matmul_transb(b),
        Tensor::from_vec(vec![m, k], synth(m * k, 3)),
        Tensor::from_vec(vec![n, k], synth(n * k, 4)),
    );
    let mmta = matmul_row(
        "matmul_transa",
        m,
        k,
        n,
        reps,
        |a, b| a.matmul_transa(b),
        Tensor::from_vec(vec![k, m], synth(k * m, 5)),
        Tensor::from_vec(vec![k, n], synth(k * n, 6)),
    );
    let (erows, ecols) = if smoke { (64, 64) } else { (512, 128) };
    let gelu = elementwise_row("gelu", erows, ecols, reps * 4, |x| x.gelu_forward());
    let softmax = elementwise_row("softmax", erows, ecols, reps * 4, |x| x.softmax_last_dim());

    // Forward end to end: the serving forward, single thread, seed
    // configuration vs blocked + fast gelu + arena.
    let config = bench_config(smoke);
    let num_classes = 5;
    let model = TokenClassifier::new(config.clone(), VOCAB, num_classes, 42);
    let seqs = synth_seqs(if smoke { 4 } else { 16 }, 48);
    let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
    let fwd_reps = if smoke { 3 } else { 20 };
    let rounds = if smoke { 3 } else { 7 };

    let fwd = interleaved(rounds, |after| {
        let run = || {
            time_ns(fwd_reps, || {
                let _ = model.predict_classes_batch(&refs);
            })
        };
        if after {
            arena::scope(run)
        } else {
            run()
        }
    });
    let forward_speedup = median(&fwd[0]) / median(&fwd[1]);
    println!(
        "{:>14}  {:>10.0} -> {:>10.0} ns  ({forward_speedup:.2}x, medians of {rounds})",
        "forward e2e",
        median(&fwd[0]),
        median(&fwd[1])
    );

    // The after-forward under the op profiler: how much of attributed time
    // the (fast) gelu still takes. A regression here means the activation
    // crept back into the hot set.
    configure(true);
    prof::reset();
    prof::set_enabled(true);
    arena::scope(|| {
        gs_par::with_threads(1, || {
            for _ in 0..fwd_reps {
                let _ = model.predict_classes_batch(&refs);
            }
        });
    });
    prof::set_enabled(false);
    let fwd_snapshot = prof::snapshot();
    prof::reset();
    let profiled = fwd_snapshot.total_seconds();
    let gelu_seconds: f64 =
        fwd_snapshot.by_op().into_iter().filter(|t| t.op.contains("gelu")).map(|t| t.seconds).sum();
    let gelu_share = gelu_seconds / profiled.max(1e-12);
    println!(
        "{:>14}  gelu {gelu_seconds:.4}s of {profiled:.4}s attributed ({:.1}%)",
        "forward prof",
        gelu_share * 100.0
    );

    // Train step end to end: taped forward + backward + Adam, same data and
    // seed in both arms (training itself is bit-deterministic per mode).
    let examples = train_examples(if smoke { 8 } else { 32 }, 32);
    let train_cfg = TrainConfig {
        epochs: if smoke { 1 } else { 2 },
        lr: 3e-3,
        batch_size: 8,
        ..Default::default()
    };
    let train = interleaved(rounds, |after| {
        gs_par::with_threads(1, || {
            let mut m = TokenClassifier::new(config.clone(), VOCAB, num_classes, 43);
            let mut run = || {
                let start = Instant::now();
                let _ = train_token_classifier(&mut m, &examples, &train_cfg);
                start.elapsed().as_nanos() as f64
            };
            if after {
                arena::scope(run)
            } else {
                run()
            }
        })
    });
    let train_speedup = median(&train[0]) / median(&train[1]);
    println!(
        "{:>14}  {:>10.0} -> {:>10.0} ns  ({train_speedup:.2}x, medians of {rounds})",
        "train e2e",
        median(&train[0]),
        median(&train[1])
    );

    // Serving forward in the after configuration, on the default pool:
    // the path `predict_tags_batch` runs for every served micro-batch.
    configure(true);
    let serve_f32_ns = arena::scope(|| {
        time_ns(fwd_reps, || {
            let _ = model.predict_classes_batch(&refs);
        })
    });
    println!("{:>14}  f32 {serve_f32_ns:>10.0} ns", "serve fwd");

    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let gates_pass = forward_speedup >= FORWARD_GATE
        && train_speedup >= TRAIN_GATE
        && gelu_share <= GELU_SHARE_GATE;
    let summary = Json::obj(vec![
        ("bench", "kernelbench".into()),
        ("smoke", smoke.into()),
        ("reps", reps.into()),
        ("host_cores", Json::from(host_cores as u64)),
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
            "arms",
            Json::obj(vec![
                ("before", Json::from("KernelMode::Reference, exact gelu, arena pool off (seed)")),
                ("after", Json::from("KernelMode::Blocked, fast gelu, arena pool on")),
            ]),
        ),
        ("ops", Json::Arr(vec![mm, mmtb, mmta, gelu, softmax])),
        ("rounds", rounds.into()),
        ("forward", {
            let mut fields = arms_json(&fwd);
            fields.push(("gelu_share_of_attributed", gelu_share.into()));
            Json::obj(fields)
        }),
        ("train_step", Json::obj(arms_json(&train))),
        ("serve_forward", Json::obj(vec![("f32_ns", serve_f32_ns.into())])),
        (
            "gates",
            Json::obj(vec![
                ("forward_speedup_min", FORWARD_GATE.into()),
                ("train_step_speedup_min", TRAIN_GATE.into()),
                ("gelu_share_max", GELU_SHARE_GATE.into()),
                ("enforced", Json::from(!smoke)),
                ("pass", gates_pass.into()),
            ]),
        ),
    ]);

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, summary.to_pretty_string()).expect("write summary");
    println!("wrote {out}");

    // Leave the process in the default (optimized) configuration.
    configure(true);
    gs_bench::obs::finish(&args);

    if !smoke && !gates_pass {
        eprintln!(
            "kernel gates failed: forward {forward_speedup:.2}x (need >= {FORWARD_GATE}), \
             train {train_speedup:.2}x (need >= {TRAIN_GATE}), \
             gelu share {gelu_share:.3} (need <= {GELU_SHARE_GATE})"
        );
        std::process::exit(1);
    }
}
