//! Objective-store benchmark: sustained upsert throughput per commit arm
//! (fsync per record, one group commit per 15 same-company records, and no
//! fsync), WAL replay (recovery) time as a function of log size, and
//! concurrent read latency while a writer is ingesting.
//!
//! Usage:
//!   cargo run --release -p gs-bench --bin storebench --
//!       [--records N] [--smoke] [--out PATH]
//!
//! `--smoke` shrinks every dimension for CI (a few hundred records); the
//! full run defaults to 5000 records per cell. Writes
//! `results/BENCH_store.json` through `gs_bench::report`.

use gs_bench::report::{self, Samples};
use gs_bench::Args;
use gs_serve::Json;
use gs_store::{ObjectiveDb, ObjectiveRecord, StoreConfig, SyncPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-storebench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic record stream; `salt` varies the detail fields so the
/// same keys can be re-ingested as merges rather than no-ops. Each run of
/// `batch` consecutive records shares one company.
fn record(i: usize, salt: usize, batch: usize) -> ObjectiveRecord {
    ObjectiveRecord {
        company: format!("Company-{:03}", (i / batch) % 200),
        document: format!("report-{}", i % 11),
        objective: format!(
            "Objective #{i}: cut scope {} emissions {}% by {}.",
            1 + i % 3,
            5 + i % 60,
            2026 + i % 14
        ),
        action: Some("Cut".to_string()),
        amount: Some(format!("{}%", 5 + (i + salt) % 60)),
        qualifier: (!i.is_multiple_of(3)).then(|| format!("scope {} emissions", 1 + i % 3)),
        baseline: i.is_multiple_of(4).then(|| "vs. 2019".to_string()),
        deadline: Some((2026 + (i + salt) % 14).to_string()),
        score: ((i + salt) % 1000) as f64 / 999.0,
        ..ObjectiveRecord::default()
    }
}

fn config(sync: SyncPolicy) -> StoreConfig {
    StoreConfig { shards: 8, sync, ..StoreConfig::default() }
}

/// Upserts/sec and fsyncs per record for the three streaming paths (fresh
/// insert, idempotent repeat, field-level merge) in one commit arm: a sync
/// policy, and `batch` same-company records per `upsert_batch` call.
fn upsert_dimension(arm: &str, n: usize, sync: SyncPolicy, batch: usize) -> Json {
    let dir = tmp_dir(arm);
    let (db, _) = ObjectiveDb::open(&dir, config(sync)).expect("open");

    let mut cells = Vec::new();
    for (path, salt) in [("fresh", 0usize), ("repeat", 0), ("merge", 7)] {
        let syncs_before = db.wal_syncs();
        let start = Instant::now();
        for first in (0..n).step_by(batch) {
            let records: Vec<ObjectiveRecord> =
                (first..(first + batch).min(n)).map(|i| record(i, salt, batch)).collect();
            for result in db.upsert_batch(&records) {
                result.expect("upsert");
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let ops_per_sec = n as f64 / secs.max(1e-9);
        let fsyncs_per_record = (db.wal_syncs() - syncs_before) as f64 / n as f64;
        println!(
            "upserts {arm:>12} {path:6}: {ops_per_sec:10.0} ops/s, {fsyncs_per_record:.3} \
             fsyncs/record ({n} records, {secs:.3}s)"
        );
        cells.push(Json::obj(vec![
            ("path", Json::from(path)),
            ("records", Json::from(n as u64)),
            ("seconds", Json::from(secs)),
            ("upserts_per_sec", Json::from(ops_per_sec)),
            ("fsyncs_per_record", Json::from(fsyncs_per_record)),
        ]));
    }
    db.sync_all().expect("sync");
    let wal_bytes = db.wal_bytes();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Json::obj(vec![
        ("arm", Json::from(arm)),
        ("records_per_batch", Json::from(batch as u64)),
        ("final_wal_bytes", Json::from(wal_bytes)),
        ("cells", Json::Arr(cells)),
    ])
}

/// Recovery (replay) time for logs of increasing size, measured by
/// reopening a store populated with `size` distinct records.
fn recovery_dimension(sizes: &[usize]) -> Json {
    let mut cells = Vec::new();
    for &size in sizes {
        let dir = tmp_dir(&format!("recovery-{size}"));
        {
            let (db, _) = ObjectiveDb::open(&dir, config(SyncPolicy::OsOnly)).expect("open");
            for i in 0..size {
                db.upsert(&record(i, 0, 1)).expect("populate");
            }
            db.sync_all().expect("sync");
        }
        let start = Instant::now();
        let (db, report) = ObjectiveDb::open(&dir, config(SyncPolicy::OsOnly)).expect("reopen");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(db.len(), size, "replay lost records");
        let bytes = db.wal_bytes();
        println!(
            "recovery {size:6} records: {:8.1} ms  ({} frames, {bytes} bytes)",
            secs * 1e3,
            report.frames()
        );
        cells.push(Json::obj(vec![
            ("records", Json::from(size as u64)),
            ("frames", Json::from(report.frames() as u64)),
            ("wal_bytes", Json::from(bytes)),
            ("recovery_ms", Json::from(secs * 1e3)),
            ("records_per_sec", Json::from(size as f64 / secs.max(1e-9))),
        ]));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Json::obj(vec![("dimension", Json::from("recovery")), ("cells", Json::Arr(cells))])
}

/// Read latency percentiles while a writer ingests: readers spin on
/// `by_company` point lookups against the lock-free view path.
fn read_under_write_dimension(n: usize, readers: usize) -> Json {
    let db = Arc::new(ObjectiveDb::ephemeral(config(SyncPolicy::OsOnly)));
    // Pre-populate so early reads have real work to do.
    for i in 0..n / 2 {
        db.upsert(&record(i, 0, 1)).expect("prepopulate");
    }
    let stop = Arc::new(AtomicBool::new(false));

    let (write_secs, written, latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let db = db.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut reader = db.reader();
                    let mut samples: Vec<f64> = Vec::new();
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        let company = format!("Company-{:03}", i % 200);
                        let start = Instant::now();
                        let records = reader.by_company(&company);
                        samples.push(start.elapsed().as_nanos() as f64);
                        std::hint::black_box(records.len());
                        i += 1;
                    }
                    samples
                })
            })
            .collect();

        let start = Instant::now();
        for i in n / 2..n {
            db.upsert(&record(i, 0, 1)).expect("upsert under read load");
        }
        let write_secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("reader thread"));
        }
        (write_secs, n - n / 2, Samples::new(all))
    });

    let (p50, p99) = (latencies.quantile(0.50), latencies.quantile(0.99));
    println!(
        "reads under write load: {} samples, p50 {p50} ns, p99 {p99} ns; \
         writer sustained {:.0} upserts/s",
        latencies.n(),
        written as f64 / write_secs.max(1e-9)
    );
    Json::obj(vec![
        ("dimension", Json::from("read_under_write")),
        ("reader_threads", Json::from(readers as u64)),
        ("read_samples", Json::from(latencies.n())),
        ("read_p50_ns", Json::from(p50)),
        ("read_p99_ns", Json::from(p99)),
        ("writer_upserts_per_sec", Json::from(written as f64 / write_secs.max(1e-9))),
    ])
}

fn main() {
    let args = Args::from_env_checked("storebench", &["records", "smoke", "out"]);
    let collector = gs_bench::obs::init(&args);
    let smoke = args.has("smoke");
    let n: usize = args.get_or("records", if smoke { 200 } else { 5000 });
    let out = args.get("out").unwrap_or("results/BENCH_store.json").to_string();

    let upserts = Json::Arr(vec![
        upsert_dimension("fsync_always", n, SyncPolicy::Always, 1),
        upsert_dimension("batch_15", n, SyncPolicy::Always, 15),
        upsert_dimension("os_only", n, SyncPolicy::OsOnly, 1),
    ]);
    let recovery_sizes: Vec<usize> = [n / 4, n / 2, n].into_iter().filter(|&s| s > 0).collect();
    let recovery = recovery_dimension(&recovery_sizes);
    let reads = read_under_write_dimension(n, 4);

    let sections = vec![
        ("records_per_cell", Json::from(n as u64)),
        ("upsert_throughput", upserts),
        ("recovery", recovery),
        ("concurrent_reads", reads),
    ];
    report::write(&out, "storebench", smoke, sections).expect("write report");
    println!("wrote {out}");
    drop(collector);
    gs_bench::obs::finish(&args);
}
