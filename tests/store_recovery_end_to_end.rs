//! Crash-safety and concurrency integration for the log-structured store:
//! a writer process committing batches and killed mid-stream (plus a
//! deliberately torn frame) must recover to a clean prefix that converges
//! bit-identically once the stream is replayed; lock-free readers must see
//! consistent views under write load and whole batches only; and the golden
//! extraction fixture must round-trip through the persistent store with
//! identical spans.

use goalspotter::core::{ExtractedDetails, MultiSpanPolicy};
use goalspotter::models::transformer::{ModelFamily, TransformerConfig, TransformerExtractor};
use goalspotter::models::DetailExtractor;
use goalspotter::store::{
    ObjectiveDb, ObjectiveRecord, ObjectiveSink, ObjectiveStore, StoreConfig,
};
use goalspotter::text::labels::LabelSet;
use goalspotter::text::{Normalizer, Tokenizer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Env var that flips the `crash_writer_child` test into its writer role.
const CRASH_ENV: &str = "GS_STORE_CRASH_DIR";
const STREAM_LEN: usize = 400;
/// Records per `upsert_batch` call, the size of one ingested report.
const BATCH: usize = 15;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic record stream both the child writer and the reference
/// store ingest. Exercises escaping (tabs/newlines), missing fields, and
/// varied scores; keys are distinct so the full stream is `STREAM_LEN`
/// records.
fn stream_record(i: usize) -> ObjectiveRecord {
    let company = format!("Company-{:02}", i % 7);
    let mut details = ExtractedDetails::new();
    details.set("Action", "Reduce");
    details.set("Amount", format!("{}%", 5 + i % 60));
    if !i.is_multiple_of(3) {
        details.set("Qualifier", "emissions\tscope 1");
    }
    if i.is_multiple_of(4) {
        details.set("Baseline", "vs.\n2019 levels");
    }
    if i.is_multiple_of(2) {
        details.set("Deadline", (2026 + i % 12).to_string());
    }
    ObjectiveRecord::from_details(
        &company,
        &format!("report-{}", i % 5),
        &format!("Objective #{i}: reduce emissions by {}% company-wide.", 5 + i % 60),
        &details,
        (i % 100) as f64 / 99.0,
    )
}

fn store_config() -> StoreConfig {
    StoreConfig { shards: 4, fold_threshold: 16, ..StoreConfig::default() }
}

/// Not a test of its own: when `GS_STORE_CRASH_DIR` is set, this process is
/// a writer child that commits the stream in batches of [`BATCH`] until its
/// parent kills it, so the kill can land mid-batch. With the env unset
/// (every normal test run) it does nothing.
#[test]
fn crash_writer_child() {
    let Ok(dir) = std::env::var(CRASH_ENV) else { return };
    let (db, _) = ObjectiveDb::open(Path::new(&dir), store_config()).expect("child open");
    let stream: Vec<ObjectiveRecord> = (0..STREAM_LEN).map(stream_record).collect();
    for batch in stream.chunks(BATCH) {
        for result in db.upsert_batch(batch) {
            result.expect("child upsert");
        }
    }
    // Finished before the kill arrived: park so the parent's SIGKILL still
    // terminates a live process (recovery of a complete log is also valid).
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

#[test]
fn killed_writer_recovers_to_a_clean_prefix_and_converges_bit_identically() {
    let dir = tmp_dir("crash");
    let exe = std::env::current_exe().expect("current_exe");

    // Run the writer in a separate process and SIGKILL it mid-stream.
    let mut child = std::process::Command::new(&exe)
        .args(["--exact", "crash_writer_child", "--nocapture", "--test-threads", "1"])
        .env(CRASH_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn writer child");
    // Kill as soon as the logs show a few committed batches (or after a
    // deadline on a slow start), so the kill lands while the child writes.
    let log_bytes = || -> u64 {
        (0..store_config().shards)
            .filter_map(|i| std::fs::metadata(dir.join(format!("shard-{i}.log"))).ok())
            .map(|m| m.len())
            .sum()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while log_bytes() < 8 * 1024 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    child.kill().expect("kill writer");
    let _ = child.wait();

    // Whatever the kill left behind, make one tail unambiguously torn: a
    // length-prefixed frame whose payload never arrived.
    let torn_log = dir.join("shard-0.log");
    let mut contents = std::fs::read(&torn_log)
        .unwrap_or_else(|_| format!("{}\n", goalspotter::store::WAL_MAGIC).into_bytes());
    contents.extend_from_slice(b"r 9999 00000000\npartial");
    std::fs::create_dir_all(&dir).expect("dir");
    std::fs::write(&torn_log, contents).expect("append torn frame");

    // Recovery never errors, drops the torn tail, and keeps only records
    // that are bitwise-equal to the reference stream.
    let (db, recovery) = ObjectiveDb::open(&dir, store_config()).expect("recover");
    assert!(recovery.torn_tails() >= 1, "planted torn frame not detected: {recovery:?}");
    assert!(db.len() <= STREAM_LEN);
    let reference: Vec<ObjectiveRecord> = (0..STREAM_LEN).map(stream_record).collect();
    for record in db.reader().records() {
        assert!(reference.contains(&record), "recovered record not in the stream: {record:?}");
    }
    // Each shard log is a frame-prefix of its writes, so every company's
    // survivors are the first records of its part of the stream.
    for company in (0..7).map(|c| format!("Company-{c:02}")) {
        let recovered = db.reader().by_company(&company);
        let sent: Vec<&ObjectiveRecord> =
            reference.iter().filter(|r| r.company == company).take(recovered.len()).collect();
        assert!(recovered.iter().eq(sent), "{company}: recovered records are not a prefix");
    }

    // Replaying the full stream over the survivor converges to exactly the
    // state of an uninterrupted run — same records, same export bytes.
    for record in &reference {
        db.upsert(record).expect("complete stream");
    }
    assert_eq!(db.len(), STREAM_LEN);
    let fresh_dir = tmp_dir("crash-ref");
    let (fresh, _) = ObjectiveDb::open(&fresh_dir, store_config()).expect("reference open");
    for record in &reference {
        fresh.upsert(record).expect("reference upsert");
    }
    assert_eq!(db.reader().export_json(), fresh.reader().export_json());

    // Compaction and another reopen preserve the converged state bit for bit.
    db.compact_all().expect("compact");
    let snapshot = db.reader().export_json();
    drop(db);
    let (reopened, report) = ObjectiveDb::open(&dir, store_config()).expect("reopen");
    assert_eq!(report.torn_tails(), 0, "compacted logs must be clean: {report:?}");
    assert_eq!(reopened.reader().export_json(), snapshot);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

#[test]
fn concurrent_readers_see_consistent_views_under_write_load() {
    let db = Arc::new(ObjectiveDb::ephemeral(store_config()));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Four readers spin over cloned readers while the writer ingests.
        for _ in 0..4 {
            let db = db.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut reader = db.reader();
                let mut last_len = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let len = reader.len();
                    assert!(len >= last_len, "published view went backwards: {len} < {last_len}");
                    last_len = len;
                    for record in reader.by_company("Company-03") {
                        assert_eq!(record.company, "Company-03");
                        assert!(!record.objective.is_empty());
                    }
                    for record in reader.deadlines_between(2000, 2100) {
                        assert!(record.deadline.is_some());
                    }
                }
            });
        }
        for i in 0..STREAM_LEN {
            db.upsert(&stream_record(i)).expect("upsert under read load");
        }
        stop.store(true, Ordering::Relaxed);
    });

    let mut reader = db.reader();
    assert_eq!(reader.len(), STREAM_LEN);
    let by_company: usize = reader.counts_by_company().iter().map(|(_, n)| n).sum();
    assert_eq!(by_company, STREAM_LEN);
}

#[test]
fn batch_readers_see_whole_batches_only() {
    // One writer commits same-company batches of `BATCH` into a fresh store.
    // A shard publishes once per batch, so readers polling that company
    // only ever count whole batches.
    const BATCHES: usize = 40;
    let db = Arc::new(ObjectiveDb::ephemeral(store_config()));
    let stop = Arc::new(AtomicBool::new(false));
    let batch = |b: usize| -> Vec<ObjectiveRecord> {
        (0..BATCH)
            .map(|i| ObjectiveRecord { company: "Batch Co".into(), ..stream_record(b * BATCH + i) })
            .collect()
    };
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let db = db.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut reader = db.reader();
                let mut last = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let seen = reader.by_company("Batch Co").len();
                    assert_eq!(seen % BATCH, 0, "a reader saw part of a batch: {seen} records");
                    assert!(seen >= last, "published view went backwards: {seen} < {last}");
                    last = seen;
                }
            });
        }
        for b in 0..BATCHES {
            for result in db.upsert_batch(&batch(b)) {
                result.expect("batch upsert under read load");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(db.reader().by_company("Batch Co").len(), BATCHES * BATCH);
    // Under `GS_RACE=1` with the race-model feature, the live detector
    // watched every publish and load; elsewhere this is empty.
    let races = gs_race::take_live_races();
    assert!(races.is_empty(), "live race detector flagged batch publishes: {races:?}");
}

#[test]
fn db_and_in_memory_store_agree_on_the_same_stream() {
    // Both sinks ingest the same stream (with duplicates) through the
    // `ObjectiveSink` trait; per-company contents must be identical.
    let db = ObjectiveDb::ephemeral(store_config());
    let store = ObjectiveStore::new();
    for sink in [&db as &dyn ObjectiveSink, &store as &dyn ObjectiveSink] {
        for i in 0..120 {
            sink.upsert_record(&stream_record(i % 80)).expect("upsert");
        }
    }
    assert_eq!(db.len(), store.len());
    let mut reader = db.reader();
    for company in (0..7).map(|c| format!("Company-{c:02}")) {
        let from_db = reader.by_company(&company);
        let from_store = store.by_company(&company);
        assert_eq!(from_db.len(), from_store.len(), "for {company}");
        for (a, b) in from_db.into_iter().zip(from_store) {
            // The table-backed store quantizes scores to milli precision;
            // the log-structured store keeps exact bits. Everything else
            // must be byte-identical.
            let quantized = ObjectiveRecord { score: (a.score * 1000.0).round() / 1000.0, ..a };
            assert_eq!(quantized, b, "for {company}");
        }
    }
}

/// Mirrors `golden_config()` in `tests/golden_extraction.rs` — the frozen
/// checkpoint architecture.
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

#[test]
fn golden_extractions_round_trip_through_the_persistent_store() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden");
    let corpus = std::fs::read_to_string(dir.join("corpus.txt")).expect("read corpus.txt");
    let texts: Vec<&str> = corpus.lines().collect();
    let config = golden_config();
    let tokenizer = Tokenizer::train_bpe(&texts, Normalizer::default(), config.subword_budget);
    let params = goalspotter::tensor::serialize::load_params_text_file(&dir.join("params.txt"))
        .expect("read params.txt");
    let labels = LabelSet::sustainability_goals();
    let num_classes = labels.num_classes();
    let ex = TransformerExtractor::from_parts(
        labels,
        tokenizer,
        config,
        num_classes,
        params,
        MultiSpanPolicy::First,
    );

    // Extract every golden case, persist it, reopen, and compare the
    // stored spans against the live extraction — byte-identical fields.
    let raw = std::fs::read_to_string(dir.join("expected.txt")).expect("read expected.txt");
    let cases: Vec<&str> = raw.lines().filter_map(|line| line.strip_prefix(">>> ")).collect();
    assert!(!cases.is_empty(), "empty expected.txt");

    let store_dir = tmp_dir("golden");
    let (db, _) = ObjectiveDb::open(&store_dir, store_config()).expect("open");
    for text in &cases {
        let details = ex.extract(text);
        let record =
            ObjectiveRecord::from_details("GoldenCo", "golden-fixture", text, &details, 1.0);
        db.upsert(&record).expect("persist golden extraction");
    }
    db.sync_all().expect("sync");
    drop(db);

    let (reopened, report) = ObjectiveDb::open(&store_dir, store_config()).expect("reopen");
    assert_eq!(report.torn_tails(), 0);
    let stored = reopened.reader().by_company("GoldenCo");
    assert_eq!(stored.len(), cases.len());
    for text in &cases {
        let record = stored
            .iter()
            .find(|r| r.objective == *text)
            .unwrap_or_else(|| panic!("golden case not persisted: {text:?}"));
        let live = ex.extract(text);
        let spans = [
            ("Action", &record.action),
            ("Amount", &record.amount),
            ("Qualifier", &record.qualifier),
            ("Baseline", &record.baseline),
            ("Deadline", &record.deadline),
        ];
        for (kind, got) in spans {
            let want = live.get(kind).filter(|v| !v.is_empty());
            assert_eq!(got.as_deref(), want, "span {kind} drifted through the store for {text:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}
