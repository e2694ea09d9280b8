//! Batched and sequential upserts must be indistinguishable. Seeded random
//! record streams — a few companies, identities repeating inside one batch,
//! field merges, verbatim repeats that take the `Unchanged` path, and NaN
//! scores — are split into random batch sizes. `upsert_batch` must give the
//! outcomes of upserting the records one by one, in input order, the same
//! export, the same WAL bytes per shard and the same state after reopen.
//!
//! Covers `ObjectiveDb` on disk, `ObjectiveDb` ephemeral, and the provided
//! `ObjectiveSink::upsert_batch` (through a sink that implements only
//! `upsert_record`). Every assertion names its case and seed.

use gs_obs::Rng;
use gs_store::{ObjectiveDb, ObjectiveRecord, ObjectiveSink, StoreConfig, UpsertOutcome};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

const CASES: u64 = 32;
const BASE_SEED: u64 = 0x5eed_ba7c;
const COMPANIES: [&str; 4] = ["Acme", "Bcme", "Ccme", "Dcme"];

/// Few shards and a tiny fold threshold, so batches span shards and the
/// sequential run folds mid-batch where the batched run folds once.
fn config() -> StoreConfig {
    StoreConfig { shards: 3, fold_threshold: 3, ..StoreConfig::default() }
}

fn maybe(rng: &mut Rng, options: &[&str]) -> Option<String> {
    if rng.random_bool(0.4) {
        None
    } else {
        rng.choose(options).map(|s| s.to_string())
    }
}

/// A record over a small identity space, so identities repeat and merge.
fn random_record(rng: &mut Rng) -> ObjectiveRecord {
    let score =
        if rng.random_bool(0.1) { f64::NAN } else { f64::from(rng.random_range(0..4u32)) / 4.0 };
    let record = ObjectiveRecord {
        company: rng.choose(&COMPANIES).expect("companies").to_string(),
        document: format!("report-{}", rng.random_range(0..2u32)),
        objective: format!("objective {}", rng.random_range(0..6u32)),
        action: maybe(rng, &["Reduce", "Cut", ""]),
        amount: maybe(rng, &["10%", "50%"]),
        qualifier: maybe(rng, &["scope 1\temissions"]),
        baseline: maybe(rng, &["vs.\n2019"]),
        deadline: maybe(rng, &["2030", "2040"]),
        score,
        ..ObjectiveRecord::default()
    };
    if rng.random_bool(0.3) {
        let start = rng.random_range(0..4usize);
        record.with_provenance("00c0ffee00c0ffee", "Report > Targets", "list_item", (start, 40))
    } else {
        record
    }
}

/// A stream in which a quarter of the records repeat an earlier one
/// verbatim.
fn random_stream(rng: &mut Rng) -> Vec<ObjectiveRecord> {
    let len = rng.random_range(10..60usize);
    let mut stream: Vec<ObjectiveRecord> = Vec::with_capacity(len);
    for _ in 0..len {
        let record = if !stream.is_empty() && rng.random_bool(0.25) {
            rng.choose(&stream).expect("non-empty").clone()
        } else {
            random_record(rng)
        };
        stream.push(record);
    }
    stream
}

/// Random batch sizes in `1..=16` that add up to `len`.
fn random_batches(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = len;
    while left > 0 {
        let n = rng.random_range(1..=16usize).min(left);
        sizes.push(n);
        left -= n;
    }
    sizes
}

/// A sink that implements only the required methods, so its batches go
/// through the provided `ObjectiveSink::upsert_batch`, one upsert at a time.
struct PerRecord(ObjectiveDb);

impl ObjectiveSink for PerRecord {
    fn upsert_record(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome> {
        self.0.upsert(record)
    }

    fn record_count(&self) -> usize {
        self.0.len()
    }
}

fn sequential(sink: &dyn ObjectiveSink, records: &[ObjectiveRecord]) -> Vec<UpsertOutcome> {
    records.iter().map(|r| sink.upsert_record(r).expect("sequential upsert")).collect()
}

fn batched(
    sink: &dyn ObjectiveSink,
    records: &[ObjectiveRecord],
    sizes: &[usize],
) -> Vec<UpsertOutcome> {
    let mut outcomes = Vec::with_capacity(records.len());
    let mut at = 0;
    for &n in sizes {
        let results = sink.upsert_batch(&records[at..at + n]);
        assert_eq!(results.len(), n, "one result per record");
        outcomes.extend(results.into_iter().map(|r| r.expect("batched upsert")));
        at += n;
    }
    outcomes
}

/// The fsyncs a batched run should cost: one per batch per shard that the
/// batch logs at least one record to.
fn expected_syncs(
    db: &ObjectiveDb,
    records: &[ObjectiveRecord],
    sizes: &[usize],
    outcomes: &[UpsertOutcome],
) -> u64 {
    let mut syncs = 0;
    let mut at = 0;
    for &n in sizes {
        let shards: BTreeSet<usize> = (at..at + n)
            .filter(|&i| outcomes[i] != UpsertOutcome::Unchanged)
            .map(|i| db.shard_for(&records[i].company).id())
            .collect();
        syncs += shards.len() as u64;
        at += n;
    }
    syncs
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-batch-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shard_logs(dir: &Path, shards: usize) -> Vec<Vec<u8>> {
    (0..shards)
        .map(|i| std::fs::read(dir.join(format!("shard-{i}.log"))).expect("read shard log"))
        .collect()
}

#[test]
fn batched_upserts_match_sequential_upserts_byte_for_byte() {
    for case in 0..CASES {
        let seed = BASE_SEED + case;
        let mut rng = Rng::seed_from_u64(seed);
        let records = random_stream(&mut rng);
        let sizes = random_batches(&mut rng, records.len());
        let why = format!("case {case} seed {seed:#x} batches {sizes:?}");

        // ObjectiveDb on disk.
        let (seq_dir, bat_dir) = (tmp_dir(&format!("seq-{case}")), tmp_dir(&format!("bat-{case}")));
        let (seq_db, _) = ObjectiveDb::open(&seq_dir, config()).expect("open sequential");
        let (bat_db, _) = ObjectiveDb::open(&bat_dir, config()).expect("open batched");
        let want = sequential(&seq_db, &records);
        let got = batched(&bat_db, &records, &sizes);
        assert_eq!(got, want, "{why}: outcomes");
        let export = seq_db.reader().export_json();
        assert_eq!(bat_db.reader().export_json(), export, "{why}: export");
        let shards = seq_db.shard_count();
        assert_eq!(shard_logs(&bat_dir, shards), shard_logs(&seq_dir, shards), "{why}: WAL bytes");
        let logged = want.iter().filter(|&&o| o != UpsertOutcome::Unchanged).count() as u64;
        assert_eq!(seq_db.wal_syncs(), logged, "{why}: one fsync per sequential logged upsert");
        assert_eq!(
            bat_db.wal_syncs(),
            expected_syncs(&bat_db, &records, &sizes, &want),
            "{why}: one fsync per batch per shard"
        );
        drop((seq_db, bat_db));
        for (dir, run) in [(&seq_dir, "sequential"), (&bat_dir, "batched")] {
            let (db, report) = ObjectiveDb::open(dir, config()).expect("reopen");
            assert_eq!(report.torn_tails(), 0, "{why}: {run} reopen");
            assert_eq!(db.reader().export_json(), export, "{why}: {run} state after reopen");
        }
        let _ = std::fs::remove_dir_all(&seq_dir);
        let _ = std::fs::remove_dir_all(&bat_dir);

        // ObjectiveDb ephemeral.
        let (seq_db, bat_db) = (ObjectiveDb::ephemeral(config()), ObjectiveDb::ephemeral(config()));
        assert_eq!(sequential(&seq_db, &records), want, "{why}: ephemeral sequential outcomes");
        assert_eq!(batched(&bat_db, &records, &sizes), want, "{why}: ephemeral batched outcomes");
        assert_eq!(bat_db.reader().export_json(), export, "{why}: ephemeral batched export");
        assert_eq!(seq_db.reader().export_json(), export, "{why}: ephemeral sequential export");

        // The provided method.
        let sink = PerRecord(ObjectiveDb::ephemeral(config()));
        assert_eq!(batched(&sink, &records, &sizes), want, "{why}: provided method outcomes");
        assert_eq!(sink.0.reader().export_json(), export, "{why}: provided method export");
        assert_eq!(sink.record_count(), seq_db.len(), "{why}: provided method count");
    }
}
