//! The sharded objective database: hash-by-company routing over
//! crash-safe, log-structured shards with lock-free concurrent readers.
//!
//! ## Layout on disk
//!
//! ```text
//! <dir>/store.meta      # "gs-store v2" + shard count (fixed at creation)
//! <dir>/shard-0.log     # per-shard WAL, see `wal` module for the framing
//! <dir>/shard-1.log
//! ...
//! ```
//!
//! A record lives in the shard its *company* hashes to, so every query
//! scoped to one company touches exactly one shard and writers for
//! different companies rarely contend. The shard count is persisted in
//! `store.meta` and wins over the configured value on reopen — resharding
//! would silently strand records otherwise.
//!
//! ## Batch commit
//!
//! [`ObjectiveDb::upsert_batch`] groups a batch by shard and commits the
//! groups one after another; [`ObjectiveDb::upsert`] is a batch of one.
//! Each shard's part is one group commit (see the `shard` module): one
//! frame per record, one WAL write and one fsync for the group, and the
//! outcomes, log bytes and final state that upserting the records one by
//! one would give. A group is acknowledged only after its fsync, a crash
//! leaves a frame-prefix of it, readers see all or none of it, and a
//! failed commit is rolled back so every record of that group gets `Err`.
//! Groups on other shards commit or fail on their own.
//!
//! ## Concurrency
//!
//! Writes take one shard's mutex; reads go through [`StoreReader`], which
//! caches each shard's epoch and immutable view — steady-state reads cost
//! one atomic load per shard and never block behind the writer. Compaction
//! ([`ObjectiveDb::compact_all`]) fans out across shards on the gs-par
//! pool, and [`ObjectiveDb::spawn_compactor`] runs the same sweep on a
//! background thread whenever a shard's log accumulates enough ops.

use gs_race::sync::{AtomicBool, Ordering};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::codec;
use crate::hash::fnv1a64;
use crate::objective_store::ObjectiveRecord;
use crate::shard::{CompactionStats, Shard, UpsertOutcome};
use crate::view::ReadHandle;
use crate::wal::{ReplayReport, SyncPolicy};

/// First line of `store.meta`.
const META_MAGIC: &str = "gs-store v2";

/// Tuning knobs for an [`ObjectiveDb`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Shard count for a *newly created* store; an existing store keeps the
    /// count recorded in its `store.meta`.
    pub shards: usize,
    /// Whether each WAL commit fsyncs.
    pub sync: SyncPolicy,
    /// Upserts a shard buffers in its delta before folding a fresh base
    /// generation (bounds per-read delta scans).
    pub fold_threshold: usize,
    /// Auto-compact a shard once this many upserts accumulate in its log
    /// since the last compaction. `0` disables auto-compaction.
    pub compact_after_ops: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 8,
            sync: SyncPolicy::Always,
            fold_threshold: 128,
            compact_after_ops: 0,
        }
    }
}

/// What opening a store recovered from disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Per-shard replay accounting.
    pub shards: Vec<ReplayReport>,
    /// Live records after replay.
    pub records: usize,
}

impl RecoveryReport {
    /// Total clean frames replayed.
    pub fn frames(&self) -> usize {
        self.shards.iter().map(|r| r.frames).sum()
    }

    /// How many shards had a torn tail truncated.
    pub fn torn_tails(&self) -> usize {
        self.shards.iter().filter(|r| r.torn_tail).count()
    }

    /// Total bytes discarded as torn.
    pub fn torn_bytes(&self) -> u64 {
        self.shards.iter().map(|r| r.torn_bytes).sum()
    }
}

/// The sharded, crash-safe objective database.
pub struct ObjectiveDb {
    shards: Arc<Vec<Shard>>,
    config: StoreConfig,
    dir: Option<PathBuf>,
}

impl std::fmt::Debug for ObjectiveDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectiveDb")
            .field("shards", &self.shards.len())
            .field("dir", &self.dir)
            .finish()
    }
}

/// The shard a company's records live in, out of `shards`.
fn shard_index(company: &str, shards: usize) -> usize {
    (fnv1a64(company.as_bytes()) % shards as u64) as usize
}

fn read_meta(path: &Path) -> io::Result<Option<usize>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a {META_MAGIC} meta file", path.display()),
        ));
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n > 0);
    shards.map(Some).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: malformed shard count", path.display()),
        )
    })
}

impl ObjectiveDb {
    /// Opens (creating if needed) a persistent store under `dir`, replaying
    /// every shard log and truncating torn tails.
    pub fn open(dir: &Path, config: StoreConfig) -> io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let meta_path = dir.join("store.meta");
        let shard_count = match read_meta(&meta_path)? {
            Some(n) => n,
            None => {
                let n = config.shards.max(1);
                std::fs::write(&meta_path, format!("{META_MAGIC}\nshards {n}\n"))?;
                n
            }
        };
        let started = std::time::Instant::now();
        let mut shards = Vec::with_capacity(shard_count);
        let mut report = RecoveryReport::default();
        for i in 0..shard_count {
            let path = dir.join(format!("shard-{i}.log"));
            let (shard, rep) = Shard::open(i, Some(&path), config.sync, config.fold_threshold)?;
            report.records += shard.len();
            report.shards.push(rep);
            shards.push(shard);
        }
        let db = ObjectiveDb { shards: Arc::new(shards), config, dir: Some(dir.to_path_buf()) };
        if gs_obs::enabled() {
            let elapsed = started.elapsed();
            gs_obs::prof::record_at(
                "store",
                "wal.replay",
                elapsed.as_nanos() as u64,
                gs_obs::prof::Cost::new(0, report.shards.iter().map(|r| r.clean_bytes).sum()),
            );
            gs_obs::observe("store.recover_s", elapsed.as_secs_f64());
            gs_obs::counter("store.recover.frames", report.frames() as u64);
            db.publish_gauges();
        }
        Ok((db, report))
    }

    /// An in-memory store with the same upsert/merge/read semantics and no
    /// durability — the default for tests and one-shot pipeline runs.
    pub fn ephemeral(config: StoreConfig) -> Self {
        let shard_count = config.shards.max(1);
        let shards = (0..shard_count)
            .map(|i| {
                Shard::open(i, None, config.sync, config.fold_threshold)
                    .expect("ephemeral shard cannot fail")
                    .0
            })
            .collect();
        ObjectiveDb { shards: Arc::new(shards), config, dir: None }
    }

    /// The shard that owns `company`'s records (its epoch cell, log size
    /// and fsync count are visible through it).
    pub fn shard_for(&self, company: &str) -> &Shard {
        &self.shards[shard_index(company, self.shards.len())]
    }

    fn publish_gauges(&self) {
        let mut total = 0usize;
        for shard in self.shards.iter() {
            let len = shard.len();
            total += len;
            gs_obs::gauge(&format!("store.shard{}.records", shard.id()), len as f64);
            gs_obs::gauge(
                &format!("store.shard{}.wal_bytes", shard.id()),
                shard.wal_bytes() as f64,
            );
        }
        gs_obs::gauge("store.records", total as f64);
    }

    /// Upserts one record: routed by company, merged by (company,
    /// objective), idempotent on identical content. A batch of one.
    pub fn upsert(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome> {
        self.commit(self.shard_for(&record.company), &[record]).map(|outcomes| outcomes[0])
    }

    /// Upserts `records` with one group commit per shard they touch (one
    /// WAL write, one fsync and one view publish each), giving the outcomes
    /// of upserting them one by one, in input order. When a shard's log
    /// write or fsync fails, every record routed to it gets `Err` and none
    /// of them is stored; the other shards' records are unaffected. (An
    /// auto-compaction error after a commit also fails that shard's
    /// records, as it fails a single upsert.)
    pub fn upsert_batch(&self, records: &[ObjectiveRecord]) -> Vec<io::Result<UpsertOutcome>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, record) in records.iter().enumerate() {
            groups[shard_index(&record.company, self.shards.len())].push(i);
        }
        let mut results: Vec<io::Result<UpsertOutcome>> = Vec::with_capacity(records.len());
        results.resize_with(records.len(), || Ok(UpsertOutcome::Unchanged));
        for (shard, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let batch: Vec<&ObjectiveRecord> = group.iter().map(|&i| &records[i]).collect();
            match self.commit(shard, &batch) {
                Ok(outcomes) => {
                    for (&i, outcome) in group.iter().zip(outcomes) {
                        results[i] = Ok(outcome);
                    }
                }
                Err(e) => {
                    for &i in group {
                        results[i] = Err(io::Error::new(e.kind(), e.to_string()));
                    }
                }
            }
        }
        results
    }

    /// Group-commits one shard's records, then counts the outcomes and
    /// auto-compacts the shard if it is due.
    fn commit(
        &self,
        shard: &Shard,
        records: &[&ObjectiveRecord],
    ) -> io::Result<Vec<UpsertOutcome>> {
        let outcomes = shard.upsert_batch(records)?;
        let count = |kind| outcomes.iter().filter(|&&o| o == kind).count() as u64;
        let logged = count(UpsertOutcome::Inserted) + count(UpsertOutcome::Updated);
        if gs_obs::enabled() {
            for (kind, label) in [
                (UpsertOutcome::Inserted, "store.upserts.inserted"),
                (UpsertOutcome::Updated, "store.upserts.updated"),
                (UpsertOutcome::Unchanged, "store.upserts.unchanged"),
            ] {
                if count(kind) > 0 {
                    gs_obs::counter(label, count(kind));
                }
            }
            gs_obs::gauge(&format!("store.shard{}.records", shard.id()), shard.len() as f64);
        }
        if self.config.compact_after_ops > 0
            && logged > 0
            && shard.ops_since_compact() >= self.config.compact_after_ops
        {
            self.compact_shard(shard)?;
        }
        Ok(outcomes)
    }

    fn compact_shard(&self, shard: &Shard) -> io::Result<CompactionStats> {
        let span = gs_obs::span("store.compact.shard");
        let stats = shard.compact()?;
        drop(span);
        if gs_obs::enabled() {
            gs_obs::counter("store.compactions", 1);
            gs_obs::counter(
                "store.compact.bytes_reclaimed",
                stats.bytes_before.saturating_sub(stats.bytes_after),
            );
            gs_obs::gauge(
                &format!("store.shard{}.wal_bytes", stats.shard),
                stats.bytes_after as f64,
            );
        }
        Ok(stats)
    }

    /// Compacts every shard, fanning out across the gs-par pool. Each
    /// shard's log shrinks to its point-in-time snapshot (one op per live
    /// record).
    pub fn compact_all(&self) -> io::Result<Vec<CompactionStats>> {
        let span = gs_obs::span("store.compact");
        let results =
            gs_par::map_collect(self.shards.len(), |i| self.compact_shard(&self.shards[i]));
        drop(span);
        results.into_iter().collect()
    }

    /// Forces all unsynced WAL appends to disk.
    pub fn sync_all(&self) -> io::Result<()> {
        for shard in self.shards.iter() {
            shard.sync()?;
        }
        Ok(())
    }

    /// Live record count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total WAL bytes across shards (0 when ephemeral).
    pub fn wal_bytes(&self) -> u64 {
        self.shards.iter().map(Shard::wal_bytes).sum()
    }

    /// Total WAL fsyncs across shards since open (0 when ephemeral).
    pub fn wal_syncs(&self) -> u64 {
        self.shards.iter().map(Shard::wal_syncs).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Directory backing this store, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// A detached reader with lock-free steady-state access. Clone-cheap;
    /// give every reader thread its own.
    pub fn reader(&self) -> StoreReader {
        StoreReader {
            shards: Arc::clone(&self.shards),
            handles: vec![ReadHandle::new(); self.shards.len()],
        }
    }

    /// Starts a background thread that sweeps shards every `interval` and
    /// compacts any whose log holds at least `compact_after_ops` new ops
    /// (the config value; the sweep is a no-op when auto-compaction is
    /// disabled). Returns a handle that stops the thread on drop.
    pub fn spawn_compactor(&self, interval: Duration) -> CompactorHandle {
        let shards = Arc::clone(&self.shards);
        let threshold = self.config.compact_after_ops;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("gs-store-compactor".into())
            .spawn(move || {
                // ordering: Relaxed — `stop` is a pure flag with no payload
                // handed across it; the shard data the sweep touches is
                // synchronized by each shard's own locks, and thread::join
                // in `stop_and_join` orders everything at shutdown.
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if threshold == 0 || stop2.load(Ordering::Relaxed) {
                        continue;
                    }
                    for shard in shards.iter() {
                        if shard.ops_since_compact() >= threshold {
                            let span = gs_obs::span("store.compact.shard");
                            if shard.compact().is_ok() {
                                gs_obs::counter("store.compactions", 1);
                            }
                            drop(span);
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        CompactorHandle { stop, join: Some(join) }
    }
}

/// Stops the background compactor when dropped.
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Signals the thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ordering: Relaxed — see the compactor loop: the flag carries no
        // payload and the join below is the real synchronization point.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A per-thread reader over the store's shard views. Steady-state queries
/// take no locks: each call does one atomic epoch load per shard touched
/// and refreshes its cached `Arc<ShardView>` only when the epoch moved.
#[derive(Clone)]
pub struct StoreReader {
    shards: Arc<Vec<Shard>>,
    handles: Vec<ReadHandle>,
}

impl std::fmt::Debug for StoreReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreReader").field("shards", &self.shards.len()).finish()
    }
}

impl StoreReader {
    /// Live record count in the snapshot this reader currently sees.
    pub fn len(&mut self) -> usize {
        (0..self.shards.len()).map(|i| self.handles[i].view(self.shards[i].cell()).len()).sum()
    }

    /// Whether the visible snapshot is empty.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// All records of one company (touches exactly one shard), in stable
    /// first-insert order.
    pub fn by_company(&mut self, company: &str) -> Vec<ObjectiveRecord> {
        let i = shard_index(company, self.shards.len());
        let view = self.handles[i].view(self.shards[i].cell());
        let mut rows = Vec::new();
        view.for_company(company, |s| rows.push((s.seq, s.record.clone())));
        rows.sort_by_key(|(seq, _)| *seq);
        rows.into_iter().map(|(_, r)| r).collect()
    }

    /// Every record in the store, ordered by (shard, first-insert seq).
    pub fn records(&mut self) -> Vec<ObjectiveRecord> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let view = self.handles[i].view(self.shards[i].cell());
            let mut rows = Vec::new();
            view.for_each(|s| rows.push((s.seq, s.record.clone())));
            rows.sort_by_key(|(seq, _)| *seq);
            out.extend(rows.into_iter().map(|(_, r)| r));
        }
        out
    }

    /// Objectives with deadline years in `[from, to]` — the monitoring
    /// query, answered from the per-shard deadline indexes.
    pub fn deadlines_between(&mut self, from: i64, to: i64) -> Vec<ObjectiveRecord> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let view = self.handles[i].view(self.shards[i].cell());
            let mut rows = Vec::new();
            view.for_deadline_range(from, to, |s| rows.push((s.seq, s.record.clone())));
            rows.sort_by_key(|(seq, _)| *seq);
            out.extend(rows.into_iter().map(|(_, r)| r));
        }
        out
    }

    /// The top `k` objectives of a company by detection score, completeness
    /// breaking ties (mirrors `ObjectiveStore::top_objectives`).
    pub fn top_objectives(&mut self, company: &str, k: usize) -> Vec<ObjectiveRecord> {
        let mut records = self.by_company(company);
        records.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.completeness().cmp(&a.completeness()))
        });
        records.truncate(k);
        records
    }

    /// Objective counts per company, sorted by company name.
    pub fn counts_by_company(&mut self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for i in 0..self.shards.len() {
            let view = self.handles[i].view(self.shards[i].cell());
            view.for_each(|s| *counts.entry(s.record.company.clone()).or_default() += 1);
        }
        counts.into_iter().collect()
    }

    /// Mean completeness (fields per record) per company.
    pub fn specificity_by_company(&mut self) -> Vec<(String, f64)> {
        let mut sums: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for i in 0..self.shards.len() {
            let view = self.handles[i].view(self.shards[i].cell());
            view.for_each(|s| {
                let entry = sums.entry(s.record.company.clone()).or_default();
                entry.0 += s.record.completeness();
                entry.1 += 1;
            });
        }
        sums.into_iter()
            .map(|(company, (sum, n))| (company, sum as f64 / n.max(1) as f64))
            .collect()
    }

    /// Exports the visible snapshot as a JSON array.
    pub fn export_json(&mut self) -> String {
        codec::records_to_json(&self.records())
    }
}

/// Anything the extraction pipeline can stream upserts into. Implemented by
/// [`ObjectiveDb`] and by the legacy in-memory `ObjectiveStore`, so
/// `gs_pipeline::process_corpus` works against either.
pub trait ObjectiveSink: Sync {
    /// Upserts one extracted record; reports what happened.
    fn upsert_record(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome>;

    /// Upserts `records` in order, reporting each outcome in input order.
    /// The provided method loops [`upsert_record`](Self::upsert_record);
    /// [`ObjectiveDb`] overrides it with one group commit per shard.
    fn upsert_batch(&self, records: &[ObjectiveRecord]) -> Vec<io::Result<UpsertOutcome>> {
        records.iter().map(|record| self.upsert_record(record)).collect()
    }

    /// Live record count.
    fn record_count(&self) -> usize;
}

impl ObjectiveSink for ObjectiveDb {
    fn upsert_record(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome> {
        self.upsert(record)
    }

    fn upsert_batch(&self, records: &[ObjectiveRecord]) -> Vec<io::Result<UpsertOutcome>> {
        ObjectiveDb::upsert_batch(self, records)
    }

    fn record_count(&self) -> usize {
        self.len()
    }
}

impl ObjectiveSink for crate::ObjectiveStore {
    fn upsert_record(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome> {
        Ok(self.upsert(record).1)
    }

    fn record_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gs-db-test-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn record(
        company: &str,
        objective: &str,
        deadline: Option<&str>,
        score: f64,
    ) -> ObjectiveRecord {
        ObjectiveRecord {
            company: company.into(),
            document: "report.txt".into(),
            objective: objective.into(),
            action: Some("Reduce".into()),
            amount: None,
            qualifier: None,
            baseline: None,
            deadline: deadline.map(str::to_string),
            score,
            ..ObjectiveRecord::default()
        }
    }

    #[test]
    fn routes_by_company_and_answers_queries() {
        let db = ObjectiveDb::ephemeral(StoreConfig { shards: 4, ..StoreConfig::default() });
        for c in ["Acme", "Bcme", "Ccme"] {
            for i in 0..3 {
                let r = record(c, &format!("objective {i}"), Some("2030"), 0.5 + i as f64 * 0.1);
                assert_eq!(db.upsert(&r).unwrap(), UpsertOutcome::Inserted);
            }
        }
        assert_eq!(db.len(), 9);
        let mut reader = db.reader();
        assert_eq!(reader.len(), 9);
        assert_eq!(reader.by_company("Acme").len(), 3);
        assert_eq!(reader.by_company("Nobody").len(), 0);
        assert_eq!(reader.deadlines_between(2029, 2031).len(), 9);
        assert_eq!(reader.deadlines_between(2031, 2040).len(), 0);
        let top = reader.top_objectives("Bcme", 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        assert_eq!(
            reader.counts_by_company(),
            vec![("Acme".into(), 3), ("Bcme".into(), 3), ("Ccme".into(), 3)]
        );
    }

    #[test]
    fn reopen_restores_every_shard() {
        let dir = tmp_dir("reopen");
        let config = StoreConfig { shards: 4, ..StoreConfig::default() };
        {
            let (db, report) = ObjectiveDb::open(&dir, config).expect("open");
            assert_eq!(report.records, 0);
            for i in 0..20 {
                db.upsert(&record(&format!("Company {i}"), "objective", None, 0.5)).unwrap();
            }
        }
        let (db, report) = ObjectiveDb::open(&dir, config).expect("reopen");
        assert_eq!(report.records, 20);
        assert_eq!(report.frames(), 20);
        assert_eq!(report.torn_tails(), 0);
        assert_eq!(db.len(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_shard_count_wins_over_config() {
        let dir = tmp_dir("meta");
        {
            let (db, _) =
                ObjectiveDb::open(&dir, StoreConfig { shards: 3, ..StoreConfig::default() })
                    .expect("open");
            db.upsert(&record("Acme", "objective", None, 0.5)).unwrap();
        }
        // Reopening with a different configured count must keep 3 shards.
        let (db, _) = ObjectiveDb::open(&dir, StoreConfig { shards: 16, ..StoreConfig::default() })
            .expect("reopen");
        assert_eq!(db.shard_count(), 3);
        assert_eq!(db.reader().by_company("Acme").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_bounds_log_growth() {
        let dir = tmp_dir("autocompact");
        let config = StoreConfig { shards: 1, compact_after_ops: 10, ..StoreConfig::default() };
        let (db, _) = ObjectiveDb::open(&dir, config).expect("open");
        // One identity updated many times: the log would hold 100 ops
        // without compaction, but auto-compaction folds it back to 1 live
        // record every 10 ops.
        for i in 0..100 {
            let mut r = record("Acme", "the objective", None, 0.5);
            r.amount = Some(format!("{i}%"));
            db.upsert(&r).unwrap();
        }
        assert_eq!(db.len(), 1);
        let (db2, report) = ObjectiveDb::open(&dir, config).expect("reopen");
        assert!(report.frames() <= 10, "log must stay compacted, found {} frames", report.frames());
        assert_eq!(db2.reader().by_company("Acme")[0].amount.as_deref(), Some("99%"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commits three "Acme" records, then sends a batch whose "Acme" part
    /// hits `fault` alongside one record for a company on another shard.
    /// Returns the store, the failing batch's results and the committed
    /// "Acme" records.
    fn fail_one_group(
        dir: &Path,
        fault: crate::wal::Fault,
    ) -> (ObjectiveDb, Vec<io::Result<UpsertOutcome>>, Vec<ObjectiveRecord>) {
        let (db, _) = ObjectiveDb::open(dir, StoreConfig { shards: 4, ..StoreConfig::default() })
            .expect("open");
        let acme = |i: usize| record("Acme", &format!("objective {i}"), Some("2030"), 0.5);
        let committed: Vec<ObjectiveRecord> = (0..3).map(acme).collect();
        assert!(db.upsert_batch(&committed).iter().all(|r| r.is_ok()));
        let shard = db.shard_for("Acme");
        let other = (0..)
            .map(|i| format!("Other {i}"))
            .find(|c| !std::ptr::eq(db.shard_for(c), shard))
            .expect("a company on another shard");
        let (epoch, view) = (shard.cell().epoch(), shard.cell().load());
        shard.inject(fault);
        let mut update = acme(0);
        update.amount = Some("50%".into());
        let results =
            db.upsert_batch(&[acme(3), update, record(&other, "kept", None, 0.5), acme(4)]);
        assert_eq!(shard.cell().epoch(), epoch, "{fault:?}: the epoch must not move");
        assert!(Arc::ptr_eq(&shard.cell().load(), &view), "{fault:?}: the view must not move");
        assert_eq!(db.reader().by_company("Acme"), committed, "{fault:?}");
        assert_eq!(db.reader().by_company(&other).len(), 1, "{fault:?}: other shards commit");
        (db, results, committed)
    }

    #[test]
    fn a_failed_commit_fails_its_whole_shard_group_and_rolls_back() {
        use crate::wal::Fault;
        for fault in [Fault::ShortWrite(11), Fault::WriteError, Fault::SyncError] {
            let dir = tmp_dir(&format!("fault-{fault:?}"));
            let (db, results, mut committed) = fail_one_group(&dir, fault);
            for (i, result) in results.iter().enumerate() {
                assert_eq!(result.is_ok(), i == 2, "{fault:?}: record {i} gave {result:?}");
            }
            // The next batch commits as if the failed one never happened.
            let next = record("Acme", "objective 3", Some("2030"), 0.5);
            let outcomes = db.upsert_batch(std::slice::from_ref(&next));
            assert_eq!(outcomes[0].as_ref().ok(), Some(&UpsertOutcome::Inserted), "{fault:?}");
            committed.push(next);
            assert_eq!(db.reader().by_company("Acme"), committed, "{fault:?}");
            let live = db.reader().export_json();
            drop(db);
            let (db, report) = ObjectiveDb::open(&dir, StoreConfig::default()).expect("reopen");
            assert_eq!(report.torn_tails(), 0, "{fault:?}: {report:?}");
            assert_eq!(report.frames(), 5, "{fault:?}: 4 Acme records and the other company");
            assert_eq!(db.reader().export_json(), live, "{fault:?}: reopen recovers the commits");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_commit_that_cannot_roll_back_stops_its_shard_until_reopen() {
        let dir = tmp_dir("stuck");
        let (db, results, committed) =
            fail_one_group(&dir, crate::wal::Fault::ShortWriteNoRollback(11));
        assert!(results[0].is_err() && results[2].is_ok());
        let next = record("Acme", "objective 3", None, 0.5);
        assert!(db.upsert(&next).is_err(), "a stuck log must refuse appends");
        assert_eq!(db.reader().by_company("Acme"), committed);
        drop(db);
        let (db, report) = ObjectiveDb::open(&dir, StoreConfig::default()).expect("reopen");
        assert_eq!(report.torn_tails(), 1, "{report:?}");
        assert_eq!(db.reader().by_company("Acme"), committed);
        assert_eq!(db.upsert(&next).ok(), Some(UpsertOutcome::Inserted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_all_then_reopen_is_identical() {
        let dir = tmp_dir("compactall");
        let config = StoreConfig { shards: 4, ..StoreConfig::default() };
        let (db, _) = ObjectiveDb::open(&dir, config).expect("open");
        for i in 0..30 {
            db.upsert(&record(&format!("C{}", i % 5), &format!("obj {i}"), Some("2030"), 0.5))
                .unwrap();
        }
        let before = db.reader().export_json();
        let stats = db.compact_all().expect("compact");
        assert_eq!(stats.len(), 4);
        assert_eq!(db.reader().export_json(), before, "compaction must not change state");
        drop(db);
        let (db2, _) = ObjectiveDb::open(&dir, config).expect("reopen");
        assert_eq!(db2.reader().export_json(), before, "recovery must not change state");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
