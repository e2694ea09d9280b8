//! One shard of the objective database: the single-writer upsert path, its
//! write-ahead log, and the epoch cell its readers watch.
//!
//! A shard owns every record whose company hashes into it. Writes arrive as
//! batches ([`Shard::upsert_batch`]; [`Shard::upsert`] is a batch of one),
//! and the writer holds the shard mutex for the whole group commit:
//!
//! 1. **Stage.** Each record in turn resolves its identity key, merges
//!    fields into the newest state of that identity (committed, or staged
//!    earlier in the same batch), and short-circuits on an unchanged content
//!    hash (no log append — this is what makes re-processing a report
//!    idempotent). These are exactly the decisions N sequential upserts
//!    would make.
//! 2. **Log.** The Inserted/Updated records become one frame each, written
//!    with one `write` and one `fsync` ([`Wal::append_batch`]), so the log
//!    bytes equal those of the sequential upserts.
//! 3. **Apply.** Only after the fsync are the records installed, the delta
//!    folded if due, and one fresh immutable [`ShardView`] published.
//!
//! A batch is acknowledged only after its fsync. A crash mid-batch leaves a
//! frame-prefix of it on disk. Readers never take the shard mutex; they go
//! through the [`EpochCell`] and see all or none of a batch. A failed write
//! or fsync is rolled back in the log and leaves memory, the epoch and the
//! view untouched, so every record of the batch fails together.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::codec::{self, LogOp};
use crate::objective_store::ObjectiveRecord;
use crate::view::{EpochCell, Generation, ShardView, StoredRecord};
use crate::wal::{ReplayReport, SyncPolicy, Wal};

/// What an upsert did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpsertOutcome {
    /// No record existed under this (company, objective); one was created.
    Inserted,
    /// A record existed and the merge changed it; its version advanced.
    Updated,
    /// A record existed and the merge produced identical content; nothing
    /// was logged or republished.
    Unchanged,
}

/// Writer-side state, behind the shard mutex.
struct ShardInner {
    /// The durable log; `None` for ephemeral (in-memory) stores.
    wal: Option<Wal>,
    /// Authoritative live records in seq order.
    records: Vec<StoredRecord>,
    /// identity key -> index into `records`.
    by_key: HashMap<u64, u32>,
    /// Next first-insert sequence number.
    next_seq: u64,
    /// The folded base the current views share.
    base: Generation,
    /// Records upserted since the last fold (at most one entry per key).
    delta: Vec<StoredRecord>,
    /// identity key -> index into `delta`.
    delta_keys: HashMap<u64, u32>,
    /// Upserts logged since the last compaction (drives auto-compaction).
    ops_since_compact: u64,
}

/// One shard: a mutex-guarded writer and a lock-free reader cell.
pub struct Shard {
    id: usize,
    fold_threshold: usize,
    inner: Mutex<ShardInner>,
    cell: EpochCell,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").field("id", &self.id).finish()
    }
}

/// Normalizes the optional detail fields (`Some("")` -> `None`) so merge,
/// content hashing, and the codec agree on one canonical form.
fn normalize(record: &ObjectiveRecord) -> ObjectiveRecord {
    let mut r = record.clone();
    for field in [
        &mut r.action,
        &mut r.amount,
        &mut r.qualifier,
        &mut r.baseline,
        &mut r.deadline,
        &mut r.section_id,
        &mut r.section_path,
        &mut r.block_kind,
        &mut r.source_range,
    ] {
        if field.as_deref() == Some("") {
            *field = None;
        }
    }
    r
}

/// Merges an incoming record into an existing one: identity fields stay,
/// provenance (document, score) follows the newest observation, and each
/// detail or ingestion-provenance field keeps its old value unless the
/// incoming record actually carries one — so a re-run through the flat
/// (provenance-less) path never erases where an objective was first found.
fn merge(existing: &ObjectiveRecord, incoming: &ObjectiveRecord) -> ObjectiveRecord {
    let mut merged = existing.clone();
    merged.document = incoming.document.clone();
    merged.score = incoming.score;
    for (slot, new) in [
        (&mut merged.action, &incoming.action),
        (&mut merged.amount, &incoming.amount),
        (&mut merged.qualifier, &incoming.qualifier),
        (&mut merged.baseline, &incoming.baseline),
        (&mut merged.deadline, &incoming.deadline),
        (&mut merged.section_id, &incoming.section_id),
        (&mut merged.section_path, &incoming.section_path),
        (&mut merged.block_kind, &incoming.block_kind),
        (&mut merged.source_range, &incoming.source_range),
    ] {
        if new.is_some() {
            *slot = new.clone();
        }
    }
    merged
}

/// A batch staged against the committed state but not yet applied.
struct Staged {
    /// What each input record did, in input order.
    outcomes: Vec<UpsertOutcome>,
    /// Newest state of every identity the batch inserts or updates.
    records: HashMap<u64, StoredRecord>,
    /// Keys of `records` in first-touch order (the install order).
    order: Vec<u64>,
    /// One encoded op per Inserted/Updated outcome, in input order; left
    /// empty for an ephemeral shard.
    frames: Vec<String>,
    /// `next_seq` once the batch is applied.
    next_seq: u64,
}

impl ShardInner {
    /// Resolves the identity key for (company, objective) against the
    /// committed records overlaid with `staged`, linear-probing past hash
    /// collisions between *different* identities. Returns the key and the
    /// identity's newest state, if any. Deterministic given insertion
    /// order, so WAL replay resolves identically.
    fn resolve<'a>(
        &'a self,
        company: &str,
        objective: &str,
        staged: &'a HashMap<u64, StoredRecord>,
    ) -> (u64, Option<&'a StoredRecord>) {
        let mut key = codec::identity_key(company, objective);
        loop {
            let occupant = staged
                .get(&key)
                .or_else(|| self.by_key.get(&key).map(|&i| &self.records[i as usize]));
            match occupant {
                None => return (key, None),
                Some(r) if r.record.company == company && r.record.objective == objective => {
                    return (key, Some(r));
                }
                Some(_) => key = key.wrapping_add(1),
            }
        }
    }

    /// Makes the decisions sequential upserts of `incoming` would make,
    /// without touching the committed state. `log` encodes the frames.
    fn stage(&self, incoming: Vec<ObjectiveRecord>, log: bool) -> Staged {
        let mut staged = Staged {
            outcomes: Vec::with_capacity(incoming.len()),
            records: HashMap::new(),
            order: Vec::new(),
            frames: Vec::new(),
            next_seq: self.next_seq,
        };
        for record in incoming {
            let (key, prior) = self.resolve(&record.company, &record.objective, &staged.records);
            let (stored, outcome) = match prior {
                None => {
                    let seq = staged.next_seq;
                    staged.next_seq += 1;
                    (StoredRecord::new(key, seq, 1, record), UpsertOutcome::Inserted)
                }
                Some(prior) => {
                    let merged = merge(&prior.record, &record);
                    // Hash-based comparison, not PartialEq: a NaN score must
                    // still compare equal to itself or every re-run would
                    // bump the version and dirty the log forever.
                    if codec::content_hash(&merged) == codec::content_hash(&prior.record) {
                        staged.outcomes.push(UpsertOutcome::Unchanged);
                        continue;
                    }
                    let (seq, version) = (prior.seq, prior.version + 1);
                    (StoredRecord::new(key, seq, version, merged), UpsertOutcome::Updated)
                }
            };
            staged.outcomes.push(outcome);
            if log {
                staged.frames.push(codec::encode_upsert(
                    stored.seq,
                    stored.version,
                    &stored.record,
                ));
            }
            if staged.records.insert(key, stored).is_none() {
                staged.order.push(key);
            }
        }
        staged
    }

    /// Puts `stored` into the authoritative records (not the delta).
    fn put(&mut self, stored: StoredRecord) {
        match self.by_key.get(&stored.key) {
            Some(&i) => self.records[i as usize] = stored,
            None => {
                self.by_key.insert(stored.key, self.records.len() as u32);
                self.records.push(stored);
            }
        }
    }

    /// Installs `stored` into the authoritative state and the pending delta.
    fn install(&mut self, stored: StoredRecord) {
        self.put(stored.clone());
        match self.delta_keys.get(&stored.key) {
            Some(&i) => self.delta[i as usize] = stored,
            None => {
                self.delta_keys.insert(stored.key, self.delta.len() as u32);
                self.delta.push(stored);
            }
        }
    }

    /// Applies one replayed log operation (no logging, no publishing).
    fn apply_replayed(&mut self, op: LogOp) {
        let LogOp::Upsert { seq, version, record } = op;
        let record = normalize(&record);
        let (key, _) = self.resolve(&record.company, &record.objective, &HashMap::new());
        self.put(StoredRecord::new(key, seq, version, record));
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Folds the delta into a fresh base generation.
    fn fold(&mut self) {
        let mut records = self.records.clone();
        records.sort_by_key(|r| r.seq);
        self.base = Generation::build(records);
        self.delta.clear();
        self.delta_keys.clear();
    }

    /// The view this state should publish.
    fn make_view(&self) -> ShardView {
        ShardView::new(self.base.clone(), self.delta.clone())
    }
}

impl Shard {
    /// Opens a shard backed by the log at `path`, replaying it (and
    /// truncating any torn tail). `None` path means ephemeral: same
    /// semantics, no durability.
    pub fn open(
        id: usize,
        path: Option<&Path>,
        policy: SyncPolicy,
        fold_threshold: usize,
    ) -> io::Result<(Shard, ReplayReport)> {
        let mut inner = ShardInner {
            wal: None,
            records: Vec::new(),
            by_key: HashMap::new(),
            next_seq: 0,
            base: Generation::default(),
            delta: Vec::new(),
            delta_keys: HashMap::new(),
            ops_since_compact: 0,
        };
        let mut report = ReplayReport::default();
        if let Some(path) = path {
            let (wal, payloads, rep) = Wal::open(path, policy)?;
            report = rep;
            for payload in &payloads {
                match codec::decode_op(payload) {
                    Ok(op) => inner.apply_replayed(op),
                    Err(e) => {
                        // A CRC-clean frame with an undecodable payload means
                        // a writer bug or manual edit, not a crash; surface it
                        // rather than silently dropping data.
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: {e}", path.display()),
                        ));
                    }
                }
            }
            inner.wal = Some(wal);
        }
        inner.fold();
        let shard = Shard {
            id,
            fold_threshold: fold_threshold.max(1),
            inner: Mutex::new(inner),
            cell: EpochCell::new(),
        };
        {
            let inner = shard.lock();
            shard.cell.publish(Arc::new(inner.make_view()));
        }
        Ok((shard, report))
    }

    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// This shard's index within the database.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The cell readers subscribe to.
    pub fn cell(&self) -> &EpochCell {
        &self.cell
    }

    /// Upserts one record: insert when new, field-wise merge when the
    /// (company, objective) identity already exists, and a no-op (not even a
    /// log append) when the merge result is content-identical. A batch of
    /// one.
    pub fn upsert(&self, record: &ObjectiveRecord) -> io::Result<UpsertOutcome> {
        self.upsert_batch(&[record]).map(|outcomes| outcomes[0])
    }

    /// Group-commits `records` in order: the same outcomes, log bytes and
    /// final state as upserting them one by one, for one log write, one
    /// fsync and one view publish. Outcomes come back in input order. On
    /// error nothing of the batch is applied, logged or published.
    pub fn upsert_batch(&self, records: &[&ObjectiveRecord]) -> io::Result<Vec<UpsertOutcome>> {
        let incoming: Vec<ObjectiveRecord> = records.iter().map(|r| normalize(r)).collect();
        let mut inner = self.lock();
        let staged = inner.stage(incoming, inner.wal.is_some());
        let ops = staged.outcomes.iter().filter(|&&o| o != UpsertOutcome::Unchanged).count();
        if ops == 0 {
            return Ok(staged.outcomes);
        }
        if let Some(wal) = inner.wal.as_mut() {
            wal.append_batch(&staged.frames)?;
        }
        let Staged { outcomes, mut records, order, next_seq, .. } = staged;
        for key in order {
            let stored = records.remove(&key).expect("staged key");
            inner.install(stored);
        }
        inner.next_seq = next_seq;
        inner.ops_since_compact += ops as u64;
        if inner.delta.len() >= self.fold_threshold {
            inner.fold();
        }
        self.cell.publish(Arc::new(inner.make_view()));
        Ok(outcomes)
    }

    /// Forces any unsynced appends to disk.
    pub fn sync(&self) -> io::Result<()> {
        match self.lock().wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Rewrites the log to exactly the live records (one op each, in seq
    /// order), folds, and republishes. The log shrinks to its snapshot form;
    /// recovery after this replays one op per record.
    pub fn compact(&self) -> io::Result<CompactionStats> {
        let mut inner = self.lock();
        let before = inner.wal.as_ref().map_or(0, Wal::len_bytes);
        let ops_folded = inner.ops_since_compact;
        let mut live = inner.records.clone();
        live.sort_by_key(|r| r.seq);
        if let Some(wal) = inner.wal.as_mut() {
            wal.rewrite(live.iter().map(|r| codec::encode_upsert(r.seq, r.version, &r.record)))?;
        }
        inner.ops_since_compact = 0;
        inner.fold();
        self.cell.publish(Arc::new(inner.make_view()));
        let after = inner.wal.as_ref().map_or(0, Wal::len_bytes);
        Ok(CompactionStats { shard: self.id, bytes_before: before, bytes_after: after, ops_folded })
    }

    /// Number of upserts logged since the last compaction.
    pub fn ops_since_compact(&self) -> u64 {
        self.lock().ops_since_compact
    }

    /// Live record count (writer-side authoritative).
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current log size in bytes (0 for ephemeral shards).
    pub fn wal_bytes(&self) -> u64 {
        self.lock().wal.as_ref().map_or(0, Wal::len_bytes)
    }

    /// Log `fsync`s since open (0 for ephemeral shards).
    pub fn wal_syncs(&self) -> u64 {
        self.lock().wal.as_ref().map_or(0, Wal::syncs)
    }

    /// Makes this shard's next log commit fail with `fault`.
    #[cfg(test)]
    pub(crate) fn inject(&self, fault: crate::wal::Fault) {
        self.lock().wal.as_mut().expect("a persistent shard").inject(fault);
    }
}

/// What one shard compaction accomplished.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionStats {
    /// Shard index.
    pub shard: usize,
    /// Log bytes before the rewrite.
    pub bytes_before: u64,
    /// Log bytes after the rewrite.
    pub bytes_after: u64,
    /// Upserts folded away since the previous compaction.
    pub ops_folded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gs-shard-test-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn record(company: &str, objective: &str) -> ObjectiveRecord {
        ObjectiveRecord {
            company: company.into(),
            document: "doc-a".into(),
            objective: objective.into(),
            action: Some("Cut".into()),
            amount: None,
            qualifier: None,
            baseline: None,
            deadline: Some("2030".into()),
            score: 0.75,
            ..ObjectiveRecord::default()
        }
    }

    #[test]
    fn provenance_merges_some_wins_and_survives_flat_rerun() {
        let (shard, _) = Shard::open(0, None, SyncPolicy::Always, 4).expect("open");
        let ingested = record("Acme", "Cut emissions 50% by 2030").with_provenance(
            "00c0ffee00c0ffee",
            "Report > Climate > Targets",
            "list_item",
            (120, 156),
        );
        assert_eq!(shard.upsert(&ingested).unwrap(), UpsertOutcome::Inserted);
        // A flat (provenance-less) re-run of the same objective must not
        // erase where it was first found.
        let flat = record("Acme", "Cut emissions 50% by 2030");
        assert_eq!(shard.upsert(&flat).unwrap(), UpsertOutcome::Unchanged);
        // A re-ingest that moved the objective updates the provenance.
        let moved = record("Acme", "Cut emissions 50% by 2030").with_provenance(
            "00c0ffee00c0ffee",
            "Report > Climate > Targets",
            "list_item",
            (130, 166),
        );
        assert_eq!(shard.upsert(&moved).unwrap(), UpsertOutcome::Updated);
        let view = shard.cell().load();
        let mut got = None;
        view.for_company("Acme", |s| got = Some(s.record.clone()));
        let got = got.expect("record");
        assert_eq!(got.section_path.as_deref(), Some("Report > Climate > Targets"));
        assert_eq!(got.source_range.as_deref(), Some("130..166"));
    }

    #[test]
    fn repeat_upsert_is_unchanged_and_merge_fills_fields() {
        let (shard, _) = Shard::open(0, None, SyncPolicy::Always, 4).expect("open");
        let r = record("Acme", "Cut emissions 50% by 2030");
        assert_eq!(shard.upsert(&r).unwrap(), UpsertOutcome::Inserted);
        assert_eq!(shard.upsert(&r).unwrap(), UpsertOutcome::Unchanged);
        // New detail arrives from a re-run: amount filled, action kept.
        let mut richer = r.clone();
        richer.action = None;
        richer.amount = Some("50%".into());
        assert_eq!(shard.upsert(&richer).unwrap(), UpsertOutcome::Updated);
        assert_eq!(shard.upsert(&richer).unwrap(), UpsertOutcome::Unchanged);
        let view = shard.cell().load();
        assert_eq!(view.len(), 1);
        let mut got = None;
        view.for_company("Acme", |s| got = Some(s.clone()));
        let got = got.expect("record");
        assert_eq!(got.version, 2);
        assert_eq!(got.record.action.as_deref(), Some("Cut"));
        assert_eq!(got.record.amount.as_deref(), Some("50%"));
    }

    #[test]
    fn nan_scores_do_not_defeat_idempotency() {
        let (shard, _) = Shard::open(0, None, SyncPolicy::Always, 4).expect("open");
        let mut r = record("Acme", "objective");
        r.score = f64::NAN;
        assert_eq!(shard.upsert(&r).unwrap(), UpsertOutcome::Inserted);
        assert_eq!(shard.upsert(&r).unwrap(), UpsertOutcome::Unchanged);
    }

    #[test]
    fn replay_restores_seq_version_and_content() {
        let dir = tmp_dir("replay");
        let path = dir.join("shard-0.log");
        {
            let (shard, _) = Shard::open(0, Some(&path), SyncPolicy::Always, 4).expect("open");
            shard.upsert(&record("Acme", "obj-1")).unwrap();
            shard.upsert(&record("Bcme", "obj-2")).unwrap();
            let mut updated = record("Acme", "obj-1");
            updated.amount = Some("50%".into());
            shard.upsert(&updated).unwrap();
        }
        let (shard, report) = Shard::open(0, Some(&path), SyncPolicy::Always, 4).expect("reopen");
        assert_eq!(report.frames, 3);
        assert_eq!(shard.len(), 2);
        let view = shard.cell().load();
        let mut seen = Vec::new();
        view.for_each(|s| seen.push((s.seq, s.version, s.record.objective.clone())));
        seen.sort();
        assert_eq!(seen[0], (0, 2, "obj-1".to_string()));
        assert_eq!(seen[1], (1, 1, "obj-2".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let dir = tmp_dir("compact");
        let path = dir.join("shard-0.log");
        let (shard, _) = Shard::open(0, Some(&path), SyncPolicy::Always, 4).expect("open");
        for i in 0..20 {
            let mut r = record("Acme", "the one objective");
            r.amount = Some(format!("{i}%"));
            shard.upsert(&r).unwrap();
        }
        let stats = shard.compact().expect("compact");
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(stats.ops_folded, 20);
        let (shard2, report) = Shard::open(0, Some(&path), SyncPolicy::Always, 4).expect("reopen");
        assert_eq!(report.frames, 1, "one live record, one op after compaction");
        assert_eq!(shard2.len(), 1);
        let view = shard2.cell().load();
        let mut got = None;
        view.for_company("Acme", |s| got = Some(s.clone()));
        let got = got.expect("record");
        assert_eq!(got.version, 20);
        assert_eq!(got.record.amount.as_deref(), Some("19%"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_makes_sequential_decisions_and_publishes_once() {
        let (shard, _) = Shard::open(0, None, SyncPolicy::Always, 2).expect("open");
        let first = record("Acme", "obj-1");
        let mut richer = first.clone();
        richer.amount = Some("50%".into());
        let mut moved = first.clone();
        moved.document = "doc-b".into();
        let batch = [&first, &richer, &richer, &record("Acme", "obj-2"), &first, &moved];
        let epoch = shard.cell().epoch();
        let outcomes = shard.upsert_batch(&batch).expect("commit");
        use UpsertOutcome::*;
        assert_eq!(outcomes, [Inserted, Updated, Unchanged, Inserted, Unchanged, Updated]);
        assert_eq!(shard.cell().epoch(), epoch + 1, "one publish per batch");
        let view = shard.cell().load();
        assert_eq!(view.len(), 2);
        let mut got = Vec::new();
        view.for_each(|s| got.push((s.seq, s.version, s.record.amount.clone())));
        got.sort();
        // A flat re-run keeps the merged amount; only the document moved.
        assert_eq!(got, [(0, 3, Some("50%".into())), (1, 1, None)]);
        // An all-Unchanged batch logs and publishes nothing.
        let repeat = [&moved, &record("Acme", "obj-2")];
        assert_eq!(shard.upsert_batch(&repeat).expect("commit"), [Unchanged, Unchanged]);
        assert_eq!(shard.cell().epoch(), epoch + 1);
    }

    #[test]
    fn fold_threshold_bounds_the_delta() {
        let (shard, _) = Shard::open(0, None, SyncPolicy::Always, 8).expect("open");
        for i in 0..100 {
            shard.upsert(&record("Acme", &format!("objective {i}"))).unwrap();
        }
        let view = shard.cell().load();
        assert_eq!(view.len(), 100);
        assert!(view.delta_len() < 8, "delta {} must stay under threshold", view.delta_len());
    }
}
