//! Immutable shard views and the epoch/swap publication scheme that gives
//! readers a lock-free steady state.
//!
//! ## Shape
//!
//! A [`ShardView`] is a point-in-time image of one shard, made of:
//!
//! - a **base generation**: records folded up to the last fold point, with
//!   prebuilt company and deadline-year indexes, all behind `Arc`s so a
//!   new view reuses them at pointer cost; and
//! - a small **delta**: records upserted since that fold, scanned linearly
//!   on reads (bounded by the fold threshold, so reads stay O(result +
//!   delta)).
//!
//! The writer folds the delta into a fresh base every `fold_threshold`
//! upserts, which keeps per-upsert publication cost O(delta) instead of
//! O(shard) — the same memtable/L0 economics as an LSM tree.
//!
//! ## Epoch/swap
//!
//! Views are published through an [`EpochCell`]: the writer stores the new
//! `Arc<ShardView>` under a mutex, then bumps an atomic epoch. A
//! [`ReadHandle`] caches the last view it saw together with the epoch; on
//! every read it does **one atomic load** — only when the epoch moved does
//! it take the mutex to refresh the cache. Steady-state reads therefore
//! never contend with the writer or with each other, and a reader always
//! sees a fully consistent immutable snapshot (possibly one publish old).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use gs_race::sync::{AtomicU64, Mutex, Ordering, Probe};

use crate::record::ObjectiveRecord;

/// One live record inside a shard, with its replay metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRecord {
    /// Identity key: hash of (company, objective).
    pub key: u64,
    /// First-insert order within the shard; stable across merges.
    pub seq: u64,
    /// Number of merges applied to this identity (1 = never merged).
    pub version: u32,
    /// The record content as of the latest merge.
    pub record: ObjectiveRecord,
    /// Year parsed out of the deadline field, for range queries.
    pub deadline_year: Option<i64>,
}

impl StoredRecord {
    /// Builds the stored form, deriving the deadline-year column.
    pub fn new(key: u64, seq: u64, version: u32, record: ObjectiveRecord) -> Self {
        let deadline_year = record.deadline_year();
        StoredRecord { key, seq, version, record, deadline_year }
    }
}

/// A folded, fully indexed set of records (the view's "base").
#[derive(Clone, Debug, Default)]
pub struct Generation {
    /// Records in seq order.
    pub records: Arc<Vec<StoredRecord>>,
    /// company -> indexes into `records`.
    by_company: Arc<HashMap<String, Vec<u32>>>,
    /// deadline year -> indexes into `records`.
    by_deadline: Arc<BTreeMap<i64, Vec<u32>>>,
}

impl Generation {
    /// Builds a generation (and its indexes) from seq-ordered records.
    pub fn build(records: Vec<StoredRecord>) -> Self {
        let mut by_company: HashMap<String, Vec<u32>> = HashMap::new();
        let mut by_deadline: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            by_company.entry(r.record.company.clone()).or_default().push(i as u32);
            if let Some(year) = r.deadline_year {
                by_deadline.entry(year).or_default().push(i as u32);
            }
        }
        Generation {
            records: Arc::new(records),
            by_company: Arc::new(by_company),
            by_deadline: Arc::new(by_deadline),
        }
    }
}

/// An immutable point-in-time view of one shard.
#[derive(Clone, Debug, Default)]
pub struct ShardView {
    base: Generation,
    /// Upserts since the last fold, seq-ordered, at most one per key.
    delta: Arc<Vec<StoredRecord>>,
    /// Keys present in `delta` (these supersede any base entry).
    delta_keys: Arc<HashMap<u64, u32>>,
    /// Cached live-record count.
    live: usize,
}

impl ShardView {
    /// Builds a view from a base generation and the current delta.
    pub fn new(base: Generation, delta: Vec<StoredRecord>) -> Self {
        let delta_keys: HashMap<u64, u32> =
            delta.iter().enumerate().map(|(i, r)| (r.key, i as u32)).collect();
        let superseded = base.records.iter().filter(|r| delta_keys.contains_key(&r.key)).count();
        let live = base.records.len() - superseded + delta.len();
        ShardView { base, delta: Arc::new(delta), delta_keys: Arc::new(delta_keys), live }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Size of the unfolded delta (diagnostics).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    fn base_is_live(&self, r: &StoredRecord) -> bool {
        !self.delta_keys.contains_key(&r.key)
    }

    /// Visits every live record. Order is base-seq then delta-seq; callers
    /// needing global seq order sort afterwards. The references live as
    /// long as the view, so callers may keep them.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&'a StoredRecord)) {
        for r in self.base.records.iter() {
            if self.base_is_live(r) {
                f(r);
            }
        }
        for r in self.delta.iter() {
            f(r);
        }
    }

    /// Visits every live record of one company.
    pub fn for_company<'a>(&'a self, company: &str, mut f: impl FnMut(&'a StoredRecord)) {
        if let Some(ids) = self.base.by_company.get(company) {
            for &i in ids {
                let r = &self.base.records[i as usize];
                if self.base_is_live(r) {
                    f(r);
                }
            }
        }
        for r in self.delta.iter() {
            if r.record.company == company {
                f(r);
            }
        }
    }

    /// Visits every live record whose deadline year is in `[lo, hi]` (none
    /// when `lo > hi`).
    pub fn for_deadline_range<'a>(&'a self, lo: i64, hi: i64, mut f: impl FnMut(&'a StoredRecord)) {
        if lo > hi {
            // `BTreeMap::range` panics on an inverted range.
            return;
        }
        for (_, ids) in self.base.by_deadline.range(lo..=hi) {
            for &i in ids {
                let r = &self.base.records[i as usize];
                if self.base_is_live(r) {
                    f(r);
                }
            }
        }
        for r in self.delta.iter() {
            if r.deadline_year.is_some_and(|y| lo <= y && y <= hi) {
                f(r);
            }
        }
    }

    /// Looks up one record by identity key.
    pub fn get(&self, key: u64) -> Option<&StoredRecord> {
        if let Some(&i) = self.delta_keys.get(&key) {
            return Some(&self.delta[i as usize]);
        }
        // Base lookups scan the company bucket via the delta-free path only
        // when no index exists; identity lookups on the base are rare (the
        // writer keeps its own authoritative map), so linear search over
        // the base is acceptable here.
        self.base.records.iter().find(|r| r.key == key && self.base_is_live(r))
    }
}

/// Publication cell: writers swap in new views, readers stay lock-free
/// while the epoch is unchanged.
#[derive(Debug, Default)]
pub struct EpochCell {
    epoch: AtomicU64,
    slot: Mutex<Arc<ShardView>>,
    /// Race-detector annotation on the slot hand-off: written on every
    /// publish and read on every load, both under the slot mutex. If the
    /// lock discipline around the slot is ever broken, the live detector
    /// (`GS_RACE=1`) reports these two sites as an unsynchronized
    /// write/read pair. The epoch Release/Acquire contract itself is pinned
    /// deterministically by `gs-race`'s epoch model (`models/epoch.rs`).
    payload: Probe,
}

impl EpochCell {
    /// A cell holding an empty view at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new view: store under the mutex first, then bump the
    /// epoch with `Release` so a reader that observes the new epoch also
    /// observes the new slot value.
    pub fn publish(&self, view: Arc<ShardView>) {
        {
            let mut slot = self.slot.lock();
            self.payload.write("EpochCell.slot");
            *slot = view;
        }
        // ordering: Release — publication edge. A reader that observes the
        // bumped epoch (Acquire in `epoch()`) must also observe the view
        // stored above; Relaxed here would let a lock-free fast path see
        // the new epoch with a stale slot. Must NOT be weakened.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The current epoch (one atomic load).
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bump in `publish` so
        // an observed epoch move carries the writer's slot store with it.
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current view (takes the slot mutex briefly).
    pub fn load(&self) -> Arc<ShardView> {
        let slot = self.slot.lock();
        self.payload.read("EpochCell.slot");
        slot.clone()
    }
}

/// A per-reader cache over one [`EpochCell`]: steady-state reads cost one
/// atomic load and touch no lock.
#[derive(Clone, Debug, Default)]
pub struct ReadHandle {
    cached: Arc<ShardView>,
    seen_epoch: u64,
}

impl ReadHandle {
    /// A handle that will refresh on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The freshest published view, refreshing the cache only when the
    /// epoch moved since the last call.
    pub fn view(&mut self, cell: &EpochCell) -> &Arc<ShardView> {
        let epoch = cell.epoch();
        if epoch != self.seen_epoch {
            self.cached = cell.load();
            self.seen_epoch = epoch;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(company: &str, objective: &str, deadline: Option<&str>) -> ObjectiveRecord {
        ObjectiveRecord {
            company: company.into(),
            document: "doc".into(),
            objective: objective.into(),
            action: None,
            amount: None,
            qualifier: None,
            baseline: None,
            deadline: deadline.map(str::to_string),
            score: 0.5,
            ..ObjectiveRecord::default()
        }
    }

    fn stored(
        key: u64,
        seq: u64,
        company: &str,
        objective: &str,
        dl: Option<&str>,
    ) -> StoredRecord {
        StoredRecord::new(key, seq, 1, record(company, objective, dl))
    }

    #[test]
    fn delta_supersedes_base_and_len_accounts_for_it() {
        let base = Generation::build(vec![
            stored(1, 0, "C1", "a", Some("2030")),
            stored(2, 1, "C2", "b", None),
        ]);
        let mut newer = stored(1, 0, "C1", "a", Some("2031"));
        newer.version = 2;
        let view = ShardView::new(base, vec![newer.clone(), stored(3, 2, "C1", "c", None)]);
        assert_eq!(view.len(), 3);
        let mut seen = Vec::new();
        view.for_company("C1", |r| seen.push((r.key, r.version)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 2), (3, 1)]);
        assert_eq!(view.get(1).map(|r| r.version), Some(2));
        assert_eq!(view.get(2).map(|r| r.version), Some(1));
        assert_eq!(view.get(9), None);
    }

    #[test]
    fn deadline_range_spans_base_and_delta() {
        let base = Generation::build(vec![stored(1, 0, "C1", "a", Some("2030"))]);
        let view = ShardView::new(base, vec![stored(2, 1, "C1", "b", Some("2026"))]);
        let mut years = Vec::new();
        view.for_deadline_range(2025, 2035, |r| years.push(r.deadline_year.unwrap()));
        years.sort_unstable();
        assert_eq!(years, vec![2026, 2030]);
        let mut none = Vec::new();
        view.for_deadline_range(2040, 2050, |r| none.push(r.key));
        view.for_deadline_range(2035, 2025, |r| none.push(r.key));
        assert!(none.is_empty());
    }

    #[test]
    fn epoch_cell_refreshes_handles_only_on_publish() {
        let cell = EpochCell::new();
        let mut handle = ReadHandle::new();
        assert_eq!(handle.view(&cell).len(), 0);
        let before = cell.epoch();
        cell.publish(Arc::new(ShardView::new(
            Generation::build(vec![stored(1, 0, "C1", "a", None)]),
            Vec::new(),
        )));
        assert_eq!(cell.epoch(), before + 1);
        assert_eq!(handle.view(&cell).len(), 1, "handle sees the published view");
        // A second call with no publish reuses the cache.
        assert_eq!(handle.view(&cell).len(), 1);
    }
}
