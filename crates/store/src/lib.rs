//! # gs-store
//!
//! The structured database that extracted sustainability-objective details
//! land in (paper §2.4, §5). It has one engine, [`ObjectiveDb`], and one
//! record type, [`ObjectiveRecord`]:
//!
//! - **Writes** are sharded by company. Each shard keeps an append-only WAL
//!   of checksummed text frames, replays it on open (truncating torn
//!   tails) and compacts on the gs-par pool. Upserts merge details per
//!   (company, objective) and are idempotent on identical content, so
//!   re-processing a report is safe. [`ObjectiveDb::upsert_batch`] commits
//!   each shard's part with one WAL write and one fsync.
//! - **Reads** go through [`StoreReader`], which loads immutable views
//!   published through an epoch/swap cell, so readers run lock-free under
//!   write load. It answers the paper's monitoring queries: per-company
//!   views, deadline windows, top-k by detection score, specificity
//!   ranking and JSON export.
//!
//! [`ObjectiveDb::open`] persists under a directory;
//! [`ObjectiveDb::ephemeral`] and [`ObjectiveDb::new`] keep the same
//! semantics in memory, for tests, examples and one-shot harness runs.

#![warn(missing_docs)]

mod codec;
mod db;
mod hash;
mod record;
mod shard;
mod view;
mod wal;

pub use codec::{
    content_hash, decode_op, decode_record, encode_op, encode_record, identity_key, record_to_json,
    records_to_json, CodecError, LogOp,
};
pub use db::{
    CompactorHandle, ObjectiveDb, ObjectiveSink, RecoveryReport, StoreConfig, StoreReader,
};
pub use hash::{crc32, fnv1a64, Fnv1a64};
pub use record::ObjectiveRecord;
pub use shard::{CompactionStats, Shard, UpsertOutcome};
pub use view::{EpochCell, Generation, ReadHandle, ShardView, StoredRecord};
pub use wal::{scan_frames, ReplayReport, SyncPolicy, Wal, WAL_MAGIC};

/// The deleted in-memory engine's name, kept only for the benchmark's golden
/// check (`perfbench/src/golden.rs`), which still builds its store by it.
/// It goes away once the benchmark calls [`ObjectiveDb::new`] itself.
pub type ObjectiveStore = ObjectiveDb;
