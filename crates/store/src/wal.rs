//! The append-only write-ahead log: length-prefixed, CRC-checksummed text
//! frames in a plain file.
//!
//! ## Format
//!
//! ```text
//! gs-wal v1\n
//! r <len> <crc32-hex>\n<payload bytes>\n
//! r <len> <crc32-hex>\n<payload bytes>\n
//! ...
//! ```
//!
//! `len` is the payload's byte length and the CRC covers exactly the
//! payload. Because every frame is verified on replay, a crash mid-append
//! leaves at most one *torn* frame at the tail: replay stops at the first
//! frame that is short, unparsable, or checksum-mismatched, reports how
//! many clean bytes precede it, and [`Wal::open`] truncates the file back
//! to that boundary so the log is append-ready again. Everything before
//! the torn frame is untouched — recovery is never all-or-nothing.
//!
//! ## Durability and group commit
//!
//! [`Wal::append_batch`] is the one commit path: it frames every payload
//! of a batch (one frame per record, the format above), issues one
//! `write` for all of them and, under [`SyncPolicy::Always`], one `fsync`.
//! A batch is acknowledged only after that `fsync` returns. A crash
//! mid-batch leaves a frame-prefix of it, which replay keeps up to the
//! first torn frame. A failed `write` or `fsync` is rolled back: the file
//! is truncated to its last committed length before the error returns, so
//! a failed batch can neither strand later records behind a partial frame
//! nor come back on restart. If that truncation fails too, the log refuses
//! further appends until it is reopened.
//!
//! [`SyncPolicy`] decides whether a batch is fsync'd: `Always` (the
//! default and the crash-test setting) or `OsOnly` (no explicit sync
//! except at [`Wal::sync`]/compaction). Batch append and fsync latencies
//! land in the `store.wal.append_s` / `store.wal.fsync_s` histograms;
//! `store.wal.appends` counts frames and `store.wal.fsyncs` syncs.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::hash::crc32;

/// First line of every WAL and snapshot file.
pub const WAL_MAGIC: &str = "gs-wal v1";

/// When the log issues `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync every batch before acknowledging it: maximal durability, the
    /// crash-safety tests run under this policy.
    Always,
    /// Never sync on append; the OS flushes on its own schedule and the
    /// store still syncs explicitly at compaction and close.
    OsOnly,
}

/// A failure the unit tests inject into the next [`Wal::append_batch`]
/// (the first four) or the next [`Wal::rewrite`] (the last two).
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Only the first `n` bytes of the batch reach the file, then `write`
    /// errors.
    ShortWrite(usize),
    /// `write` errors before any byte lands.
    WriteError,
    /// Every byte lands, then `fsync` errors.
    SyncError,
    /// A short write of `n` bytes whose rollback truncation fails too.
    ShortWriteNoRollback(usize),
    /// The rename lands, then the directory `fsync` errors.
    DirSyncError,
    /// The rename lands, then reopening the new log for append errors.
    ReopenError,
}

/// What replay found in a log file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Clean frames decoded.
    pub frames: usize,
    /// Bytes covered by clean frames (including the magic line).
    pub clean_bytes: u64,
    /// Bytes discarded after the last clean frame (torn tail, if any).
    pub torn_bytes: u64,
    /// Whether a torn/corrupt tail was found and discarded.
    pub torn_tail: bool,
}

/// An open, append-ready write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of the magic line plus every committed frame.
    len: u64,
    /// Whether bytes were written since the last `fsync`.
    unsynced: bool,
    /// `fsync`s issued since open.
    syncs: u64,
    /// Set when a failure left the log unfit for appends: a failed batch
    /// that could not be truncated away (the file may end in a partial
    /// frame), or a compaction that failed after its rename (the handle
    /// may be the replaced, unlinked file, or the rename may not be
    /// durable). Cleared only by a successful [`Wal::rewrite`] or a reopen.
    stuck: bool,
    policy: SyncPolicy,
    #[cfg(test)]
    fault: Option<Fault>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("policy", &self.policy)
            .finish()
    }
}

/// Reads and verifies every frame in `bytes`, stopping at the first torn or
/// corrupt frame. Returns the payloads and the replay accounting.
pub fn scan_frames(bytes: &[u8]) -> (Vec<String>, ReplayReport) {
    let mut report = ReplayReport::default();
    let mut payloads = Vec::new();
    let magic_line = format!("{WAL_MAGIC}\n");
    if !bytes.starts_with(magic_line.as_bytes()) {
        // A file without the magic is treated as fully torn (e.g. a crash
        // during initial creation left a partial first line).
        report.torn_tail = !bytes.is_empty();
        report.torn_bytes = bytes.len() as u64;
        return (payloads, report);
    }
    let mut pos = magic_line.len();
    report.clean_bytes = pos as u64;
    loop {
        if pos == bytes.len() {
            break; // clean EOF
        }
        let Some(frame) = parse_frame(&bytes[pos..]) else {
            report.torn_tail = true;
            report.torn_bytes = (bytes.len() - pos) as u64;
            break;
        };
        let (payload, frame_len) = frame;
        payloads.push(payload);
        pos += frame_len;
        report.frames += 1;
        report.clean_bytes = pos as u64;
    }
    (payloads, report)
}

/// Parses one frame at the start of `bytes`; `None` if it is incomplete,
/// malformed, or fails its checksum.
fn parse_frame(bytes: &[u8]) -> Option<(String, usize)> {
    let header_end = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_end]).ok()?;
    let rest = header.strip_prefix("r ")?;
    let (len_s, crc_s) = rest.split_once(' ')?;
    let len: usize = len_s.parse().ok()?;
    let want_crc = u32::from_str_radix(crc_s, 16).ok()?;
    let payload_start = header_end + 1;
    let payload_end = payload_start.checked_add(len)?;
    // The frame's trailing newline must also be present — a payload cut
    // exactly at its length is still torn.
    if payload_end + 1 > bytes.len() || bytes[payload_end] != b'\n' {
        return None;
    }
    let payload = &bytes[payload_start..payload_end];
    if crc32(payload) != want_crc {
        return None;
    }
    let payload = std::str::from_utf8(payload).ok()?;
    Some((payload.to_string(), payload_end + 1))
}

/// Encodes one frame (header line + payload + newline) into `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &str) {
    let bytes = payload.as_bytes();
    // Writing into a Vec cannot fail.
    let _ = writeln!(out, "r {} {:08x}", bytes.len(), crc32(bytes));
    out.extend_from_slice(bytes);
    out.push(b'\n');
}

impl Wal {
    /// Opens (or creates) the log at `path`, replays every clean frame, and
    /// truncates any torn tail so the log is append-ready. Returns the
    /// replayed payloads alongside the handle.
    pub fn open(path: &Path, policy: SyncPolicy) -> io::Result<(Wal, Vec<String>, ReplayReport)> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let started = Instant::now();
        let (payloads, mut report) = scan_frames(&bytes);
        if bytes.is_empty() {
            // Fresh log: write the magic line.
            let mut file = OpenOptions::new().create(true).append(true).open(path)?;
            file.write_all(format!("{WAL_MAGIC}\n").as_bytes())?;
            file.sync_data()?;
            let len = (WAL_MAGIC.len() + 1) as u64;
            report.clean_bytes = len;
            return Ok((Wal::new(file, path, len, policy), payloads, report));
        }
        if report.torn_tail {
            if report.clean_bytes == 0 {
                // Not even the magic line survived: start the file over.
                let mut file = File::create(path)?;
                file.write_all(format!("{WAL_MAGIC}\n").as_bytes())?;
                file.sync_data()?;
                report.clean_bytes = (WAL_MAGIC.len() + 1) as u64;
                let len = report.clean_bytes;
                gs_obs::counter("store.wal.torn_tails", 1);
                return Ok((Wal::new(file, path, len, policy), payloads, report));
            }
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(report.clean_bytes)?;
            file.sync_data()?;
            gs_obs::counter("store.wal.torn_tails", 1);
        }
        if gs_obs::enabled() {
            gs_obs::observe("store.wal.replay_s", started.elapsed().as_secs_f64());
        }
        let file = OpenOptions::new().append(true).open(path)?;
        let len = report.clean_bytes;
        Ok((Wal::new(file, path, len, policy), payloads, report))
    }

    fn new(file: File, path: &Path, len: u64, policy: SyncPolicy) -> Wal {
        Wal {
            file,
            path: path.to_path_buf(),
            len,
            unsynced: false,
            syncs: 0,
            stuck: false,
            policy,
            #[cfg(test)]
            fault: None,
        }
    }

    /// Appends one payload: a batch of one.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        self.append_batch(&[payload])
    }

    /// Commits `payloads` as consecutive checksummed frames with one
    /// `write` and, under [`SyncPolicy::Always`], one `fsync`. On `Ok` every
    /// frame is in the log; on `Err` none is: the file was truncated back
    /// to its last committed length. If that truncation failed too, this
    /// and every later call returns an error until the log is reopened.
    pub fn append_batch<S: AsRef<str>>(&mut self, payloads: &[S]) -> io::Result<()> {
        if self.stuck {
            return Err(io::Error::other(format!(
                "{}: an earlier append or compaction failed part way; \
                 compact or reopen the log",
                self.path.display()
            )));
        }
        if payloads.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let mut frames =
            Vec::with_capacity(payloads.iter().map(|p| p.as_ref().len() + 24).sum::<usize>());
        for payload in payloads {
            frame_into(&mut frames, payload.as_ref());
        }
        if let Err(e) = self.write_durably(&frames) {
            if self.truncate_to_committed().is_err() {
                self.stuck = true;
            }
            return Err(e);
        }
        self.len += frames.len() as u64;
        if gs_obs::enabled() {
            gs_obs::counter("store.wal.appends", payloads.len() as u64);
            gs_obs::counter("store.wal.bytes", frames.len() as u64);
            gs_obs::observe("store.wal.append_s", started.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Writes `frames` at the end of the log and syncs them per the policy.
    fn write_durably(&mut self, frames: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(fault) = self.fault {
            let landed = match fault {
                Fault::ShortWrite(n) | Fault::ShortWriteNoRollback(n) => Some(n.min(frames.len())),
                Fault::WriteError => Some(0),
                Fault::SyncError => Some(frames.len()),
                // Compaction faults wait for the next `rewrite`.
                Fault::DirSyncError | Fault::ReopenError => None,
            };
            if let Some(landed) = landed {
                self.file.write_all(&frames[..landed])?;
                return Err(io::Error::other(format!("injected {fault:?}")));
            }
        }
        self.file.write_all(frames)?;
        self.unsynced = true;
        match self.policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::OsOnly => Ok(()),
        }
    }

    /// Cuts off whatever a failed batch left behind the committed length.
    fn truncate_to_committed(&mut self) -> io::Result<()> {
        #[cfg(test)]
        if let Some(Fault::ShortWriteNoRollback(_)) = self.fault.take() {
            return Err(io::Error::other("injected rollback failure"));
        }
        self.file.set_len(self.len)?;
        // A handle not in append mode would otherwise write past the cut
        // and leave a hole.
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.sync_data()
    }

    /// Makes the next [`append_batch`](Self::append_batch) or
    /// [`rewrite`](Self::rewrite) fail with `fault`.
    #[cfg(test)]
    pub(crate) fn inject(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    /// Fails with `fault` when it is the injected one, consuming it.
    #[cfg(test)]
    fn injected(&mut self, fault: Fault) -> io::Result<()> {
        if self.fault != Some(fault) {
            return Ok(());
        }
        self.fault = None;
        Err(io::Error::other(format!("injected {fault:?}")))
    }

    /// Forces an `fsync` of everything appended so far.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.unsynced {
            return Ok(());
        }
        let started = Instant::now();
        self.file.sync_data()?;
        self.unsynced = false;
        self.syncs += 1;
        if gs_obs::enabled() {
            gs_obs::counter("store.wal.fsyncs", 1);
            gs_obs::observe("store.wal.fsync_s", started.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// `fsync`s issued since the log was opened.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Current log size in bytes (magic + committed frames).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The file path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the log's contents with `payloads` (compaction):
    /// writes a fresh file alongside, fsyncs it, renames it over the old
    /// log, re-opens it for append and fsyncs the directory so the rename
    /// is durable. A failure before the rename leaves the old log in use.
    /// A failure after it leaves the log refusing appends until a later
    /// `rewrite` succeeds or the log is reopened.
    pub fn rewrite(&mut self, payloads: impl Iterator<Item = String>) -> io::Result<()> {
        let tmp_path = self.path.with_extension("log.tmp");
        let mut content: Vec<u8> = format!("{WAL_MAGIC}\n").into_bytes();
        for payload in payloads {
            frame_into(&mut content, &payload);
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&content)?;
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // `self.file` is now the replaced, unlinked file: an append to it
        // would be acknowledged and then lost on restart. Until the new
        // log is open and its directory entry durable, refuse appends.
        self.stuck = true;
        #[cfg(test)]
        self.injected(Fault::ReopenError)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = content.len() as u64;
        self.unsynced = false;
        self.sync_dir()?;
        // The fresh file holds only committed frames, so a log stuck behind
        // an unrolled-back batch is append-ready again.
        self.stuck = false;
        Ok(())
    }

    /// Fsyncs the directory holding the log, making a rename in it durable.
    fn sync_dir(&mut self) -> io::Result<()> {
        #[cfg(test)]
        self.injected(Fault::DirSyncError)?;
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("gs-wal-test-{tag}-{}", std::process::id()))
            .join(format!("{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("shard.log");
        let payloads = ["first", "second with\ttab-escaped text", "third"];
        {
            let (mut wal, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("open");
            assert!(seen.is_empty());
            assert!(!report.torn_tail);
            for p in payloads {
                wal.append(p).expect("append");
            }
        }
        let (_, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
        assert_eq!(seen, payloads);
        assert_eq!(report.frames, 3);
        assert!(!report.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_at_every_byte_is_truncated_to_the_clean_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("shard.log");
        {
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            for i in 0..5 {
                wal.append(&format!("record number {i}")).expect("append");
            }
        }
        let full = std::fs::read(&path).expect("read");
        let magic_len = WAL_MAGIC.len() + 1;
        // Truncate the file at every byte boundary inside the frame stream
        // and verify replay recovers exactly the clean prefix.
        for cut in magic_len..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write cut");
            let (_, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("recover");
            for (i, p) in seen.iter().enumerate() {
                assert_eq!(p, &format!("record number {i}"), "cut at {cut}");
            }
            assert_eq!(report.torn_tail, cut != report.clean_bytes as usize, "cut at {cut}");
            // The recovered log must be append-ready: add one more frame and
            // replay it back.
            {
                let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
                wal.append("appended after recovery").expect("append");
            }
            let (_, seen2, _) = Wal::open(&path, SyncPolicy::Always).expect("verify");
            assert_eq!(seen2.len(), seen.len() + 1, "cut at {cut}");
            assert_eq!(seen2.last().map(String::as_str), Some("appended after recovery"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_mid_file_frame_discards_the_suffix() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("shard.log");
        {
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            for i in 0..4 {
                wal.append(&format!("payload {i}")).expect("append");
            }
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one payload byte in the middle of the file.
        let target = bytes.len() / 2;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let (_, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("recover");
        assert!(report.torn_tail);
        assert!(seen.len() < 4, "corruption must drop the suffix");
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p, &format!("payload {i}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_recovers_to_empty() {
        let dir = tmp_dir("garbage");
        let path = dir.join("shard.log");
        std::fs::write(&path, b"not a wal at all").expect("write");
        let (mut wal, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("open");
        assert!(seen.is_empty());
        assert!(report.torn_tail);
        wal.append("fresh start").expect("append");
        let (_, seen2, _) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
        assert_eq!(seen2, ["fresh start"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopens the log at `path` and returns its payloads, asserting the
    /// replay found nothing torn.
    fn replayed_clean(path: &Path) -> Vec<String> {
        let (_, seen, report) = Wal::open(path, SyncPolicy::Always).expect("reopen");
        assert!(!report.torn_tail, "log must replay clean: {report:?}");
        seen
    }

    #[test]
    fn one_batch_writes_the_bytes_of_its_appends_with_one_fsync() {
        let dir = tmp_dir("batch");
        let payloads = ["first", "second", "third"];
        let (single, batched) = (dir.join("single.log"), dir.join("batched.log"));
        let (mut wal, _, _) = Wal::open(&single, SyncPolicy::Always).expect("open");
        for p in payloads {
            wal.append(p).expect("append");
        }
        assert_eq!(wal.syncs(), 3);
        let (mut wal, _, _) = Wal::open(&batched, SyncPolicy::Always).expect("open");
        wal.append_batch(&payloads).expect("batch");
        assert_eq!(wal.syncs(), 1);
        assert_eq!(std::fs::read(&single).unwrap(), std::fs::read(&batched).unwrap());
        // OsOnly defers the fsync to an explicit sync.
        let (mut wal, _, _) = Wal::open(&dir.join("os.log"), SyncPolicy::OsOnly).expect("open");
        wal.append_batch(&payloads).expect("batch");
        assert_eq!(wal.syncs(), 0);
        wal.sync().expect("sync");
        assert_eq!(wal.syncs(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_batch_is_rolled_back_and_later_commits_survive_reopen() {
        let dir = tmp_dir("rollback");
        for fault in [Fault::ShortWrite(7), Fault::WriteError, Fault::SyncError] {
            let path = dir.join(format!("{fault:?}.log"));
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            wal.append("committed").expect("append");
            let len = wal.len_bytes();
            wal.inject(fault);
            assert!(wal.append_batch(&["lost 1", "lost 2"]).is_err(), "{fault:?}");
            assert_eq!(wal.len_bytes(), len, "{fault:?}");
            let on_disk = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(on_disk, len, "{fault:?}: the file must be cut back");
            wal.append_batch(&["after 1", "after 2"]).expect("the next batch commits");
            drop(wal);
            assert_eq!(replayed_clean(&path), ["committed", "after 1", "after 2"], "{fault:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_that_cannot_be_rolled_back_stops_the_log_until_reopen() {
        let dir = tmp_dir("stuck");
        let path = dir.join("shard.log");
        let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
        wal.append("committed").expect("append");
        wal.inject(Fault::ShortWriteNoRollback(9));
        assert!(wal.append_batch(&["lost"]).is_err());
        // The partial frame is still in the file: nothing may land behind it.
        assert!(wal.append("refused").is_err());
        drop(wal);
        let (mut wal, seen, report) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
        assert_eq!(seen, ["committed"]);
        assert!(report.torn_tail && report.torn_bytes == 9, "{report:?}");
        wal.append("after reopen").expect("reopened log appends");
        drop(wal);
        assert_eq!(replayed_clean(&path), ["committed", "after reopen"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compaction_that_fails_after_its_rename_refuses_appends_until_a_retry() {
        let dir = tmp_dir("rewrite-fault");
        for fault in [Fault::DirSyncError, Fault::ReopenError] {
            let path = dir.join(format!("{fault:?}.log"));
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            wal.append_batch(&["op 1", "op 2"]).expect("append");
            wal.inject(fault);
            let live = || ["live".to_string()].into_iter();
            assert!(wal.rewrite(live()).is_err(), "{fault:?}: the failure must surface");
            assert!(wal.append("refused").is_err(), "{fault:?}: appends must be refused");
            wal.rewrite(live()).expect("the retry succeeds");
            wal.append("after").expect("appends work again");
            drop(wal);
            assert_eq!(replayed_clean(&path), ["live", "after"], "{fault:?}");

            // Reopening instead of retrying also makes the log append-ready.
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            wal.inject(fault);
            assert!(wal.rewrite(live()).is_err(), "{fault:?}");
            drop(wal);
            let (mut wal, seen, _) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
            assert_eq!(seen, ["live"], "{fault:?}: the rename landed");
            wal.append("after reopen").expect("a reopened log appends");
            drop(wal);
            assert_eq!(replayed_clean(&path), ["live", "after reopen"], "{fault:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("shard.log");
        {
            let (mut wal, _, _) = Wal::open(&path, SyncPolicy::Always).expect("open");
            for i in 0..10 {
                wal.append(&format!("op {i}")).expect("append");
            }
            let before = wal.len_bytes();
            wal.rewrite(["live 1".to_string(), "live 2".to_string()].into_iter()).expect("rewrite");
            assert!(wal.len_bytes() < before);
            wal.append("post-compaction").expect("append");
        }
        let (_, seen, _) = Wal::open(&path, SyncPolicy::Always).expect("reopen");
        assert_eq!(seen, ["live 1", "live 2", "post-compaction"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
