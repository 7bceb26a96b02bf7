//! The append-only, epoch-tagged update journal.
//!
//! File layout: an 8-byte magic header, then records back to back. Each
//! record is
//!
//! ```text
//! [u32 payload length][u32 crc32(payload)][payload]
//! payload = u64 epoch ++ Vec<Update<R>> (ivm_data::codec encoding)
//! ```
//!
//! Appends buffer in memory; a commit writes every buffered record and
//! issues **one** `fsync` for all of them — group commit. The commit is
//! overlapped: [`Journal::start_commit`] writes the records (a page-cache
//! copy, on the caller's thread) and posts the sync to the journal's
//! committer thread, the caller does other work — a session maintains its
//! engine — and [`Journal::finish_commit`] blocks until the sync reports
//! back. [`Journal::commit`] is the two back to back. A crash loses at
//! most what no finished commit covered (both the journal and the
//! downstream view miss those epochs consistently); it can also tear the
//! last record mid-write, which is why [`Journal::replay`] stops at the
//! first record whose length prefix runs past the file or whose CRC
//! disagrees, reporting the valid prefix length so the writer can resume
//! exactly there.
//!
//! A failed write, sync or truncation **poisons** the journal: the file is
//! cut back to its last durable length (best effort), the buffer is
//! dropped, and every later append, commit or truncation returns
//! [`StoreError::Poisoned`]. Nothing the caller was refused can reach the
//! file later; reopen the journal (recover the store) to continue.

use crate::crc::crc32;
use crate::StoreError;
use ivm_data::codec::Persist;
use ivm_data::Update;
use ivm_ring::Semiring;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First bytes of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"IVMJRNL1";

/// The device sync a committer thread runs. Crate-private so tests can
/// build a journal whose sync fails or stalls.
pub(crate) type SyncFn = fn(&File) -> std::io::Result<()>;

fn sync_data(file: &File) -> std::io::Result<()> {
    file.sync_data()
}

/// The write half: an open journal file, the group-commit buffer, and the
/// committer thread that syncs it.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Encoded records appended since the last commit started.
    pending: Vec<u8>,
    pending_records: usize,
    /// Durable file length (header + records a finished commit covered).
    committed_bytes: u64,
    /// Bytes written behind `committed_bytes` whose sync is in flight.
    syncing: u64,
    /// Why the journal refuses all further writes, once one failed.
    poisoned: Option<String>,
    committer: Committer,
}

/// What the caller and the committer thread share: sync requests one
/// way, completions the other.
#[derive(Default)]
struct Mailbox {
    /// Syncs the caller has posted.
    posted: u64,
    /// Posted syncs a completed sync covers.
    synced: u64,
    /// Device time of the syncs completed since the caller last took it.
    sync_time: Duration,
    /// A sync failed; the caller poisons the journal when it takes this.
    failed: Option<std::io::Error>,
    /// Set on drop: exit once nothing is posted.
    stop: bool,
    /// Set by the committer as it exits, whatever the reason, so a
    /// caller never waits on a thread that is gone.
    exited: bool,
}

type Slot = (Mutex<Mailbox>, Condvar);

/// Every update under this lock is a single field store, so the mailbox
/// is valid even if a holder panicked.
fn lock(slot: &Slot) -> MutexGuard<'_, Mailbox> {
    slot.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread per journal that runs the device syncs, woken through a
/// mutex + condvar slot rather than a channel, so its loop allocates
/// nothing (only `std`'s thread start-up does, ~3 KB). Dropping the
/// handle joins it.
struct Committer {
    slot: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
}

impl Committer {
    fn spawn(file: &File, sync: SyncFn) -> Result<Committer, StoreError> {
        let file = file.try_clone()?;
        let slot: Arc<Slot> = Arc::default();
        let shared = Arc::clone(&slot);
        let thread = std::thread::Builder::new()
            .name("ivm-journal-sync".into())
            .stack_size(64 * 1024)
            .spawn(move || commit_loop(&file, sync, &shared))?;
        Ok(Committer {
            slot,
            thread: Some(thread),
        })
    }

    fn post(&self) {
        lock(&self.slot).posted += 1;
        self.slot.1.notify_all();
    }

    /// Block until every posted sync completed; the device time they took.
    fn wait(&self) -> std::io::Result<Duration> {
        let mut mb = lock(&self.slot);
        loop {
            if let Some(e) = mb.failed.take() {
                return Err(e);
            }
            if mb.synced == mb.posted {
                return Ok(std::mem::take(&mut mb.sync_time));
            }
            if mb.exited {
                return Err(std::io::Error::other(
                    "the journal's committer thread exited",
                ));
            }
            mb = self.slot.1.wait(mb).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Committer {
    fn drop(&mut self) {
        lock(&self.slot).stop = true;
        self.slot.1.notify_all();
        // A committer that panicked already failed its waiter (`exited`),
        // which poisoned the journal; the join only reaps the thread.
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The committer thread's body: sync whenever a request is posted, report
/// the outcome, exit on stop.
fn commit_loop(file: &File, sync: SyncFn, slot: &Slot) {
    struct Exit<'a>(&'a Slot);
    impl Drop for Exit<'_> {
        fn drop(&mut self) {
            lock(self.0).exited = true;
            self.0 .1.notify_all();
        }
    }
    let _exit = Exit(slot);
    let mut mb = lock(slot);
    loop {
        while mb.synced == mb.posted && !mb.stop {
            mb = slot.1.wait(mb).unwrap_or_else(PoisonError::into_inner);
        }
        if mb.synced == mb.posted {
            return;
        }
        let target = mb.posted;
        drop(mb);
        let t0 = Instant::now();
        let outcome = sync(file);
        let took = t0.elapsed();
        mb = lock(slot);
        mb.synced = target;
        match outcome {
            Ok(()) => mb.sync_time += took,
            Err(e) => mb.failed = Some(e),
        }
        slot.1.notify_all();
    }
}

/// What [`Journal::replay`] read back: every decodable record in order,
/// and where the valid prefix ends.
pub struct Replay<R> {
    /// `(epoch, batch)` per record, in append order.
    pub records: Vec<(u64, Vec<Update<R>>)>,
    /// File offset one past the last valid record — the resume point for
    /// [`Journal::open_at`] (equals the file length when nothing tore).
    pub valid_bytes: u64,
    /// Why replay stopped early, if it did (torn length prefix, CRC
    /// mismatch, undecodable payload). `None` for a clean tail.
    pub torn: Option<String>,
}

impl<R> Replay<R> {
    /// Updates across all replayed records.
    pub fn update_count(&self) -> usize {
        self.records.iter().map(|(_, b)| b.len()).sum()
    }
}

impl Journal {
    /// Create (or truncate to empty) the journal at `path` and write the
    /// header. This starts a **new** durable history.
    pub fn create(path: impl Into<PathBuf>) -> Result<Journal, StoreError> {
        Journal::create_with(path.into(), sync_data)
    }

    pub(crate) fn create_with(path: PathBuf, sync: SyncFn) -> Result<Journal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(JOURNAL_MAGIC)?;
        file.sync_data()?;
        Journal::with_committer(path, file, JOURNAL_MAGIC.len() as u64, sync)
    }

    /// Open an existing journal for appending, discarding everything past
    /// `valid_bytes` (the torn tail [`Journal::replay`] reported). The
    /// next committed record lands exactly after the last valid one.
    pub fn open_at(path: impl Into<PathBuf>, valid_bytes: u64) -> Result<Journal, StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let valid = valid_bytes.max(JOURNAL_MAGIC.len() as u64);
        file.set_len(valid)?;
        file.seek(SeekFrom::Start(valid))?;
        Journal::with_committer(path, file, valid, sync_data)
    }

    fn with_committer(
        path: PathBuf,
        file: File,
        committed_bytes: u64,
        sync: SyncFn,
    ) -> Result<Journal, StoreError> {
        Ok(Journal {
            committer: Committer::spawn(&file, sync)?,
            path,
            file,
            pending: Vec::new(),
            pending_records: 0,
            committed_bytes,
            syncing: 0,
            poisoned: None,
        })
    }

    /// Buffer one epoch's batch. Nothing touches the disk until the next
    /// commit starts; many epochs may share one commit. Refused once the
    /// journal is poisoned.
    pub fn append<R: Semiring + Persist>(
        &mut self,
        epoch: u64,
        batch: &[Update<R>],
    ) -> Result<(), StoreError> {
        self.check_usable()?;
        let mut payload = Vec::with_capacity(16 + batch.len() * 16);
        epoch.encode(&mut payload);
        (batch.len() as u32).encode(&mut payload);
        for u in batch {
            u.encode(&mut payload);
        }
        (payload.len() as u32).encode(&mut self.pending);
        crc32(&payload).encode(&mut self.pending);
        self.pending.extend_from_slice(&payload);
        self.pending_records += 1;
        Ok(())
    }

    /// Write every buffered record and post one sync for them to the
    /// committer thread; returns without waiting for the device.
    /// [`Journal::finish_commit`] waits. Starting again before finishing
    /// is allowed: the next finish waits for both. A no-op on an empty
    /// buffer.
    pub fn start_commit(&mut self) -> Result<(), StoreError> {
        self.check_usable()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.file.write_all(&self.pending) {
            return Err(self.poison(e));
        }
        self.syncing += self.pending.len() as u64;
        self.pending.clear();
        self.pending_records = 0;
        self.committer.post();
        Ok(())
    }

    /// Block until every sync [`Journal::start_commit`] posted has
    /// completed. Returns the bytes those commits made durable and the
    /// device time their syncs took (`(0, 0)` when none was in flight).
    pub fn finish_commit(&mut self) -> Result<(usize, Duration), StoreError> {
        self.check_usable()?;
        if self.syncing == 0 {
            return Ok((0, Duration::ZERO));
        }
        match self.committer.wait() {
            Ok(took) => {
                let bytes = std::mem::take(&mut self.syncing);
                self.committed_bytes += bytes;
                Ok((bytes as usize, took))
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Write every buffered record and make them durable with a single
    /// `fsync`: [`Journal::start_commit`] then [`Journal::finish_commit`].
    /// Returns the number of bytes made durable (0 when nothing was
    /// pending — no fsync is issued for an empty buffer).
    pub fn commit(&mut self) -> Result<usize, StoreError> {
        self.start_commit()?;
        self.finish_commit().map(|(bytes, _)| bytes)
    }

    /// Drop every committed record (keeping the header) — called after a
    /// snapshot consolidated them. A commit in flight is finished first;
    /// appends not yet committed survive: they describe epochs *after*
    /// the snapshot.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.finish_commit()?;
        self.committed_bytes = JOURNAL_MAGIC.len() as u64;
        let cut = (|| {
            self.file.set_len(self.committed_bytes)?;
            self.file.seek(SeekFrom::Start(self.committed_bytes))?;
            self.file.sync_data()
        })();
        cut.map_err(|e| self.poison(e))
    }

    fn check_usable(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(why) => Err(StoreError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// A write, sync or truncation failed: cut the file back to its last
    /// durable length (best effort — the records behind it were never
    /// acknowledged), drop everything buffered, and refuse from now on.
    fn poison(&mut self, cause: std::io::Error) -> StoreError {
        let _ = self.file.set_len(self.committed_bytes);
        let _ = self.file.seek(SeekFrom::Start(self.committed_bytes));
        self.pending.clear();
        self.pending_records = 0;
        self.syncing = 0;
        let why = format!("{}: {cause}", self.path.display());
        self.poisoned = Some(why.clone());
        StoreError::Io(why)
    }

    /// Durable journal size in bytes (header included).
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// Records buffered but not yet committed.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// The file this journal writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every valid record back from `path`, stopping cleanly at the
    /// first torn or corrupt one. A missing file replays as empty (a
    /// store that never committed). A present file with a wrong header is
    /// an error — that is not a journal.
    pub fn replay<R: Semiring + Persist>(path: &Path) -> Result<Replay<R>, StoreError> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Replay {
                    records: Vec::new(),
                    valid_bytes: 0,
                    torn: None,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the journal magic",
                path.display()
            )));
        }
        let mut records = Vec::new();
        let mut offset = JOURNAL_MAGIC.len();
        let mut torn = None;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < 8 {
                torn = Some(format!("torn record header at offset {offset}"));
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            if rest.len() < 8 + len {
                torn = Some(format!(
                    "torn record at offset {offset}: length {len} runs past the file"
                ));
                break;
            }
            let payload = &rest[8..8 + len];
            if crc32(payload) != crc {
                torn = Some(format!("crc mismatch at offset {offset}"));
                break;
            }
            let mut buf = payload;
            let decoded = (|| {
                let epoch = u64::decode(&mut buf)?;
                let n = u32::decode(&mut buf)? as usize;
                if n > buf.len() {
                    return None;
                }
                let mut batch = Vec::with_capacity(n);
                for _ in 0..n {
                    batch.push(Update::<R>::decode(&mut buf)?);
                }
                buf.is_empty().then_some((epoch, batch))
            })();
            match decoded {
                Some(rec) => records.push(rec),
                None => {
                    // The CRC held but the payload is not ours (e.g. a
                    // future codec version): same clean stop as a tear.
                    torn = Some(format!("undecodable record payload at offset {offset}"));
                    break;
                }
            }
            offset += 8 + len;
        }
        Ok(Replay {
            records,
            valid_bytes: offset as u64,
            torn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ivm-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.ivm")
    }

    fn batch(i: i64) -> Vec<Update<i64>> {
        vec![
            Update::insert(sym("jt_R"), tup![i, i + 1]),
            Update::with_payload(sym("jt_R"), tup![i, i], -1),
        ]
    }

    #[test]
    fn append_commit_replay_round_trips() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        for e in 0..5u64 {
            j.append(e, &batch(e as i64)).unwrap();
        }
        assert_eq!(j.pending_records(), 5);
        let written = j.commit().unwrap();
        assert!(written > 0);
        assert_eq!(j.pending_records(), 0);

        let replay = Journal::replay::<i64>(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.valid_bytes, j.committed_bytes());
        for (e, (epoch, b)) in replay.records.iter().enumerate() {
            assert_eq!(*epoch, e as u64);
            assert_eq!(b, &batch(e as i64));
        }
    }

    #[test]
    fn uncommitted_appends_are_not_durable() {
        let path = tmp("uncommitted");
        let mut j = Journal::create(&path).unwrap();
        j.append(0, &batch(0)).unwrap();
        j.commit().unwrap();
        j.append(1, &batch(1)).unwrap(); // never committed
        let replay = Journal::replay::<i64>(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "only the committed epoch");
        assert!(replay.torn.is_none());
    }

    #[test]
    fn truncate_resets_to_header_and_appends_resume() {
        let path = tmp("truncate");
        let mut j = Journal::create(&path).unwrap();
        j.append(0, &batch(0)).unwrap();
        j.commit().unwrap();
        j.truncate().unwrap();
        assert_eq!(j.committed_bytes(), JOURNAL_MAGIC.len() as u64);
        j.append(7, &batch(7)).unwrap();
        j.commit().unwrap();
        let replay = Journal::replay::<i64>(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].0, 7);
    }

    #[test]
    fn open_at_discards_the_torn_tail() {
        let path = tmp("openat");
        let mut j = Journal::create(&path).unwrap();
        j.append(0, &batch(0)).unwrap();
        j.commit().unwrap();
        let valid = j.committed_bytes();
        drop(j);
        // Simulate a tear: garbage after the valid prefix.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 5]).unwrap();
        drop(f);
        let replay = Journal::replay::<i64>(&path).unwrap();
        assert_eq!(replay.valid_bytes, valid);
        assert!(replay.torn.is_some());
        let mut j = Journal::open_at(&path, replay.valid_bytes).unwrap();
        j.append(1, &batch(1)).unwrap();
        j.commit().unwrap();
        let replay = Journal::replay::<i64>(&path).unwrap();
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn missing_file_replays_empty_but_bad_magic_errors() {
        let path = tmp("magic");
        let missing = path.with_file_name("nope.ivm");
        let replay = Journal::replay::<i64>(&missing).unwrap();
        assert!(replay.records.is_empty() && replay.torn.is_none());
        std::fs::write(&path, b"NOTMAGIC....").unwrap();
        assert!(matches!(
            Journal::replay::<i64>(&path),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn started_commits_are_durable_once_finished() {
        let path = tmp("overlap");
        let mut j = Journal::create(&path).unwrap();
        j.append(1, &batch(1)).unwrap();
        j.start_commit().unwrap();
        j.append(2, &batch(2)).unwrap();
        j.start_commit().unwrap();
        let header = JOURNAL_MAGIC.len() as u64;
        assert_eq!(j.committed_bytes(), header, "nothing durable before finish");
        let (bytes, _) = j.finish_commit().unwrap();
        assert_eq!(j.committed_bytes(), header + bytes as u64);
        assert_eq!(j.finish_commit().unwrap(), (0, Duration::ZERO));
        // A commit still in flight when the journal drops is joined, and
        // its records are on file.
        j.append(3, &batch(3)).unwrap();
        j.start_commit().unwrap();
        drop(j);
        let replay = Journal::replay::<i64>(&path).unwrap();
        let epochs: Vec<u64> = replay.records.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, [1, 2, 3]);
    }

    /// The second sync a journal runs fails.
    fn fail_second_sync(_: &File) -> std::io::Result<()> {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        match CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
            0 => Ok(()),
            _ => Err(std::io::Error::other("injected sync failure")),
        }
    }

    #[test]
    fn a_failed_sync_poisons_and_never_rejournals_the_refused_record() {
        let path = tmp("poison");
        let mut j = Journal::create_with(path.clone(), fail_second_sync).unwrap();
        j.append(1, &batch(1)).unwrap();
        j.commit().unwrap();
        let durable = j.committed_bytes();
        j.append(2, &batch(2)).unwrap();
        let err = j.commit().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            durable,
            "the refused record is cut back off the file"
        );
        assert!(matches!(
            j.append(3, &batch(3)),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(j.commit(), Err(StoreError::Poisoned(_))));
        assert!(matches!(j.truncate(), Err(StoreError::Poisoned(_))));
        drop(j);
        let replay = Journal::replay::<i64>(&path).unwrap();
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.records, [(1, batch(1))]);
    }

    fn panicking_sync(_: &File) -> std::io::Result<()> {
        panic!("injected committer panic")
    }

    #[test]
    fn a_dead_committer_is_an_error_not_a_hang() {
        let path = tmp("dead");
        let mut j = Journal::create_with(path, panicking_sync).unwrap();
        j.append(1, &batch(1)).unwrap();
        assert!(j.commit().unwrap_err().to_string().contains("exited"));
        assert!(matches!(j.commit(), Err(StoreError::Poisoned(_))));
    }
}
