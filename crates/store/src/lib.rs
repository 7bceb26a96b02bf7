//! Durable sessions: an update journal, consolidated snapshots, and warm
//! recovery.
//!
//! The paper's preprocessing/update-time dichotomy makes preprocessing
//! the expensive phase IVM exists to amortize — so a maintained view that
//! evaporates on restart forfeits exactly the investment the update-time
//! guarantees protect. This crate persists a session's history so a
//! restarted process resumes *warm*:
//!
//! * [`Journal`] — an append-only, epoch-tagged log of update batches.
//!   Each record is length-prefixed and CRC-checked; appends buffer in
//!   memory and one `fsync` per commit covers every epoch appended since
//!   the last (group commit). The commit is overlapped:
//!   [`Journal::start_commit`] writes the records and hands the `fsync`
//!   to the journal's committer thread, [`Journal::finish_commit`] waits
//!   for it, and the caller works in between — a durable session
//!   maintains its engine while the device syncs, and returns the delta
//!   only once both are done. A failed write or sync *poisons* the
//!   journal: it cuts the file back to its last durable length and
//!   refuses every later write ([`StoreError::Poisoned`]), so a batch the
//!   caller was refused can never reach disk behind its back. The binary
//!   codec is [`ivm_data::codec`] — dependency-free, symbols travel by
//!   name.
//! * [`SnapshotDoc`] — a consolidated snapshot: the base [`Database`],
//!   the maintained view contents, the learned cardinalities, and the
//!   resolved plan strategy, written atomically (temp file + rename) by
//!   [`Store::snapshot`], which truncates the journal behind it.
//! * [`Store::recover`] — loads the newest valid snapshot and returns
//!   the journal tail beyond it, stopping cleanly at the first torn or
//!   corrupt record. Recovery is *replay*: the tail feeds back through
//!   the ordinary `Maintainer::apply_batch` path (the session layer
//!   does this), mirroring the delta-replay framing of collection-
//!   programming IVM — a restart is just another update stream.
//!
//! The session layer (`ivm-session`) wires this behind
//! `SessionBuilder::durable` / `Session::snapshot` /
//! `SessionBuilder::recover`; the `ivm.store.*` metric namespace
//! ([`Store::observe`]) publishes append/commit latency histograms (the
//! caller's commit time, and the device sync behind it), journal/snapshot
//! size gauges, and recovery counters.
//!
//! [`Database`]: ivm_data::Database

mod crc;
pub mod journal;
pub mod snapshot;
pub mod store;

pub use crc::crc32;
pub use journal::{Journal, Replay, JOURNAL_MAGIC};
pub use snapshot::{SnapshotDoc, SNAPSHOT_MAGIC};
pub use store::{record_recovery_failure, Recovered, Store};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The filesystem said no (stringified `io::Error` — the original is
    /// neither `Clone` nor `Eq`).
    Io(String),
    /// Bytes on disk that should have been a snapshot or journal header
    /// are not one (bad magic, CRC mismatch on the snapshot, undecodable
    /// document). Torn journal *tails* are not errors — replay stops at
    /// the last valid record instead.
    Corrupt(String),
    /// An earlier journal write or sync failed (the message says which
    /// and why); the journal refuses every write until the store is
    /// recovered from disk.
    Poisoned(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "i/o: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Poisoned(m) => write!(f, "journal poisoned by an earlier failure: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
