//! The [`Store`]: one directory holding a journal and a snapshot, with
//! the `ivm.store.*` metric namespace and the recovery entry point.

use crate::journal::{Journal, Replay};
use crate::snapshot::{read_snapshot, write_snapshot, SnapshotDoc};
use crate::StoreError;
use ivm_data::codec::Persist;
use ivm_data::Update;
use ivm_obs::{Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, Namespace};
use ivm_ring::Semiring;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The journal file's name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.ivm";

/// `ivm.store.*` metric handles, attached via [`Store::observe`].
struct StoreObs {
    append_ns: Histogram,
    /// The caller's time in one commit: the write plus the wait for the
    /// sync that overlapped whatever the caller did in between.
    fsync_ns: Histogram,
    /// The device sync itself, timed on the committer thread.
    sync_ns: Histogram,
    journal_bytes: Gauge,
    snapshot_bytes: Gauge,
    records: Counter,
    commits: Counter,
    snapshots: Counter,
}

/// A durable store: the write half of one session's persistence.
///
/// Owns the journal (append/commit) and the snapshot file. Obtain one
/// fresh with [`Store::create`] (starts a new history) or back from disk
/// with [`Store::recover`].
pub struct Store {
    dir: PathBuf,
    journal: Journal,
    obs: Option<StoreObs>,
    /// Caller time spent starting the commit in flight (observed stores
    /// only); [`Store::finish_commit`] adds its wait to it.
    commit_started: Duration,
}

/// What [`Store::recover`] found on disk.
pub struct Recovered<R: Semiring> {
    /// The store, reopened for appending — torn journal tails already
    /// discarded, so the next commit resumes at the last valid record.
    pub store: Store,
    /// The newest valid snapshot, if one was ever written.
    pub snapshot: Option<SnapshotDoc<R>>,
    /// Journal records *beyond* the snapshot's epoch, in append order —
    /// the tail to replay through the ordinary batch path. Records the
    /// snapshot already consolidated (a crash can land between snapshot
    /// write and journal truncation) are filtered out here.
    pub tail: Vec<(u64, Vec<Update<R>>)>,
    /// Why journal replay stopped early, if it did.
    pub torn: Option<String>,
}

impl<R: Semiring> Recovered<R> {
    /// Updates across the whole replay tail.
    pub fn tail_updates(&self) -> usize {
        self.tail.iter().map(|(_, b)| b.len()).sum()
    }

    /// The snapshot's consolidated epoch (0 when no snapshot exists).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot.as_ref().map_or(0, |s| s.epoch)
    }
}

impl Store {
    /// Start a **new** durable history in `dir`: the directory is
    /// created, the journal truncated, and any previous snapshot
    /// removed. Use [`Store::recover`] to resume an existing history.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let snap = dir.join(crate::snapshot::SNAPSHOT_FILE);
        if snap.exists() {
            std::fs::remove_file(&snap)?;
        }
        let journal = Journal::create(dir.join(JOURNAL_FILE))?;
        Ok(Store::over(dir, journal))
    }

    fn over(dir: PathBuf, journal: Journal) -> Store {
        Store {
            dir,
            journal,
            obs: None,
            commit_started: Duration::ZERO,
        }
    }

    /// Reopen the history in `dir`: load the newest valid snapshot, read
    /// the journal tail up to the first torn/corrupt record, and position
    /// the journal to append after the valid prefix.
    ///
    /// A corrupt *snapshot* is a hard error (the journal behind it was
    /// truncated, so nothing can rebuild that state); a torn journal
    /// *tail* is expected crash debris and merely ends the tail.
    pub fn recover<R: Semiring + Persist>(
        dir: impl Into<PathBuf>,
    ) -> Result<Recovered<R>, StoreError> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(StoreError::Io(format!(
                "no durable store at {}",
                dir.display()
            )));
        }
        let snapshot = read_snapshot::<R>(&dir)?;
        let journal_path = dir.join(JOURNAL_FILE);
        let Replay {
            records,
            valid_bytes,
            torn,
        } = Journal::replay::<R>(&journal_path)?;
        let journal = if valid_bytes == 0 {
            // No journal file at all (the store crashed before its first
            // commit, or predates journaling): start one.
            Journal::create(&journal_path)?
        } else {
            Journal::open_at(&journal_path, valid_bytes)?
        };
        let snap_epoch = snapshot.as_ref().map_or(0, |s: &SnapshotDoc<R>| s.epoch);
        let tail: Vec<(u64, Vec<Update<R>>)> = records
            .into_iter()
            .filter(|(epoch, _)| *epoch > snap_epoch)
            .collect();
        Ok(Recovered {
            store: Store::over(dir, journal),
            snapshot,
            tail,
            torn,
        })
    }

    /// Publish `ivm.store.*` series into `registry`: the `append_ns`,
    /// `fsync_ns` (the caller's commit time: write plus wait) and
    /// `sync_ns` (the device sync on the committer thread) latency
    /// histograms, `journal_bytes` / `snapshot_bytes` gauges, and the
    /// `records` / `commits` / `snapshots` counters. Every series is
    /// recorded on the caller's thread. Gauges snap to the current
    /// on-disk truth immediately.
    pub fn observe(&mut self, registry: &MetricsRegistry) {
        let ns = Namespace::new("ivm").child("store");
        let obs = StoreObs {
            append_ns: ns.histogram(registry, "append_ns"),
            fsync_ns: ns.histogram(registry, "fsync_ns"),
            sync_ns: ns.histogram(registry, "sync_ns"),
            journal_bytes: ns.gauge(registry, "journal_bytes"),
            snapshot_bytes: ns.gauge(registry, "snapshot_bytes"),
            records: ns.counter(registry, "records"),
            commits: ns.counter(registry, "commits"),
            snapshots: ns.counter(registry, "snapshots"),
        };
        obs.journal_bytes.set(self.journal.committed_bytes() as i64);
        let snap = self.dir.join(crate::snapshot::SNAPSHOT_FILE);
        let snap_bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
        obs.snapshot_bytes.set(snap_bytes as i64);
        self.obs = Some(obs);
    }

    /// Buffer one epoch's batch into the journal (group commit: durable
    /// only once the next commit finishes). Refused once the journal is
    /// poisoned.
    pub fn append<R: Semiring + Persist>(
        &mut self,
        epoch: u64,
        batch: &[Update<R>],
    ) -> Result<(), StoreError> {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        self.journal.append(epoch, batch)?;
        if let (Some(o), Some(t0)) = (&self.obs, t0) {
            o.append_ns.record_duration(t0.elapsed());
            o.records.inc();
        }
        Ok(())
    }

    /// Write every buffered record and hand its `fsync` to the committer
    /// thread ([`Journal::start_commit`]); pair with
    /// [`Store::finish_commit`] before acknowledging anything it covers.
    pub fn start_commit(&mut self) -> Result<(), StoreError> {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        self.journal.start_commit()?;
        if let Some(t0) = t0 {
            self.commit_started += t0.elapsed();
        }
        Ok(())
    }

    /// Wait until the started commit is durable ([`Journal::finish_commit`]).
    pub fn finish_commit(&mut self) -> Result<(), StoreError> {
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        let (wrote, synced) = self.journal.finish_commit()?;
        let started = std::mem::take(&mut self.commit_started);
        if let (Some(o), Some(t0)) = (&self.obs, t0) {
            if wrote > 0 {
                o.fsync_ns.record_duration(started + t0.elapsed());
                o.sync_ns.record_duration(synced);
                o.commits.inc();
                o.journal_bytes.set(self.journal.committed_bytes() as i64);
            }
        }
        Ok(())
    }

    /// Flush every buffered record with one `fsync` and wait for it.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.start_commit()?;
        self.finish_commit()
    }

    /// Write `doc` atomically and truncate the journal behind it: every
    /// record the snapshot consolidated is dropped, so journal length —
    /// and with it recovery time — tracks the tail since the last
    /// snapshot, not total history. Buffered appends are committed first
    /// (they belong to epochs the snapshot covers).
    pub fn snapshot<R: Semiring + Persist>(
        &mut self,
        doc: &SnapshotDoc<R>,
    ) -> Result<u64, StoreError> {
        self.commit()?;
        let bytes = write_snapshot(&self.dir, doc)?;
        self.journal.truncate()?;
        if let Some(o) = &self.obs {
            o.snapshots.inc();
            o.snapshot_bytes.set(bytes as i64);
            o.journal_bytes.set(self.journal.committed_bytes() as i64);
        }
        Ok(bytes)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durable journal size in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.journal.committed_bytes()
    }

    /// Records buffered but not yet committed.
    pub fn pending_records(&self) -> usize {
        self.journal.pending_records()
    }
}

/// Best-effort post-mortem for a failed recovery: bump the
/// `ivm.store.recovery_failures` counter and write a flight-recorder
/// dump (the same JSON post-mortems eviction and shard failures emit),
/// so the evidence survives the process that could not start. Returns
/// the dump path when one was written.
pub fn record_recovery_failure(
    registry: &MetricsRegistry,
    detail: &str,
) -> Option<std::path::PathBuf> {
    registry.counter("ivm.store.recovery_failures").inc();
    FlightRecorder::new(registry).dump("store-recovery-failure", detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup, vars, Database, Relation, Schema};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ivm-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn upd(i: i64) -> Update<i64> {
        Update::insert(sym("st_E"), tup![i, i + 1])
    }

    /// How many syncs [`gated_sync`] has begun, and the gate each one
    /// waits at until the test opens it.
    static ENTERED: AtomicU64 = AtomicU64::new(0);
    static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

    fn gated_sync(file: &std::fs::File) -> std::io::Result<()> {
        ENTERED.fetch_add(1, Ordering::SeqCst);
        let mut open = GATE.0.lock().unwrap();
        while !*open {
            open = GATE.1.wait(open).unwrap();
        }
        *open = false;
        drop(open);
        file.sync_data()
    }

    fn failing_sync(_: &std::fs::File) -> std::io::Result<()> {
        Err(std::io::Error::other("injected sync failure"))
    }

    #[test]
    fn a_poisoned_journal_refuses_snapshots_too() {
        let dir = tmp("poisoned");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::create_with(dir.join(JOURNAL_FILE), failing_sync).unwrap();
        let mut store = Store::over(dir, journal);
        store.append(1u64, &[upd(1)]).unwrap();
        assert!(matches!(store.commit(), Err(StoreError::Io(_))));
        let doc = SnapshotDoc::<i64> {
            epoch: 1,
            query_name: "st_q".into(),
            strategy_tag: 0,
            cards: Vec::new(),
            degrees: Vec::new(),
            base: Database::new(),
            view: Relation::new(Schema::new([])),
        };
        assert!(matches!(store.snapshot(&doc), Err(StoreError::Poisoned(_))));
        assert!(matches!(
            store.append(2u64, &[upd(2)]),
            Err(StoreError::Poisoned(_))
        ));
        assert!(!store.dir().join(crate::snapshot::SNAPSHOT_FILE).exists());
    }

    #[test]
    fn sync_ns_covers_the_callers_wait() {
        let dir = tmp("overlap");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::create_with(dir.join(JOURNAL_FILE), gated_sync).unwrap();
        let mut store = Store::over(dir, journal);
        let registry = MetricsRegistry::new();
        store.observe(&registry);
        for e in 1..=3u64 {
            store.append(e, &[upd(e as i64)]).unwrap();
            store.start_commit().unwrap();
            // The sync has begun before the caller's own work does, so it
            // outlasts the caller's write plus wait by about that work.
            while ENTERED.load(Ordering::SeqCst) < e {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(5)); // the engine's turn
            *GATE.0.lock().unwrap() = true;
            GATE.1.notify_all();
            store.finish_commit().unwrap();
        }
        let m = registry.snapshot();
        let caller = m.histogram("ivm.store.fsync_ns").unwrap();
        let device = m.histogram("ivm.store.sync_ns").unwrap();
        assert_eq!((caller.count, device.count), (3, 3));
        assert_eq!(m.counter("ivm.store.commits"), 3);
        // The caller's commit time is its write plus its wait, and the
        // wait is only what the overlapped work left of the sync.
        assert!(
            device.sum_ns >= caller.sum_ns,
            "sync {} ns < caller commit {} ns",
            device.sum_ns,
            caller.sum_ns
        );
    }

    #[test]
    fn create_append_snapshot_recover() {
        let dir = tmp("lifecycle");
        let mut store = Store::create(&dir).unwrap();
        let registry = MetricsRegistry::new();
        store.observe(&registry);
        for e in 1..=3u64 {
            store.append(e, &[upd(e as i64)]).unwrap();
        }
        store.commit().unwrap();

        // Snapshot consolidates epochs 1..=3; journal resets.
        let e = sym("st_E");
        let mut base: Database<i64> = Database::new();
        base.create(e, Schema::new(vars(["st_a", "st_b"]).to_vec()));
        for i in 1..=3i64 {
            base.apply(&upd(i));
        }
        let doc = SnapshotDoc {
            epoch: 3,
            query_name: "st_q".into(),
            strategy_tag: 1,
            cards: vec![(e, 3)],
            degrees: Vec::new(),
            base,
            view: Relation::new(Schema::new([])),
        };
        store.snapshot(&doc).unwrap();
        // Two epochs after the snapshot.
        store.append(4u64, &[upd(4)]).unwrap();
        store.append(5u64, &[upd(5)]).unwrap();
        store.commit().unwrap();
        let m = registry.snapshot();
        assert_eq!(m.counter("ivm.store.records"), 5);
        assert_eq!(m.counter("ivm.store.snapshots"), 1);
        assert!(m.gauge("ivm.store.snapshot_bytes") > 0);
        drop(store);

        let rec = Store::recover::<i64>(&dir).unwrap();
        let snap = rec.snapshot.as_ref().expect("snapshot written");
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.base.size(), 3);
        assert_eq!(rec.tail.len(), 2, "only the post-snapshot epochs");
        assert_eq!(rec.tail[0].0, 4);
        assert_eq!(rec.tail_updates(), 2);
        assert!(rec.torn.is_none());
    }

    #[test]
    fn recover_filters_epochs_the_snapshot_already_holds() {
        // A crash between snapshot write and journal truncation leaves
        // consolidated records in the journal: recovery must skip them.
        let dir = tmp("filter");
        let mut store = Store::create(&dir).unwrap();
        for e in 1..=4u64 {
            store.append(e, &[upd(e as i64)]).unwrap();
        }
        store.commit().unwrap();
        let doc = SnapshotDoc::<i64> {
            epoch: 3,
            query_name: "st_q".into(),
            strategy_tag: 0,
            cards: Vec::new(),
            degrees: Vec::new(),
            base: Database::new(),
            view: Relation::new(Schema::new([])),
        };
        // Write the snapshot file directly — without truncating.
        write_snapshot(store.dir(), &doc).unwrap();
        drop(store);
        let rec = Store::recover::<i64>(&dir).unwrap();
        assert_eq!(rec.snapshot_epoch(), 3);
        assert_eq!(rec.tail.len(), 1, "epochs 1..=3 are consolidated");
        assert_eq!(rec.tail[0].0, 4);
    }

    #[test]
    fn recover_missing_dir_errors() {
        let dir = tmp("missing");
        assert!(matches!(
            Store::recover::<i64>(&dir),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn recovery_failure_postmortem_writes_a_dump() {
        let registry = MetricsRegistry::new();
        let dump = record_recovery_failure(&registry, "unit-test detail");
        assert_eq!(
            registry.snapshot().counter("ivm.store.recovery_failures"),
            1
        );
        if let Some(path) = dump {
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.contains("store-recovery-failure"), "{body}");
            let _ = std::fs::remove_file(path);
        }
    }
}
