//! Consolidated snapshots: one atomic file holding everything a session
//! needs to restart warm.
//!
//! A snapshot captures four things: the base [`Database`] (replay
//! source), the maintained view contents (so recovery can cross-check
//! the rebuilt view), the learned per-relation cardinalities, and the
//! resolved plan strategy — the last two are what let a recovered
//! session skip the blind-build phase: its plan is lowered from the
//! pre-kill statistics, so no first-data replan ever fires.
//!
//! File layout: `[8-byte magic][u64 payload length][u32 crc][payload]`,
//! written to a temp file, fsynced, then renamed over `snapshot.ivm` —
//! a crash mid-write leaves the previous snapshot untouched, so the
//! newest *valid* snapshot is always the one the file holds.

use crate::crc::crc32;
use crate::StoreError;
use ivm_data::codec::Persist;
use ivm_data::{Database, Relation, Sym, Value};
use ivm_ring::Semiring;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// First bytes of every snapshot file. The trailing digit is the format
/// version: bumped to 2 when the per-key degree sketch joined the
/// payload, so a snapshot written by an older build is refused as
/// unreadable instead of silently misdecoded.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"IVMSNAP2";

/// Magic, `u64` payload length, `u32` payload CRC.
const HEADER_LEN: usize = 20;

/// The snapshot file's name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.ivm";

/// Everything a consolidated snapshot persists.
pub struct SnapshotDoc<R: Semiring> {
    /// The last journal epoch this snapshot consolidates: recovery skips
    /// journal records at or below it (they are already baked in).
    pub epoch: u64,
    /// The session query's name — a cheap fingerprint so recovery refuses
    /// to warm-start a *different* query from this state.
    pub query_name: String,
    /// The engine family the session ran, as the session layer encodes
    /// it: 2 for the dataflow engine (single-threaded or a fleet), 7 for
    /// heavy-light, 0 for a backend with nothing to persist. Recovery
    /// reads 1 — written for a since-retired left-deep dataflow plan — as
    /// the dataflow family too.
    pub strategy_tag: u8,
    /// Every relation of `base` with its tuple count, sorted by relation
    /// name. Recovery recounts them from `base` and refuses a snapshot
    /// whose base disagrees.
    pub cards: Vec<(Sym, u64)>,
    /// The per-key first-column degree sketch of every binary relation,
    /// `(relation, [(key, degree)])` sorted by relation and key — the
    /// skew evidence behind cross-family engine selection. Recovery
    /// cross-checks it against the sketch rebuilt from `base` and warms
    /// the recovered session's learned statistics from the same base, so
    /// no family re-selection fires on replay.
    pub degrees: Vec<(Sym, Vec<(Value, u64)>)>,
    /// The full base database — the replay source for the journal tail.
    pub base: Database<R>,
    /// The maintained view at `epoch`, for recovery cross-checking.
    pub view: Relation<R>,
}

impl<R: Semiring + Persist> Persist for SnapshotDoc<R> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.query_name.encode(out);
        (self.strategy_tag as u32).encode(out);
        self.cards.encode(out);
        self.degrees.encode(out);
        self.base.encode(out);
        self.view.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(SnapshotDoc {
            epoch: u64::decode(buf)?,
            query_name: String::decode(buf)?,
            strategy_tag: u8::try_from(u32::decode(buf)?).ok()?,
            cards: Vec::decode(buf)?,
            degrees: Vec::decode(buf)?,
            base: Database::decode(buf)?,
            view: Relation::decode(buf)?,
        })
    }
}

/// Write `doc` atomically into `dir` (temp file + rename). Returns the
/// snapshot file's size in bytes.
pub fn write_snapshot<R: Semiring + Persist>(
    dir: &Path,
    doc: &SnapshotDoc<R>,
) -> Result<u64, StoreError> {
    // One buffer: the header's length and CRC slots are patched in once
    // the payload behind them is encoded.
    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    bytes.resize(HEADER_LEN, 0);
    doc.encode(&mut bytes);
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
    bytes[16..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let final_path = dir.join(SNAPSHOT_FILE);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, &final_path)?;
    // Make the rename itself durable where the platform allows it;
    // best-effort because directory fsync is not universally supported.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(bytes.len() as u64)
}

/// Read the snapshot in `dir`. `Ok(None)` when no snapshot was ever
/// written; `Err(Corrupt)` when the file exists but fails its magic,
/// CRC, or decode — recovery treats that as a hard failure (the journal
/// behind a snapshot was truncated, so there is nothing to fall back on).
pub fn read_snapshot<R: Semiring + Persist>(
    dir: &Path,
) -> Result<Option<SnapshotDoc<R>>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let corrupt = |m: &str| StoreError::Corrupt(format!("{}: {m}", path.display()));
    if bytes.len() < HEADER_LEN || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("missing snapshot magic"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[16..HEADER_LEN].try_into().unwrap());
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or_else(|| corrupt("payload length runs past the file"))?;
    if crc32(payload) != crc {
        return Err(corrupt("payload crc mismatch"));
    }
    let mut buf = payload;
    let doc = SnapshotDoc::decode(&mut buf)
        .filter(|_| buf.is_empty())
        .ok_or_else(|| corrupt("undecodable snapshot payload"))?;
    Ok(Some(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup, vars, Schema, Update};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ivm-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc() -> SnapshotDoc<i64> {
        let e = sym("snap_E");
        let mut base: Database<i64> = Database::new();
        base.create(e, Schema::new(vars(["snap_a", "snap_b"]).to_vec()));
        base.apply(&Update::insert(e, tup![1i64, 2i64]));
        base.apply(&Update::insert(e, tup![2i64, 1i64]));
        let mut view = Relation::new(Schema::new([]));
        view.apply(Tuple::empty(), &2i64);
        SnapshotDoc {
            epoch: 42,
            query_name: "snap_q".into(),
            strategy_tag: 2,
            cards: vec![(e, 2)],
            degrees: vec![(e, vec![(1i64.into(), 1), (2i64.into(), 1)])],
            base,
            view,
        }
    }
    use ivm_data::{Relation, Tuple};

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp("roundtrip");
        let bytes = write_snapshot(&dir, &doc()).unwrap();
        assert!(bytes > 20);
        let back = read_snapshot::<i64>(&dir).unwrap().expect("written");
        assert_eq!(back.epoch, 42);
        assert_eq!(back.query_name, "snap_q");
        assert_eq!(back.strategy_tag, 2);
        assert_eq!(back.cards, vec![(sym("snap_E"), 2)]);
        assert_eq!(
            back.degrees,
            vec![(sym("snap_E"), vec![(1i64.into(), 1), (2i64.into(), 1)])]
        );
        assert_eq!(back.base.size(), 2);
        assert_eq!(back.view.get(&Tuple::empty()), 2);
    }

    #[test]
    fn missing_snapshot_is_none_and_corruption_is_an_error() {
        let dir = tmp("corrupt");
        assert!(read_snapshot::<i64>(&dir).unwrap().is_none());
        write_snapshot(&dir, &doc()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot::<i64>(&dir),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmp("rewrite");
        write_snapshot(&dir, &doc()).unwrap();
        let mut d2 = doc();
        d2.epoch = 43;
        write_snapshot(&dir, &d2).unwrap();
        let back = read_snapshot::<i64>(&dir).unwrap().unwrap();
        assert_eq!(back.epoch, 43);
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
    }
}
