//! Checksummed session snapshots — the eviction spill format.
//!
//! A session's analyzer state is a deterministic function of the event
//! sequence fed so far. A table with a snapshot directory therefore keeps
//! each session **event-sourced** — it logs every event it feeds — and the
//! snapshot stores that arrival-order log (as an embedded `onoff-store`
//! blob) plus the parse counters that live outside the log; restore
//! replays the log through a fresh analyzer. Restored state is
//! bitwise-equivalent to never having been evicted *by construction* —
//! there is no hand-written state serialization to drift from the
//! analyzer internals. A table without a snapshot directory never spills,
//! so its sessions keep no log.
//!
//! # Format (version [`SNAPSHOT_VERSION`])
//!
//! ```text
//! "OSNP" | version u8 | session id u64 LE
//! meta length u32 LE | meta JSON (SessionMeta)
//! onoff-store blob (to the trailer)
//! checksum u64 LE — onoff-store's four-lane mix over everything
//!                   after the magic, before this trailer
//! ```
//!
//! # Corruption contract
//!
//! Reading is total: any mutation of the file is caught by the trailer
//! checksum (single-bit flips are guaranteed by the store's checksum
//! tests) or by the store blob's own internal checksums, and surfaces as
//! a typed [`SnapshotError`] — never a panic, never silently-wrong
//! events. The engine quarantines a session whose snapshot fails to load;
//! it does not guess.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use onoff_detect::channel::Merge;
use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::trace::TraceEvent;
use onoff_store::{checksum, encode_events, StoreReader};
use serde::{Deserialize, Serialize};

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"OSNP";

/// On-disk snapshot format version; bump on any layout change.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Session state that lives outside the event log: the text-parse
/// counters accumulated across the session's `TextEvents` ingests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionMeta {
    /// Text records observed (`parsed + skipped`).
    pub records: usize,
    /// Text records parsed into events.
    pub parsed: usize,
    /// Text records dropped as malformed.
    pub skipped: usize,
}

impl Merge for SessionMeta {
    fn merge(&mut self, other: SessionMeta) {
        self.records += other.records;
        self.parsed += other.parsed;
        self.skipped += other.skipped;
    }
}

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The owning session id.
    pub sid: u64,
    /// Parse counters at spill time.
    pub meta: SessionMeta,
    /// The session's full arrival-order event log.
    pub events: Vec<TraceEvent>,
}

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (missing file, permissions, short read).
    Io(String),
    /// Shorter than the fixed header + trailer.
    TooShort,
    /// Not a snapshot file.
    BadMagic,
    /// Written by a different format version.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The trailer checksum does not match the bytes — the file was
    /// corrupted after writing.
    ChecksumMismatch,
    /// The embedded store blob or meta JSON failed to decode despite a
    /// matching trailer (truncated write, or an internal store fault).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::TooShort => write!(f, "snapshot shorter than header + trailer"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(e) => write!(f, "snapshot corrupt: {e}"),
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e.to_string())
    }
}

/// The snapshot file name for a session.
pub fn snapshot_path(dir: &Path, sid: u64) -> PathBuf {
    dir.join(format!("session-{sid:016x}.osnp"))
}

/// Encodes a snapshot image in memory.
pub fn encode_snapshot(sid: u64, meta: &SessionMeta, events: &[TraceEvent]) -> Vec<u8> {
    let meta_json = serde_json::to_string(meta).expect("meta serializes");
    let blob = encode_events(events);
    let mut out = Vec::with_capacity(4 + 1 + 8 + 4 + meta_json.len() + blob.len() + 8);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&sid.to_le_bytes());
    out.extend_from_slice(&(meta_json.len() as u32).to_le_bytes());
    out.extend_from_slice(meta_json.as_bytes());
    out.extend_from_slice(&blob);
    let sum = checksum(&out[4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes a snapshot image.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < 4 + 1 + 8 + 4 + 8 {
        return Err(SnapshotError::TooShort);
    }
    if &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = bytes[4];
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let body = &bytes[4..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if checksum(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let sid = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let meta_len = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes")) as usize;
    let meta_end = 17usize
        .checked_add(meta_len)
        .filter(|&end| end <= bytes.len() - 8)
        .ok_or(SnapshotError::TooShort)?;
    let meta_json = std::str::from_utf8(&bytes[17..meta_end])
        .map_err(|e| SnapshotError::Corrupt(format!("meta utf8: {e}")))?;
    let meta: SessionMeta = serde_json::from_str(meta_json)
        .map_err(|e| SnapshotError::Corrupt(format!("meta json: {e}")))?;
    let reader = StoreReader::new(&bytes[meta_end..bytes.len() - 8])
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    // The trailer already vouched for every byte, so the store decode is
    // strict: any residual fault is corruption, not tolerable loss.
    let (events, _) = reader
        .read_all(RecoveryPolicy::FailFast)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    Ok(Snapshot { sid, meta, events })
}

/// Writes a session snapshot atomically (temp file + rename) and returns
/// its path. A crash mid-write leaves either the previous snapshot or a
/// stray `.tmp` — never a half-written `.osnp` that could load.
pub fn write_snapshot(
    dir: &Path,
    sid: u64,
    meta: &SessionMeta,
    events: &[TraceEvent],
) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir)?;
    let path = snapshot_path(dir, sid);
    let tmp = path.with_extension("osnp.tmp");
    fs::write(&tmp, encode_snapshot(sid, meta, events))?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Loads and verifies a session snapshot.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    decode_snapshot(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use onoff_rrc::trace::Timestamp;

    use super::*;

    fn events() -> Vec<TraceEvent> {
        (0..100)
            .map(|k| TraceEvent::Throughput {
                t: Timestamp(k * 500),
                mbps: k as f64 * 0.25,
            })
            .collect()
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            records: 120,
            parsed: 100,
            skipped: 20,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let image = encode_snapshot(99, &meta(), &events());
        let snap = decode_snapshot(&image).unwrap();
        assert_eq!(snap.sid, 99);
        assert_eq!(snap.meta, meta());
        assert_eq!(snap.events, events());
    }

    #[test]
    fn file_roundtrip_is_exact() {
        let dir = std::env::temp_dir().join(format!("osnp-test-{}", std::process::id()));
        let path = write_snapshot(&dir, 7, &meta(), &events()).unwrap();
        assert_eq!(path, snapshot_path(&dir, 7));
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.sid, 7);
        assert_eq!(snap.events, events());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let image = encode_snapshot(5, &meta(), &events()[..8]);
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_are_caught() {
        let image = encode_snapshot(5, &meta(), &events());
        for cut in [0, 3, 16, image.len() / 2, image.len() - 1] {
            assert!(decode_snapshot(&image[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_version_and_magic_are_refused() {
        let mut image = encode_snapshot(5, &meta(), &events()[..4]);
        image[4] = SNAPSHOT_VERSION + 1;
        // Version is checked before the checksum, so the error is typed.
        assert_eq!(
            decode_snapshot(&image).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );
        let mut image = encode_snapshot(5, &meta(), &events()[..4]);
        image[0] = b'X';
        assert_eq!(
            decode_snapshot(&image).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn empty_log_snapshots_fine() {
        let image = encode_snapshot(1, &SessionMeta::default(), &[]);
        let snap = decode_snapshot(&image).unwrap();
        assert!(snap.events.is_empty());
    }
}
