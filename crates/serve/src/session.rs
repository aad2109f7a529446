//! Bounded per-session state with LRU eviction through checksummed
//! snapshots.
//!
//! The table shards sessions by id across independently-locked shards.
//! When the table has a snapshot directory, every session is
//! **event-sourced**: alongside its live [`StreamingAnalyzer`] it keeps
//! the arrival-order event log, so spilling a session is "write the log
//! as a [`snapshot`](crate::snapshot)" and restoring is "replay the log
//! through a fresh analyzer" — bitwise equivalent to never having been
//! evicted, because analyzer state is a deterministic function of the fed
//! sequence. Without a snapshot directory nothing can ever spill, so
//! sessions keep no log: the analyzer alone holds their state, plus a
//! count of the events fed.
//!
//! # Memory contract
//!
//! Accounted bytes per session = fixed overhead + the analyzer's
//! capacity-derived [`mem_hint`](StreamingAnalyzer::mem_hint) + the event
//! log's capacity, when the session keeps one. The global ledger is an
//! atomic sum over all live sessions. Ingest enforces, in order:
//!
//! 1. **Global budget** — a projected overrun first evicts
//!    least-recently-used sessions (other than the target) to snapshots;
//!    if nothing is evictable (no snapshot dir, or everything else is
//!    already spilled) the ingest is refused with a shed.
//! 2. **Per-session budget** — checked under the shard lock, against the
//!    session's live (possibly just-restored) size, immediately before
//!    the feed is applied, so concurrent ingests to one sid cannot both
//!    slip under [`ServeConfig::session_budget`] (one noisy tenant
//!    cannot grow without bound).
//! 3. **Post-op settlement** — projections are estimates, so after any
//!    operation that can grow the ledger (an ingest, or a restore
//!    triggered by a query), the ledger is re-enforced; with a snapshot
//!    directory the table may spill even the session just touched,
//!    guaranteeing `bytes_used <= global_budget` after every completed
//!    operation.
//!
//! A failed spill (snapshot directory unwritable, disk full) is treated
//! as *unevictable*: the victim is restored live — never lost — and the
//! in-flight operation sheds instead of retrying, so a broken spill path
//! degrades into backpressure rather than a busy loop.
//!
//! A snapshot that fails verification on restore **quarantines** the
//! session: the sid becomes a tombstone answering every request with an
//! error, the corrupt file is left on disk for postmortem, and the
//! session's last-known degradation, parse counters and event count are
//! folded into the retired totals.
//! Corruption is never silently replayed.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use onoff_detect::channel::Merge;
use onoff_detect::{
    DegradationReport, PredictionReport, RunAnalysis, ScoringConfig, StreamingAnalyzer,
};
use onoff_rrc::trace::TraceEvent;

use crate::snapshot::{read_snapshot, snapshot_path, write_snapshot, SessionMeta};

/// Fixed accounting overhead per live session (map entries, bookkeeping).
const SESSION_OVERHEAD: usize = 1024;

/// Everything the engine and table need to know about limits and layout.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Global accounted-bytes budget across all live sessions.
    pub global_budget: usize,
    /// Accounted-bytes cap for any single session.
    pub session_budget: usize,
    /// Lock shards (sessions are assigned by `sid % shards`).
    pub shards: usize,
    /// Where eviction snapshots live; `None` disables eviction, turning
    /// budget pressure into shed responses.
    pub snapshot_dir: Option<PathBuf>,
    /// Online loop-proneness scoring for every session, if any.
    pub scoring: Option<ScoringConfig>,
    /// Per-session reorder-buffer cap
    /// ([`StreamingAnalyzer::with_reorder_cap`]).
    pub reorder_cap: usize,
    /// How text ingests treat malformed records.
    pub policy: onoff_nsglog::RecoveryPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            global_budget: 64 << 20,
            session_budget: 8 << 20,
            shards: 8,
            snapshot_dir: None,
            scoring: None,
            reorder_cap: 1024,
            policy: onoff_nsglog::RecoveryPolicy::SkipAndCount,
        }
    }
}

/// Why a session operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Explicit backpressure; nothing was applied.
    Shed {
        /// What budget was defended.
        reason: String,
    },
    /// The sid is a tombstone: its snapshot failed verification earlier.
    Quarantined {
        /// The verification failure, verbatim.
        reason: String,
    },
    /// The sid has never been seen (query/end without ingest).
    Unknown,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Shed { reason } => write!(f, "shed: {reason}"),
            SessionError::Quarantined { reason } => write!(f, "session quarantined: {reason}"),
            SessionError::Unknown => write!(f, "unknown session"),
        }
    }
}

struct Session {
    analyzer: StreamingAnalyzer,
    /// The arrival-order event log a snapshot stores; kept only when the
    /// table has a snapshot directory to spill it to.
    log: Option<Vec<TraceEvent>>,
    /// Events ingested over the session's lifetime.
    events: usize,
    meta: SessionMeta,
    mem: usize,
    stamp: u64,
}

impl Session {
    fn mem_now(&self) -> usize {
        let log = self.log.as_ref().map_or(0, Vec::capacity);
        SESSION_OVERHEAD + self.analyzer.mem_hint() + log * std::mem::size_of::<TraceEvent>()
    }
}

/// What one eviction attempt did.
enum EvictOutcome {
    /// A victim was spilled and its accounted bytes freed.
    Evicted,
    /// Nothing evictable: no snapshot dir, an empty LRU, or only exempt
    /// sessions in this shard.
    NoVictim,
    /// A victim exists but its snapshot write failed; it was restored
    /// live (never lost). Eviction cannot currently make progress, so
    /// the caller must shed rather than retry.
    SpillFailed,
}

/// Fleet-metrics residue of a spilled session.
struct SpillRecord {
    path: PathBuf,
    degradation: DegradationReport,
    meta: SessionMeta,
    events: usize,
}

#[derive(Default)]
struct Shard {
    live: HashMap<u64, Session>,
    /// stamp → sid; stamps are unique (global atomic clock).
    lru: BTreeMap<u64, u64>,
    spilled: HashMap<u64, SpillRecord>,
    quarantined: HashMap<u64, String>,
}

/// Totals carried by sessions that no longer exist (ended or
/// quarantined), so fleet metrics never lose history.
#[derive(Default)]
struct Retired {
    degradation: DegradationReport,
    meta: SessionMeta,
    events: u64,
    sessions_ended: u64,
}

/// Raw fleet-wide gauges and counters collected by [`SessionTable::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableStats {
    /// Sessions resident in memory.
    pub live: usize,
    /// Sessions currently spilled to snapshots.
    pub spilled: usize,
    /// Tombstoned sessions.
    pub quarantined: usize,
    /// Sessions finalized via end-session.
    pub ended: u64,
    /// Events fed across all sessions, ever.
    pub events: u64,
    /// Accounted bytes right now.
    pub bytes_used: usize,
    /// Evictions performed.
    pub evictions: u64,
    /// Restores performed.
    pub restores: u64,
    /// Aggregate analyzer degradation (live + spilled + retired).
    pub degradation: DegradationReport,
    /// Aggregate text-parse counters (live + spilled + retired).
    pub parse: SessionMeta,
}

/// The final word on a session, produced by
/// [`end_session`](SessionTable::end_session).
#[derive(Debug, Clone, PartialEq)]
pub struct FinalReport {
    /// The full-run analysis.
    pub analysis: RunAnalysis,
    /// Predictions, when scoring is configured.
    pub predictions: Option<PredictionReport>,
    /// Text-parse counters over the session's lifetime.
    pub meta: SessionMeta,
    /// Events the session ingested.
    pub events: usize,
}

/// Sharded, budgeted, spill-capable session state. All methods take
/// `&self`; one shard lock is held at a time, never two.
pub struct SessionTable {
    cfg: ServeConfig,
    shards: Vec<Mutex<Shard>>,
    used: AtomicUsize,
    clock: AtomicU64,
    events: AtomicU64,
    evictions: AtomicU64,
    restores: AtomicU64,
    retired: Mutex<Retired>,
}

impl SessionTable {
    /// An empty table under `cfg`.
    pub fn new(cfg: ServeConfig) -> SessionTable {
        let shards = cfg.shards.max(1);
        SessionTable {
            cfg,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            used: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            events: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            retired: Mutex::new(Retired::default()),
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Accounted bytes right now.
    pub fn bytes_used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    fn shard_of(&self, sid: u64) -> &Mutex<Shard> {
        &self.shards[(sid % self.shards.len() as u64) as usize]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn new_session(&self, stamp: u64) -> Session {
        let mut analyzer = StreamingAnalyzer::with_reorder_cap(self.cfg.reorder_cap);
        if let Some(sc) = &self.cfg.scoring {
            analyzer.enable_scoring(sc.clone());
        }
        let mut s = Session {
            analyzer,
            log: self.cfg.snapshot_dir.as_ref().map(|_| Vec::new()),
            events: 0,
            meta: SessionMeta::default(),
            mem: 0,
            stamp,
        };
        s.mem = s.mem_now();
        s
    }

    /// Registers every `session-*.osnp` under the snapshot directory as a
    /// spilled session (verified lazily on first access — a corrupt file
    /// quarantines then, not now). Crash recovery: a restarted daemon
    /// picks up exactly where the drained (or crashed-after-spill) one
    /// left off. Returns how many snapshots were adopted.
    pub fn recover(&self) -> usize {
        let Some(dir) = &self.cfg.snapshot_dir else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut adopted = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".osnp"))
            else {
                continue;
            };
            let Ok(sid) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let mut shard = self.shard_of(sid).lock().expect("shard lock");
            if shard.live.contains_key(&sid)
                || shard.spilled.contains_key(&sid)
                || shard.quarantined.contains_key(&sid)
            {
                continue;
            }
            shard.spilled.insert(
                sid,
                SpillRecord {
                    path: entry.path(),
                    degradation: DegradationReport::default(),
                    meta: SessionMeta::default(),
                    events: 0,
                },
            );
            adopted += 1;
        }
        adopted
    }

    /// Spills one session out of `shard` (its LRU victim, skipping
    /// `exempt`).
    fn evict_one_locked(&self, shard: &mut Shard, exempt: Option<u64>) -> EvictOutcome {
        let Some(dir) = self.cfg.snapshot_dir.as_ref() else {
            return EvictOutcome::NoVictim;
        };
        let Some(victim) = shard
            .lru
            .iter()
            .map(|(_, &sid)| sid)
            .find(|&sid| Some(sid) != exempt)
        else {
            return EvictOutcome::NoVictim;
        };
        let mut session = shard.live.remove(&victim).expect("lru tracks live");
        shard.lru.remove(&session.stamp);
        let log = session
            .log
            .as_deref()
            .expect("sessions of a table with a snapshot dir keep a log");
        match write_snapshot(dir, victim, &session.meta, log) {
            Ok(path) => {
                self.used.fetch_sub(session.mem, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                let degradation = session.analyzer.degradation();
                shard.spilled.insert(
                    victim,
                    SpillRecord {
                        path,
                        degradation,
                        meta: session.meta,
                        events: session.events,
                    },
                );
                EvictOutcome::Evicted
            }
            Err(_) => {
                shard.lru.insert(session.stamp, victim);
                shard.live.insert(victim, session);
                EvictOutcome::SpillFailed
            }
        }
    }

    /// Evicts least-recently-used sessions (never `exempt`) until the
    /// ledger fits `need` more bytes, one shard lock at a time. True if
    /// the headroom was achieved.
    fn make_room(&self, need: usize, exempt: Option<u64>) -> bool {
        if self.cfg.snapshot_dir.is_none() {
            return self.used.load(Ordering::Relaxed) + need <= self.cfg.global_budget;
        }
        loop {
            if self.used.load(Ordering::Relaxed) + need <= self.cfg.global_budget {
                return true;
            }
            // Oldest victim across shards: peek each shard's LRU for its
            // first non-exempt entry, then evict from the oldest shard.
            let mut oldest: Option<(u64, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock().expect("shard lock");
                if let Some((&stamp, _)) = shard.lru.iter().find(|(_, &sid)| Some(sid) != exempt) {
                    if oldest.is_none_or(|(s, _)| stamp < s) {
                        oldest = Some((stamp, i));
                    }
                }
            }
            let Some((_, idx)) = oldest else {
                return false;
            };
            let mut shard = self.shards[idx].lock().expect("shard lock");
            // The victim may have moved between the peek and this lock;
            // evicting whatever is oldest *now* is just as correct.
            match self.evict_one_locked(&mut shard, exempt) {
                EvictOutcome::Evicted => {}
                // Raced away between the peek and the lock; rescan.
                EvictOutcome::NoVictim => {}
                // The spill path is broken (disk full, dir unwritable).
                // Every retry would fail the same way — shed instead of
                // spinning the worker at 100% CPU.
                EvictOutcome::SpillFailed => return false,
            }
        }
    }

    /// Restores `sid` from its snapshot into `shard`. On verification
    /// failure the sid is quarantined and the error returned.
    fn restore_locked(&self, shard: &mut Shard, sid: u64) -> Result<(), SessionError> {
        let record = shard.spilled.remove(&sid).expect("caller checked");
        match read_snapshot(&record.path) {
            Ok(snap) => {
                let stamp = self.stamp();
                let mut session = self.new_session(stamp);
                session.meta = snap.meta;
                session.events = snap.events.len();
                for ev in &snap.events {
                    session.analyzer.feed(ev.clone());
                }
                session.log = Some(snap.events);
                session.mem = session.mem_now();
                self.used.fetch_add(session.mem, Ordering::Relaxed);
                self.restores.fetch_add(1, Ordering::Relaxed);
                shard.lru.insert(stamp, sid);
                shard.live.insert(sid, session);
                // The snapshot is consumed; eviction or drain rewrites it
                // from the (identical) replayed log if needed again.
                std::fs::remove_file(&record.path).ok();
                Ok(())
            }
            Err(e) => {
                let reason = format!("snapshot failed verification: {e}");
                // Keep the corrupt file on disk for postmortem; fold the
                // spilled session's last-known counters into the retired
                // totals so fleet metrics do not lose its history.
                let mut retired = self.retired.lock().expect("retired lock");
                retired.degradation.merge(record.degradation);
                retired.meta.merge(record.meta);
                retired.events += record.events as u64;
                drop(retired);
                shard.quarantined.insert(sid, reason.clone());
                Err(SessionError::Quarantined { reason })
            }
        }
    }

    /// Runs `f` on the live session `sid`, restoring or creating it
    /// first, updating LRU and the memory ledger after. `f` runs under
    /// the shard lock and may refuse (e.g. a per-session budget check);
    /// a refusal tears down a session this call created, so a shed
    /// leaves no empty residue behind.
    fn with_session<R>(
        &self,
        sid: u64,
        create: bool,
        f: impl FnOnce(&mut Session) -> Result<R, SessionError>,
    ) -> Result<R, SessionError> {
        let mut guard = self.shard_of(sid).lock().expect("shard lock");
        let shard = &mut *guard;
        if let Some(reason) = shard.quarantined.get(&sid) {
            return Err(SessionError::Quarantined {
                reason: reason.clone(),
            });
        }
        let mut created = false;
        if shard.spilled.contains_key(&sid) {
            self.restore_locked(shard, sid)?;
        } else if !shard.live.contains_key(&sid) {
            if !create {
                return Err(SessionError::Unknown);
            }
            let stamp = self.stamp();
            let session = self.new_session(stamp);
            self.used.fetch_add(session.mem, Ordering::Relaxed);
            shard.lru.insert(stamp, sid);
            shard.live.insert(sid, session);
            created = true;
        }
        let session = shard.live.get_mut(&sid).expect("ensured above");
        // Touch LRU.
        shard.lru.remove(&session.stamp);
        session.stamp = self.stamp();
        shard.lru.insert(session.stamp, sid);
        let out = f(session);
        if out.is_err() && created {
            // Nothing was applied; do not leave an empty session behind.
            let session = shard.live.remove(&sid).expect("created above");
            shard.lru.remove(&session.stamp);
            self.used.fetch_sub(session.mem, Ordering::Relaxed);
            return out;
        }
        // Settle the ledger against actual post-op capacities.
        let session = shard.live.get_mut(&sid).expect("still live");
        let now = session.mem_now();
        if now >= session.mem {
            self.used.fetch_add(now - session.mem, Ordering::Relaxed);
        } else {
            self.used.fetch_sub(session.mem - now, Ordering::Relaxed);
        }
        session.mem = now;
        out
    }

    /// Feeds `events` (already parsed) into session `sid`, creating or
    /// restoring it as needed, with `meta_delta` folded into the
    /// session's parse counters. Returns how many events were accepted.
    pub fn ingest(
        &self,
        sid: u64,
        mut events: Vec<TraceEvent>,
        meta_delta: SessionMeta,
    ) -> Result<u64, SessionError> {
        self.ingest_drain(sid, &mut events, meta_delta)
    }

    /// [`SessionTable::ingest`] by draining a caller-owned buffer: the
    /// events are moved out but the vector's capacity stays with the
    /// caller, so a serving loop can recycle one frame buffer across
    /// requests instead of allocating a fresh `Vec` per ingest. On a shed
    /// the buffer is left untouched (events and capacity intact).
    pub fn ingest_drain(
        &self,
        sid: u64,
        events: &mut Vec<TraceEvent>,
        meta_delta: SessionMeta,
    ) -> Result<u64, SessionError> {
        let incoming = events.len() * std::mem::size_of::<TraceEvent>();
        // Global projection: evict others, else shed.
        if !self.make_room(incoming, Some(sid)) {
            return Err(SessionError::Shed {
                reason: format!(
                    "global budget: {} used + {incoming} incoming exceed {} and nothing is evictable",
                    self.bytes_used(),
                    self.cfg.global_budget
                ),
            });
        }
        let n = events.len() as u64;
        let session_budget = self.cfg.session_budget;
        self.with_session(sid, true, move |session| {
            // Per-session projection, checked under the shard lock
            // against the live (possibly just-restored) size so two
            // concurrent ingests to one sid cannot both slip under the
            // budget.
            let projected = session.mem + incoming;
            if projected > session_budget {
                return Err(SessionError::Shed {
                    reason: format!(
                        "session budget: {projected} projected bytes exceed {session_budget}"
                    ),
                });
            }
            session.meta.merge(meta_delta);
            session.events += events.len();
            if let Some(log) = &mut session.log {
                log.extend_from_slice(events);
            }
            for ev in events.drain(..) {
                session.analyzer.feed(ev);
            }
            Ok(())
        })?;
        self.events.fetch_add(n, Ordering::Relaxed);
        // Settlement: projections can undershoot analyzer growth. With a
        // snapshot dir this restores the hard invariant, spilling even
        // the session just fed when it alone blows the budget.
        self.make_room(0, None);
        Ok(n)
    }

    /// Point-in-time view of session `sid` (restores it if spilled;
    /// queries count as use for LRU purposes).
    pub fn query(
        &self,
        sid: u64,
    ) -> Result<(RunAnalysis, Option<PredictionReport>, SessionMeta, usize), SessionError> {
        let out = self.with_session(sid, false, |session| {
            Ok((
                session.analyzer.analysis(),
                session.analyzer.predictions(),
                session.meta,
                session.events,
            ))
        })?;
        // A restore may have pushed the ledger past the global budget;
        // settle exactly like ingest does (which may spill the session
        // just queried — the answer is already extracted).
        self.make_room(0, None);
        Ok(out)
    }

    /// Finalizes session `sid`: removes it and returns its full report.
    /// Its degradation and parse counters fold into the retired totals.
    pub fn end_session(&self, sid: u64) -> Result<FinalReport, SessionError> {
        // Restore first (if spilled) via the common path, then take it.
        self.with_session(sid, false, |_| Ok(()))?;
        let mut guard = self.shard_of(sid).lock().expect("shard lock");
        let shard = &mut *guard;
        let Some(session) = shard.live.remove(&sid) else {
            // Spilled again between the two locks by a racing make_room;
            // loop back through the restore path.
            drop(guard);
            return self.end_session(sid);
        };
        shard.lru.remove(&session.stamp);
        drop(guard);
        self.used.fetch_sub(session.mem, Ordering::Relaxed);
        let events = session.events;
        let meta = session.meta;
        let mut analyzer = session.analyzer;
        let predictions = analyzer.predictions();
        let analysis = analyzer.finish();
        let mut retired = self.retired.lock().expect("retired lock");
        retired.degradation.merge(analysis.degradation);
        retired.meta.merge(meta);
        retired.events += events as u64;
        retired.sessions_ended += 1;
        drop(retired);
        if let Some(dir) = &self.cfg.snapshot_dir {
            std::fs::remove_file(snapshot_path(dir, sid)).ok();
        }
        // Removing the session reverses its restore's ledger charge, but
        // a racing restore elsewhere may still have us past the budget;
        // settle before answering.
        self.make_room(0, None);
        Ok(FinalReport {
            analysis,
            predictions,
            meta,
            events,
        })
    }

    /// Test/ops hook: spills `sid` to its snapshot right now. True if the
    /// session was live and is now spilled.
    pub fn evict(&self, sid: u64) -> bool {
        if self.cfg.snapshot_dir.is_none() {
            return false;
        }
        let mut guard = self.shard_of(sid).lock().expect("shard lock");
        let shard = &mut *guard;
        let Some(session) = shard.live.get(&sid) else {
            return false;
        };
        // Narrow the LRU to the target so the shared eviction body picks
        // exactly it, then restore the other entries.
        let stamp = session.stamp;
        let rest: Vec<(u64, u64)> = shard
            .lru
            .iter()
            .filter(|(_, &s)| s != sid)
            .map(|(&k, &v)| (k, v))
            .collect();
        shard.lru.retain(|_, &mut s| s == sid);
        let ok = matches!(self.evict_one_locked(shard, None), EvictOutcome::Evicted);
        for (k, v) in rest {
            shard.lru.insert(k, v);
        }
        if !ok {
            shard.lru.insert(stamp, sid);
        }
        ok
    }

    /// Graceful drain: spills every live session to snapshots so a
    /// restarted daemon can [`recover`](SessionTable::recover) them.
    /// Returns how many sessions were spilled.
    pub fn drain(&self) -> usize {
        if self.cfg.snapshot_dir.is_none() {
            return 0;
        }
        let mut spilled = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            while matches!(
                self.evict_one_locked(&mut shard, None),
                EvictOutcome::Evicted
            ) {
                spilled += 1;
            }
        }
        spilled
    }

    /// Fleet-wide gauges and counters. Walks every shard (one lock at a
    /// time), so it is consistent per shard, not globally atomic.
    pub fn stats(&self) -> TableStats {
        let mut out = TableStats {
            events: self.events.load(Ordering::Relaxed),
            bytes_used: self.used.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            ..TableStats::default()
        };
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            out.live += shard.live.len();
            out.spilled += shard.spilled.len();
            out.quarantined += shard.quarantined.len();
            for session in shard.live.values_mut() {
                out.degradation.merge(session.analyzer.degradation());
                out.parse.merge(session.meta);
            }
            for record in shard.spilled.values() {
                out.degradation.merge(record.degradation);
                out.parse.merge(record.meta);
            }
        }
        let retired = self.retired.lock().expect("retired lock");
        out.degradation.merge(retired.degradation);
        out.parse.merge(retired.meta);
        out.ended = retired.sessions_ended;
        out
    }
}

#[cfg(test)]
mod tests {
    use onoff_rrc::trace::Timestamp;

    use super::*;

    fn tput(t: u64) -> TraceEvent {
        TraceEvent::Throughput {
            t: Timestamp(t),
            mbps: 1.0,
        }
    }

    fn burst(base: u64, n: u64) -> Vec<TraceEvent> {
        (0..n).map(|k| tput(base + k * 1_000)).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("onoff-serve-session-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_query_end_roundtrip() {
        let table = SessionTable::new(ServeConfig::default());
        table
            .ingest(1, burst(0, 50), SessionMeta::default())
            .unwrap();
        let (analysis, _, _, events) = table.query(1).unwrap();
        assert_eq!(events, 50);
        assert!(analysis.degradation.is_clean());
        let report = table.end_session(1).unwrap();
        assert_eq!(report.events, 50);
        assert_eq!(table.stats().live, 0);
        assert_eq!(table.stats().ended, 1);
        assert_eq!(table.query(1).unwrap_err(), SessionError::Unknown);
    }

    #[test]
    fn evict_then_touch_restores_equivalently() {
        let dir = tmp_dir("evict");
        let cfg = ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        let reference = SessionTable::new(ServeConfig::default());
        let bursts = [burst(0, 40), burst(40_000, 40), burst(80_000, 40)];
        for b in &bursts {
            table.ingest(9, b.clone(), SessionMeta::default()).unwrap();
            reference
                .ingest(9, b.clone(), SessionMeta::default())
                .unwrap();
            assert!(table.evict(9), "explicit evict must succeed");
            assert_eq!(table.stats().live, 0);
        }
        let a = table.end_session(9).unwrap();
        let b = reference.end_session(9).unwrap();
        assert_eq!(a, b, "restore must be bitwise-equivalent to never-evicted");
        assert_eq!(table.stats().restores, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_pressure_sheds_without_dir_and_evicts_with_one() {
        // No snapshot dir: sessions cannot spill, so filling the budget
        // with fresh sessions must end in an explicit shed.
        let cfg = ServeConfig {
            global_budget: 48 * 1024,
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        let mut shed = false;
        for sid in 0..32 {
            match table.ingest(sid, burst(0, 10), SessionMeta::default()) {
                Ok(_) => {}
                Err(SessionError::Shed { .. }) => {
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed, "an unevictable budget overrun must shed");

        // Same pressure with a snapshot dir: LRU sessions spill instead,
        // every ingest succeeds, and the hard ledger invariant holds.
        let dir = tmp_dir("pressure");
        let cfg = ServeConfig {
            global_budget: 48 * 1024,
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        for sid in 0..32 {
            table
                .ingest(sid, burst(0, 10), SessionMeta::default())
                .unwrap();
            assert!(
                table.bytes_used() <= 48 * 1024,
                "ledger must stay within budget after every ingest (sid {sid}: {})",
                table.bytes_used()
            );
        }
        let stats = table.stats();
        assert!(stats.evictions > 0, "pressure must evict: {stats:?}");
        assert_eq!(stats.live + stats.spilled, 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_session_budget_sheds() {
        let cfg = ServeConfig {
            session_budget: 8 * 1024,
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        let err = table.ingest(5, burst(0, 2_000), SessionMeta::default());
        assert!(matches!(err, Err(SessionError::Shed { .. })));
        // Nothing was applied.
        assert_eq!(table.query(5).unwrap_err(), SessionError::Unknown);
    }

    #[test]
    fn corrupt_snapshot_quarantines_not_misdecodes() {
        let dir = tmp_dir("corrupt");
        let cfg = ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        table
            .ingest(4, burst(0, 30), SessionMeta::default())
            .unwrap();
        assert!(table.evict(4));
        let path = snapshot_path(&dir, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = table.query(4).unwrap_err();
        assert!(matches!(err, SessionError::Quarantined { .. }), "{err:?}");
        // The tombstone persists for every later request.
        let err = table.ingest(4, burst(0, 1), SessionMeta::default());
        assert!(matches!(err, Err(SessionError::Quarantined { .. })));
        assert_eq!(table.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_and_recover_survive_a_restart() {
        let dir = tmp_dir("drain");
        let cfg = ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg.clone());
        table
            .ingest(10, burst(0, 25), SessionMeta::default())
            .unwrap();
        table
            .ingest(11, burst(0, 35), SessionMeta::default())
            .unwrap();
        assert_eq!(table.drain(), 2);
        assert_eq!(table.bytes_used(), 0);

        // "Restart": a fresh table over the same directory.
        let reborn = SessionTable::new(cfg);
        assert_eq!(reborn.recover(), 2);
        let (_, _, _, events) = reborn.query(11).unwrap();
        assert_eq!(events, 35);
        let report = reborn.end_session(10).unwrap();
        assert_eq!(report.events, 25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_failure_sheds_instead_of_spinning() {
        // The snapshot "dir" is a plain file, so every write_snapshot
        // fails. Budget pressure must then shed — before the SpillFailed
        // exit, make_room busy-looped here forever.
        let dir = tmp_dir("spillfail");
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();
        let cfg = ServeConfig {
            global_budget: 48 * 1024,
            snapshot_dir: Some(blocker),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        let mut shed = false;
        for sid in 0..64 {
            match table.ingest(sid, burst(0, 10), SessionMeta::default()) {
                Ok(_) => {}
                Err(SessionError::Shed { .. }) => {
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed, "a broken spill path must shed, not spin");
        let stats = table.stats();
        assert_eq!(stats.evictions, 0, "no eviction can have succeeded");
        assert!(stats.live > 0, "failed victims stay live, never lost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_budget_sees_restored_size_not_spilled_zero() {
        let dir = tmp_dir("sbudget");
        let cfg = ServeConfig {
            session_budget: 32 * 1024,
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        // Grow the session up to its budget.
        let mut base = 0u64;
        loop {
            match table.ingest(3, burst(base, 100), SessionMeta::default()) {
                Ok(_) => base += 100_000,
                Err(SessionError::Shed { .. }) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        // Spill it, restore it via query, and read back its true live
        // size; an ingest projected just past the budget from *that*
        // size must shed even though the session was on disk a moment
        // ago (a pre-lock projection would have seen zero and let the
        // session grow without bound across evict/restore cycles).
        assert!(table.evict(3));
        table.query(3).unwrap();
        let mem = {
            let shard = table.shard_of(3).lock().unwrap();
            shard.live.get(&3).expect("query restored it").mem
        };
        let overflow = (32 * 1024 - mem) / std::mem::size_of::<TraceEvent>() + 1;
        let err = table.ingest(3, burst(base, overflow as u64), SessionMeta::default());
        assert!(matches!(err, Err(SessionError::Shed { .. })), "{err:?}");
        // The same burst into a fresh session fits: the shed above came
        // from the restored accounting, not sheer burst size.
        table
            .ingest(4, burst(0, overflow as u64), SessionMeta::default())
            .unwrap();
        // And the shed restored session 3 without destroying it.
        let (_, _, _, events) = table.query(3).unwrap();
        assert!(events > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_restore_settles_the_global_ledger() {
        let dir = tmp_dir("qsettle");
        let budget = 24 * 1024;
        let cfg = ServeConfig {
            global_budget: budget,
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        // Two sessions that together exceed the global budget.
        for sid in [1, 2] {
            for k in 0..4u64 {
                table
                    .ingest(sid, burst(k * 100_000, 100), SessionMeta::default())
                    .unwrap();
            }
        }
        assert!(table.bytes_used() <= budget);
        // Queries restore spilled sessions; each restore must settle the
        // ledger exactly like an ingest, never parking it past budget
        // until "a later ingest" happens to run.
        for _ in 0..4 {
            for sid in [1, 2] {
                let (_, _, _, events) = table.query(sid).unwrap();
                assert_eq!(events, 400);
                assert!(
                    table.bytes_used() <= budget,
                    "ledger {} past budget after a query restore",
                    table.bytes_used()
                );
            }
        }
        assert!(table.stats().restores > 0, "queries must have restored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_track_parse_and_degradation_per_session() {
        let table = SessionTable::new(ServeConfig::default());
        let dirty_meta = SessionMeta {
            records: 10,
            parsed: 8,
            skipped: 2,
        };
        table.ingest(1, burst(0, 8), dirty_meta).unwrap();
        // A rollback beyond the reorder horizon degrades only session 2.
        let mut dirty = burst(100_000, 5);
        dirty.push(tput(10_000));
        table.ingest(2, dirty, SessionMeta::default()).unwrap();
        let (a1, _, _, _) = table.query(1).unwrap();
        let (a2, _, _, _) = table.query(2).unwrap();
        assert!(a1.degradation.is_clean(), "session 1 is untouched");
        assert!(!a2.degradation.is_clean(), "session 2 carries the damage");
        let stats = table.stats();
        assert_eq!(stats.parse.skipped, 2);
        assert_eq!(stats.degradation, a2.degradation);
        assert_eq!(stats.events, 14);
    }

    #[test]
    fn parse_totals_survive_spill_and_quarantine() {
        let dir = tmp_dir("parse");
        let cfg = ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let table = SessionTable::new(cfg);
        let dirty_meta = SessionMeta {
            records: 10,
            parsed: 8,
            skipped: 2,
        };
        table.ingest(6, burst(0, 8), dirty_meta).unwrap();
        assert_eq!(table.stats().parse, dirty_meta);
        assert!(table.evict(6));
        assert_eq!(
            table.stats().parse,
            dirty_meta,
            "a spilled session's skipped records stay in the fleet totals"
        );
        let path = snapshot_path(&dir, 6);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = table.query(6).unwrap_err();
        assert!(matches!(err, SessionError::Quarantined { .. }), "{err:?}");
        assert_eq!(
            table.stats().parse,
            dirty_meta,
            "quarantine folds the parse counters into the retired totals"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
