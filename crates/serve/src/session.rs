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
//! Each shard keeps one map from sid to slot beside its LRU: a slot holds
//! a live session, a spilled session's record or a quarantined session's
//! tombstone. Evict, restore and quarantine replace a sid's slot in
//! place, so the map changes size only when a session is created, adopted
//! by [`recover`](SessionTable::recover) or ended. The global ledger is an
//! atomic sum of two kinds of charge:
//!
//! - each slot, for what it holds: a live session its box, its analyzer's
//!   capacity-derived [`mem_hint`](StreamingAnalyzer::mem_hint) and, when
//!   it keeps one, its event log's capacity and the heap its events own;
//!   a spill record its box and its snapshot path; a tombstone its
//!   reason;
//! - each shard, for what its two maps allocate, recomputed after every
//!   change to them. The maps never shrink, so the buckets ended sessions
//!   leave stay charged.
//!
//! Ingest enforces, in order:
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
//! as *unevictable*: the victim stays live in its slot — never lost — and
//! the in-flight operation sheds instead of retrying, so a broken spill
//! path degrades into backpressure rather than a busy loop.
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

use crate::metrics::FleetMetrics;
use crate::snapshot::{read_snapshot, snapshot_path, write_snapshot, SessionMeta};

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
    log: Option<EventLog>,
    /// Events ingested over the session's lifetime.
    events: usize,
    meta: SessionMeta,
    mem: usize,
    stamp: u64,
}

impl Session {
    /// Its box, its analyzer's `mem_hint` and its log.
    fn mem_now(&self) -> usize {
        size_of::<Session>() + self.analyzer.mem_hint() + self.log.as_ref().map_or(0, EventLog::mem)
    }
}

/// A session's event log, with a running total of the heap its events own
/// beyond their inline size (spilled report rows, trigger labels,
/// `measConfig`s), so charging the log stays O(1) per ingest. The total
/// lives and dies with the log: spilling or dropping the session drops
/// both.
#[derive(Default)]
struct EventLog {
    events: Vec<TraceEvent>,
    /// Sum of [`TraceEvent::heap_bytes`] over `events`.
    owned: usize,
}

impl EventLog {
    /// A log of `events`, its owned heap counted once.
    fn new(events: Vec<TraceEvent>) -> EventLog {
        let owned = events.iter().map(TraceEvent::heap_bytes).sum();
        EventLog { events, owned }
    }

    /// Appends clones of `events`, counting the heap the clones own.
    fn extend(&mut self, events: &[TraceEvent]) {
        let from = self.events.len();
        self.events.extend_from_slice(events);
        self.owned += self.events[from..]
            .iter()
            .map(TraceEvent::heap_bytes)
            .sum::<usize>();
    }

    /// Bytes the log holds: its buffer's capacity and its events' heap.
    fn mem(&self) -> usize {
        self.events.capacity() * size_of::<TraceEvent>() + self.owned
    }
}

/// Fleet-metrics residue of a spilled session.
struct SpillRecord {
    path: PathBuf,
    degradation: DegradationReport,
    meta: SessionMeta,
    events: usize,
}

/// What a shard holds for a sid. Every variant is a thin box, so a map
/// entry is a key, a tag and a pointer.
enum Slot {
    Live(Box<Session>),
    Spilled(Box<SpillRecord>),
    /// A tombstone: the snapshot's verification failure. Boxed like the
    /// others, since an inline `String` or `Box<str>` would widen every
    /// entry from 24 B to 32 B.
    #[allow(clippy::box_collection)]
    Quarantined(Box<String>),
}

impl Slot {
    /// What the slot holds: the session box (its analyzer and log
    /// included, as last settled), the record box and its path, or the
    /// tombstone's reason.
    fn mem(&self) -> usize {
        match self {
            Slot::Live(session) => session.mem,
            Slot::Spilled(record) => size_of::<SpillRecord>() + record.path.capacity(),
            Slot::Quarantined(reason) => size_of::<String>() + reason.capacity(),
        }
    }
}

/// Bytes of a `BTreeMap<u64, u64>` leaf: parent link, index and length,
/// then eleven keys and eleven values.
const LRU_LEAF: usize = 16 + 22 * size_of::<u64>();

/// What an internal `BTreeMap<u64, u64>` node adds to a leaf: twelve
/// child links.
const LRU_EDGES: usize = 12 * size_of::<usize>();

#[derive(Default)]
struct Shard {
    slots: HashMap<u64, Slot>,
    /// stamp → sid of every live session; stamps are unique (global
    /// atomic clock).
    lru: BTreeMap<u64, u64>,
    /// The most buckets `slots` has been seen to allocate.
    buckets: usize,
    /// What the two maps are charged for.
    maps: usize,
}

impl Shard {
    /// What `slots` and `lru` allocate. The slot table holds a power of
    /// two of buckets, each an entry and a control byte, plus a 16-byte
    /// group tail; its bucket count is the fewest that hold
    /// `slots.capacity()`, a lower bound that tombstones left by removals
    /// lower, and since the table never shrinks its high-water is kept.
    /// `lru` keeps its root leaf once allocated (charged with the table,
    /// which errs high for a shard holding only recovered records), and
    /// every other node holds at least five pairs, at most half of them
    /// internal.
    fn footprint(&mut self) -> usize {
        let capacity = self.slots.capacity();
        let fewest = match capacity {
            0 => 0,
            1..=7 => (capacity + 1).next_power_of_two().max(4),
            _ => (capacity * 8).div_ceil(7).next_power_of_two(),
        };
        self.buckets = self.buckets.max(fewest);
        if self.buckets == 0 {
            return 0;
        }
        let nodes = 1 + self.lru.len() / 5;
        self.buckets * (size_of::<(u64, Slot)>() + 1)
            + 16
            + nodes * LRU_LEAF
            + nodes / 2 * LRU_EDGES
    }
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

    /// Moves the ledger from `charged` to `now` and records `now`.
    fn recharge(&self, charged: &mut usize, now: usize) {
        if now >= *charged {
            self.used.fetch_add(now - *charged, Ordering::Relaxed);
        } else {
            self.used.fetch_sub(*charged - now, Ordering::Relaxed);
        }
        *charged = now;
    }

    /// Puts `slot` in `sid`'s place (replacing its slot in place when it
    /// has one), or clears the place with `None`, and returns what it
    /// held. The one way a shard's maps change size (a touch only
    /// re-stamps a session's `lru` pair): a live session's stamp enters
    /// or leaves `lru` with it, the ledger moves from the old slot's
    /// charge to the new one's, and the maps are re-charged.
    fn set_slot(&self, shard: &mut Shard, sid: u64, slot: Option<Slot>) -> Option<Slot> {
        let old = match slot {
            Some(slot) => {
                if let Slot::Live(session) = &slot {
                    shard.lru.insert(session.stamp, sid);
                }
                self.used.fetch_add(slot.mem(), Ordering::Relaxed);
                shard.slots.insert(sid, slot)
            }
            None => shard.slots.remove(&sid),
        };
        if let Some(old) = &old {
            if let Slot::Live(session) = old {
                shard.lru.remove(&session.stamp);
            }
            self.used.fetch_sub(old.mem(), Ordering::Relaxed);
        }
        let now = shard.footprint();
        self.recharge(&mut shard.maps, now);
        old
    }

    fn new_session(&self, stamp: u64) -> Box<Session> {
        let mut analyzer = StreamingAnalyzer::new();
        if let Some(sc) = &self.cfg.scoring {
            analyzer.enable_scoring(sc.clone());
        }
        let mut s = Box::new(Session {
            analyzer,
            log: self.cfg.snapshot_dir.as_ref().map(|_| EventLog::default()),
            events: 0,
            meta: SessionMeta::default(),
            mem: 0,
            stamp,
        });
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
            if shard.slots.contains_key(&sid) {
                continue;
            }
            let record = SpillRecord {
                path: entry.path(),
                degradation: DegradationReport::default(),
                meta: SessionMeta::default(),
                events: 0,
            };
            self.set_slot(&mut shard, sid, Some(Slot::Spilled(Box::new(record))));
            adopted += 1;
        }
        adopted
    }

    /// Spills the live session `sid` of `shard` to its snapshot, in its
    /// slot. False if it is not live, the table has no snapshot
    /// directory, or the write failed; the session then stays live,
    /// never lost.
    fn spill_locked(&self, shard: &mut Shard, sid: u64) -> bool {
        let (Some(dir), Some(Slot::Live(session))) =
            (&self.cfg.snapshot_dir, shard.slots.get_mut(&sid))
        else {
            return false;
        };
        let log = session
            .log
            .as_ref()
            .expect("sessions of a table with a snapshot dir keep a log");
        let Ok(path) = write_snapshot(dir, sid, &session.meta, &log.events) else {
            return false;
        };
        let record = SpillRecord {
            path,
            degradation: session.analyzer.degradation(),
            meta: session.meta,
            events: session.events,
        };
        self.set_slot(shard, sid, Some(Slot::Spilled(Box::new(record))));
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Evicts least-recently-used sessions (never `exempt`) until the
    /// ledger fits `need` more bytes, one shard lock at a time. True if
    /// the headroom was achieved.
    fn make_room(&self, need: usize, exempt: Option<u64>) -> bool {
        if self.cfg.snapshot_dir.is_none() {
            return self.used.load(Ordering::Relaxed) + need <= self.cfg.global_budget;
        }
        let victim = |shard: &Shard| {
            shard
                .lru
                .iter()
                .find(|(_, &sid)| Some(sid) != exempt)
                .map(|(&stamp, &sid)| (stamp, sid))
        };
        loop {
            if self.used.load(Ordering::Relaxed) + need <= self.cfg.global_budget {
                return true;
            }
            // Oldest victim across shards: peek each shard's LRU for its
            // first non-exempt entry, then evict from the oldest shard.
            let mut oldest: Option<(u64, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some((stamp, _)) = victim(&shard.lock().expect("shard lock")) {
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
            // evicting whatever is oldest *now* is just as correct, and
            // if nothing is left, rescan.
            let Some((_, sid)) = victim(&shard) else {
                continue;
            };
            // A failed spill means the spill path is broken (disk full,
            // dir unwritable). Every retry would fail the same way — shed
            // instead of spinning the worker at 100% CPU.
            if !self.spill_locked(&mut shard, sid) {
                return false;
            }
        }
    }

    /// Restores the spilled `sid` of `shard` from its snapshot, in its
    /// slot. On verification failure the slot becomes a tombstone and the
    /// error is returned.
    fn restore_locked(&self, shard: &mut Shard, sid: u64) -> Result<(), SessionError> {
        let Some(Slot::Spilled(record)) = shard.slots.get(&sid) else {
            unreachable!("the caller found sid spilled");
        };
        match read_snapshot(&record.path) {
            Ok(snap) => {
                // The snapshot is consumed; eviction or drain rewrites it
                // from the (identical) replayed log if needed again.
                std::fs::remove_file(&record.path).ok();
                let mut session = self.new_session(self.stamp());
                session.meta = snap.meta;
                session.events = snap.events.len();
                for ev in &snap.events {
                    session.analyzer.feed(ev.clone());
                }
                session.log = Some(EventLog::new(snap.events));
                session.mem = session.mem_now();
                self.restores.fetch_add(1, Ordering::Relaxed);
                self.set_slot(shard, sid, Some(Slot::Live(session)));
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
                let tombstone = Slot::Quarantined(Box::new(reason.clone()));
                self.set_slot(shard, sid, Some(tombstone));
                Err(SessionError::Quarantined { reason })
            }
        }
    }

    /// Makes `sid` live in `shard`: restores it if spilled, creates it if
    /// unknown and `create` is set. True if it was created.
    fn make_live(&self, shard: &mut Shard, sid: u64, create: bool) -> Result<bool, SessionError> {
        match shard.slots.get(&sid) {
            Some(Slot::Live(_)) => Ok(false),
            Some(Slot::Spilled(_)) => self.restore_locked(shard, sid).map(|()| false),
            Some(Slot::Quarantined(reason)) => Err(SessionError::Quarantined {
                reason: reason.to_string(),
            }),
            None if create => {
                let session = self.new_session(self.stamp());
                self.set_slot(shard, sid, Some(Slot::Live(session)));
                Ok(true)
            }
            None => Err(SessionError::Unknown),
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
        let created = self.make_live(shard, sid, create)?;
        let Some(Slot::Live(session)) = shard.slots.get_mut(&sid) else {
            unreachable!("make_live left sid live");
        };
        // Touch LRU.
        shard.lru.remove(&session.stamp);
        session.stamp = self.stamp();
        shard.lru.insert(session.stamp, sid);
        let out = f(session);
        if out.is_err() && created {
            // Nothing was applied; do not leave an empty session behind.
            self.set_slot(shard, sid, None);
            return out;
        }
        // Settle the ledger against actual post-op capacities.
        let now = session.mem_now();
        self.recharge(&mut session.mem, now);
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
                log.extend(events);
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
        let mut guard = self.shard_of(sid).lock().expect("shard lock");
        let shard = &mut *guard;
        self.make_live(shard, sid, false)?;
        let Some(Slot::Live(session)) = self.set_slot(shard, sid, None) else {
            unreachable!("make_live left sid live");
        };
        drop(guard);
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
        let mut shard = self.shard_of(sid).lock().expect("shard lock");
        self.spill_locked(&mut shard, sid)
    }

    /// Graceful drain: spills every live session to snapshots so a
    /// restarted daemon can [`recover`](SessionTable::recover) them.
    /// Returns how many sessions were spilled.
    pub fn drain(&self) -> usize {
        let mut spilled = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            while let Some(&sid) = shard.lru.values().next() {
                if !self.spill_locked(&mut shard, sid) {
                    break;
                }
                spilled += 1;
            }
        }
        spilled
    }

    /// The table's half of the fleet metrics: session gauges and counters,
    /// the ledger against its budget, and degradation and parse totals
    /// over live, spilled and retired sessions. The engine's frame
    /// counters read 0. Walks every shard's slots once (one lock at a
    /// time), so it is consistent per shard, not globally atomic.
    pub fn stats(&self) -> FleetMetrics {
        let mut out = FleetMetrics {
            events_total: self.events.load(Ordering::Relaxed),
            bytes_used: self.used.load(Ordering::Relaxed),
            budget_bytes: self.cfg.global_budget,
            evictions: self.evictions.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            ..FleetMetrics::default()
        };
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            for slot in shard.slots.values_mut() {
                match slot {
                    Slot::Live(session) => {
                        out.sessions_live += 1;
                        out.degradation.merge(session.analyzer.degradation());
                        out.parse.merge(session.meta);
                    }
                    Slot::Spilled(record) => {
                        out.sessions_spilled += 1;
                        out.degradation.merge(record.degradation);
                        out.parse.merge(record.meta);
                    }
                    Slot::Quarantined(_) => out.sessions_quarantined += 1,
                }
            }
        }
        let retired = self.retired.lock().expect("retired lock");
        out.degradation.merge(retired.degradation);
        out.parse.merge(retired.meta);
        out.sessions_ended = retired.sessions_ended;
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
        assert_eq!(table.stats().sessions_live, 0);
        assert_eq!(table.stats().sessions_ended, 1);
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
            assert_eq!(table.stats().sessions_live, 0);
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
        assert_eq!(stats.sessions_live + stats.sessions_spilled, 32);
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
        assert_eq!(table.stats().sessions_quarantined, 1);
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
        // Recounted from the shards: what their slots hold, and what
        // their maps allocate.
        let slots = |table: &SessionTable| -> usize {
            let shards = table.shards.iter().map(|s| s.lock().unwrap());
            shards
                .map(|s| s.slots.values().map(Slot::mem).sum::<usize>())
                .sum()
        };
        let maps = |table: &SessionTable| -> usize {
            let shards = table.shards.iter().map(|s| s.lock().unwrap());
            shards.map(|mut s| s.footprint()).sum()
        };
        // The live charges are gone; the two spill records' stay.
        assert_eq!(table.bytes_used(), slots(&table) + maps(&table));

        // "Restart": a fresh table over the same directory.
        let reborn = SessionTable::new(cfg);
        assert_eq!(reborn.recover(), 2);
        assert_eq!(reborn.bytes_used(), slots(&reborn) + maps(&reborn));
        let (_, _, _, events) = reborn.query(11).unwrap();
        assert_eq!(events, 35);
        let report = reborn.end_session(10).unwrap();
        assert_eq!(report.events, 25);
        reborn.end_session(11).unwrap();
        // Every slot's charge is released; the buckets the two sessions
        // left in their shards' maps stay charged.
        assert_eq!(slots(&reborn), 0);
        assert!(maps(&reborn) > 0);
        assert_eq!(reborn.bytes_used(), maps(&reborn));
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
        assert!(
            stats.sessions_live > 0,
            "failed victims stay live, never lost"
        );
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
            let Some(Slot::Live(session)) = shard.slots.get(&3) else {
                panic!("query restored it");
            };
            session.mem
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
        assert_eq!(stats.events_total, 14);
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
