//! Working-set budget for a fleet of concurrent serving sessions.
//!
//! A table without a snapshot directory can never spill a session, so it
//! keeps no event log: each session holds its streaming analyzer and a
//! count of the events fed, not a decoded copy of every event
//! (DESIGN.md §15). This test pins that: 64 concurrent sessions, scoring
//! on, each fed one simulated five-minute trace in 64-event
//! `ingest_drain` frames round-robin, must peak within [`BUDGET_BYTES`]
//! of live heap. It reads 1,550,708 B with each analyzer keeping its
//! throughput as bare values per timeline interval and each session boxed
//! out of its shard's slot map; keeping a timestamp with every value and the
//! whole session inline in the map's buckets (1,984,532 B) fails it, and
//! so do keeping 20 s of report rows in the OFF classifier (≈ 2.8 MB) or
//! sessions that copy every event into a log again (≈ 18 MB).
//!
//! The ledger that enforces such budgets charges each slot of a shard's
//! one sid-keyed map for what it holds (a live session its boxed
//! `Session`, its analyzer's `mem_hint` and its event log when the table
//! has a snapshot directory; a spilled session its spill record; a
//! quarantined one its tombstone), and each shard for what its slot map
//! and LRU allocate. A second test pins that the hint covers what a
//! scored session's analyzer really holds, pending reports included, and
//! that a logged session's charge covers what the whole table holds —
//! the box, the maps and the report rows its logged events own included —
//! from the moment it opens and through an evict → restore. A third test
//! leaves a table holding many spilled and quarantined sessions and pins
//! that the charge covers them and exceeds their live heap by at most a
//! quarter, and a fourth ends every session of a churning one-shard table
//! and pins that the buckets the ended sessions leave stay charged.
//!
//! The allocator counts live bytes for the measuring thread only, through
//! a const-initialised thread-local flag, so tests running in parallel in
//! this binary cannot disturb the figure. The traces are simulated before
//! measuring starts; the table, the sessions and the per-frame event
//! clones are what it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_campaign::{all_areas, run_location};
use onoff_detect::{ScoringConfig, StreamingAnalyzer};
use onoff_policy::PhoneModel;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::{snapshot_path, ServeConfig, SessionError, SessionMeta, SessionTable};

/// Peak live heap allowed for the whole fleet: 1.75 MiB.
const BUDGET_BYTES: i64 = 7 << 18;
/// Concurrent sessions.
const SESSIONS: usize = 64;
/// Locations per area whose traces the sessions stream.
const LOCATIONS: usize = 4;
/// Events per ingest frame.
const FRAME_EVENTS: usize = 64;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to the live total when this thread is measuring.
fn note(delta: i64) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

struct LiveBytes;

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Five-minute traces: every area of the campaign × [`LOCATIONS`].
fn traces() -> Vec<Vec<TraceEvent>> {
    let seed = 0x050FF;
    let mut out = Vec::new();
    for area in all_areas(seed) {
        for loc in 0..LOCATIONS {
            let run_seed = seed ^ (out.len() as u64 + 1);
            let (_, sim, _) = run_location(&area, loc, PhoneModel::OnePlus12R, run_seed, 300_000);
            out.push(sim.events);
        }
    }
    out
}

#[test]
fn concurrent_sessions_without_snapshot_dir_within_budget() {
    let traces = traces();
    let feeds: Vec<&[TraceEvent]> = (0..SESSIONS)
        .map(|s| traces[s % traces.len()].as_slice())
        .collect();
    let frames = feeds
        .iter()
        .map(|t| t.len().div_ceil(FRAME_EVENTS))
        .max()
        .expect("sessions");
    let mut burst: Vec<TraceEvent> = Vec::with_capacity(FRAME_EVENTS);

    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKING.with(|on| on.set(true));
    let table = SessionTable::new(ServeConfig {
        global_budget: 16 << 30,
        session_budget: 1 << 30,
        scoring: Some(ScoringConfig::default()),
        ..ServeConfig::default()
    });
    let mut fed = 0u64;
    for f in 0..frames {
        for (sid, trace) in feeds.iter().enumerate() {
            let Some(frame) = trace.chunks(FRAME_EVENTS).nth(f) else {
                continue;
            };
            burst.extend_from_slice(frame);
            fed += table
                .ingest_drain(sid as u64, &mut burst, SessionMeta::default())
                .expect("wide-open budget never sheds");
        }
    }
    TRACKING.with(|on| on.set(false));
    let peak = PEAK.with(Cell::get);

    let stats = table.stats();
    assert_eq!(stats.sessions_live, SESSIONS, "every session stays live");
    assert_eq!(stats.events_total, fed);
    let total: usize = feeds.iter().map(|t| t.len()).sum();
    assert_eq!(fed, total as u64, "every event was accepted");
    assert!(
        fed > 10_000,
        "the fleet must stream a meaningful event volume"
    );
    eprintln!(
        "peak {peak} B over {fed} events ({:.0} B/event), {SESSIONS} sessions",
        peak as f64 / fed as f64
    );
    assert!(
        peak <= BUDGET_BYTES,
        "{SESSIONS} sessions peaked at {:.2} MB of live heap (budget {:.2} MB)",
        peak as f64 / 1_048_576.0,
        BUDGET_BYTES as f64 / 1_048_576.0,
    );
}

/// A scored session's `mem_hint` never falls below the live heap of its
/// analyzer, checked after every event while the reorder buffer holds the
/// last five seconds of the feed — measurement reports whose rows spilled
/// past the inline eight among them. Each analyzer starts from zero live
/// bytes and owns every event clone it is fed.
///
/// Then the same traces go through a table with a snapshot directory, one
/// session per table in [`FRAME_EVENTS`]-event frames, and the ledger's
/// charge must cover the live heap once the session opens and after every
/// frame, the session's log and the report rows its events own included.
/// Halfway through each trace the session is evicted, and the charge must
/// cover what the table keeps of it (its spill record and the shard's
/// maps); then a query restores it from its snapshot, and the charge
/// must cover the restored session too.
/// Each table starts from zero live bytes right after it is built, before
/// its session exists, so the session's box and the shard's maps, what
/// the session grows to hold (analyzer, log, the heap its logged events
/// own) and what an evict → restore leaves behind are what it measures.
#[test]
fn scored_session_mem_hint_covers_its_live_heap() {
    let traces = traces();
    let mut checks = 0usize;
    let (mut live_sum, mut hint_sum) = (0i64, 0usize);
    TRACKING.with(|on| on.set(true));
    for (i, trace) in traces.iter().enumerate() {
        LIVE.with(|l| l.set(0));
        let mut analyzer = StreamingAnalyzer::with_scoring(ScoringConfig::default());
        for (n, ev) in trace.iter().enumerate() {
            analyzer.feed(ev.clone());
            let (live, hint) = (LIVE.with(Cell::get), analyzer.mem_hint());
            assert!(
                live <= hint as i64,
                "trace {i}: after event {n} the analyzer held {live} B live, mem_hint {hint} B"
            );
            checks += 1;
        }
        live_sum += LIVE.with(Cell::get);
        hint_sum += analyzer.mem_hint();
    }
    TRACKING.with(|on| on.set(false));
    eprintln!(
        "{} traces end at {} B live, {} B hinted on average",
        traces.len(),
        live_sum / traces.len() as i64,
        hint_sum / traces.len()
    );
    assert!(checks > 10_000, "the check must cover a meaningful feed");

    let dir = std::env::temp_dir().join(format!("onoff-serve-heap-ledger-{}", std::process::id()));
    let (mut frames, mut restores) = (0usize, 0usize);
    let (mut live_sum, mut charge_sum) = (0i64, 0usize);
    let mut burst: Vec<TraceEvent> = Vec::with_capacity(FRAME_EVENTS);
    for (i, trace) in traces.iter().enumerate() {
        let table = SessionTable::new(ServeConfig {
            global_budget: 16 << 30,
            session_budget: 1 << 30,
            snapshot_dir: Some(dir.clone()),
            scoring: Some(ScoringConfig::default()),
            ..ServeConfig::default()
        });
        let sid = i as u64;
        let half = trace.len().div_ceil(FRAME_EVENTS) / 2;
        LIVE.with(|l| l.set(0));
        TRACKING.with(|on| on.set(true));
        table
            .ingest(sid, Vec::new(), SessionMeta::default())
            .expect("an empty ingest opens the session");
        let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
        assert!(
            live <= charge as i64,
            "trace {i}: the opened session held {live} B live, charged {charge} B"
        );
        for (f, frame) in trace.chunks(FRAME_EVENTS).enumerate() {
            if f == half {
                assert!(table.evict(sid), "trace {i}: the session spills");
                let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
                assert!(
                    live <= charge as i64,
                    "trace {i}: spilled at frame {f}, the table held {live} B live, \
                     charged {charge} B"
                );
                table.query(sid).expect("the snapshot restores");
                restores += 1;
                let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
                assert!(
                    live <= charge as i64,
                    "trace {i}: restored at frame {f}, the session held {live} B live, \
                     charged {charge} B"
                );
            }
            burst.extend_from_slice(frame);
            table
                .ingest_drain(sid, &mut burst, SessionMeta::default())
                .expect("wide-open budget never sheds");
            let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
            assert!(
                live <= charge as i64,
                "trace {i}: after frame {f} the session held {live} B live, charged {charge} B"
            );
            frames += 1;
        }
        live_sum += LIVE.with(Cell::get);
        charge_sum += table.bytes_used();
        TRACKING.with(|on| on.set(false));
        table.end_session(sid).expect("the session ends");
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "{} logged sessions end at {} B live, {} B charged on average, {frames} frames",
        traces.len(),
        live_sum / traces.len() as i64,
        charge_sum / traces.len()
    );
    assert_eq!(restores, traces.len());
    assert!(frames > 300, "the check must cover a meaningful feed");
}

/// A table that ends up holding many sessions it no longer holds live:
/// [`SESSIONS`] scored sessions with a snapshot directory each take a few
/// frames and are evicted, and then every fourth snapshot is corrupted and
/// a query quarantines its session. The charge must cover the live heap
/// after every eviction and every quarantine, when the table holds spill
/// records and tombstones in its shards' slots and maps whose sessions
/// have all left, and at the end it may exceed the live heap by at most
/// a quarter: the records and tombstones share their shards' maps.
/// Counting starts right after `SessionTable::new`.
#[test]
fn spilled_and_quarantined_sessions_stay_charged() {
    let traces = traces();
    let dir = std::env::temp_dir().join(format!("onoff-serve-heap-spilled-{}", std::process::id()));
    let mut burst: Vec<TraceEvent> = Vec::with_capacity(FRAME_EVENTS);
    let table = SessionTable::new(ServeConfig {
        global_budget: 16 << 30,
        session_budget: 1 << 30,
        snapshot_dir: Some(dir.clone()),
        scoring: Some(ScoringConfig::default()),
        ..ServeConfig::default()
    });
    LIVE.with(|l| l.set(0));
    TRACKING.with(|on| on.set(true));
    let check = |what: &str, sid: u64| {
        let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
        assert!(
            live <= charge as i64,
            "after {what} session {sid}: the table held {live} B live, charged {charge} B"
        );
    };
    for sid in 0..SESSIONS as u64 {
        let trace = &traces[sid as usize % traces.len()];
        for frame in trace.chunks(FRAME_EVENTS).take(4) {
            burst.extend_from_slice(frame);
            table
                .ingest_drain(sid, &mut burst, SessionMeta::default())
                .expect("wide-open budget never sheds");
        }
        assert!(table.evict(sid), "session {sid} spills");
        check("evicting", sid);
    }
    for sid in (0..SESSIONS as u64).step_by(4) {
        let path = snapshot_path(&dir, sid);
        let mut bytes = std::fs::read(&path).expect("the snapshot exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("the snapshot rewrites");
        drop((path, bytes));
        assert!(
            matches!(table.query(sid), Err(SessionError::Quarantined { .. })),
            "session {sid} quarantines"
        );
        check("quarantining", sid);
    }
    TRACKING.with(|on| on.set(false));
    let stats = table.stats();
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.sessions_quarantined, SESSIONS / 4);
    assert_eq!(stats.sessions_spilled, SESSIONS - SESSIONS / 4);
    let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
    eprintln!(
        "{} spilled and {} quarantined sessions hold {live} B live, charged {charge} B",
        stats.sessions_spilled, stats.sessions_quarantined,
    );
    assert!(
        charge as f64 <= 1.25 * live as f64,
        "the table held {live} B live, overcharged at {charge} B"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A table's shard keeps the buckets its sessions leave behind: a one-shard
/// table with scoring on opens [`SESSIONS`] sessions of two
/// [`FRAME_EVENTS`]-event frames each and then ends them all, for a few
/// rounds, so the slot map churns and removals leave tombstones in it.
/// The charge must cover the live heap after every end, counted from right
/// after `SessionTable::new`: the maps' buckets and the `lru`'s root leaf
/// stay charged once their sessions are gone.
#[test]
fn ended_sessions_stay_charged_for_the_buckets_they_leave() {
    let traces = traces();
    let mut burst: Vec<TraceEvent> = Vec::with_capacity(FRAME_EVENTS);
    let table = SessionTable::new(ServeConfig {
        global_budget: 16 << 30,
        session_budget: 1 << 30,
        shards: 1,
        scoring: Some(ScoringConfig::default()),
        ..ServeConfig::default()
    });
    LIVE.with(|l| l.set(0));
    TRACKING.with(|on| on.set(true));
    let mut ends = 0;
    for round in 0..4u64 {
        let sids = (0..SESSIONS as u64).map(|k| round * 1_000 + k * 7);
        for (k, sid) in sids.clone().enumerate() {
            let trace = &traces[k % traces.len()];
            for frame in trace.chunks(FRAME_EVENTS).take(2) {
                burst.extend_from_slice(frame);
                table
                    .ingest_drain(sid, &mut burst, SessionMeta::default())
                    .expect("wide-open budget never sheds");
            }
        }
        for sid in sids {
            table.end_session(sid).expect("the session ends");
            ends += 1;
            let (live, charge) = (LIVE.with(Cell::get), table.bytes_used());
            assert!(
                live <= charge as i64,
                "round {round}: after ending session {sid} the table held {live} B live, \
                 charged {charge} B"
            );
        }
    }
    TRACKING.with(|on| on.set(false));
    eprintln!(
        "{ends} ended sessions leave {} B live, charged {} B",
        LIVE.with(Cell::get),
        table.bytes_used()
    );
    assert_eq!(table.stats().sessions_ended, ends);
}
