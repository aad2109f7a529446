//! Working-set budget for a fleet of concurrent serving sessions.
//!
//! A table without a snapshot directory can never spill a session, so it
//! keeps no event log: each session holds its streaming analyzer and a
//! count of the events fed, not a decoded copy of every event
//! (DESIGN.md §15). This test pins that: 64 concurrent sessions, scoring
//! on, each fed one simulated five-minute trace in 64-event
//! `ingest_drain` frames round-robin, must peak within [`BUDGET_BYTES`]
//! of live heap. Sessions that copy every event into a log again
//! (≈ 18 MB here) fail it.
//!
//! The allocator counts live bytes for the measuring thread only, through
//! a const-initialised thread-local flag, so tests running in parallel in
//! this binary cannot disturb the figure. The traces are simulated before
//! measuring starts; the table, the sessions and the per-frame event
//! clones are what it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_campaign::{all_areas, run_location};
use onoff_detect::ScoringConfig;
use onoff_policy::PhoneModel;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::{ServeConfig, SessionMeta, SessionTable};

/// Peak live heap allowed for the whole fleet.
const BUDGET_BYTES: i64 = 4 << 20;
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
    assert_eq!(stats.live, SESSIONS, "every session stays live");
    assert_eq!(stats.events, fed);
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
