//! Allocation-budget regression tests for the serving tier's ingest path.
//!
//! Steady-state fleet ingest recycles every per-frame buffer (DESIGN.md
//! §16): the engine's parse-scratch pool hands each frame a warm event
//! buffer, `parse_str_lossy_into` / `read_all_into` fill it in place, and
//! `SessionTable::ingest_drain` moves the events out while leaving the
//! capacity with the caller. These tests pin that contract with a counting
//! global allocator, so a reintroduced per-frame `Vec` or per-event clone
//! of heap payload fails CI before it erodes the `serve-ingest`
//! perf-snapshot numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_rrc::trace::TraceEvent;
use onoff_serve::{Request, Response, ServeConfig, ServeEngine, SessionMeta, SessionTable};

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside [`count_allocs`]. Only that thread's
    /// allocations count, so the tests of this binary running in parallel
    /// cannot bill theirs to each other.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = MEASURING.try_with(|on| {
            if on.get() {
                ALLOCS.with(|n| n.set(n.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations the
/// calling thread made meanwhile.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    MEASURING.with(|on| on.set(true));
    let out = f();
    MEASURING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

fn wide_open() -> ServeConfig {
    ServeConfig {
        global_budget: 16 << 30,
        session_budget: 64 << 20,
        shards: 16,
        ..ServeConfig::default()
    }
}

fn throughput_text(base_ms: u64, n: u64) -> String {
    (0..n)
        .map(|k| {
            let ms = base_ms + k * 500;
            format!(
                "{:02}:{:02}:{:02}.{:03} Throughput = {:.3} Mbps\n",
                ms / 3_600_000,
                ms / 60_000 % 60,
                ms / 1000 % 60,
                ms % 1000,
                1.0 + (k % 7) as f64
            )
        })
        .collect()
}

/// Table-level contract: feeding warm sessions from a recycled burst
/// buffer via [`SessionTable::ingest_drain`] allocates only amortized
/// per-session growth — nothing per event, nothing per frame.
#[test]
fn steady_state_table_ingest_allocs_per_event_within_budget() {
    let table = SessionTable::new(wide_open());
    let base: Vec<TraceEvent> =
        onoff_nsglog::parse_str(&throughput_text(0, 256)).expect("synthetic trace parses");

    const SIDS: u64 = 16;
    const WINDOW: usize = 64;
    let mut burst: Vec<TraceEvent> = Vec::new();
    let mut fed_ms = 0u64;
    let mut cycle = |fed_ms: &mut u64| -> u64 {
        let mut fed = 0u64;
        for round in 0..4usize {
            for sid in 0..SIDS {
                let start = (sid as usize * 11 + round * 29) % (base.len() - WINDOW);
                burst.clear();
                burst.extend_from_slice(&base[start..start + WINDOW]);
                // Re-stamp monotonically so the analyzer's in-order path
                // sees a live session, not a replayed loop.
                for (k, ev) in burst.iter_mut().enumerate() {
                    if let TraceEvent::Throughput { t, .. } = ev {
                        *t = onoff_rrc::trace::Timestamp(*fed_ms + k as u64 * 500);
                    }
                }
                fed += table
                    .ingest_drain(sid, &mut burst, SessionMeta::default())
                    .expect("wide-open budget never sheds");
            }
            *fed_ms += WINDOW as u64 * 500;
        }
        fed
    };

    // Warm-up: create the sessions and settle recycled capacities.
    cycle(&mut fed_ms);
    cycle(&mut fed_ms);

    let (events, allocs) = count_allocs(|| cycle(&mut fed_ms));

    assert!(events >= 4096, "cycle must feed a meaningful event volume");
    let per_event = allocs as f64 / events as f64;
    // Throughput events carry no heap payload, and `wide_open` has no
    // snapshot directory, so its sessions keep no event log: steady state
    // is only amortized regrowth of analyzer buffers. The 0.5 budget
    // keeps any per-event allocation a loud failure while tolerating
    // those doubling regrows.
    assert!(
        per_event <= 0.5,
        "steady-state table ingest allocated {allocs} times over {events} events \
         ({per_event:.3} allocs/event, budget 0.5)"
    );
}

/// Engine-level contract: repeated text frames ride the engine's
/// parse-scratch pool — each frame parses into a recycled buffer and
/// drains it into the table, so per-frame cost is the request `String`
/// plus amortized session growth.
#[test]
fn steady_state_engine_text_frames_allocs_per_event_within_budget() {
    let engine = ServeEngine::new(wide_open());

    const SIDS: u64 = 8;
    const PER_FRAME: u64 = 64;
    const ROUNDS: u64 = 4;
    // Pre-build every frame's text up front: the frame payload is the
    // wire's job to produce, not part of the ingest cost under test. Each
    // measured request clones its text (one allocation per frame, exactly
    // what a socket read would cost).
    let frames: Vec<(u64, String)> = (0..3 * ROUNDS)
        .flat_map(|r| {
            (0..SIDS).map(move |sid| (sid, throughput_text(r * PER_FRAME * 500, PER_FRAME)))
        })
        .collect();
    let frames_per_cycle = (ROUNDS * SIDS) as usize;
    let cycle = |chunk: &[(u64, String)]| -> u64 {
        let mut fed = 0u64;
        for (sid, text) in chunk {
            let req = Request::TextEvents {
                sid: *sid,
                text: text.clone(),
            };
            match engine.handle(req) {
                Response::Ok { events } => fed += events,
                other => panic!("wide-open ingest refused: {other:?}"),
            }
        }
        fed
    };

    cycle(&frames[..frames_per_cycle]);
    cycle(&frames[frames_per_cycle..2 * frames_per_cycle]);

    let (events, allocs) = count_allocs(|| cycle(&frames[2 * frames_per_cycle..]));

    assert!(events >= 2048, "cycle must feed a meaningful event volume");
    let per_event = allocs as f64 / events as f64;
    // Each measured frame clones its request text (what a socket read
    // would cost anyway); everything downstream of the parse is pooled.
    // Budget 0.5 allocs/event keeps a per-event clone or a per-frame
    // scratch `Vec` a loud failure.
    assert!(
        per_event <= 0.5,
        "steady-state engine ingest allocated {allocs} times over {events} events \
         ({per_event:.3} allocs/event, budget 0.5)"
    );
}
