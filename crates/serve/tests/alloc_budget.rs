//! Allocation-budget regression tests for the serving tier's ingest path.
//!
//! Steady-state fleet ingest recycles every per-frame buffer (DESIGN.md
//! §16): the engine's parse-scratch pool hands each frame a warm event
//! buffer, `parse_str_lossy_into` / `read_all_into` fill it in place, and
//! `SessionTable::ingest_drain` moves the events out while leaving the
//! capacity with the caller. These tests pin that contract with a counting
//! global allocator, so a reintroduced per-frame `Vec` or per-event clone
//! of heap payload fails CI before it erodes the `serve-ingest`
//! perf-snapshot numbers. The daemon's wire path is pinned the same way:
//! its per-connection frame loop copies no payload and reuses one answer
//! buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_campaign::{all_areas, run_location};
use onoff_policy::PhoneModel;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::protocol::SID_OFFSET;
use onoff_serve::{
    FrameBuf, FrameLoop, Request, RequestView, Response, ServeConfig, ServeEngine, SessionMeta,
    SessionTable,
};

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside [`count_allocs`]. Only that thread's
    /// allocations count, so the tests of this binary running in parallel
    /// cannot bill theirs to each other.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least this many bytes also count in `LARGE`; a
    /// reallocation counts at its new size.
    static LARGE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = MEASURING.try_with(|on| {
            if on.get() {
                ALLOCS.with(|n| n.set(n.get() + 1));
                if layout.size() >= LARGE_FROM.with(Cell::get) {
                    LARGE.with(|n| n.set(n.get() + 1));
                }
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
    LARGE.with(|n| n.set(0));
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

/// One ingest frame on the wire, with what its answer must acknowledge.
struct WireFrame {
    wire: Vec<u8>,
    /// Length of its text or store bytes: the payload past the sid.
    body: usize,
    events: u64,
}

impl WireFrame {
    /// The request, decoded in place as the loop decodes it: the kind
    /// byte follows the 4-byte length, and the payload the kind.
    fn view(&self) -> RequestView<'_> {
        RequestView::decode(self.wire[4], &self.wire[5..]).expect("a well-formed frame")
    }
}

/// Wire-path contract: the daemon's per-connection frame loop
/// ([`FrameLoop`]) parses each frame where its reassembly buffer holds it
/// and encodes every answer into one reused buffer. Sessions streaming a
/// simulated five-minute trace per area in 64-event frames, half as NSG
/// text and half as store blobs, go through one loop frame by frame,
/// round-robin, as the daemon serves a connection; a twin engine is fed
/// the same requests straight through `ServeEngine::handle_view`. Once
/// the sessions and the loop's buffers are warm, serving a frame through
/// the loop may make no allocation as large as the frame's text or store
/// bytes, as a copy of them would be, beyond those the engine itself
/// makes for it (a session's analyzer grows by doubling, and now and then
/// past a compact store frame's size). And a warm ping, whose answer is
/// an `Ok`, allocates nothing at all.
#[test]
fn warm_wire_frames_copy_no_payload() {
    const FRAME_EVENTS: usize = 64;
    let seed = 0x050FF;
    let mut sessions: Vec<Vec<WireFrame>> = Vec::new();
    for (i, area) in all_areas(seed).iter().enumerate() {
        let (_, sim, _) = run_location(area, 0, PhoneModel::OnePlus12R, seed ^ i as u64, 300_000);
        let chunks = || sim.events.chunks(FRAME_EVENTS);
        let text = chunks().map(|c| Request::TextEvents {
            sid: 2 * i as u64 + 1,
            text: onoff_nsglog::emit(c),
        });
        let bin = chunks().map(|c| Request::BinEvents {
            sid: 2 * i as u64,
            bytes: onoff_store::encode_events(c),
        });
        for reqs in [text.collect::<Vec<_>>(), bin.collect()] {
            let frames = reqs.iter().zip(chunks()).map(|(req, c)| {
                let wire = req.encode().expect("64-event frames fit");
                WireFrame {
                    body: wire.len() - (SID_OFFSET + 8),
                    wire,
                    events: c.len() as u64,
                }
            });
            sessions.push(frames.collect());
        }
    }
    let half = sessions.iter().map(Vec::len).min().expect("sessions") / 2;
    let longest = sessions.iter().map(Vec::len).max().expect("sessions");
    let round_robin = |range: std::ops::Range<usize>| {
        let sessions = &sessions;
        range.flat_map(move |f| sessions.iter().filter_map(move |s| s.get(f)))
    };

    let mut conn = FrameLoop::new();
    let mut out = Vec::new();
    // Warm the loop's buffers on the frames measured below, through an
    // engine of their own, then warm the sessions on the first halves.
    let spare = ServeEngine::new(wide_open());
    for frame in round_robin(half..longest) {
        out.clear();
        assert!(conn.serve(&spare, &frame.wire, &mut out));
    }
    let (engine, twin) = (ServeEngine::new(wide_open()), ServeEngine::new(wide_open()));
    for frame in round_robin(0..half) {
        out.clear();
        assert!(conn.serve(&engine, &frame.wire, &mut out));
        twin.handle_view(frame.view());
    }

    let (mut measured, mut engine_large) = (0usize, 0u64);
    for frame in round_robin(half..longest) {
        LARGE_FROM.with(|l| l.set(frame.body));
        out.clear();
        let (keep, allocs) = count_allocs(|| conn.serve(&engine, &frame.wire, &mut out));
        let wire_large = LARGE.with(Cell::get);
        let (expected, _) = count_allocs(|| twin.handle_view(frame.view()));
        let twin_large = LARGE.with(Cell::get);
        LARGE_FROM.with(|l| l.set(usize::MAX));
        assert!(keep, "a well-framed ingest keeps the connection");
        assert_eq!(
            wire_large, twin_large,
            "serving a frame of {} payload bytes through the loop made {wire_large} \
             allocations at least that large ({allocs} in all), the engine alone {twin_large}",
            frame.body
        );
        let mut answers = FrameBuf::new();
        answers.push(&out);
        let (kind, payload) = answers.next_frame().unwrap().expect("one answer");
        let answer = Response::decode(kind, payload);
        assert_eq!(answer, Ok(expected));
        assert_eq!(
            answer,
            Ok(Response::Ok {
                events: frame.events
            })
        );
        measured += 1;
        engine_large += twin_large;
    }
    assert!(measured >= 100, "the check must cover a meaningful feed");
    eprintln!(
        "{measured} warm frames; the engine made {engine_large} allocations as large as \
         a frame's payload, the loop none more"
    );

    let ping = Request::Ping.encode().expect("a ping frames");
    out.clear();
    assert!(conn.serve(&engine, &ping, &mut out));
    out.clear();
    let (keep, allocs) = count_allocs(|| conn.serve(&engine, &ping, &mut out));
    assert!(keep);
    assert_eq!(
        allocs, 0,
        "a warm ping round trip through the loop allocates"
    );
    assert_eq!(out, Response::Ok { events: 0 }.encode());

    let mut answer = Vec::new();
    Response::Ok { events: 64 }.encode_into(&mut answer);
    let ((), allocs) = count_allocs(|| {
        answer.clear();
        Response::Ok { events: 64 }.encode_into(&mut answer);
    });
    assert_eq!(
        allocs, 0,
        "encoding an Ok into a warm answer buffer allocates"
    );
}
