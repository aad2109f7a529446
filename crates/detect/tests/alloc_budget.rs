//! Allocation-budget regression test for the detect hot path.
//!
//! The PR that introduced `InlineVec`/`FxMap` brought batch analysis down
//! from ~1.1 allocations per event to well under one; this test pins that
//! property with a counting global allocator so an accidental `clone()` or
//! `format!` on the per-event path fails CI instead of silently eroding
//! throughput. The budget has headroom over the measured figure (see
//! `BENCH_PR5.json`) to stay robust across allocator and codegen noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_detect::analyze_trace;
use onoff_rrc::ids::{CellId, Pci};
use onoff_sim::TraceBuilder;

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

/// A loop-rich scripted workload: repeated SA SCell-modification failures
/// (S1E3 cycles) plus measurement reports — the same event mix the
/// perf-snapshot harness feeds the detect stage.
fn workload(cycles: u64) -> Vec<onoff_rrc::trace::TraceEvent> {
    let pcell = CellId::nr(Pci(393), 521310);
    let scell = CellId::nr(Pci(273), 387410);
    let bad = CellId::nr(Pci(371), 387410);
    let mut b = TraceBuilder::new();
    for k in 0..cycles {
        b = b
            .at(k * 40_000)
            .establish(pcell)
            .after(1_000)
            .report(Some("A3"), &[(scell, -85.0, -11.0), (bad, -95.0, -14.0)])
            .after(2_000)
            .add_scells(&[scell])
            .after(2_000)
            .scell_mod(1, bad, true);
    }
    b.build()
}

#[test]
fn warm_scoring_session_allocates_nothing() {
    use onoff_detect::ScoringConfig;
    use onoff_predict::OnlineScorer;

    let events = workload(200);
    // Warm pass: the first traversal grows the scorer's measurement table
    // and per-cell reservoirs once; `reset_session` keeps that capacity.
    let mut scorer = OnlineScorer::new(ScoringConfig::default());
    for ev in &events {
        scorer.feed(ev);
    }
    assert!(scorer.scored() > 0, "workload must exercise the scorer");

    scorer.reset_session();
    let ((), allocs) = count_allocs(|| {
        for ev in &events {
            scorer.feed(ev);
        }
    });
    assert!(scorer.scored() > 0);
    // Exactly zero, not a budget: scoring rides inside the campaign's
    // per-event hot path, and every capture path uses fixed-capacity
    // inline structures (`InlineVec`, reused reservoir rings).
    assert_eq!(
        allocs,
        0,
        "a warm scoring session allocated {allocs} times over {} events",
        events.len()
    );
}

#[test]
fn batch_analyze_allocs_per_event_within_budget() {
    let events = workload(200);
    // Warm-up pass so lazily-initialized runtime structures don't bill
    // their one-time allocations to the measured pass.
    let warm = analyze_trace(&events);
    assert!(warm.has_loop(), "workload must exercise the loop detector");

    let (analysis, allocs) = count_allocs(|| analyze_trace(&events));
    assert!(analysis.has_loop());

    let per_event = allocs as f64 / events.len() as f64;
    // This workload is deliberately transition-dense (one OFF transition
    // per ~8 events), so the per-*transition* classification scratch
    // dominates: the measured figure is ~0.41 allocs/event, versus ~0.13
    // on the realistic perf-snapshot trace (see `BENCH_PR5.json`). The
    // budget sits between that and the ≥1.0 a reintroduced per-event
    // clone or format would cost, so hot-path regressions trip loudly.
    assert!(
        per_event <= 0.50,
        "batch analyze allocated {allocs} times over {} events \
         ({per_event:.3} allocs/event, budget 0.50)",
        events.len()
    );
}
