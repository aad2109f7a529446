//! The serving-set replay allocates nothing once warm.
//!
//! A `TimelineBuilder` replays one simulated SA run (OP_T, area A1) and
//! one simulated NSA run (OP_A, area A6), is reset, and replays them
//! again. The second pass must not allocate: a pending reconfiguration is
//! held by what it does to the serving set, not by a copy of the command,
//! whose `measConfig` list lives on the heap. Only the measuring thread's
//! allocations count, so the tests of this binary running in parallel
//! cannot bill theirs to each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_campaign::areas::area_by_name;
use onoff_campaign::run_location;
use onoff_detect::TimelineBuilder;
use onoff_policy::PhoneModel;
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::trace::TraceEvent;

struct CountingAlloc;

thread_local! {
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

/// Runs `f` and returns the number of allocations the calling thread made
/// meanwhile.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    MEASURING.with(|on| on.set(true));
    f();
    MEASURING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

fn events(area: &str, location: usize) -> Vec<TraceEvent> {
    let area = area_by_name(area, 0x050FF).expect("area exists");
    let (_, sim, _) = run_location(&area, location, PhoneModel::OnePlus12R, 7, 300_000);
    sim.events
}

/// Replays each run from a reset builder, as a campaign worker does.
fn replay(builder: &mut TimelineBuilder, runs: &[Vec<TraceEvent>]) {
    for run in runs {
        builder.reset();
        for ev in run {
            builder.feed(ev);
        }
    }
}

#[test]
fn warm_timeline_replay_allocates_nothing() {
    let runs = [events("A1", 0), events("A6", 1)];
    for run in &runs {
        let with_meas_config = run
            .iter()
            .filter(|ev| {
                matches!(ev, TraceEvent::Rrc(r) if matches!(
                    &r.msg,
                    RrcMessage::Reconfiguration(body) if !body.meas_config.is_empty()
                ))
            })
            .count();
        assert!(
            with_meas_config > 0,
            "each run must carry a measConfig reconfiguration"
        );
    }

    let mut builder = TimelineBuilder::new();
    replay(&mut builder, &runs);
    let allocs = count_allocs(|| replay(&mut builder, &runs));
    assert!(
        builder.samples().len() > 1,
        "the NSA run must change the set"
    );
    assert_eq!(
        allocs,
        0,
        "a warm timeline replay allocated {allocs} times over {} events",
        runs.iter().map(Vec::len).sum::<usize>()
    );
}
