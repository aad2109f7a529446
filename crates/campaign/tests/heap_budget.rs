//! Working-set budgets for the clean and chaos campaigns.
//!
//! The campaign streams every run's events straight into the worker's
//! one analyzer and record fold (DESIGN.md §16), so a worker's heap holds
//! one analyzer's state and one recorder window rather than whole
//! five-minute traces. This test pins that: with one worker, the peak
//! live heap of `run_campaign` minus what the returned dataset keeps alive
//! must stay within [`BUDGET_BYTES`]. A pipeline that buffers whole traces
//! again (≈ 5.5 MB here) fails it.
//!
//! A chaos run must keep its rendered capture until its attempts finish,
//! so a worker holds one run's text at a time. The chaos test pins that
//! with its own budget, [`CHAOS_BUDGET_BYTES`]: holding eight runs' text
//! at once (≈ 8.6 MB here) fails it.
//!
//! The allocator counts live bytes for the measuring thread only, through
//! a const-initialised thread-local flag, so tests running in parallel in
//! this binary cannot disturb the figure. One worker keeps the whole
//! campaign on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_campaign::{run_campaign, CampaignConfig, ChaosOptions, ParallelismConfig};

/// Peak working set allowed above the returned dataset.
const BUDGET_BYTES: i64 = 2 << 20;

/// Peak chaos-campaign working set allowed above the returned dataset.
const CHAOS_BUDGET_BYTES: i64 = 4 << 20;

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

#[test]
fn clean_campaign_working_set_within_budget() {
    let cfg = CampaignConfig {
        runs_a1: 1,
        runs_other: 1,
        duration_ms: 300_000,
        parallelism: ParallelismConfig::with_workers(1),
        ..CampaignConfig::default()
    };
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKING.with(|on| on.set(true));
    let ds = run_campaign(&cfg);
    TRACKING.with(|on| on.set(false));
    let (dataset, peak) = (LIVE.with(Cell::get), PEAK.with(Cell::get));

    assert!(
        ds.stats.events_processed > 10_000,
        "the campaign must stream a meaningful event volume"
    );
    let working = peak - dataset;
    eprintln!(
        "peak {peak} B, dataset {dataset} B, working set {working} B over {} events",
        ds.stats.events_processed
    );
    assert!(
        working <= BUDGET_BYTES,
        "clean campaign peaked {:.2} MB above its {:.2} MB dataset (budget {:.2} MB)",
        working as f64 / 1_048_576.0,
        dataset as f64 / 1_048_576.0,
        BUDGET_BYTES as f64 / 1_048_576.0,
    );
}

#[test]
fn chaos_campaign_working_set_within_budget() {
    let cfg = CampaignConfig {
        runs_a1: 1,
        runs_other: 1,
        duration_ms: 300_000,
        parallelism: ParallelismConfig::with_workers(1),
        chaos: Some(ChaosOptions {
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        }),
        ..CampaignConfig::default()
    };
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    TRACKING.with(|on| on.set(true));
    let ds = run_campaign(&cfg);
    TRACKING.with(|on| on.set(false));
    let working = PEAK.with(Cell::get) - LIVE.with(Cell::get);

    assert!(ds.stats.events_processed > 10_000);
    eprintln!("chaos working set {working} B");
    assert!(
        working <= CHAOS_BUDGET_BYTES,
        "chaos campaign peaked {:.2} MB above its dataset (budget {:.2} MB)",
        working as f64 / 1_048_576.0,
        CHAOS_BUDGET_BYTES as f64 / 1_048_576.0,
    );
}
