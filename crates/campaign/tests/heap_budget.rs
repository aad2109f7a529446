//! Working-set budgets for the clean and chaos campaigns.
//!
//! The campaign streams every run's events straight into the worker's
//! one analyzer and record fold (DESIGN.md §16), so a worker's heap holds
//! one analyzer's state and one recorder window rather than whole
//! five-minute traces. This test pins that: with one worker, the peak
//! live heap of `run_campaign` minus what the returned dataset keeps alive
//! must stay within [`BUDGET_BYTES`]. A pipeline that buffers whole traces
//! again (≈ 5.5 MB here) fails it. Each run's record goes straight into
//! its ranked place in one array sized to the job list; the array is
//! allocated before the first run, so all of it counts in the peak from
//! the start.
//!
//! The returned dataset has a budget of its own, [`DATASET_BUDGET_BYTES`]:
//! it grows with every run, and its problem-channel RSRP column, packed
//! at the few bits each run's samples span, is the largest part of it. A
//! record that keeps that column as two-byte integers (283,508 B here)
//! fails it, and so does one that widens it back to 8-byte floats
//! (≈ 0.85 MB).
//!
//! A chaos worker keeps what a clean one does plus buffers bounded by a
//! window: one window of the text each attempt renders as the run streams
//! from its seed, its corrupted copy, and the lossy parser's open record.
//! Each attempt steps, renders, corrupts and re-parses the run a window at
//! a time and keeps nothing of it for the next, so neither its rendered
//! capture, nor a dirty copy of it, nor its parsed trace, nor an encoded
//! log of its events is ever held. The chaos test pins that with
//! [`CHAOS_BUDGET_BYTES`], a quarter of the clean budget: a worker that
//! keeps the run's events as store-encoded blocks between attempts
//! (797,739 B here) fails it, and so does one that keeps the run's
//! rendered capture (≈ 1.45 MB) or a whole dirty copy and the parsed trace
//! beside the capture (≈ 2.4 MB).
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
const CHAOS_BUDGET_BYTES: i64 = 512 << 10;

/// Live bytes the clean campaign's returned dataset may keep.
const DATASET_BUDGET_BYTES: i64 = 256 << 10;

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
    assert!(
        dataset <= DATASET_BUDGET_BYTES,
        "clean dataset keeps {dataset} B live (budget {DATASET_BUDGET_BYTES} B)"
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
    let (dataset, peak) = (LIVE.with(Cell::get), PEAK.with(Cell::get));
    let working = peak - dataset;

    assert!(ds.stats.events_processed > 10_000);
    eprintln!("chaos peak {peak} B, dataset {dataset} B, working set {working} B");
    assert!(
        working <= CHAOS_BUDGET_BYTES,
        "chaos campaign peaked {:.2} MB above its dataset (budget {:.2} MB)",
        working as f64 / 1_048_576.0,
        CHAOS_BUDGET_BYTES as f64 / 1_048_576.0,
    );
}
