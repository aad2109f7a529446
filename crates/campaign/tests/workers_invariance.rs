//! The flat-job scheduler must be a pure performance change: for a fixed
//! seed, the persisted dataset is bitwise-identical at any worker count.

use onoff_campaign::{run_campaign, CampaignConfig, ParallelismConfig};

/// Reduced campaign (every area, few runs, short traces) so the test
/// stays fast while still exercising the multi-area job enumeration.
fn reduced_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        runs_a1: 2,
        runs_other: 1,
        duration_ms: 20_000,
        parallelism: ParallelismConfig::with_workers(workers),
        ..CampaignConfig::default()
    }
}

#[test]
fn dataset_is_identical_for_any_worker_count() {
    let n = ParallelismConfig::all_cores().workers.max(3);
    let baseline = run_campaign(&reduced_config(1));
    let baseline_json = serde_json::to_string_pretty(&baseline).unwrap();

    for workers in [2, n] {
        let ds = run_campaign(&reduced_config(workers));
        let json = serde_json::to_string_pretty(&ds).unwrap();
        assert_eq!(
            baseline_json, json,
            "persisted dataset diverged at workers={workers}"
        );
    }
}

#[test]
fn stats_reflect_worker_count_but_not_persistence() {
    let ds1 = run_campaign(&reduced_config(1));
    let ds2 = run_campaign(&reduced_config(2));
    assert_eq!(ds1.stats.workers, 1);
    assert_eq!(ds2.stats.workers, 2);
    // The pool drains same-area batches of at most eight runs: the 127
    // runs here form 23 of them, so no more than 23 workers get any work,
    // however many are asked for.
    let ds64 = run_campaign(&reduced_config(64));
    assert_eq!(ds64.stats.workers, 23);
    assert_eq!(ds1.stats.runs, ds1.records.len());
    assert_eq!(ds1.stats.runs, ds2.stats.runs);
    assert_eq!(ds1.stats.events_processed, ds2.stats.events_processed);
    assert!(ds1.stats.events_processed > 0);
    assert!(ds1.stats.simulated_ms > 0);
    // The stats block must not leak into the serialized form: equal JSON
    // across worker counts is only possible if it is skipped.
    let json = serde_json::to_string(&ds1).unwrap();
    assert!(!json.contains("wall_ms"));
}
