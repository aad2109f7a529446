//! Chaos-mode campaign acceptance: a poisoned run is quarantined instead
//! of aborting the campaign, the quarantine ledger persists, chaos mode
//! stays deterministic across worker counts, and the campaign's chaos
//! stage agrees with an independent per-run reference.

use onoff_campaign::{
    all_areas, load_json, run_campaign, save_json, scoring_config_for, Area, CampaignConfig,
    ChaosOptions, ParallelismConfig, QuarantinedRun, RunRecord,
};
use onoff_detect::TraceAnalyzer;
use onoff_nsglog::{parse_str_lossy, RecoveryPolicy};
use onoff_policy::policy_for;
use onoff_radio::noise::hash_words;
use onoff_sim::{simulate, ChaosConfig, ChaosEngine, SimConfig};

fn reduced_config(workers: usize, chaos: Option<ChaosOptions>) -> CampaignConfig {
    CampaignConfig {
        runs_a1: 2,
        runs_other: 1,
        duration_ms: 15_000,
        parallelism: ParallelismConfig::with_workers(workers),
        chaos,
        ..CampaignConfig::default()
    }
}

fn poisoned_options() -> ChaosOptions {
    ChaosOptions {
        chaos: ChaosConfig::quiet(),
        policy: RecoveryPolicy::SkipAndCount,
        max_attempts: 2,
        backoff_base_ms: 0,
        max_loss_ratio: 0.5,
        poison: Some(("A1".to_string(), 0)),
    }
}

#[test]
fn poisoned_run_is_quarantined_not_fatal() {
    let clean = run_campaign(&reduced_config(2, None));
    let ds = run_campaign(&reduced_config(2, Some(poisoned_options())));

    // Both A1/location-0 runs were poisoned with destroy-level chaos and
    // must end up in the ledger after exhausting their attempts…
    assert_eq!(ds.quarantine.runs.len(), 2);
    for q in &ds.quarantine.runs {
        assert_eq!(q.area, "A1");
        assert_eq!(q.location, 0);
        assert_eq!(q.attempts, 2);
        assert!(
            q.reason.contains("loss ratio"),
            "unexpected reason: {}",
            q.reason
        );
    }
    // …while every other run of the campaign completed and aggregated.
    assert_eq!(ds.records.len(), clean.records.len() - 2);
    assert!(ds
        .records
        .iter()
        .all(|r| !(r.area == "A1" && r.location == 0)));
    // Each poisoned run spent one retry; the quiet runs and every clean
    // run took one attempt.
    assert_eq!(ds.stats.attempts, ds.stats.runs + 2);
    assert_eq!(clean.stats.attempts, clean.stats.runs);

    // The ledger survives persistence.
    let dir = std::env::temp_dir().join("onoff_chaos_campaign_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ds.json");
    save_json(&ds, &path).unwrap();
    let back = load_json(&path).unwrap();
    assert_eq!(back.quarantine, ds.quarantine);
    std::fs::remove_file(&path).ok();
}

#[test]
fn quiet_chaos_matches_the_clean_pipeline() {
    // With zero fault probabilities the dirty pipeline is the round-trip
    // pipeline: emit → parse is lossless, so the dataset must be
    // bitwise-identical to clean mode and the ledger empty.
    let clean = run_campaign(&reduced_config(1, None));
    let quiet = run_campaign(&reduced_config(
        1,
        Some(ChaosOptions {
            chaos: ChaosConfig::quiet(),
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        }),
    ));
    assert!(quiet.quarantine.is_clean());
    assert_eq!(
        serde_json::to_string_pretty(&clean).unwrap(),
        serde_json::to_string_pretty(&quiet).unwrap()
    );
}

#[test]
fn chaos_campaign_is_worker_count_invariant() {
    let baseline = run_campaign(&reduced_config(1, Some(poisoned_options())));
    let parallel = run_campaign(&reduced_config(3, Some(poisoned_options())));
    assert_eq!(
        serde_json::to_string_pretty(&baseline).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap()
    );
}

/// The campaign's per-run seed derivation: master seed × operator × area
/// name × location × run index.
fn job_seed(seed: u64, area: &Area, location: usize, run: usize) -> u64 {
    let name = area
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    hash_words(&[
        seed,
        area.operator as u64,
        name,
        location as u64,
        run as u64,
    ])
}

/// What the per-run reference makes of one chaos job.
enum Outcome {
    /// Accepted at `attempt`, having skipped `lost` malformed records.
    Accepted {
        record: RunRecord,
        attempt: u32,
        lost: usize,
    },
    Quarantined(QuarantinedRun),
}

/// One chaos job done the slow, obvious way: simulate the run alone, render
/// it, then per attempt corrupt the text with that attempt's chaos seed,
/// re-parse it lossily and analyze the survivors with a fresh scored
/// analyzer. The first attempt within the loss gate is accepted.
fn reference_job(
    area: &Area,
    location: usize,
    seed: u64,
    cfg: &CampaignConfig,
    opts: &ChaosOptions,
) -> Outcome {
    let policy = policy_for(area.operator);
    let scoring = scoring_config_for(area.operator, &policy);
    let mut sim = SimConfig::stationary(
        policy,
        cfg.device,
        area.env.clone(),
        area.locations[location],
        seed,
    );
    sim.duration_ms = cfg.duration_ms;
    sim.meas_period_ms = 1000;
    let mut out = simulate(&sim);
    let text = out.to_log();
    let mut reason = String::new();
    for attempt in 1..=opts.max_attempts {
        let chaos_seed = hash_words(&[seed, u64::from(attempt), 0xC4A05]);
        let dirty = ChaosEngine::new(opts.chaos.clone(), chaos_seed).corrupt_text(&text);
        let (events, stats) = parse_str_lossy(&dirty, opts.policy);
        if stats.loss_ratio() > opts.max_loss_ratio {
            reason = format!(
                "loss ratio {:.2} exceeds {:.2}",
                stats.loss_ratio(),
                opts.max_loss_ratio
            );
            continue;
        }
        let mut analyzer = TraceAnalyzer::with_scoring(scoring.clone());
        for ev in &events {
            analyzer.feed(ev);
        }
        let predictions = analyzer.predictions().expect("scoring enabled");
        let analysis = analyzer.finish();
        out.events = events;
        let record = RunRecord::from_run(
            area.operator,
            &area.name,
            location,
            cfg.device,
            seed,
            &out,
            &analysis,
            &predictions,
        );
        return Outcome::Accepted {
            record,
            attempt,
            lost: stats.skipped,
        };
    }
    Outcome::Quarantined(QuarantinedRun {
        operator: area.operator,
        area: area.name.clone(),
        location,
        seed,
        attempts: opts.max_attempts,
        reason,
    })
}

#[test]
fn chaos_campaign_matches_the_per_run_reference() {
    let opts = ChaosOptions {
        backoff_base_ms: 0,
        ..ChaosOptions::default()
    };
    let cfg = CampaignConfig {
        runs_a1: 1,
        runs_other: 1,
        parallelism: ParallelismConfig::with_workers(2),
        chaos: Some(opts.clone()),
        ..CampaignConfig::default()
    };
    let ds = run_campaign(&cfg);

    let (mut records, mut quarantined) = (Vec::new(), Vec::new());
    let (mut lost, mut retried) = (0, 0);
    for area in &all_areas(cfg.seed) {
        for location in 0..area.locations.len() {
            let seed = job_seed(cfg.seed, area, location, 0);
            match reference_job(area, location, seed, &cfg, &opts) {
                Outcome::Accepted {
                    record,
                    attempt,
                    lost: skipped,
                } => {
                    retried += usize::from(attempt > 1);
                    lost += skipped;
                    records.push(record);
                }
                Outcome::Quarantined(run) => quarantined.push(run),
            }
        }
    }
    records.sort_by_key(|r| (r.operator, r.area.clone(), r.location, r.seed));
    quarantined.sort_by_key(|q| (q.operator, q.area.clone(), q.location, q.seed));

    // The reference must have walked both non-trivial paths: a run
    // accepted only after a retry, and a run that exhausted its attempts.
    assert!(retried >= 1, "no run was accepted after a retry");
    assert!(!quarantined.is_empty(), "no run was quarantined");

    assert_eq!(
        serde_json::to_string_pretty(&ds.records).unwrap(),
        serde_json::to_string_pretty(&records).unwrap()
    );
    assert_eq!(ds.quarantine.runs, quarantined);
    assert_eq!(ds.quarantine.records_lost, lost);
}
