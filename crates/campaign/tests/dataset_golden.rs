//! Dataset byte-identity pin: a small clean campaign and the same
//! campaign in chaos mode are serialized with `to_string_pretty`, and the
//! length and FNV-1a-64 hash of the JSON are diffed against a checked-in
//! fixture. A change that claims to leave persisted datasets untouched
//! (an in-memory column type, a pipeline refactor) must pass it with the
//! fixtures unedited. Each dataset must also survive `save_json` →
//! `load_json` and re-serialize to the same bytes.
//!
//! The configuration is one five-minute run per location in every area
//! (102 runs) at two workers; the chaos one uses the default chaos options
//! with retry backoff off.
//!
//! To regenerate after an intentional dataset change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p onoff-campaign --test dataset_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use onoff_campaign::{
    load_json, run_campaign, save_json, CampaignConfig, ChaosOptions, Dataset, ParallelismConfig,
};

fn config(chaos: bool) -> CampaignConfig {
    CampaignConfig {
        runs_a1: 1,
        runs_other: 1,
        duration_ms: 300_000,
        parallelism: ParallelismConfig::with_workers(2),
        chaos: chaos.then(|| ChaosOptions {
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        }),
        ..CampaignConfig::default()
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The snapshot: the JSON's length and hash, plus counts that say what
/// moved when the hash does.
fn render(ds: &Dataset, json: &str) -> String {
    let samples: usize = ds
        .records
        .iter()
        .map(|r| r.problem_channel_rsrp.len())
        .sum();
    let mut out = String::new();
    let _ = writeln!(out, "len {}", json.len());
    let _ = writeln!(out, "fnv1a64 {:016x}", fnv1a64(json.as_bytes()));
    let _ = writeln!(out, "records {}", ds.records.len());
    let _ = writeln!(out, "quarantined {}", ds.quarantine.runs.len());
    let _ = writeln!(out, "problem_channel_rsrp samples {samples}");
    out
}

fn check_golden(name: &str, chaos: bool) {
    let ds = run_campaign(&config(chaos));
    let json = serde_json::to_string_pretty(&ds).unwrap();

    let path = std::env::temp_dir().join(format!(
        "onoff_dataset_golden_{}_{name}.json",
        std::process::id()
    ));
    save_json(&ds, &path).unwrap();
    let back = load_json(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        serde_json::to_string_pretty(&back).unwrap() == json,
        "{name}: load_json(save_json(ds)) re-serialized to different bytes"
    );

    let report = render(&ds, &json);
    let expected_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("dataset_{name}.golden"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(expected_path.parent().unwrap()).unwrap();
        std::fs::write(&expected_path, &report).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("missing snapshot dataset_{name}.golden ({e}); rerun with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        report, expected,
        "dataset golden mismatch for {name}; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn clean_dataset_bytes_are_pinned() {
    check_golden("clean", false);
}

#[test]
fn chaos_dataset_bytes_are_pinned() {
    check_golden("chaos", true);
}
