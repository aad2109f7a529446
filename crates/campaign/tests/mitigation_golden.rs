//! Counterfactual-trace pin: the §7 remedies M1–M4 are applied through
//! `apply_transform` to simulated SA (OP_T, area A1) and NSA (OP_A, area
//! A6; OP_V, area A11) runs, and the length and FNV-1a-64 hash of each
//! rewritten trace's NSG text are diffed against a checked-in fixture. A
//! change to how the transforms track the serving cell set must pass it
//! with the fixture unedited.
//!
//! The runs are the first run of locations 0–7 in each area, three minutes
//! long, seeded as the mitigation table seeds them. Every remedy is
//! applied to every run, so each also sees runs it should pass through
//! untouched. A run's `recorded` line shows which remedies rewrote it: at
//! the default seed M1 and M2 act in A1, M3 in A6 and M4 in A11.
//!
//! To regenerate after an intentional change to a transform:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p onoff-campaign --test mitigation_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use onoff_campaign::areas::area_by_name;
use onoff_campaign::run_location;
use onoff_policy::PhoneModel;
use onoff_predict::{
    apply_transform, KeepScgOnHandover, PolicyTransform, PromptScgRecovery, ScellModFix,
    ScellOnlyRelease,
};
use onoff_radio::noise::hash_words;
use onoff_rrc::trace::TraceEvent;

const SEED: u64 = 0x050FF;
const DURATION_MS: u64 = 180_000;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four remedies with the parameters the mitigation table uses.
fn remedies() -> [(&'static str, Box<dyn PolicyTransform>); 4] {
    [
        ("M1", Box::new(ScellOnlyRelease::new())),
        ("M2", Box::new(ScellModFix::new(387_410))),
        ("M3", Box::new(KeepScgOnHandover::new(5_815))),
        ("M4", Box::new(PromptScgRecovery::new(2_000))),
    ]
}

fn line(out: &mut String, run: &str, arm: &str, events: &[TraceEvent]) {
    let text = onoff_nsglog::emit(events);
    let _ = writeln!(
        out,
        "{run} {arm} events {} len {} fnv1a64 {:016x}",
        events.len(),
        text.len(),
        fnv1a64(text.as_bytes())
    );
}

fn render() -> String {
    let mut out = String::new();
    for name in ["A1", "A6", "A11"] {
        let area = area_by_name(name, SEED).expect("area exists");
        for location in 0..8 {
            let seed = hash_words(&[4242, location as u64, 0]);
            let (_, sim, _) =
                run_location(&area, location, PhoneModel::OnePlus12R, seed, DURATION_MS);
            let run = format!("{name}/{location}");
            line(&mut out, &run, "recorded", &sim.events);
            for (arm, mut transform) in remedies() {
                line(
                    &mut out,
                    &run,
                    arm,
                    &apply_transform(&sim.events, transform.as_mut()),
                );
            }
        }
    }
    out
}

#[test]
fn counterfactual_traces_are_pinned() {
    let report = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mitigation.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &report).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot mitigation.golden ({e}); rerun with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        report, expected,
        "mitigation golden mismatch; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}
