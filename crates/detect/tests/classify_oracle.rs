//! Streaming ≡ batch OFF-transition classification on simulated campaigns.
//!
//! The streaming `OffClassifier` keeps only the evidence the §5 rules
//! read: 20 s of non-report facts and the rows of the newest three
//! measurement reports. `classify_all` re-reads the whole trace around
//! every transition. This oracle simulates one five-minute run at every
//! location of all eleven areas, at four campaign seeds, and requires
//! `analyze_trace` to classify every transition exactly as `classify_all`
//! does. The runs must between them cover every §5 sub-type and Unknown,
//! so each rule's evidence is exercised.

use std::collections::BTreeSet;

use onoff_campaign::{all_areas, run_location, CampaignConfig};
use onoff_detect::analyze_trace;
use onoff_detect::classify::{classify_all, LoopType};

/// Campaign seeds: the default one and three more.
const SEEDS: [u64; 4] = [0x050FF, 1, 2, 3];

/// Run length, ms.
const DURATION_MS: u64 = 300_000;

#[test]
fn streaming_classification_matches_batch_on_simulated_campaigns() {
    let device = CampaignConfig::default().device;
    let mut runs = 0u64;
    let mut transitions = 0usize;
    let mut types = BTreeSet::new();
    for seed in SEEDS {
        for area in all_areas(seed) {
            for location in 0..area.locations.len() {
                runs += 1;
                let (_, sim, _) = run_location(&area, location, device, seed ^ runs, DURATION_MS);
                let analysis = analyze_trace(&sim.events);
                let batch = classify_all(&sim.events, &analysis.timeline);
                assert_eq!(
                    analysis.off_transitions, batch,
                    "{} location {location} at seed {seed:#x}",
                    area.name
                );
                transitions += batch.len();
                types.extend(batch.iter().map(|tr| tr.loop_type));
            }
        }
    }
    eprintln!("{transitions} transitions over {runs} runs agree, types {types:?}");
    for ty in LoopType::ALL.into_iter().chain([LoopType::Unknown]) {
        assert!(types.contains(&ty), "no simulated transition is {ty}");
    }
}
