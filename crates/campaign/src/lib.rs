//! # onoff-campaign
//!
//! Orchestrates the paper's measurement campaign over the simulator:
//! eleven test areas in two cities (A1–A5: OP_T, A6–A8: OP_A, A9–A11:
//! OP_V), sparse test locations per area, repeated 5-minute stationary
//! runs, the six-phone-model sweep (§4.4), and the fine-grained spatial
//! study around P16 (§6).
//!
//! The output is a [`Dataset`] of per-run records plus channel-level
//! aggregates, with methods that compute every figure/table series the
//! paper reports (loop ratios, likelihood breakdowns, cycle/OFF-time
//! distributions, speed CDFs, sub-type breakdowns, channel usage, RSRP
//! structure, prediction features).

pub mod areas;
pub mod dataset;
pub mod fine;
pub mod map;
pub mod persist;
pub mod quarantine;
pub mod record;
pub mod runs;
pub mod survey;

pub use areas::{all_areas, Area};
pub use dataset::{location_predictions, CampaignStats, Dataset, LocationPrediction};
pub use fine::{fine_grained_study, location_features, FineStudy};
pub use map::render_map;
pub use onoff_detect::channel::Merge;
pub use persist::{
    absorb_store_loss, load_json, load_trace, reanalyze_trace, save_json, save_trace,
};
pub use quarantine::{ChaosOptions, QuarantineReport, QuarantinedRun};
pub use record::{scoring_config_for, RsrpSamples, RunRecord};
pub use runs::{
    run_campaign, run_location, run_location_with_policy, CampaignConfig, ParallelismConfig,
};
pub use survey::{drive_survey, Survey, SurveyedCell};
