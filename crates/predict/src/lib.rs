//! # onoff-predict
//!
//! The paper's §6 loop-probability models:
//!
//! * **usage model** — whether a cell-set combination is used at a
//!   location follows a logistic in the PCell RSRP gap:
//!   `uᵢ = 1 / (1 + e^{−k·Δᵖᵢ})` (Fig. 21b's curve, Spearman ≈ +0.66);
//! * **S1E3 failure model** — the loop probability of a combination decays
//!   polynomially in the co-channel SCell RSRP gap:
//!   `pᵢ = max(1 − Δˢᵢ/t, 0)ⁿ` (Fig. 21a, Spearman ≈ −0.65);
//! * **location probability** — `P = Σᵢ uᵢ·pᵢ` over the location's
//!   possible cell-set combinations;
//! * **S1E1/S1E2 extension** — same usage model, failure feature swapped
//!   to the worst SCell's RSRP with a logistic response;
//! * **training** — MSE minimization over the fine-grained spatial samples
//!   via cyclic coordinate descent with golden-section line search;
//! * **online scoring** — the same models evaluated incrementally over a
//!   signaling-event stream ([`scoring`]), with bounded per-cell reservoirs
//!   and percentile-bootstrap confidence intervals;
//! * **counterfactual mitigation** — §7's remedies expressed as policy
//!   transforms over recorded traces ([`mitigate`]), so their effect can be
//!   measured by re-analysis instead of re-simulation.
//!
//! Both read the serving cell set off `onoff_rrc`'s
//! [`ServingReplay`](onoff_rrc::serving::ServingReplay), the replay the
//! detector's timeline runs, so predictions and remedies cannot drift from
//! detection on how an RRC command reshapes the set.

pub mod eval;
pub mod mitigate;
pub mod model;
pub mod scoring;
pub mod train;
pub mod validate;

pub use eval::{error_stats, ErrorStats};
pub use mitigate::{
    apply_transform, KeepScgOnHandover, PolicyTransform, PromptScgRecovery, ScellModFix,
    ScellOnlyRelease,
};
pub use model::{CellsetFeatures, LocationSample, ModelDomainError, S1Model, S1e3Model};
pub use scoring::{CellPrediction, OnlineScorer, PredictionReport, ScoringConfig};
pub use train::{train_s1, train_s1e3};
pub use validate::{binned_curve, cross_validate_s1e3};
