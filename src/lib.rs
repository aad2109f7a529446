//! # fiveg-onoff
//!
//! A full reproduction of *"An In-Depth Look into 5G ON-OFF Loops in the
//! Wild"* (IMC 2025) as a Rust workspace. This facade crate re-exports the
//! pipeline:
//!
//! * [`rrc`] — typed 4G/5G RRC model, cells, channels, bands, events;
//! * [`nsglog`] — codec for NSG-style signaling-log text;
//! * [`radio`] — deterministic radio environment (path loss, shadowing);
//! * [`policy`] — operator channel plans, per-channel policies, devices;
//! * [`sim`] — UE/RAN simulator emitting signaling + throughput traces;
//! * [`detect`] — serving-cell-set extraction, loop detection,
//!   classification, impact metrics (the paper's contribution);
//! * [`predict`] — §6 loop-probability models;
//! * [`analysis`] — statistics toolkit;
//! * [`campaign`] — the full measurement campaign (areas A1–A11, three
//!   operators, six phone models).
//!
//! At the crate root, the report API takes one capture from log text to a
//! loop report: [`analyze_log_text`], [`analyze_events`], [`LoopReport`],
//! [`LoopFinding`] and [`render_report`] (the `onoff-report` binary prints
//! it).
//!
//! ## Quickstart
//!
//! ```
//! use fiveg_onoff::prelude::*;
//!
//! // Build the paper's showcase location (P16 in area A1, OP_T 5G SA)...
//! let area = fiveg_onoff::campaign::areas::area_a1(42);
//! let p16 = area.locations[15];
//! // ...run one 5-minute stationary experiment...
//! let cfg = SimConfig::stationary(
//!     op_t_policy(), PhoneModel::OnePlus12R, area.env.clone(), p16, 7,
//! );
//! let out = simulate(&cfg);
//! // ...and analyze the trace the way the paper does.
//! let analysis = analyze_trace(&out.events);
//! println!("loop detected: {}", analysis.has_loop());
//! ```

mod report;

pub use report::{analyze_events, analyze_log_text, render_report, LoopFinding, LoopReport};

pub use onoff_analysis as analysis;
pub use onoff_campaign as campaign;
pub use onoff_detect as detect;
pub use onoff_nsglog as nsglog;
pub use onoff_policy as policy;
pub use onoff_predict as predict;
pub use onoff_radio as radio;
pub use onoff_rrc as rrc;
pub use onoff_sim as sim;

/// Common imports for examples and quick scripts.
pub mod prelude {
    pub use onoff_campaign::{
        run_campaign, CampaignConfig, CampaignStats, Dataset, ParallelismConfig,
    };
    pub use onoff_detect::{analyze_trace, LoopType, Merge, Persistence};
    pub use onoff_nsglog::{emit, parse_str};
    pub use onoff_policy::{
        op_a_policy, op_t_policy, op_v_policy, policy_for, Operator, PhoneModel,
    };
    pub use onoff_radio::{Point, RadioEnvironment};
    pub use onoff_rrc::{CellId, ConnState, Pci, Rat, ServingCellSet};
    pub use onoff_sim::{simulate, MovementPath, SimConfig, SimOutput};
}
