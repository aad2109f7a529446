//! # onoff-sim
//!
//! Discrete-event UE/RAN simulator: given a radio environment
//! ([`onoff_radio`]), an operator policy and a device profile
//! ([`onoff_policy`]), it replays the RRC lifecycle of a measurement run and
//! emits the observable trace — signaling messages, MM-state transitions and
//! per-second download throughput — exactly as the paper's capture stack
//! (Network Signal Guru + tcpdump) would have seen it.
//!
//! The 5G ON-OFF loop dynamics are **emergent**: the engines implement the
//! standard procedures (establishment, measurement/reporting, SCell
//! modification, handover, SCG management) and the operators' channel
//! policies; loops appear wherever the radio conditions and policies line up
//! the way the paper describes — no loop is scripted. The simulator records
//! the causes it injects as hidden ground truth ([`output::GroundTruth`]) so
//! the classifier in `onoff-detect` can be scored honestly.
//!
//! * [`sa`] — 5G SA engine (OP_T): S1E1/S1E2/S1E3 dynamics.
//! * [`nsa`] — 5G NSA engine (OP_A/OP_V): N1E1/N1E2/N2E1/N2E2.
//! * [`Stepper`] — the one run loop: steps one UE through a run on the
//!   engine its policy's deployment mode selects.
//! * [`simulate`] — one run from a [`SimConfig`].

pub mod batch;
pub mod chaos;
pub mod config;
pub mod nsa;
pub mod output;
pub mod policy_tables;
pub mod recorder;
pub mod sa;
pub mod select;
pub mod stepper;
pub mod synth;
pub mod throughput;

pub use batch::UeBatch;
pub use chaos::{
    chaos_frames, chaos_text, chaos_trace, ChaosConfig, ChaosEngine, Injection, InjectionKind,
    InjectionManifest, WireChaosConfig, WireOp,
};
pub use config::{MovementPath, SimConfig};
pub use output::{GroundTruth, InjectedCause, SimOutput};
pub use policy_tables::{ChanFlags, PolicyTables, StepCtx};
pub use stepper::Stepper;
pub use synth::TraceBuilder;

use onoff_radio::{RadioTables, Sampler, ScalarSampler, UeSampler};

use crate::recorder::Recorder;

/// Runs one simulated measurement run on the table-driven radio path; see
/// [`simulate_scalar`] for the per-call reference path.
pub fn simulate(cfg: &SimConfig) -> SimOutput {
    let tables = RadioTables::new(&cfg.env);
    // Fresh fast fading for this run, same shadowing structure.
    simulate_with(cfg, UeSampler::with_salt(&tables, cfg.seed))
}

/// Runs one simulated measurement run on the scalar per-call radio path —
/// the reference implementation [`simulate`] is checked against (exact
/// memoization: both produce bitwise-identical output).
pub fn simulate_scalar(cfg: &SimConfig) -> SimOutput {
    let mut cfg = cfg.clone();
    cfg.env.fading_salt = cfg.seed;
    simulate_with(&cfg, ScalarSampler::new(&cfg.env))
}

/// Collects one run of `cfg` measured through `sampler`.
fn simulate_with<S: Sampler>(cfg: &SimConfig, sampler: S) -> SimOutput {
    let ptab = PolicyTables::new(&cfg.policy);
    let stepper = Stepper::new(
        StepCtx::of(cfg, &ptab),
        sampler,
        cfg.duration_ms,
        cfg.meas_period_ms,
    );
    let mut out = SimOutput::default();
    stepper.collect_into(Recorder::new(), &mut out);
    out
}
