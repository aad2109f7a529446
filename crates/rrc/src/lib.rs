//! # onoff-rrc
//!
//! Typed model of the 4G (LTE, 3GPP TS 36.331) and 5G (NR, 3GPP TS 38.331)
//! Radio Resource Control layer, as needed to study **5G ON-OFF loops**
//! (IMC 2025, "An In-Depth Look into 5G ON-OFF Loops in the Wild").
//!
//! The crate provides:
//!
//! * cell and channel identities ([`ids`]) in the paper's `ID@FreqChannelNo`
//!   notation (e.g. `393@521310`),
//! * NR-ARFCN / EARFCN ↔ carrier-frequency conversion ([`arfcn`], per
//!   TS 38.104 §5.4.2 and TS 36.101 §5.7.3),
//! * NR and LTE operating-band tables ([`band`]) covering every band the
//!   paper observes (n25/n41/n71/n5/n77 and LTE 2/5/12/13/17/30/66),
//! * fixed-point RSRP/RSRQ measurement types ([`meas`]),
//! * measurement-report trigger events A1–A5 / B1 ([`events`]) with
//!   entering/leaving conditions per TS 36.331 / TS 38.331 §5.5.4,
//! * the RRC message and procedure model ([`messages`], [`proc`]),
//! * serving-cell-set bookkeeping ([`serving`]) — the `CS` objects whose
//!   repeated subsequences define an ON-OFF loop, and the Appendix-B
//!   replay of RRC procedures that keeps them, and
//! * the signaling-trace record type ([`trace`]) shared by the log codec,
//!   the simulator and the loop detector.
//!
//! Everything is plain data with value semantics; no I/O and no async.

pub mod arfcn;
pub mod band;
pub mod events;
pub mod glossary;
pub mod ids;
pub mod meas;
pub mod messages;
pub mod perf;
pub mod proc;
pub mod reselection;
pub mod serving;
pub mod timers;
pub mod trace;

pub use arfcn::{earfcn_to_freq_mhz, nr_arfcn_to_freq_mhz, Arfcn};
pub use band::{Band, BandTable};
pub use events::{EventKind, MeasEvent, ReportTrigger};
pub use ids::{CellId, Pci, Rat};
pub use meas::{Rsrp, Rsrq};
pub use messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
pub use perf::{FxMap, InlineVec};
pub use reselection::{RankingParams, SelectionParams};
pub use serving::{CellGroup, CellRole, ConnState, ServingCellSet, ServingReplay};
pub use timers::{RlfConfig, RlfDetector, T304};
pub use trace::{LogChannel, LogRecord, Timestamp, TraceEvent};
