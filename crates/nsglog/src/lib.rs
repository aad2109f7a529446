//! # onoff-nsglog
//!
//! Codec for a **Network-Signal-Guru-style textual signaling log** — the
//! capture format the paper's measurement pipeline starts from (its Appendix
//! B reproduces raw fragments of these logs; Figs. 24–33 are annotated
//! excerpts).
//!
//! The paper's released artifacts consume NSG text exports; since there is
//! no public Rust decoder for that format, this crate implements one over
//! the [`onoff_rrc::trace::TraceEvent`] model, with line-precise errors and
//! a round-trip guarantee (`parse(emit(trace)) == trace`, enforced by
//! property tests).
//!
//! ## Two layers: one streaming core per direction, batch drivers over it
//!
//! Each direction of the codec exists once, as a **streaming core**; the
//! batch API is a thin driver over it, so the two cannot drift:
//!
//! | direction | streaming core | whole text in memory |
//! |---|---|---|
//! | parse | [`RecoveringParser`] | [`parse_str`], [`parse_str_lossy`], [`parse_str_lossy_into`] |
//! | emit | [`emit_event`] | [`emit()`] |
//!
//! [`RecoveringParser`] is a push parser: it takes the text in pieces of
//! whole lines, decodes each record in place, hands each event to a sink,
//! and keeps at most one incomplete record between pieces. Its
//! [`RecoveryPolicy`] decides what a malformed record does:
//! [`RecoveryPolicy::FailFast`] stops at the first one, the recovering
//! policies skip it with exact loss accounting ([`ParseStats`]) — for dirty
//! field captures with truncated records and interleaved garbage. The
//! drivers push a whole text as one piece: [`parse_str`] returns its events
//! or the first error, [`parse_str_lossy`] the surviving events with the
//! accounting. [`emit_event`] writes one record into any
//! [`std::fmt::Write`] sink; [`emit()`] drives it into a `String`.
//!
//! ```
//! use onoff_nsglog::{parse_str, RecoveringParser, RecoveryPolicy};
//!
//! let text = "19:43:37.100 Throughput = 203.25 Mbps\n";
//! let mut parser = RecoveringParser::new(RecoveryPolicy::FailFast);
//! let mut streamed = Vec::new();
//! parser.push(text, |ev| streamed.push(ev));
//! let stats = parser.finish(|ev| streamed.push(ev));
//! assert!(stats.first_error.is_none());
//! assert_eq!(streamed, parse_str(text).unwrap());
//! ```
//!
//! ## Format by example
//!
//! ```text
//! 19:43:31.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB
//!   Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310
//! 19:43:34.361 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
//!   Physical Cell ID = 393, NR Cell Global ID = 1, Freq = 521310
//!   sCellToAddModList {
//!     {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
//!   }
//!   sCellToReleaseList {3}
//! 19:43:36.996 MM5G State = DEREGISTERED
//!   Mm5g Deregistered Substate = NO_CELL_AVAILABLE
//! 19:43:37.100 Throughput = 203.25 Mbps
//! ```
//!
//! Records start at column 0 with a `HH:MM:SS.mmm` timestamp; continuation
//! lines are indented. The three record heads are `<RAT> RRC OTA Packet`,
//! `MM5G State = ...` and `Throughput = ...`.

pub mod emit;
pub mod error;
pub mod parse;
pub mod recover;
pub mod stats;

pub use emit::{emit, emit_event};
pub use error::{ParseError, ParseErrorKind};
pub use parse::parse_str;
pub use recover::{
    parse_str_lossy, parse_str_lossy_into, ParseStats, RecoveringParser, RecoveryPolicy,
};
pub use stats::{split_runs, stats, LogStats};
