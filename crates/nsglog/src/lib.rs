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
//! ## Two layers: incremental cores, batch drivers
//!
//! Each direction of the codec exists once, as a **streaming core**; the
//! batch API is a thin driver over it, so the two cannot drift:
//!
//! | workload | parse | lossy parse | emit |
//! |---|---|---|---|
//! | live tail / larger-than-memory capture | [`parse_lines`] | [`RecoveringParser`] | [`emit_to`] / [`emit_io`] |
//! | whole trace already in memory | [`parse_str`] | [`parse_str_lossy`] | [`emit()`] |
//!
//! [`parse_lines`] pulls from any `Iterator<Item = &str>` and yields one
//! `Result<TraceEvent, ParseError>` per record in constant space;
//! [`parse_str`] simply collects it. Both are fail-fast. [`emit_to`]
//! streams records into any [`std::fmt::Write`] sink ([`emit_io`] adapts
//! [`std::io::Write`]); [`emit()`] drives it into a `String`.
//!
//! For dirty field captures (truncated records, interleaved garbage),
//! [`RecoveringParser`] is the lossy core: a push parser that takes the
//! text in pieces of whole lines, skips malformed records under a
//! [`RecoveryPolicy`] with exact loss accounting ([`ParseStats`]), hands
//! each recovered event to a sink, and keeps at most one incomplete record
//! between pieces. [`parse_str_lossy`] and [`parse_str_lossy_into`] push a
//! whole text as one piece, decoded in place.
//!
//! ```
//! use onoff_nsglog::{parse_lines, parse_str};
//!
//! let text = "19:43:37.100 Throughput = 203.25 Mbps\n";
//! let streamed: Result<Vec<_>, _> = parse_lines(text.lines()).collect();
//! assert_eq!(streamed.unwrap(), parse_str(text).unwrap());
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

pub use emit::{emit, emit_event, emit_io, emit_to};
pub use error::{ParseError, ParseErrorKind};
pub use parse::{parse_lines, parse_str, parse_str_into, ParseLines};
pub use recover::{
    parse_str_lossy, parse_str_lossy_into, ParseStats, RecoveringParser, RecoveryPolicy,
};
pub use stats::{split_runs, stats, LogStats};
