//! Fault-tolerant fleet ingest daemon for NSG event streams.
//!
//! The paper's measurement campaign collects RRC traces from many handsets
//! at once; this crate is the serving tier that ingests those interleaved
//! streams long-term without falling over. A daemon accepts framed
//! requests over TCP or unix sockets ([`protocol`]), routes each to a
//! per-session [`StreamingAnalyzer`](onoff_detect::StreamingAnalyzer)
//! shard ([`session`]), and answers live per-session and fleet-wide
//! queries ([`engine`], [`metrics`]) — all on plain blocking std::net I/O
//! with a fixed worker pool ([`daemon`]); no async runtime.
//!
//! Robustness is the point, and it is layered:
//!
//! - **Bounded memory** — every session is accounted; a global budget is
//!   defended by LRU eviction through checksummed event-log snapshots
//!   ([`snapshot`]), and restore is bitwise-equivalent to never having
//!   been evicted. When nothing is evictable, ingest sheds explicitly.
//! - **Hostile-input isolation** — malformed text or binary frames
//!   degrade only the offending session's
//!   [`DegradationReport`](onoff_detect::DegradationReport); framing
//!   damage poisons only the offending connection. The wire-level chaos
//!   suite (`onoff-sim`'s connection mutators) holds this as an
//!   invariant.
//! - **Graceful lifecycle** — shutdown drains every live session to
//!   snapshots; a restarted daemon recovers them. Snapshots that fail
//!   verification quarantine the session instead of replaying garbage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod session;
pub mod snapshot;

pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, FrameLoop};
pub use engine::{ServeEngine, SessionReport};
pub use metrics::FleetMetrics;
pub use protocol::{DecodeError, FrameBuf, FrameError, Request, RequestView, Response};
pub use session::{FinalReport, ServeConfig, SessionError, SessionTable};
pub use snapshot::{
    read_snapshot, snapshot_path, write_snapshot, SessionMeta, Snapshot, SnapshotError,
};
