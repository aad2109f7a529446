//! Live fleet-wide metrics, the daemon's operational dashboard.

use onoff_detect::DegradationReport;
use serde::{Deserialize, Serialize};

use crate::snapshot::SessionMeta;

/// A point-in-time snapshot of the whole fleet, answered (as JSON) to
/// [`Request::FleetQuery`](crate::Request::FleetQuery).
///
/// Counters are monotone over the daemon's lifetime; gauges
/// (`sessions_live`, `bytes_used`, …) are instantaneous. Degradation and
/// parse totals cover live, spilled, *and* retired sessions, so a
/// hostile client's damage stays visible after its session ends.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Sessions resident in memory.
    pub sessions_live: usize,
    /// Sessions spilled to snapshots.
    pub sessions_spilled: usize,
    /// Sessions tombstoned by snapshot verification failure.
    pub sessions_quarantined: usize,
    /// Sessions finalized via end-session.
    pub sessions_ended: u64,
    /// Events ingested across all sessions, ever.
    pub events_total: u64,
    /// Accounted session bytes right now.
    pub bytes_used: usize,
    /// The global memory budget those bytes are held under.
    pub budget_bytes: usize,
    /// LRU evictions performed.
    pub evictions: u64,
    /// Snapshot restores performed.
    pub restores: u64,
    /// Well-framed requests handled.
    pub frames: u64,
    /// Frames refused (undecodable payloads, unframeable prefixes).
    pub frame_errors: u64,
    /// Ingests refused to defend a memory budget.
    pub sheds: u64,
    /// Aggregate analyzer degradation across the fleet.
    pub degradation: DegradationReport,
    /// Aggregate text-parse counters across the fleet.
    pub parse: SessionMeta,
}
