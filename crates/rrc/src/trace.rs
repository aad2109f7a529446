//! Signaling-trace records — the unit shared by the log codec
//! (`onoff-nsglog`), the simulator (`onoff-sim`) and the loop detector
//! (`onoff-detect`).
//!
//! A trace is a time-ordered sequence of [`TraceEvent`]s: RRC messages as
//! captured over the air, plus the two log-visible phenomena that are *not*
//! messages but that the paper's pipeline depends on —
//!
//! * **MM-state transitions** (Fig. 26: the `MM5G State = DEREGISTERED`
//!   line during the S1E3 exception, when nothing is transmitted), and
//! * **throughput samples** (the tcpdump-derived download speed used for
//!   Figs. 1b, 10, 11).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::events::MeasEvent;
use crate::ids::{CellId, Rat};
use crate::messages::{RrcMessage, Trigger};

/// Milliseconds since the start of the capture.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Timestamp(s * 1000)
    }

    /// From fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        Timestamp((s * 1000.0).round() as u64)
    }

    /// Milliseconds value.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference, in milliseconds.
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Parses `HH:MM:SS.mmm`.
    pub fn parse_hms(s: &str) -> Option<Timestamp> {
        let mut parts = s.split(':');
        let h: u64 = parts.next()?.parse().ok()?;
        let m: u64 = parts.next()?.parse().ok()?;
        let rest = parts.next()?;
        if parts.next().is_some() || m >= 60 {
            return None;
        }
        let (sec, ms) = rest.split_once('.')?;
        let sec: u64 = sec.parse().ok()?;
        if sec >= 60 || ms.len() != 3 {
            return None;
        }
        let ms: u64 = ms.parse().ok()?;
        Some(Timestamp(h * 3_600_000 + m * 60_000 + sec * 1000 + ms))
    }
}

/// Renders as NSG wall-clock `HH:MM:SS.mmm` (capture starting at 00:00),
/// straight into the formatter.
impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1000;
        let s = (self.0 / 1000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

/// Logical channel a message was carried on, as NSG labels it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LogChannel {
    /// Broadcast control channel (MIB on BCH).
    BcchBch,
    /// Broadcast control channel (SIBs on DL-SCH).
    BcchDlSch,
    /// Uplink common control channel (setup / reestablishment requests).
    UlCcch,
    /// Downlink common control channel (setup).
    DlCcch,
    /// Uplink dedicated control channel.
    UlDcch,
    /// Downlink dedicated control channel.
    DlDcch,
}

impl LogChannel {
    /// NSG's label for the channel.
    pub fn label(self) -> &'static str {
        match self {
            LogChannel::BcchBch => "BCCH_BCH",
            LogChannel::BcchDlSch => "BCCH_DL_SCH",
            LogChannel::UlCcch => "UL_CCCH",
            LogChannel::DlCcch => "DL_CCCH",
            LogChannel::UlDcch => "UL_DCCH",
            LogChannel::DlDcch => "DL_DCCH",
        }
    }

    /// Parses NSG's label.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "BCCH_BCH" => LogChannel::BcchBch,
            "BCCH_DL_SCH" => LogChannel::BcchDlSch,
            "UL_CCCH" => LogChannel::UlCcch,
            "DL_CCCH" => LogChannel::DlCcch,
            "UL_DCCH" => LogChannel::UlDcch,
            "DL_DCCH" => LogChannel::DlDcch,
            _ => return None,
        })
    }

    /// The channel a message is naturally carried on.
    pub fn for_message(msg: &RrcMessage) -> LogChannel {
        match msg {
            RrcMessage::Mib { .. } => LogChannel::BcchBch,
            RrcMessage::Sib1 { .. } => LogChannel::BcchDlSch,
            RrcMessage::SetupRequest { .. } | RrcMessage::ReestablishmentRequest { .. } => {
                LogChannel::UlCcch
            }
            RrcMessage::Setup => LogChannel::DlCcch,
            msg if msg.is_uplink() => LogChannel::UlDcch,
            _ => LogChannel::DlDcch,
        }
    }
}

/// A captured RRC signaling record: NSG's "RRC OTA Packet".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Capture time.
    pub t: Timestamp,
    /// RAT of the RRC entity that produced the message (NSA control-plane
    /// messages are LTE even when they manage the 5G SCG).
    pub rat: Rat,
    /// Logical channel.
    pub channel: LogChannel,
    /// The serving-cell context NSG stamps on every packet: the PCell (or
    /// the broadcasting cell, for MIB/SIB).
    pub context: Option<CellId>,
    /// The message body.
    pub msg: RrcMessage,
}

/// NAS mobility-management state, as NSG's status lines report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmState {
    /// Registered and reachable.
    Registered,
    /// Deregistered — Fig. 26's `MM5G State = DEREGISTERED`,
    /// `Mm5g Deregistered Substate = NO_CELL_AVAILABLE`.
    DeregisteredNoCellAvailable,
}

/// One event of a signaling+performance trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An over-the-air RRC message.
    Rrc(LogRecord),
    /// An MM-state transition (no OTA message — learned from modem state).
    Mm {
        /// When the state was observed.
        t: Timestamp,
        /// The new state.
        state: MmState,
    },
    /// A download-throughput sample from the traffic capture.
    Throughput {
        /// Sample time.
        t: Timestamp,
        /// Measured downlink speed, Mbps.
        mbps: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn t(&self) -> Timestamp {
        match self {
            TraceEvent::Rrc(r) => r.t,
            TraceEvent::Mm { t, .. } => *t,
            TraceEvent::Throughput { t, .. } => *t,
        }
    }

    /// Overwrites the event's timestamp in place.
    pub fn set_t(&mut self, t: Timestamp) {
        match self {
            TraceEvent::Rrc(r) => r.t = t,
            TraceEvent::Mm { t: old, .. } => *old = t,
            TraceEvent::Throughput { t: old, .. } => *old = t,
        }
    }

    /// A copy of the event carrying a different timestamp.
    pub fn with_t(&self, t: Timestamp) -> TraceEvent {
        let mut ev = self.clone();
        ev.set_t(t);
        ev
    }

    /// The RRC record, if this is a signaling event.
    pub fn as_rrc(&self) -> Option<&LogRecord> {
        match self {
            TraceEvent::Rrc(r) => Some(r),
            _ => None,
        }
    }

    /// Heap bytes the event owns beyond its own size: a measurement
    /// report's spilled rows and free-form trigger label, a
    /// reconfiguration's spilled SCell lists and its `measConfig`.
    pub fn heap_bytes(&self) -> usize {
        let Some(rec) = self.as_rrc() else { return 0 };
        match &rec.msg {
            RrcMessage::MeasurementReport(r) => {
                let label = match &r.trigger {
                    Some(Trigger::Other(label)) => label.len(),
                    _ => 0,
                };
                r.results.heap_bytes() + label
            }
            RrcMessage::Reconfiguration(b) => {
                b.scell_to_add_mod.heap_bytes()
                    + b.scell_to_release.heap_bytes()
                    + b.meas_config.capacity() * std::mem::size_of::<MeasEvent>()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pci;
    use crate::messages::ReconfigBody;

    #[test]
    fn timestamp_hms_roundtrip() {
        for ms in [
            0u64,
            1,
            999,
            1000,
            61_001,
            3_600_000,
            19 * 3_600_000 + 43 * 60_000 + 31_635,
        ] {
            let t = Timestamp(ms);
            assert_eq!(
                Timestamp::parse_hms(&t.to_string()),
                Some(t),
                "failed at {ms}"
            );
        }
    }

    #[test]
    fn timestamp_hms_matches_nsg_format() {
        // 19:43:31.635 from Fig. 24.
        let t = Timestamp(19 * 3_600_000 + 43 * 60_000 + 31_635);
        assert_eq!(t.to_string(), "19:43:31.635");
    }

    #[test]
    fn timestamp_parse_rejects_malformed() {
        for bad in [
            "",
            "12:34",
            "12:34:56",
            "12:34:56.7",
            "12:34:56.7890",
            "xx:00:00.000",
            "00:61:00.000",
            "00:00:61.000",
            "1:2:3.4.5",
        ] {
            assert_eq!(Timestamp::parse_hms(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_secs(5);
        let b = Timestamp::from_secs_f64(15.7);
        assert_eq!(b.since(a), 10_700);
        assert_eq!(a.since(b), 0); // saturating
        assert_eq!(b.secs_f64(), 15.7);
    }

    #[test]
    fn channel_label_roundtrip() {
        for ch in [
            LogChannel::BcchBch,
            LogChannel::BcchDlSch,
            LogChannel::UlCcch,
            LogChannel::DlCcch,
            LogChannel::UlDcch,
            LogChannel::DlDcch,
        ] {
            assert_eq!(LogChannel::from_label(ch.label()), Some(ch));
        }
        assert_eq!(LogChannel::from_label("NOPE"), None);
    }

    #[test]
    fn natural_channels() {
        let cell = CellId::nr(Pci(393), 521310);
        assert_eq!(
            LogChannel::for_message(&RrcMessage::Mib {
                cell,
                global_id: Default::default()
            }),
            LogChannel::BcchBch
        );
        assert_eq!(
            LogChannel::for_message(&RrcMessage::SetupRequest {
                cell,
                global_id: Default::default()
            }),
            LogChannel::UlCcch
        );
        assert_eq!(
            LogChannel::for_message(&RrcMessage::Setup),
            LogChannel::DlCcch
        );
        assert_eq!(
            LogChannel::for_message(&RrcMessage::Reconfiguration(ReconfigBody::default())),
            LogChannel::DlDcch
        );
        assert_eq!(
            LogChannel::for_message(&RrcMessage::ReconfigurationComplete),
            LogChannel::UlDcch
        );
    }

    #[test]
    fn trace_event_timestamp_access() {
        let e = TraceEvent::Throughput {
            t: Timestamp(1234),
            mbps: 200.0,
        };
        assert_eq!(e.t(), Timestamp(1234));
        assert!(e.as_rrc().is_none());
        let r = TraceEvent::Rrc(LogRecord {
            t: Timestamp(1),
            rat: Rat::Nr,
            channel: LogChannel::DlDcch,
            context: None,
            msg: RrcMessage::Release,
        });
        assert!(r.as_rrc().is_some());
    }
}
