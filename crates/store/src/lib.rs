//! Binary columnar trace store.
//!
//! The text nsglog format is the interchange format — greppable,
//! human-auditable, and what the capture tooling emits. It is also the
//! wrong thing to re-analyze a campaign from: every pass re-tokenizes
//! megabytes of text and re-allocates every cell label it already parsed
//! last time. This crate gives traces a second, binary representation
//! optimized for exactly one operation: feeding the events to an analysis
//! core again, fast ([`StoreReader::replay`] hands each decoded event to
//! a sink such as `TraceAnalyzer::feed`).
//!
//! # Format (version [`FORMAT_VERSION`])
//!
//! ```text
//! "OSTR" | version u8 | 3 reserved bytes
//! header: total records, segment directory (records, byte length,
//!         segment-header checksum), cell dictionary, string dictionary
//! header checksum (64-bit multiply-mix over everything after the magic)
//! segment blobs, back to back
//! ```
//!
//! Each segment holds up to [`DEFAULT_SEGMENT_RECORDS`] events as seven
//! independently-checksummed columns: delta-encoded timestamps, tag
//! bytes, RRC head bytes, dictionary-interned cell references,
//! measurement rows (interned cell index plus fixed-width `i16` deci
//! values, with a varint escape for out-of-range readings), miscellaneous
//! numeric payloads, and raw `f64` throughput bits. Cell identities and
//! free-form trigger labels live once in the header dictionaries; records
//! reference them by index, so a million-event trace carries each
//! `PCI@ARFCN` exactly once. All checksums are the four-lane multiply-mix
//! chain in `checksum` — part of the on-disk format, frozen by test
//! vectors, and guaranteed to catch any single-bit flip.
//!
//! # Corruption contract
//!
//! Decoding is **total**: no input bytes can make it panic or misdecode
//! silently. The header checksum gates every count and dictionary; each
//! segment's layout is vouched for by a checksum stored in the (verified)
//! directory; each column's payload is verified before decode. Under
//! [`RecoveryPolicy::FailFast`](onoff_nsglog::RecoveryPolicy) the first
//! bad segment is an error; under the lossy policies it becomes a counted
//! skip in [`StoreStats`] with the same conservation invariant the text
//! parser's [`ParseStats`](onoff_nsglog::ParseStats) guarantees:
//! `decoded + skipped == records`.
//!
//! # Example
//!
//! ```
//! use onoff_rrc::trace::{Timestamp, TraceEvent};
//! use onoff_nsglog::RecoveryPolicy;
//! use onoff_store::{encode_events, StoreReader};
//!
//! let events = vec![
//!     TraceEvent::Throughput { t: Timestamp(0), mbps: 120.0 },
//!     TraceEvent::Throughput { t: Timestamp(1000), mbps: 0.4 },
//! ];
//! let bytes = encode_events(&events);
//! let reader = StoreReader::new(&bytes).unwrap();
//! let (decoded, stats) = reader.read_all(RecoveryPolicy::SkipAndCount).unwrap();
//! assert_eq!(decoded, events);
//! assert!(stats.is_clean());
//!
//! let mut core = onoff_detect::stream::TraceAnalyzer::new();
//! reader.replay(RecoveryPolicy::SkipAndCount, |ev| core.feed(ev)).unwrap();
//! assert_eq!(core.events_seen(), 2);
//! ```

mod checksum;
mod decode;
mod encode;
mod error;
mod varint;

pub use checksum::checksum;
pub use decode::StoreReader;
pub use encode::{encode_events, encode_events_with, EncodeOptions, DEFAULT_SEGMENT_RECORDS};
pub use error::{Column, StoreError, StoreStats, COLUMNS};

/// The four magic bytes opening every store file.
pub const MAGIC: &[u8; 4] = b"OSTR";

/// The on-disk format version this crate reads and writes. Any change to
/// the byte layout — new tags, new columns, reordered fields — must bump
/// this; readers refuse files from other versions outright
/// ([`StoreError::UnsupportedVersion`]) rather than guess.
pub const FORMAT_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use onoff_nsglog::RecoveryPolicy;
    use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{
        MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
        ScgFailureType, Trigger,
    };
    use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};

    use super::*;

    fn rec(t: u64, context: Option<CellId>, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel: LogChannel::for_message(&msg),
            context,
            msg,
        })
    }

    /// One of everything the model can express.
    fn kitchen_sink() -> Vec<TraceEvent> {
        let pcell = CellId::nr(Pci(393), 521310);
        let scell = CellId::nr(Pci(540), 501390);
        let lte = CellId::lte(Pci(380), 5815);
        vec![
            TraceEvent::Mm {
                t: Timestamp(0),
                state: MmState::Registered,
            },
            rec(
                10,
                Some(pcell),
                RrcMessage::Mib {
                    cell: pcell,
                    global_id: GlobalCellId(85575131757084985),
                },
            ),
            rec(
                11,
                None,
                RrcMessage::Sib1 {
                    cell: pcell,
                    q_rx_lev_min_deci: -1080,
                },
            ),
            rec(
                20,
                Some(pcell),
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            rec(30, Some(pcell), RrcMessage::Setup),
            rec(40, Some(pcell), RrcMessage::SetupComplete),
            rec(
                50,
                Some(pcell),
                RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some(Trigger::B1),
                    results: vec![
                        MeasResult {
                            cell: scell,
                            meas: Measurement::new(-112.0, -20.5),
                        },
                        MeasResult {
                            cell: lte,
                            meas: Measurement::new(-80.5, -10.0),
                        },
                    ]
                    .into(),
                }),
            ),
            rec(
                55,
                Some(pcell),
                RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some(Trigger::Other("D1".into())),
                    results: vec![].into(),
                }),
            ),
            rec(
                60,
                Some(pcell),
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: scell,
                    }]
                    .into(),
                    scell_to_release: vec![2].into(),
                    meas_config: vec![onoff_rrc::MeasEvent::new(
                        onoff_rrc::EventKind::B1 {
                            threshold: onoff_rrc::events::Threshold::from_db(-115.0),
                        },
                        onoff_rrc::events::TriggerQuantity::Rsrp,
                        501390,
                    )],
                    sp_cell: Some(scell),
                    scg_release: false,
                    mobility_target: Some(lte),
                }),
            ),
            rec(70, Some(pcell), RrcMessage::ReconfigurationComplete),
            rec(
                80,
                Some(pcell),
                RrcMessage::ScgFailureInformation {
                    failure: ScgFailureType::RandomAccessProblem,
                },
            ),
            rec(
                90,
                Some(pcell),
                RrcMessage::ReestablishmentRequest {
                    cause: ReestablishmentCause::HandoverFailure,
                },
            ),
            rec(
                100,
                Some(pcell),
                RrcMessage::ReestablishmentComplete { cell: pcell },
            ),
            TraceEvent::Throughput {
                t: Timestamp(110),
                mbps: 183.5,
            },
            TraceEvent::Mm {
                t: Timestamp(120),
                state: MmState::DeregisteredNoCellAvailable,
            },
            rec(130, Some(pcell), RrcMessage::Release),
        ]
    }

    #[test]
    fn kitchen_sink_roundtrips_exactly() {
        let events = kitchen_sink();
        let bytes = encode_events(&events);
        let reader = StoreReader::new(&bytes).unwrap();
        assert_eq!(reader.records(), events.len());
        let (decoded, stats) = reader.read_all(RecoveryPolicy::FailFast).unwrap();
        assert_eq!(decoded, events);
        assert!(stats.is_clean());
        assert_eq!(stats.decoded + stats.skipped, stats.records);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode_events(&[]);
        let reader = StoreReader::new(&bytes).unwrap();
        assert_eq!(reader.records(), 0);
        assert_eq!(reader.segment_count(), 0);
        let (decoded, stats) = reader.read_all(RecoveryPolicy::FailFast).unwrap();
        assert!(decoded.is_empty());
        assert!(stats.is_clean());
    }

    #[test]
    fn multi_segment_roundtrip() {
        let events: Vec<TraceEvent> = (0..300)
            .map(|k| TraceEvent::Throughput {
                t: Timestamp(k * 100),
                mbps: k as f64 * 0.5,
            })
            .collect();
        let opts = EncodeOptions {
            segment_records: 64,
        };
        let bytes = encode_events_with(&events, &opts);
        let reader = StoreReader::new(&bytes).unwrap();
        assert_eq!(reader.segment_count(), 5);
        let (decoded, _) = reader.read_all(RecoveryPolicy::FailFast).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn out_of_order_and_extreme_timestamps_roundtrip() {
        let events = vec![
            TraceEvent::Throughput {
                t: Timestamp(u64::MAX),
                mbps: 1.0,
            },
            TraceEvent::Throughput {
                t: Timestamp(0),
                mbps: 2.0,
            },
            TraceEvent::Throughput {
                t: Timestamp(u64::MAX / 2),
                mbps: 3.0,
            },
        ];
        let bytes = encode_events(&events);
        let reader = StoreReader::new(&bytes).unwrap();
        let (decoded, _) = reader.read_all(RecoveryPolicy::FailFast).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn replay_matches_batch_analysis() {
        let events = kitchen_sink();
        let bytes = encode_events(&events);
        let reader = StoreReader::new(&bytes).unwrap();
        let mut core = onoff_detect::stream::TraceAnalyzer::new();
        let stats = reader
            .replay(RecoveryPolicy::SkipAndCount, |ev| core.feed(ev))
            .unwrap();
        assert!(stats.is_clean());
        assert_eq!(core.finish(), onoff_detect::analyze_trace(&events));
    }

    #[test]
    fn stale_version_is_refused() {
        let mut bytes = encode_events(&kitchen_sink());
        bytes[4] = FORMAT_VERSION + 1;
        assert_eq!(
            StoreReader::new(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            }
        );
    }

    #[test]
    fn bad_magic_and_short_input_are_refused() {
        assert_eq!(StoreReader::new(&[]).unwrap_err(), StoreError::TooShort);
        assert_eq!(
            StoreReader::new(b"NOPE....").unwrap_err(),
            StoreError::BadMagic
        );
    }

    #[test]
    fn compression_beats_text() {
        let events = kitchen_sink();
        let text = onoff_nsglog::emit(&events);
        let bytes = encode_events(&events);
        assert!(
            bytes.len() < text.len(),
            "binary ({}) should be smaller than text ({})",
            bytes.len(),
            text.len()
        );
    }
}
