//! Roundtrip properties of the binary store: for ANY event stream the
//! model can express — orderly, shuffled-clock, or recovered from
//! chaos-corrupted text — `decode(encode(events)) == events` bitwise, and
//! analysis over the decoded stream (batch or store-replay) is identical
//! to analysis over the originals.

use onoff_detect::analyze_trace;
use onoff_detect::stream::TraceAnalyzer;
use onoff_nsglog::{emit, parse_str_lossy, RecoveryPolicy};
use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use onoff_sim::{chaos_text, ChaosConfig};
use onoff_store::{
    encode_events, encode_events_with, EncodeOptions, StoreReader, DEFAULT_SEGMENT_RECORDS,
};
use proptest::prelude::*;

fn arb_cell() -> impl Strategy<Value = CellId> {
    (any::<bool>(), any::<u16>(), 1u32..3_000_000).prop_map(|(nr, pci, arfcn)| CellId {
        rat: if nr { Rat::Nr } else { Rat::Lte },
        pci: Pci(pci),
        arfcn,
    })
}

fn arb_channel() -> impl Strategy<Value = LogChannel> {
    prop_oneof![
        Just(LogChannel::BcchBch),
        Just(LogChannel::BcchDlSch),
        Just(LogChannel::UlCcch),
        Just(LogChannel::DlCcch),
        Just(LogChannel::UlDcch),
        Just(LogChannel::DlDcch),
    ]
}

fn arb_trigger() -> impl Strategy<Value = Option<Trigger>> {
    prop_oneof![
        Just(None),
        Just(Some(Trigger::A1)),
        Just(Some(Trigger::A2)),
        Just(Some(Trigger::A3)),
        Just(Some(Trigger::A5)),
        Just(Some(Trigger::B1)),
        Just(Some(Trigger::B2)),
        // Free-form labels must survive verbatim, including ones that
        // *look* like standard labels with extra text.
        "[A-Za-z0-9_\\-]{1,12}".prop_map(|s| Some(Trigger::Other(s.into()))),
    ]
}

fn arb_meas_event() -> impl Strategy<Value = MeasEvent> {
    let kind = prop_oneof![
        (-2000i32..2000).prop_map(|d| EventKind::A1 {
            threshold: Threshold(d)
        }),
        (-2000i32..2000).prop_map(|d| EventKind::A2 {
            threshold: Threshold(d)
        }),
        (-300i32..300).prop_map(|offset| EventKind::A3 { offset }),
        (-2000i32..2000).prop_map(|d| EventKind::A4 {
            threshold: Threshold(d)
        }),
        (-2000i32..2000, -2000i32..2000).prop_map(|(a, b)| EventKind::A5 {
            t1: Threshold(a),
            t2: Threshold(b)
        }),
        (-2000i32..2000).prop_map(|d| EventKind::B1 {
            threshold: Threshold(d)
        }),
        (-2000i32..2000, -2000i32..2000).prop_map(|(a, b)| EventKind::B2 {
            t1: Threshold(a),
            t2: Threshold(b)
        }),
    ];
    (kind, any::<bool>(), -100i32..100, 1u32..3_000_000).prop_map(
        |(kind, rsrp, hysteresis, arfcn)| MeasEvent {
            kind,
            quantity: if rsrp {
                TriggerQuantity::Rsrp
            } else {
                TriggerQuantity::Rsrq
            },
            hysteresis,
            arfcn,
        },
    )
}

fn arb_reconfig() -> impl Strategy<Value = ReconfigBody> {
    (
        prop::collection::vec((any::<u8>(), arb_cell()), 0..5),
        prop::collection::vec(any::<u8>(), 0..5),
        prop::collection::vec(arb_meas_event(), 0..3),
        prop::option::of(arb_cell()),
        any::<bool>(),
        prop::option::of(arb_cell()),
    )
        .prop_map(
            |(adds, releases, meas_config, sp_cell, scg_release, mobility_target)| ReconfigBody {
                scell_to_add_mod: adds
                    .into_iter()
                    .map(|(index, cell)| ScellAddMod { index, cell })
                    .collect::<Vec<_>>()
                    .into(),
                scell_to_release: releases.into(),
                meas_config,
                sp_cell,
                scg_release,
                mobility_target,
            },
        )
}

fn arb_message() -> impl Strategy<Value = RrcMessage> {
    prop_oneof![
        (arb_cell(), any::<u64>()).prop_map(|(cell, g)| RrcMessage::Mib {
            cell,
            global_id: GlobalCellId(g)
        }),
        (arb_cell(), -3000i32..0).prop_map(|(cell, q)| RrcMessage::Sib1 {
            cell,
            q_rx_lev_min_deci: q
        }),
        (arb_cell(), any::<u64>()).prop_map(|(cell, g)| RrcMessage::SetupRequest {
            cell,
            global_id: GlobalCellId(g)
        }),
        Just(RrcMessage::Setup),
        Just(RrcMessage::SetupComplete),
        arb_reconfig().prop_map(RrcMessage::Reconfiguration),
        Just(RrcMessage::ReconfigurationComplete),
        (
            arb_trigger(),
            prop::collection::vec((arb_cell(), -1560i32..0, -400i32..0), 0..10)
        )
            .prop_map(|(trigger, results)| RrcMessage::MeasurementReport(
                MeasurementReport {
                    trigger,
                    results: results
                        .into_iter()
                        .map(|(cell, p, q)| MeasResult {
                            cell,
                            meas: Measurement {
                                rsrp: Rsrp::from_deci(p),
                                rsrq: Rsrq::from_deci(q),
                            },
                        })
                        .collect(),
                }
            )),
        prop_oneof![
            Just(ScgFailureType::RandomAccessProblem),
            Just(ScgFailureType::RlcMaxNumRetx),
            Just(ScgFailureType::ScgChangeFailure),
            Just(ScgFailureType::ScgRadioLinkFailure),
        ]
        .prop_map(|failure| RrcMessage::ScgFailureInformation { failure }),
        prop_oneof![
            Just(ReestablishmentCause::ReconfigurationFailure),
            Just(ReestablishmentCause::HandoverFailure),
            Just(ReestablishmentCause::OtherFailure),
        ]
        .prop_map(|cause| RrcMessage::ReestablishmentRequest { cause }),
        arb_cell().prop_map(|cell| RrcMessage::ReestablishmentComplete { cell }),
        Just(RrcMessage::Release),
    ]
}

/// Any event the model can express — arbitrary timestamps (out-of-order
/// traces included), arbitrary RAT/channel/context combinations.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (any::<u64>(), any::<bool>()).prop_map(|(t, reg)| TraceEvent::Mm {
            t: Timestamp(t),
            state: if reg {
                MmState::Registered
            } else {
                MmState::DeregisteredNoCellAvailable
            },
        }),
        (any::<u64>(), 0.0f64..100_000.0).prop_map(|(t, mbps)| TraceEvent::Throughput {
            t: Timestamp(t),
            mbps,
        }),
        (
            any::<u64>(),
            any::<bool>(),
            arb_channel(),
            prop::option::of(arb_cell()),
            arb_message()
        )
            .prop_map(|(t, nr, channel, context, msg)| TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: if nr { Rat::Nr } else { Rat::Lte },
                channel,
                context,
                msg,
            })),
    ]
}

/// Asserts the full roundtrip contract for one event stream and one
/// segmenting: bitwise event equality, clean stats, conservation, and
/// replay ≡ batch analysis.
fn check_roundtrip(events: &[TraceEvent], segment_records: usize) -> Result<(), TestCaseError> {
    let opts = EncodeOptions { segment_records };
    let bytes = encode_events_with(events, &opts);
    let reader = StoreReader::new(&bytes).expect("fresh encoding must validate");
    prop_assert_eq!(reader.records(), events.len());
    for policy in [
        RecoveryPolicy::FailFast,
        RecoveryPolicy::SkipAndCount,
        RecoveryPolicy::RepairTimestamps,
    ] {
        let (decoded, stats) = reader.read_all(policy).expect("clean store decodes");
        prop_assert_eq!(decoded.as_slice(), events);
        prop_assert!(stats.is_clean());
        prop_assert_eq!(stats.decoded + stats.skipped, stats.records);
        prop_assert_eq!(stats.decoded, events.len());
    }
    // Replay into a core ≡ batch analysis over the originals.
    let mut core = TraceAnalyzer::new();
    let stats = reader
        .replay(RecoveryPolicy::SkipAndCount, |ev| core.feed(ev))
        .expect("clean store replays");
    prop_assert!(stats.is_clean());
    prop_assert_eq!(core.finish(), analyze_trace(events));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary events, arbitrary segment sizes: bitwise roundtrip and
    /// replay/batch equivalence.
    #[test]
    fn arbitrary_streams_roundtrip(
        events in prop::collection::vec(arb_event(), 0..60),
        segment_records in 1usize..40,
    ) {
        check_roundtrip(&events, segment_records)?;
    }

    /// Event streams recovered from chaos-corrupted text still roundtrip:
    /// whatever mess lossy parsing lets through, the store preserves it.
    #[test]
    fn chaos_recovered_streams_roundtrip(
        events in prop::collection::vec(arb_emit_safe_event(), 0..30),
        seed in any::<u64>(),
        intensity in 0.0f64..20.0,
        segment_records in 1usize..40,
    ) {
        let clean = emit(&events);
        let (dirty, _) = chaos_text(&clean, &ChaosConfig::default().with_intensity(intensity), seed);
        let (recovered, _) = parse_str_lossy(&dirty, RecoveryPolicy::SkipAndCount);
        check_roundtrip(&recovered, segment_records)?;
    }

    /// The default segmenting used by the campaign persists the same way.
    #[test]
    fn default_options_roundtrip(
        events in prop::collection::vec(arb_event(), 0..40),
    ) {
        let bytes = encode_events(&events);
        let reader = StoreReader::new(&bytes).expect("fresh encoding must validate");
        let (decoded, stats) = reader.read_all(RecoveryPolicy::FailFast).expect("clean store");
        prop_assert_eq!(decoded, events);
        prop_assert!(stats.is_clean());
    }
}

/// Events that satisfy the text emitter's invariants (context mirrors the
/// broadcast cell for MIB/SetupRequest, context RAT matches the record) —
/// the only kind that can take the emit → chaos → recover path.
fn arb_emit_safe_event() -> impl Strategy<Value = TraceEvent> {
    let nr_cell = || {
        (any::<u16>(), 70_000u32..3_000_000).prop_map(|(pci, arfcn)| CellId {
            rat: Rat::Nr,
            pci: Pci(pci),
            arfcn,
        })
    };
    let mk = |t: u64, channel, cell: CellId, msg| {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel,
            context: Some(cell),
            msg,
        })
    };
    prop_oneof![
        (any::<u32>(), any::<bool>()).prop_map(|(t, reg)| TraceEvent::Mm {
            t: Timestamp(u64::from(t)),
            state: if reg {
                MmState::Registered
            } else {
                MmState::DeregisteredNoCellAvailable
            },
        }),
        (any::<u32>(), 0.0f64..10_000.0).prop_map(|(t, mbps)| TraceEvent::Throughput {
            t: Timestamp(u64::from(t)),
            mbps,
        }),
        (any::<u32>(), nr_cell(), any::<u64>()).prop_map(move |(t, cell, g)| mk(
            u64::from(t),
            LogChannel::BcchBch,
            cell,
            RrcMessage::Mib {
                cell,
                global_id: GlobalCellId(g)
            },
        )),
        (
            any::<u32>(),
            nr_cell(),
            prop::collection::vec((nr_cell(), -1560i32..0, -200i32..0), 0..4),
        )
            .prop_map(move |(t, cell, results)| mk(
                u64::from(t),
                LogChannel::UlDcch,
                cell,
                RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some(Trigger::A2),
                    results: results
                        .into_iter()
                        .map(|(cell, p, q)| MeasResult {
                            cell,
                            meas: Measurement {
                                rsrp: Rsrp::from_deci(p),
                                rsrq: Rsrq::from_deci(q),
                            },
                        })
                        .collect(),
                }),
            )),
    ]
}

/// The string dictionary keeps each `Trigger::Other` label once, however
/// many reports carry it and however the trace is cut into segments, and
/// every report decodes back to its own label.
#[test]
fn repeated_labels_are_stored_once() {
    let cell = CellId {
        rat: Rat::Nr,
        pci: Pci(393),
        arfcn: 521_310,
    };
    let report = |t: u64, label: &str| {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel: LogChannel::UlDcch,
            context: Some(cell),
            msg: RrcMessage::MeasurementReport(MeasurementReport {
                trigger: Some(Trigger::Other(label.into())),
                results: vec![MeasResult {
                    cell,
                    meas: Measurement {
                        rsrp: Rsrp::from_deci(-950),
                        rsrq: Rsrq::from_deci(-110),
                    },
                }]
                .into(),
            }),
        })
    };
    // 50 reports share one label; one report in their midst has another.
    let mut events: Vec<TraceEvent> = (0..50)
        .map(|i| report(i * 200, "periodicalCustom"))
        .collect();
    events.insert(25, report(4_900, "eventX9"));

    for segment_records in [8, DEFAULT_SEGMENT_RECORDS] {
        let bytes = encode_events_with(&events, &EncodeOptions { segment_records });
        let (decoded, stats) = StoreReader::new(&bytes)
            .expect("valid store")
            .read_all(RecoveryPolicy::FailFast)
            .expect("clean store decodes");
        assert!(stats.is_clean());
        assert_eq!(decoded, events);
        let count = |label: &[u8]| bytes.windows(label.len()).filter(|w| *w == label).count();
        assert_eq!(
            count(b"periodicalCustom"),
            1,
            "{segment_records}-record segments"
        );
        assert_eq!(count(b"eventX9"), 1, "{segment_records}-record segments");
    }
}
