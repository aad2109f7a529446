//! Property tests: `parse_str(emit(trace)) == trace` for every trace the
//! model can express (under the format's documented invariants: context RAT
//! matches record RAT, list-cell RATs follow the <70000 EARFCN convention,
//! MIB/SetupRequest context mirrors the message cell).

use onoff_nsglog::{emit, parse_str, RecoveringParser, RecoveryPolicy};
use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use proptest::prelude::*;

fn arb_rat() -> impl Strategy<Value = Rat> {
    prop_oneof![Just(Rat::Lte), Just(Rat::Nr)]
}

/// A cell whose RAT follows the channel-number convention the codec uses.
fn arb_cell() -> impl Strategy<Value = CellId> {
    (
        any::<u16>(),
        prop_oneof![0u32..70_000, 70_000u32..3_000_000],
    )
        .prop_map(|(pci, arfcn)| {
            let rat = if arfcn < 70_000 { Rat::Lte } else { Rat::Nr };
            CellId {
                rat,
                pci: Pci(pci),
                arfcn,
            }
        })
}

/// A cell of a specific RAT, channel number in that RAT's range.
fn arb_cell_of(rat: Rat) -> impl Strategy<Value = CellId> {
    let range = match rat {
        Rat::Lte => 0u32..70_000,
        Rat::Nr => 70_000u32..3_000_000,
    };
    (any::<u16>(), range).prop_map(move |(pci, arfcn)| CellId {
        rat,
        pci: Pci(pci),
        arfcn,
    })
}

fn arb_deci() -> impl Strategy<Value = i32> {
    -2000i32..500
}

fn arb_quantity() -> impl Strategy<Value = TriggerQuantity> {
    prop_oneof![Just(TriggerQuantity::Rsrp), Just(TriggerQuantity::Rsrq)]
}

fn arb_event() -> impl Strategy<Value = MeasEvent> {
    let kind = prop_oneof![
        arb_deci().prop_map(|t| EventKind::A1 {
            threshold: Threshold(t)
        }),
        arb_deci().prop_map(|t| EventKind::A2 {
            threshold: Threshold(t)
        }),
        (-300i32..300).prop_map(|o| EventKind::A3 { offset: o }),
        arb_deci().prop_map(|t| EventKind::A4 {
            threshold: Threshold(t)
        }),
        (arb_deci(), arb_deci()).prop_map(|(t1, t2)| EventKind::A5 {
            t1: Threshold(t1),
            t2: Threshold(t2)
        }),
        arb_deci().prop_map(|t| EventKind::B1 {
            threshold: Threshold(t)
        }),
        (arb_deci(), arb_deci()).prop_map(|(t1, t2)| EventKind::B2 {
            t1: Threshold(t1),
            t2: Threshold(t2)
        }),
    ];
    (kind, arb_quantity(), 0i32..100, 1u32..3_000_000).prop_map(
        |(kind, quantity, hysteresis, arfcn)| MeasEvent {
            kind,
            quantity,
            hysteresis,
            arfcn,
        },
    )
}

fn arb_measurement() -> impl Strategy<Value = Measurement> {
    (arb_deci(), arb_deci()).prop_map(|(p, q)| Measurement {
        rsrp: Rsrp::from_deci(p),
        rsrq: Rsrq::from_deci(q),
    })
}

fn arb_reconfig() -> impl Strategy<Value = ReconfigBody> {
    (
        prop::collection::vec((any::<u8>(), arb_cell()), 0..4),
        prop::collection::vec(any::<u8>(), 0..4),
        prop::collection::vec(arb_event(), 0..3),
        prop::option::of(arb_cell_of(Rat::Nr)),
        any::<bool>(),
        prop::option::of(arb_cell_of(Rat::Lte)),
    )
        .prop_map(|(adds, rel, meas, sp, scg_rel, target)| ReconfigBody {
            scell_to_add_mod: adds
                .into_iter()
                .map(|(index, cell)| ScellAddMod { index, cell })
                .collect(),
            scell_to_release: rel.into(),
            meas_config: meas,
            sp_cell: sp,
            scg_release: scg_rel,
            mobility_target: target,
        })
}

fn arb_report() -> impl Strategy<Value = MeasurementReport> {
    (
        prop::option::of(prop_oneof![
            Just(Trigger::A2),
            Just(Trigger::A3),
            Just(Trigger::A5),
            Just(Trigger::B1)
        ]),
        prop::collection::vec(
            (arb_cell(), arb_measurement()).prop_map(|(cell, meas)| MeasResult { cell, meas }),
            0..5,
        ),
    )
        .prop_map(|(trigger, results)| MeasurementReport {
            trigger,
            results: results.into(),
        })
}

/// A full RRC record respecting the codec invariants.
fn arb_record() -> impl Strategy<Value = LogRecord> {
    (any::<u32>(), arb_rat())
        .prop_flat_map(|(t, rat)| {
            let msg = prop_oneof![
                (arb_cell_of(rat), any::<u64>()).prop_map(|(cell, g)| RrcMessage::Mib {
                    cell,
                    global_id: GlobalCellId(g)
                }),
                (arb_cell_of(rat), -2000i32..0).prop_map(|(cell, q)| RrcMessage::Sib1 {
                    cell,
                    q_rx_lev_min_deci: q
                }),
                (arb_cell_of(rat), any::<u64>()).prop_map(|(cell, g)| {
                    RrcMessage::SetupRequest {
                        cell,
                        global_id: GlobalCellId(g),
                    }
                }),
                Just(RrcMessage::Setup),
                Just(RrcMessage::SetupComplete),
                arb_reconfig().prop_map(RrcMessage::Reconfiguration),
                Just(RrcMessage::ReconfigurationComplete),
                arb_report().prop_map(RrcMessage::MeasurementReport),
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
            ];
            (Just(t), Just(rat), msg, prop::option::of(arb_cell_of(rat)))
        })
        .prop_map(|(t, rat, msg, ctx)| {
            // MIB / Sib1 / SetupRequest must carry their own cell as context.
            let context = match &msg {
                RrcMessage::Mib { cell, .. }
                | RrcMessage::Sib1 { cell, .. }
                | RrcMessage::SetupRequest { cell, .. } => Some(*cell),
                _ => ctx,
            };
            let channel = LogChannel::for_message(&msg);
            LogRecord {
                t: Timestamp(u64::from(t)),
                rat,
                channel,
                context,
                msg,
            }
        })
}

fn arb_event_any() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        arb_record().prop_map(TraceEvent::Rrc),
        (
            any::<u32>(),
            prop_oneof![
                Just(MmState::Registered),
                Just(MmState::DeregisteredNoCellAvailable)
            ]
        )
            .prop_map(|(t, state)| TraceEvent::Mm {
                t: Timestamp(u64::from(t)),
                state
            }),
        (any::<u32>(), 0.0f64..10_000.0).prop_map(|(t, mbps)| TraceEvent::Throughput {
            t: Timestamp(u64::from(t)),
            mbps
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_single_event(ev in arb_event_any()) {
        let text = emit(std::slice::from_ref(&ev));
        let parsed = parse_str(&text).unwrap();
        prop_assert_eq!(parsed, vec![ev]);
    }

    #[test]
    fn roundtrip_traces(events in prop::collection::vec(arb_event_any(), 0..40)) {
        let text = emit(&events);
        let parsed = parse_str(&text).unwrap();
        prop_assert_eq!(parsed, events);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,400}") {
        let _ = parse_str(&text);
    }

    #[test]
    fn parser_never_panics_on_mutated_logs(
        events in prop::collection::vec(arb_event_any(), 1..10),
        cut in any::<usize>(),
    ) {
        // Truncating a valid log anywhere must fail cleanly, never panic.
        let text = emit(&events);
        let cut = cut % (text.len() + 1);
        let truncated = &text[..text.floor_char_boundary(cut)];
        let _ = parse_str(truncated);
    }
}

/// Pushes the text line by line into a fail-fast streaming parser,
/// collecting the events before the first error and that error (the
/// parser ignores the input after it).
fn drain_stream(text: &str) -> (Vec<TraceEvent>, Option<onoff_nsglog::ParseError>) {
    let mut parser = RecoveringParser::new(RecoveryPolicy::FailFast);
    let mut events = Vec::new();
    for line in text.split_inclusive('\n') {
        parser.push(line, |ev| events.push(ev));
    }
    let stats = parser.finish(|ev| events.push(ev));
    (events, stats.first_error)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_parse_equals_batch_on_valid_traces(
        events in prop::collection::vec(arb_event_any(), 0..40),
    ) {
        let text = emit(&events);
        let (streamed, err) = drain_stream(&text);
        prop_assert!(err.is_none(), "streaming parse failed: {:?}", err);
        prop_assert_eq!(streamed, events);
    }

    #[test]
    fn streaming_parse_surfaces_batch_errors_on_truncation(
        events in prop::collection::vec(arb_event_any(), 1..10),
        cut in any::<usize>(),
    ) {
        // Cutting the text mid-record must fail identically in both entry
        // points: same Ok-prefix, same error line number and kind.
        let text = emit(&events);
        let cut = cut % (text.len() + 1);
        let truncated = &text[..text.floor_char_boundary(cut)];
        let (streamed, stream_err) = drain_stream(truncated);
        match parse_str(truncated) {
            Ok(batch) => {
                prop_assert!(stream_err.is_none());
                prop_assert_eq!(streamed, batch);
            }
            Err(batch_err) => {
                prop_assert!(stream_err.is_some());
                if let Some(se) = stream_err {
                    prop_assert_eq!(se.line, batch_err.line);
                    prop_assert_eq!(se.kind, batch_err.kind);
                }
            }
        }
    }
}
