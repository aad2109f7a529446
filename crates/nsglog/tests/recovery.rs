//! Conservation properties of the lossy recovery layer: for any input —
//! chaos-corrupted traces or outright arbitrary text — every record
//! attempt is either parsed or skipped (`parsed + skipped == records`),
//! the attempt count matches what the text itself says it should be, and
//! no policy ever panics. Pushing a text to the recovering parser in
//! whole-line pieces recovers exactly what parsing it whole does.

use onoff_nsglog::{
    emit, parse_str, parse_str_lossy, ParseStats, RecoveringParser, RecoveryPolicy,
};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{MeasResult, MeasurementReport, RrcMessage, Trigger};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use onoff_sim::{chaos_text, ChaosConfig};
use proptest::prelude::*;

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::FailFast,
    RecoveryPolicy::SkipAndCount,
    RecoveryPolicy::RepairTimestamps,
];

/// Record attempts a text encodes, counted independently of the parser:
/// every non-blank column-0 line starts an attempt, plus one for a leading
/// orphan continuation run (indented lines with no head above them).
fn count_record_attempts(text: &str) -> usize {
    let mut heads = 0;
    let mut leading_orphan = false;
    let mut seen_nonblank = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with(char::is_whitespace) {
            if !seen_nonblank {
                leading_orphan = true;
            }
        } else {
            heads += 1;
        }
        seen_nonblank = true;
    }
    heads + usize::from(leading_orphan)
}

fn arb_cell() -> impl Strategy<Value = CellId> {
    (any::<u16>(), 70_000u32..3_000_000).prop_map(|(pci, arfcn)| CellId {
        rat: Rat::Nr,
        pci: Pci(pci),
        arfcn,
    })
}

/// A compact event mix that still exercises every line shape the parser
/// has to recover across: single-line records (Mm, Throughput), a record
/// with one continuation line (MIB), and a multi-line block record
/// (MeasurementReport).
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let mk_rrc = |t: u64, channel, cell: CellId, msg| {
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
        (any::<u32>(), arb_cell(), any::<u64>()).prop_map(move |(t, cell, g)| mk_rrc(
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
            arb_cell(),
            prop::collection::vec((arb_cell(), -1560i32..0, -200i32..0), 0..4),
        )
            .prop_map(move |(t, cell, results)| mk_rrc(
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

/// A trace whose clock never runs backwards — the only kind
/// [`RecoveryPolicy::RepairTimestamps`] is required to pass through
/// untouched.
fn arb_clean_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec((arb_event(), 0u64..10_000), 0..30).prop_map(|pairs| {
        let mut t = 0;
        pairs
            .into_iter()
            .map(|(mut ev, delta)| {
                t += delta;
                ev.set_t(Timestamp(t));
                ev
            })
            .collect()
    })
}

/// Asserts the conservation invariants on one input text.
fn check_conservation(text: &str) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        let (events, stats) = parse_str_lossy(text, policy);
        // parsed + skipped == records, and the per-kind counts sum to
        // the skip total.
        prop_assert_eq!(stats.records, stats.parsed + stats.skipped);
        prop_assert_eq!(stats.parsed, events.len());
        prop_assert_eq!(stats.skipped, stats.skipped_by_kind.values().sum::<usize>());
        if stats.skipped > 0 {
            prop_assert!(stats.first_error.is_some());
        }
        // FailFast stops at the first error, so only the recovering
        // policies are accountable for every attempt in the text.
        if policy != RecoveryPolicy::FailFast {
            prop_assert_eq!(stats.records, count_record_attempts(text));
        }
        if policy == RecoveryPolicy::RepairTimestamps {
            let mut last = Timestamp(0);
            for ev in &events {
                prop_assert!(ev.t() >= last, "repaired clock ran backwards");
                last = ev.t();
            }
        }
    }
    Ok(())
}

/// Cuts `text` into whole-line pieces: each fraction in `cuts` picks a
/// byte, and the piece boundary goes after the newline that ends its line.
/// Cuts that land in one line yield empty pieces.
fn line_pieces<'a>(text: &'a str, cuts: &[f64]) -> Vec<&'a str> {
    let mut ends: Vec<usize> = cuts
        .iter()
        .map(|f| {
            let at = text.floor_char_boundary((f * text.len() as f64) as usize);
            text[at..].find('\n').map_or(text.len(), |i| at + i + 1)
        })
        .collect();
    ends.sort_unstable();
    let mut start = 0;
    let mut pieces = Vec::new();
    for end in ends.into_iter().chain([text.len()]) {
        pieces.push(&text[start..end]);
        start = end;
    }
    pieces
}

/// Pushes `pieces` through `parser` and finishes the text.
fn push_pieces(parser: &mut RecoveringParser, pieces: &[&str]) -> (Vec<TraceEvent>, ParseStats) {
    let mut events = Vec::new();
    for piece in pieces {
        parser.push(piece, |ev| events.push(ev));
    }
    let stats = parser.finish(|ev| events.push(ev));
    (events, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A chaos-corrupted capture pushed in random whole-line pieces yields
    /// the events and every `ParseStats` field of the whole-text parse,
    /// under every policy: the fail-fast fuse, the repair clock and the
    /// line count all carry across pieces, and a record split between
    /// pieces is decoded once. The events' clocks are arbitrary, so the
    /// repair policy has rollbacks to clamp. The parser is reused for a
    /// second text, which `finish` must leave it ready for. `parse_str`
    /// agrees with the fail-fast whole-text parse.
    #[test]
    fn pieces_parse_like_the_whole_text(
        events in prop::collection::vec(arb_event(), 0..30),
        seed in any::<u64>(),
        intensity in 0.0f64..20.0,
        cuts in prop::collection::vec(0.0f64..1.0, 0..12),
    ) {
        let clean = emit(&events);
        let cfg = ChaosConfig::default().with_intensity(intensity);
        let (dirty, _manifest) = chaos_text(&clean, &cfg, seed);
        let pieces = line_pieces(&dirty, &cuts);
        prop_assert_eq!(pieces.concat(), dirty.as_str());
        for policy in POLICIES {
            let (want_events, want) = parse_str_lossy(&dirty, policy);
            if policy == RecoveryPolicy::FailFast {
                // The fail-fast driver fails exactly where the whole-text
                // parse met its first error, and otherwise returns its
                // events.
                match &want.first_error {
                    Some(e) => prop_assert_eq!(parse_str(&dirty), Err(e.clone())),
                    None => prop_assert_eq!(parse_str(&dirty), Ok(want_events.clone())),
                }
            }
            let mut parser = RecoveringParser::new(policy);
            for _ in 0..2 {
                let (got_events, got) = push_pieces(&mut parser, &pieces);
                prop_assert_eq!(&got_events, &want_events);
                prop_assert_eq!(
                    got.first_error.as_ref().map(|e| e.line),
                    want.first_error.as_ref().map(|e| e.line)
                );
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// Emit a valid trace, corrupt its text with seeded chaos at any
    /// intensity up to destroy-level, and require exact loss accounting
    /// from every policy.
    #[test]
    fn conservation_under_text_chaos(
        events in prop::collection::vec(arb_event(), 0..30),
        seed in any::<u64>(),
        intensity in 0.0f64..20.0,
    ) {
        let clean = emit(&events);
        let cfg = ChaosConfig::default().with_intensity(intensity);
        let (dirty, _manifest) = chaos_text(&clean, &cfg, seed);
        check_conservation(&dirty)?;
    }

    /// The invariants hold on text with no trace structure at all.
    #[test]
    fn conservation_on_arbitrary_lines(
        lines in prop::collection::vec("[ -~]{0,60}", 0..30),
    ) {
        check_conservation(&lines.join("\n"))?;
    }

    /// Clean traces parse losslessly under every policy: recovery must
    /// never distort an input that needs no recovering.
    #[test]
    fn clean_traces_are_lossless_under_every_policy(
        events in arb_clean_trace(),
    ) {
        let text = emit(&events);
        for policy in POLICIES {
            let (parsed, stats) = parse_str_lossy(&text, policy);
            prop_assert_eq!(&parsed, &events);
            prop_assert_eq!(stats.skipped, 0);
            prop_assert_eq!(stats.parsed, stats.records);
            prop_assert_eq!(stats.timestamps_repaired, 0);
            prop_assert!(stats.first_error.is_none());
        }
    }
}
