//! Corruption differential tests: every byte of a store file is covered
//! by some checksum, so ANY single-bit flip must surface as a typed
//! error — either at [`StoreReader::new`] (preamble/header damage) or as
//! a counted segment skip (segment damage) with the conservation
//! invariant `decoded + skipped == records` intact. Never a panic, never
//! a silent misdecode: whatever does decode must be exactly the original
//! events minus whole skipped segments.

use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::Measurement;
use onoff_rrc::messages::{MeasResult, MeasurementReport, RrcMessage, Trigger};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use onoff_store::{encode_events_with, EncodeOptions, StoreError, StoreReader};
use proptest::prelude::*;

const SEGMENT_RECORDS: usize = 8;

/// A small multi-segment trace exercising every column.
fn sample_events() -> Vec<TraceEvent> {
    let pcell = CellId::nr(Pci(393), 521310);
    let scell = CellId::nr(Pci(540), 501390);
    let mut events = Vec::new();
    for k in 0..24u64 {
        let t = k * 500;
        events.push(match k % 6 {
            0 => TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: Rat::Nr,
                channel: LogChannel::UlCcch,
                context: Some(pcell),
                msg: RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(k + 1),
                },
            }),
            1 => TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: Rat::Nr,
                channel: LogChannel::UlDcch,
                context: Some(pcell),
                msg: RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some(if k % 2 == 0 {
                        Trigger::B1
                    } else {
                        Trigger::Other("X9".into())
                    }),
                    results: vec![MeasResult {
                        cell: scell,
                        meas: Measurement::new(-112.0, -20.5),
                    }]
                    .into(),
                }),
            }),
            2 => TraceEvent::Throughput {
                t: Timestamp(t),
                mbps: k as f64 * 7.25,
            },
            3 => TraceEvent::Mm {
                t: Timestamp(t),
                state: MmState::Registered,
            },
            4 => TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: Rat::Nr,
                channel: LogChannel::DlDcch,
                context: Some(pcell),
                msg: RrcMessage::Release,
            }),
            _ => TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: Rat::Lte,
                channel: LogChannel::DlCcch,
                context: None,
                msg: RrcMessage::Setup,
            }),
        });
    }
    events
}

fn encode_sample() -> (Vec<TraceEvent>, Vec<u8>) {
    let events = sample_events();
    let bytes = encode_events_with(
        &events,
        &EncodeOptions {
            segment_records: SEGMENT_RECORDS,
        },
    );
    (events, bytes)
}

/// The events a lossy read should produce when `skipped` segments were
/// dropped: the original chunks, minus the skipped ones, in order.
fn expected_minus_segments(events: &[TraceEvent], skipped: &[usize]) -> Vec<TraceEvent> {
    events
        .chunks(SEGMENT_RECORDS)
        .enumerate()
        .filter(|(i, _)| !skipped.contains(i))
        .flat_map(|(_, chunk)| chunk.iter().cloned())
        .collect()
}

/// Checks the contract on one corrupted buffer. Returns whether the
/// damage was detected (it always must be for genuine flips; multi-flip
/// callers pass `require_detection = false` only when flips may cancel).
fn check_corrupted(
    events: &[TraceEvent],
    corrupted: &[u8],
    require_detection: bool,
) -> Result<(), TestCaseError> {
    match StoreReader::new(corrupted) {
        Err(_) => Ok(()), // header-level damage: typed refusal is correct
        Ok(reader) => {
            let (decoded, stats) = reader
                .read_all(RecoveryPolicy::SkipAndCount)
                .expect("lossy read never errors");
            prop_assert_eq!(stats.decoded + stats.skipped, stats.records);
            prop_assert_eq!(stats.records, events.len());
            prop_assert_eq!(stats.decoded, decoded.len());
            // No silent misdecode: survivors must be the original chunks.
            prop_assert_eq!(
                &decoded,
                &expected_minus_segments(events, &stats.skipped_segments)
            );
            if stats.skipped > 0 {
                prop_assert!(stats.first_error.is_some());
                prop_assert!(!stats.skipped_segments.is_empty());
                // The same damage is fatal under FailFast.
                prop_assert!(reader.read_all(RecoveryPolicy::FailFast).is_err());
                // The error names a checksum (or its backstop), not junk.
                let e = stats.first_error.clone().unwrap();
                prop_assert!(matches!(
                    e,
                    StoreError::SegmentHeader { .. }
                        | StoreError::ColumnChecksum { .. }
                        | StoreError::Malformed { .. }
                ));
            } else if require_detection {
                prop_assert!(false, "corruption slipped through undetected");
            }
            // Replay mirrors read_all's accounting and never panics.
            let mut core = onoff_detect::stream::TraceAnalyzer::new();
            let replay_stats = reader
                .replay(RecoveryPolicy::SkipAndCount, |ev| core.feed(ev))
                .expect("lossy replay never errors");
            prop_assert_eq!(replay_stats, stats);
            prop_assert_eq!(core.events_seen(), decoded.len());
            Ok(())
        }
    }
}

/// Every single-bit flip anywhere in the file is detected: refused at
/// open, or skipped-and-counted with conservation intact.
#[test]
fn every_single_bit_flip_is_detected() {
    let (events, bytes) = encode_sample();
    assert!(
        StoreReader::new(&bytes).unwrap().segment_count() >= 3,
        "sample must span several segments"
    );
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 1 << bit;
            check_corrupted(&events, &corrupted, true)
                .unwrap_or_else(|e| panic!("flip at byte {i} bit {bit}: {e}"));
        }
    }
}

/// Every strict prefix of a store file is refused at open: the segment
/// directory must tile the file exactly.
#[test]
fn every_truncation_is_refused() {
    let (_, bytes) = encode_sample();
    for len in 0..bytes.len() {
        assert!(
            StoreReader::new(&bytes[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
}

/// Appending trailing garbage is refused too.
#[test]
fn trailing_garbage_is_refused() {
    let (_, mut bytes) = encode_sample();
    bytes.push(0xAB);
    assert!(StoreReader::new(&bytes).is_err());
}

/// Damage confined to one segment loses exactly that segment — the other
/// segments' records all survive.
#[test]
fn single_segment_loss_is_contained() {
    let (events, bytes) = encode_sample();
    // Flip one byte near the end of the file: that's inside the last
    // segment's columns, so earlier segments must be untouched.
    let mut corrupted = bytes.clone();
    let target = bytes.len() - 2;
    corrupted[target] ^= 0x40;
    let reader = StoreReader::new(&corrupted).expect("header is intact");
    let (decoded, stats) = reader.read_all(RecoveryPolicy::SkipAndCount).unwrap();
    assert_eq!(stats.skipped_segments, vec![reader.segment_count() - 1]);
    assert_eq!(stats.skipped, SEGMENT_RECORDS);
    assert_eq!(stats.decoded, events.len() - SEGMENT_RECORDS);
    assert_eq!(
        decoded,
        expected_minus_segments(&events, &stats.skipped_segments)
    );
    assert!((stats.loss_ratio() - SEGMENT_RECORDS as f64 / events.len() as f64).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Seeded multi-flip fuzzing: between 1 and 16 byte-level flips at
    /// arbitrary positions. Flips can in principle cancel pairwise, so
    /// detection isn't asserted — but conservation, typed errors, chunk
    /// integrity of survivors, and freedom from panics are.
    #[test]
    fn random_multi_flips_never_break_conservation(
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..16),
    ) {
        let (events, bytes) = encode_sample();
        let mut corrupted = bytes.clone();
        for (pos, bit) in flips {
            let i = pos as usize % corrupted.len();
            corrupted[i] ^= 1 << bit;
        }
        let cancelled = corrupted == bytes;
        check_corrupted(&events, &corrupted, !cancelled)?;
    }

    /// Arbitrary bytes (not derived from a real store at all) never panic
    /// the reader.
    #[test]
    fn arbitrary_bytes_never_panic(
        junk in prop::collection::vec(any::<u8>(), 0..400),
        with_magic in any::<bool>(),
    ) {
        let mut junk = junk;
        if with_magic && junk.len() >= 5 {
            junk[..4].copy_from_slice(onoff_store::MAGIC);
            junk[4] = onoff_store::FORMAT_VERSION;
        }
        if let Ok(reader) = StoreReader::new(&junk) {
            let _ = reader.read_all(RecoveryPolicy::SkipAndCount);
            let mut core = onoff_detect::stream::TraceAnalyzer::new();
            let _ = reader.replay(RecoveryPolicy::SkipAndCount, |ev| core.feed(ev));
        }
    }
}
