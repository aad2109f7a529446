//! Batch ≡ streaming equivalence for the online prediction stage:
//! `analyze_trace_scored` and a scoring-enabled `StreamingAnalyzer` drive
//! one `OnlineScorer` inside one incremental core, so any in-order chunking
//! of the same events must produce a bitwise-identical `PredictionReport`
//! (bootstrap confidence intervals included).

use onoff_detect::{analyze_trace_scored, ScoringConfig, StreamingAnalyzer, TraceAnalyzer};
use onoff_predict::OnlineScorer;
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::Measurement;
use onoff_rrc::messages::{MeasResult, MeasurementReport, ReconfigBody, RrcMessage, ScellAddMod};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};
use proptest::prelude::*;

fn rrc(t: u64, rat: Rat, msg: RrcMessage) -> TraceEvent {
    TraceEvent::Rrc(LogRecord {
        t: Timestamp(t),
        rat,
        channel: LogChannel::for_message(&msg),
        context: None,
        msg,
    })
}

/// Expands a random action script into a well-formed, strictly
/// time-increasing trace that exercises the scorer: SA setups, SCell
/// add/modify/release on the problem channel, collapses, and measurement
/// reports whose RSRP values are derived from the script so scores vary.
fn trace_from_script(script: &[(u8, u64)]) -> Vec<TraceEvent> {
    let nr_p = CellId::nr(Pci(393), 521_310);
    let nr_p2 = CellId::nr(Pci(394), 521_310);
    let nr_s = CellId::nr(Pci(273), 387_410);
    let nr_rival = CellId::nr(Pci(371), 387_410);
    let mut t = 0u64;
    let mut events = Vec::new();
    fn step(t: &mut u64, gap: u64) -> u64 {
        *t += 1 + gap;
        *t
    }
    for &(action, gap) in script {
        match action % 8 {
            0 => {
                events.push(rrc(
                    step(&mut t, gap),
                    Rat::Nr,
                    RrcMessage::SetupRequest {
                        cell: if gap % 2 == 0 { nr_p } else { nr_p2 },
                        global_id: GlobalCellId(1),
                    },
                ));
                events.push(rrc(step(&mut t, 10), Rat::Nr, RrcMessage::SetupComplete));
            }
            1 => {
                events.push(rrc(
                    step(&mut t, gap),
                    Rat::Nr,
                    RrcMessage::Reconfiguration(ReconfigBody {
                        scell_to_add_mod: vec![ScellAddMod {
                            index: 1,
                            cell: nr_s,
                        }]
                        .into(),
                        ..Default::default()
                    }),
                ));
                events.push(rrc(
                    step(&mut t, 10),
                    Rat::Nr,
                    RrcMessage::ReconfigurationComplete,
                ));
            }
            2 => events.push(rrc(step(&mut t, gap), Rat::Nr, RrcMessage::Release)),
            3 => events.push(TraceEvent::Mm {
                t: Timestamp(step(&mut t, gap)),
                state: MmState::DeregisteredNoCellAvailable,
            }),
            4 => events.push(TraceEvent::Throughput {
                t: Timestamp(step(&mut t, gap)),
                mbps: (gap % 500) as f64,
            }),
            // Measurement reports at script-derived signal levels: the
            // scorer's cadence, spanning both sides of the swap-window
            // gates.
            5 | 6 => {
                let wobble = (gap % 30) as f64;
                events.push(rrc(
                    step(&mut t, gap),
                    Rat::Nr,
                    RrcMessage::MeasurementReport(MeasurementReport {
                        trigger: None,
                        results: vec![
                            MeasResult {
                                cell: nr_p,
                                meas: Measurement::new(-80.0 - wobble, -10.5),
                            },
                            MeasResult {
                                cell: nr_s,
                                meas: Measurement::new(-90.0 - wobble, -12.0),
                            },
                            MeasResult {
                                cell: nr_rival,
                                meas: Measurement::new(-120.0 + wobble, -13.0),
                            },
                        ]
                        .into(),
                    }),
                ));
            }
            // The S1E3 swap: modify the problem-channel SCell.
            _ => {
                events.push(rrc(
                    step(&mut t, gap),
                    Rat::Nr,
                    RrcMessage::Reconfiguration(ReconfigBody {
                        scell_to_add_mod: vec![ScellAddMod {
                            index: 2,
                            cell: nr_rival,
                        }]
                        .into(),
                        scell_to_release: vec![1].into(),
                        ..Default::default()
                    }),
                ));
                events.push(rrc(
                    step(&mut t, 10),
                    Rat::Nr,
                    RrcMessage::ReconfigurationComplete,
                ));
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary chunk boundaries, with a prediction snapshot taken at
    /// every boundary: the final report still equals the batch one,
    /// bit for bit (f64 means, CI bounds, counts, cell order).
    #[test]
    fn scored_stream_equals_scored_batch_under_chunking(
        script in prop::collection::vec((any::<u8>(), 0u64..3_000), 0..50),
        chunk in 1usize..7,
    ) {
        let events = trace_from_script(&script);
        let (batch_analysis, batch_pred) =
            analyze_trace_scored(&events, ScoringConfig::default());
        let mut s = StreamingAnalyzer::with_scoring(ScoringConfig::default());
        for part in events.chunks(chunk) {
            s.feed_all(part.iter().cloned());
            // Interim snapshots must be observers, not mutations.
            let _ = s.predictions();
        }
        let stream_pred = s.predictions().expect("scoring enabled");
        prop_assert_eq!(stream_pred, batch_pred);
        prop_assert_eq!(s.finish(), batch_analysis);
    }

    /// The bare core fed one event at a time matches batch, scoring does
    /// not perturb the analysis itself (same RunAnalysis a plain analyzer
    /// produces), and a standalone `OnlineScorer` fed the same events
    /// reports the same predictions as the hosted one.
    #[test]
    fn scoring_is_a_pure_observer_of_the_analysis(
        script in prop::collection::vec((any::<u8>(), 0u64..3_000), 0..30),
    ) {
        let events = trace_from_script(&script);
        let plain = onoff_detect::analyze_trace(&events);
        let (scored, pred) = analyze_trace_scored(&events, ScoringConfig::default());
        prop_assert_eq!(scored, plain);

        let mut core = TraceAnalyzer::with_scoring(ScoringConfig::default());
        for ev in &events {
            core.feed(ev);
        }
        prop_assert_eq!(core.predictions().expect("scoring enabled"), pred.clone());

        // A standalone scorer replays the serving set itself; the hosted
        // one reads its analyzer's. Both must report the same.
        let mut standalone = OnlineScorer::new(ScoringConfig::default());
        for ev in &events {
            standalone.feed(ev);
        }
        prop_assert_eq!(standalone.report(), pred);
    }

    /// Scores are probabilities and the report is internally consistent:
    /// per-cell sample counts sum to the scored total, cells are sorted,
    /// and every CI brackets its mean.
    #[test]
    fn reports_are_well_formed(
        script in prop::collection::vec((any::<u8>(), 0u64..3_000), 0..50),
    ) {
        let events = trace_from_script(&script);
        let (_, pred) = analyze_trace_scored(&events, ScoringConfig::default());
        let total: u64 = pred.cells.iter().map(|c| c.samples).sum();
        prop_assert_eq!(total, pred.scored);
        for pair in pred.cells.windows(2) {
            prop_assert!(pair[0].cell < pair[1].cell);
        }
        for c in &pred.cells {
            prop_assert!((0.0..=1.0).contains(&c.mean), "mean {}", c.mean);
            if let Some(ci) = c.ci {
                prop_assert!(ci.lo <= c.mean && c.mean <= ci.hi);
                prop_assert!((0.0..=1.0).contains(&ci.lo) && (0.0..=1.0).contains(&ci.hi));
            }
        }
        if pred.scored == 0 {
            prop_assert!(pred.cells.is_empty());
            prop_assert!(pred.session_mean.is_none());
        }
    }
}
