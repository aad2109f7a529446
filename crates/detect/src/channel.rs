//! Channel-level cause analysis (the paper's §5.3: Table 5, Fig. 18).
//!
//! Two aggregations over many runs:
//!
//! * [`ChannelUsage`] — how often each channel appears among serving cells,
//!   split into no-loop and loop(-type) populations (Table 5's "usage
//!   breakdown", Fig. 18's per-channel bars);
//! * [`ScellModStats`] — per-channel SCell-modification attempt/failure
//!   counts (Table 5's "SCell modification failure ratio" column), fed a
//!   whole trace or, through [`ScellModScan`], one event at a time.

use std::collections::BTreeMap;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use onoff_rrc::ids::Rat;
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::perf::FxMap;
use onoff_rrc::trace::{MmState, Timestamp, TraceEvent};

use crate::cellset::CsTimeline;
use crate::classify::LoopType;

/// Order-independent combination of two aggregates.
///
/// Campaign workers accumulate into private shards and fold them together
/// once at the end; every implementation must be commutative and
/// associative (plain counter addition) so the merged result is identical
/// for any shard assignment and worker count.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Per-channel usage counters.
///
/// The hot accumulation paths hash into [`FxMap`]s; the serialized form
/// is still a key-sorted JSON object, so persisted output is
/// byte-identical to the previous `BTreeMap` representation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelUsage {
    /// channel → number of serving appearances in no-loop runs.
    pub no_loop: FxMap<u32, u64>,
    /// channel → appearances inside loop spans, per loop type.
    pub per_type: FxMap<LoopType, FxMap<u32, u64>>,
}

impl ChannelUsage {
    /// Accumulates a **no-loop** run: every serving cell of every distinct
    /// set the run visited counts once per visit (Table 5's even no-loop
    /// spread over the deployed channels).
    pub fn add_no_loop_run(&mut self, tl: &CsTimeline, rat: Rat) {
        for s in &tl.samples {
            for cell in tl.sets[s.id].cells() {
                if cell.rat == rat {
                    *self.no_loop.entry(cell.arfcn).or_insert(0) += 1;
                }
            }
        }
    }

    /// Accumulates a **loop** run: each classified OFF transition counts
    /// its *problematic cell's* channel under its sub-type — the unit of
    /// the paper's §5.3 channel analysis ("every loop instance is centered
    /// on its problematic serving cell").
    pub fn add_loop_transitions(&mut self, transitions: &[crate::OffTransition], rat: Rat) {
        for tr in transitions {
            if let Some(cell) = tr.problem_cell {
                if cell.rat == rat {
                    *self
                        .per_type
                        .entry(tr.loop_type)
                        .or_default()
                        .entry(cell.arfcn)
                        .or_insert(0) += 1;
                }
            }
        }
    }

    /// Fraction each channel takes of a bucket's total (0..1 per channel),
    /// sorted by channel for presentation.
    pub fn shares(bucket: &FxMap<u32, u64>) -> BTreeMap<u32, f64> {
        let total: u64 = bucket.values().sum();
        bucket
            .iter()
            .map(|(&ch, &n)| {
                (
                    ch,
                    if total == 0 {
                        0.0
                    } else {
                        n as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Aggregated loop bucket across all types.
    pub fn loop_total(&self) -> FxMap<u32, u64> {
        let mut out: FxMap<u32, u64> = FxMap::default();
        for bucket in self.per_type.values() {
            for (&ch, &n) in bucket.iter() {
                *out.entry(ch).or_insert(0) += n;
            }
        }
        out
    }
}

impl Merge for ChannelUsage {
    fn merge(&mut self, other: ChannelUsage) {
        for (ch, n) in other.no_loop {
            *self.no_loop.entry(ch).or_insert(0) += n;
        }
        for (ty, bucket) in other.per_type {
            let mine = self.per_type.entry(ty).or_default();
            for (ch, n) in bucket {
                *mine.entry(ch).or_insert(0) += n;
            }
        }
    }
}

/// Per-channel SCell-modification attempt and failure counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScellModStats {
    /// channel (of the newly added SCell) → (attempts, failures).
    pub per_channel: FxMap<u32, (u64, u64)>,
}

impl ScellModStats {
    /// Scans a trace for SCell modifications and their outcomes — a
    /// [`ScellModScan`] fed every event in order.
    pub fn add_trace(&mut self, events: &[TraceEvent]) {
        let mut scan = ScellModScan::default();
        for ev in events {
            scan.feed(self, ev);
        }
    }

    /// Failure ratio per channel.
    pub fn failure_ratios(&self) -> BTreeMap<u32, f64> {
        self.per_channel
            .iter()
            .map(|(&ch, &(att, fail))| {
                (
                    ch,
                    if att == 0 {
                        0.0
                    } else {
                        fail as f64 / att as f64
                    },
                )
            })
            .collect()
    }
}

/// One trace's SCell-modification scan, fed an event at a time: a
/// modification fails when the connection collapses (MM deregistered)
/// within a second of its completion — the S1E3 signature. Start each
/// trace from `ScellModScan::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScellModScan {
    /// Channel of the cell the pending modification adds.
    pending: Option<u32>,
    /// Completion time and channel of the last modification.
    completed: Option<(Timestamp, u32)>,
}

impl ScellModScan {
    /// Advances the scan by one event, counting into `stats`.
    pub fn feed(&mut self, stats: &mut ScellModStats, ev: &TraceEvent) {
        match ev {
            TraceEvent::Rrc(rec) => match &rec.msg {
                RrcMessage::Reconfiguration(body) if body.is_scell_modification() => {
                    self.pending = body.scell_to_add_mod.first().map(|a| a.cell.arfcn);
                }
                RrcMessage::Reconfiguration(_) => self.pending = None,
                RrcMessage::ReconfigurationComplete => {
                    if let Some(ch) = self.pending.take() {
                        stats.per_channel.entry(ch).or_insert((0, 0)).0 += 1;
                        self.completed = Some((rec.t, ch));
                    }
                }
                _ => {}
            },
            TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            } => {
                if let Some((ct, ch)) = self.completed.take() {
                    if t.since(ct) <= 1000 {
                        stats.per_channel.get_mut(&ch).expect("attempt recorded").1 += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

impl Merge for ScellModStats {
    fn merge(&mut self, other: ScellModStats) {
        for (ch, (att, fail)) in other.per_channel {
            let e = self.per_channel.entry(ch).or_insert((0, 0));
            e.0 += att;
            e.1 += fail;
        }
    }
}

impl<K: Ord, V: Merge + Default> Merge for BTreeMap<K, V> {
    fn merge(&mut self, other: BTreeMap<K, V>) {
        for (k, v) in other {
            self.entry(k).or_default().merge(v);
        }
    }
}

impl<K: Hash + Eq, V: Merge + Default> Merge for FxMap<K, V> {
    fn merge(&mut self, other: FxMap<K, V>) {
        for (k, v) in other {
            self.entry(k).or_default().merge(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellset::extract_timeline;
    use onoff_rrc::ids::{CellId, GlobalCellId, Pci};
    use onoff_rrc::messages::{ReconfigBody, ScellAddMod};
    use onoff_rrc::trace::{LogChannel, LogRecord, Timestamp};

    fn rrc(t: u64, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn nr(pci: u16, arfcn: u32) -> CellId {
        CellId::nr(Pci(pci), arfcn)
    }

    fn sa_trace(fail: bool) -> Vec<TraceEvent> {
        let mut ev = vec![
            rrc(
                0,
                RrcMessage::SetupRequest {
                    cell: nr(393, 521310),
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, RrcMessage::SetupComplete),
            rrc(
                3000,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: nr(273, 387410),
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            rrc(3015, RrcMessage::ReconfigurationComplete),
            rrc(
                5000,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 2,
                        cell: nr(371, 387410),
                    }]
                    .into(),
                    scell_to_release: vec![1].into(),
                    ..Default::default()
                }),
            ),
            rrc(5015, RrcMessage::ReconfigurationComplete),
        ];
        if fail {
            ev.push(TraceEvent::Mm {
                t: Timestamp(5020),
                state: MmState::DeregisteredNoCellAvailable,
            });
        }
        ev
    }

    #[test]
    fn scell_mod_failure_counting() {
        let mut stats = ScellModStats::default();
        stats.add_trace(&sa_trace(true));
        stats.add_trace(&sa_trace(false));
        assert_eq!(stats.per_channel[&387410], (2, 1));
        assert_eq!(stats.failure_ratios()[&387410], 0.5);
    }

    #[test]
    fn pure_addition_is_not_an_attempt() {
        let mut stats = ScellModStats::default();
        let ev = vec![
            rrc(
                0,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: nr(273, 387410),
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            rrc(15, RrcMessage::ReconfigurationComplete),
        ];
        stats.add_trace(&ev);
        assert!(stats.per_channel.is_empty());
    }

    #[test]
    fn late_collapse_is_not_a_failure() {
        let mut stats = ScellModStats::default();
        let mut ev = sa_trace(false);
        ev.push(TraceEvent::Mm {
            t: Timestamp(9000),
            state: MmState::DeregisteredNoCellAvailable,
        });
        stats.add_trace(&ev);
        assert_eq!(stats.per_channel[&387410], (1, 0));
    }

    #[test]
    fn usage_buckets_and_shares() {
        let tl = extract_timeline(&sa_trace(true));
        let mut usage = ChannelUsage::default();
        // No-loop side: serving appearances per visited set.
        usage.add_no_loop_run(&tl, Rat::Nr);
        // 521310 appears as serving in 3 connected sets.
        assert_eq!(usage.no_loop[&521310], 3);
        assert_eq!(usage.no_loop[&387410], 2);
        // Loop side: the problematic cells' channels per transition.
        let transitions = vec![
            crate::OffTransition {
                t: Timestamp(5020),
                loop_type: LoopType::S1E3,
                problem_cell: Some(nr(371, 387410)),
            },
            crate::OffTransition {
                t: Timestamp(9000),
                loop_type: LoopType::S1E2,
                problem_cell: Some(nr(371, 387410)),
            },
            crate::OffTransition {
                t: Timestamp(9500),
                loop_type: LoopType::S1E3,
                problem_cell: None,
            },
        ];
        usage.add_loop_transitions(&transitions, Rat::Nr);
        assert_eq!(usage.per_type[&LoopType::S1E3][&387410], 1);
        assert_eq!(usage.per_type[&LoopType::S1E2][&387410], 1);
        assert_eq!(usage.loop_total()[&387410], 2);
        let shares = ChannelUsage::shares(&usage.loop_total());
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shares_of_empty_bucket() {
        let shares = ChannelUsage::shares(&FxMap::default());
        assert!(shares.is_empty());
    }
}
