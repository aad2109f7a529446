//! Serving-cell-set sequence extraction (the paper's Appendix B).
//!
//! [`TimelineBuilder`] drives [`ServingReplay`] (`onoff-rrc`), the one
//! replay of RRC procedures onto the [`ServingCellSet`], and records the
//! set after every event that (re)set it.
//!
//! The output timeline is **compressed**: consecutive identical sets (by
//! canonical key — membership + roles, not SCell indices) collapse into one
//! sample, and each distinct set is interned to a small integer id so loop
//! detection compares ids, not structures.

use serde::{Deserialize, Serialize};

use onoff_rrc::perf::InlineVec;
use onoff_rrc::serving::{CellRole, ConnState, ServingCellSet, ServingReplay};
use onoff_rrc::trace::{Timestamp, TraceEvent};

/// One timeline sample: the serving set changed to `id` at `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsSample {
    /// When the set took effect.
    pub t: Timestamp,
    /// Interned id, indexing [`CsTimeline::sets`].
    pub id: usize,
}

/// The compressed, interned serving-cell-set timeline of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsTimeline {
    /// Distinct serving sets, in first-appearance order. `sets[0]` is
    /// always the IDLE set.
    pub sets: Vec<ServingCellSet>,
    /// Compressed samples, time-ordered; consecutive samples always have
    /// different ids.
    pub samples: Vec<CsSample>,
    /// When the trace ends (time of the last event).
    pub end: Timestamp,
}

impl CsTimeline {
    /// Connectivity state of an interned set. Ids outside the intern table
    /// (possible in hand-built or deserialized timelines) read as IDLE
    /// rather than panicking.
    pub fn state(&self, id: usize) -> ConnState {
        self.sets.get(id).map_or(ConnState::Idle, |s| s.state())
    }

    /// 5G-ON predicate of an interned set; out-of-range ids read as OFF.
    pub fn uses_5g(&self, id: usize) -> bool {
        self.sets.get(id).is_some_and(|s| s.uses_5g())
    }

    /// Total number of distinct sets (the paper's "# CS (unique)").
    pub fn unique_sets(&self) -> usize {
        self.sets.len()
    }

    /// Iterates `(start, end, id)` occupancy intervals.
    pub fn intervals(&self) -> impl Iterator<Item = (Timestamp, Timestamp, usize)> + '_ {
        self.samples.iter().enumerate().map(move |(i, s)| {
            let end = self.samples.get(i + 1).map_or(self.end, |n| n.t);
            (s.t, end, s.id)
        })
    }

    /// The 5G ON/OFF boolean timeline as `(start, end, on)` intervals,
    /// merging adjacent intervals with the same ON/OFF value.
    pub fn on_off_intervals(&self) -> Vec<(Timestamp, Timestamp, bool)> {
        let mut out: Vec<(Timestamp, Timestamp, bool)> = Vec::new();
        for (s, e, id) in self.intervals() {
            let on = self.uses_5g(id);
            match out.last_mut() {
                Some(last) if last.2 == on => last.1 = e,
                _ => out.push((s, e, on)),
            }
        }
        out
    }
}

/// Builder that interns sets by canonical key. Keys are inline
/// small-vectors, so probing for a known set allocates nothing.
struct Interner {
    sets: Vec<ServingCellSet>,
    keys: Vec<InlineVec<(CellRole, onoff_rrc::ids::CellId), 8>>,
}

impl Interner {
    fn new() -> Interner {
        let idle = ServingCellSet::idle();
        let key = idle.canonical_key();
        // Real runs intern a handful of distinct sets: the median
        // five-minute campaign run interns 6, and about four in five
        // intern at most 8, so 8 slots rarely regrow.
        let mut sets = Vec::with_capacity(8);
        let mut keys = Vec::with_capacity(8);
        sets.push(idle);
        keys.push(key);
        Interner { sets, keys }
    }

    fn intern(&mut self, cs: &ServingCellSet) -> usize {
        let key = cs.canonical_key();
        if let Some(i) = self.keys.iter().position(|k| *k == key) {
            return i;
        }
        self.sets.push(cs.clone());
        self.keys.push(key);
        self.sets.len() - 1
    }

    /// Back to the fresh state (IDLE interned at id 0), keeping capacity.
    fn reset(&mut self) {
        self.sets.truncate(1);
        self.keys.truncate(1);
    }
}

/// Incremental core of the cell-set timeline: feeds each [`TraceEvent`] to
/// a [`ServingReplay`] and interns the set after every event that (re)set
/// it.
///
/// [`extract_timeline`] is a thin batch driver over this builder; streaming
/// callers ([`crate::StreamingAnalyzer`], campaign workers) feed it event by
/// event and never materialise the event vector. Each `feed` appends **at
/// most one** compressed sample, which it returns so downstream automata
/// (loop tracking, classification) can advance in the same pass.
pub struct TimelineBuilder {
    interner: Interner,
    samples: Vec<CsSample>,
    replay: ServingReplay,
    end: Timestamp,
}

impl Default for TimelineBuilder {
    fn default() -> Self {
        TimelineBuilder::new()
    }
}

impl TimelineBuilder {
    /// A builder holding the implicit IDLE sample at t = 0.
    pub fn new() -> TimelineBuilder {
        // Compressed timelines hold one sample per serving-set *change*;
        // 64 covers a full campaign run, so the hot path never regrows.
        let mut samples = Vec::with_capacity(64);
        samples.push(CsSample {
            t: Timestamp(0),
            id: 0,
        });
        TimelineBuilder {
            interner: Interner::new(),
            samples,
            replay: ServingReplay::new(),
            end: Timestamp(0),
        }
    }

    /// Returns the builder to its freshly-constructed state (the implicit
    /// IDLE sample at t = 0) while keeping every buffer's capacity, so a
    /// pooled builder replays a new run without reallocating.
    pub fn reset(&mut self) {
        self.interner.reset();
        self.samples.clear();
        self.samples.push(CsSample {
            t: Timestamp(0),
            id: 0,
        });
        self.replay.reset();
        self.end = Timestamp(0);
    }

    /// Applies one event's effect on the serving set. Returns the sample
    /// this event appended to the compressed timeline, if any.
    pub fn feed(&mut self, ev: &TraceEvent) -> Option<CsSample> {
        self.end = self.end.max(ev.t());
        let t = self.replay.feed(ev)?;
        let id = self.interner.intern(self.replay.serving());
        if self.samples.last().map(|s| s.id) == Some(id) {
            return None;
        }
        let sample = CsSample { t, id };
        self.samples.push(sample);
        Some(sample)
    }

    /// The serving set after the last event fed.
    pub fn serving(&self) -> &ServingCellSet {
        self.replay.serving()
    }

    /// Compressed samples appended so far.
    pub fn samples(&self) -> &[CsSample] {
        &self.samples
    }

    /// Distinct serving sets interned so far (`sets()[0]` is IDLE).
    pub fn sets(&self) -> &[ServingCellSet] {
        &self.interner.sets
    }

    /// 5G-ON predicate of an interned id (out-of-range reads as OFF).
    pub fn uses_5g(&self, id: usize) -> bool {
        self.interner.sets.get(id).is_some_and(|s| s.uses_5g())
    }

    /// Latest event time seen.
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Approximate heap footprint of the timeline state, in bytes. Used by
    /// long-running hosts (the `onoff-serve` session table) to account a
    /// session against a global memory budget; capacity-based so it tracks
    /// what the allocator actually holds, not just live length.
    pub fn mem_hint(&self) -> usize {
        use std::mem::size_of;
        self.samples.capacity() * size_of::<CsSample>()
            + self.interner.sets.capacity() * size_of::<ServingCellSet>()
            + self.interner.keys.capacity()
                * size_of::<InlineVec<(CellRole, onoff_rrc::ids::CellId), 8>>()
    }

    /// A point-in-time copy of the timeline built so far.
    pub fn snapshot(&self) -> CsTimeline {
        CsTimeline {
            sets: self.interner.sets.clone(),
            samples: self.samples.clone(),
            end: self.end,
        }
    }

    /// Consumes the builder into the final timeline (no clone).
    pub fn finish(self) -> CsTimeline {
        CsTimeline {
            sets: self.interner.sets,
            samples: self.samples,
            end: self.end,
        }
    }
}

/// Extracts the serving-cell-set timeline from a trace (batch driver over
/// [`TimelineBuilder`]).
pub fn extract_timeline(events: &[TraceEvent]) -> CsTimeline {
    let mut builder = TimelineBuilder::new();
    for ev in events {
        builder.feed(ev);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
    use onoff_rrc::messages::{ReconfigBody, RrcMessage, ScellAddMod};
    use onoff_rrc::trace::{LogChannel, LogRecord, MmState};

    fn rrc(t: u64, rat: Rat, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn nr(pci: u16, arfcn: u32) -> CellId {
        CellId::nr(Pci(pci), arfcn)
    }
    fn lte(pci: u16, arfcn: u32) -> CellId {
        CellId::lte(Pci(pci), arfcn)
    }

    #[test]
    fn empty_trace_yields_idle_timeline() {
        let tl = extract_timeline(&[]);
        assert_eq!(tl.samples.len(), 1);
        assert_eq!(tl.samples[0].id, 0);
        assert_eq!(tl.state(0), ConnState::Idle);
        assert!(tl.on_off_intervals().iter().all(|&(_, _, on)| !on));
    }

    #[test]
    fn out_of_range_ids_read_as_idle() {
        let tl = extract_timeline(&[]);
        // Hand-built/deserialized timelines can reference ids the intern
        // table doesn't have; accessors degrade instead of panicking.
        assert_eq!(tl.state(99), ConnState::Idle);
        assert!(!tl.uses_5g(99));
    }

    #[test]
    fn single_sample_on_off_intervals() {
        let tl = CsTimeline {
            sets: vec![ServingCellSet::idle()],
            samples: vec![CsSample {
                t: Timestamp(0),
                id: 0,
            }],
            end: Timestamp(5_000),
        };
        let onoff = tl.on_off_intervals();
        assert_eq!(onoff, vec![(Timestamp(0), Timestamp(5_000), false)]);
    }

    /// Replays the paper's Fig. 24–26 storyline and checks the CS sequence:
    /// IDLE → SA1 (PCell) → SA2 (+3 SCells) → SA3 (SCell mod ok) → SA4
    /// (SCell mod completed) → IDLE (exception).
    #[test]
    fn appendix_b_worked_example() {
        let p = nr(393, 521310);
        let events = vec![
            rrc(
                0,
                Rat::Nr,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, Rat::Nr, RrcMessage::SetupComplete),
            rrc(
                3200,
                Rat::Nr,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![
                        ScellAddMod {
                            index: 1,
                            cell: nr(273, 387410),
                        },
                        ScellAddMod {
                            index: 2,
                            cell: nr(273, 398410),
                        },
                        ScellAddMod {
                            index: 3,
                            cell: nr(393, 501390),
                        },
                    ]
                    .into(),
                    ..Default::default()
                }),
            ),
            rrc(3215, Rat::Nr, RrcMessage::ReconfigurationComplete),
            // SCell modification 393@501390 (idx 3) → 104@501390 (idx 4): ok.
            rrc(
                4900,
                Rat::Nr,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 4,
                        cell: nr(104, 501390),
                    }]
                    .into(),
                    scell_to_release: vec![3].into(),
                    ..Default::default()
                }),
            ),
            rrc(4915, Rat::Nr, RrcMessage::ReconfigurationComplete),
            // SCell modification 273@387410 (idx 1) → 371@387410 (idx 3):
            // completes, then the exception collapses everything.
            rrc(
                6900,
                Rat::Nr,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 3,
                        cell: nr(371, 387410),
                    }]
                    .into(),
                    scell_to_release: vec![1].into(),
                    ..Default::default()
                }),
            ),
            rrc(6915, Rat::Nr, RrcMessage::ReconfigurationComplete),
            TraceEvent::Mm {
                t: Timestamp(6920),
                state: MmState::DeregisteredNoCellAvailable,
            },
        ];
        let tl = extract_timeline(&events);
        let seq: Vec<String> = tl
            .samples
            .iter()
            .map(|s| tl.sets[s.id].to_string())
            .collect();
        assert_eq!(
            seq,
            vec![
                "{}",
                "{393@521310*}",
                "{393@521310*, 273@387410, 273@398410, 393@501390}",
                "{393@521310*, 273@387410, 273@398410, 104@501390}",
                "{393@521310*, 273@398410, 371@387410, 104@501390}",
                "{}",
            ]
        );
        // The trailing IDLE is the same interned id as the leading one.
        assert_eq!(tl.samples[0].id, tl.samples[5].id);
        assert_eq!(tl.unique_sets(), 5);
    }

    #[test]
    fn command_without_complete_changes_nothing() {
        let p = lte(97, 5815);
        let events = vec![
            rrc(
                0,
                Rat::Lte,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, Rat::Lte, RrcMessage::SetupComplete),
            // Handover command that fails (no Complete).
            rrc(
                1000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    mobility_target: Some(lte(97, 5145)),
                    ..Default::default()
                }),
            ),
            rrc(
                1300,
                Rat::Lte,
                RrcMessage::ReestablishmentRequest {
                    cause: onoff_rrc::messages::ReestablishmentCause::HandoverFailure,
                },
            ),
            rrc(
                1400,
                Rat::Lte,
                RrcMessage::ReestablishmentComplete {
                    cell: lte(310, 66486),
                },
            ),
        ];
        let tl = extract_timeline(&events);
        let seq: Vec<String> = tl
            .samples
            .iter()
            .map(|s| tl.sets[s.id].to_string())
            .collect();
        // The failed handover never lands on the timeline; reestablishment
        // passes through IDLE.
        assert_eq!(seq, vec!["{}", "{97@5815*}", "{}", "{310@66486*}"]);
    }

    #[test]
    fn nsa_scg_lifecycle() {
        let p = lte(238, 5145);
        let events = vec![
            rrc(
                0,
                Rat::Lte,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, Rat::Lte, RrcMessage::SetupComplete),
            // SCG addition: PSCell + one NR SCell in an LTE record.
            rrc(
                1000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    sp_cell: Some(nr(66, 632736)),
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: nr(66, 658080),
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            rrc(1015, Rat::Lte, RrcMessage::ReconfigurationComplete),
            // SCG release.
            rrc(
                9000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scg_release: true,
                    ..Default::default()
                }),
            ),
            rrc(9015, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ];
        let tl = extract_timeline(&events);
        let states: Vec<ConnState> = tl.samples.iter().map(|s| tl.state(s.id)).collect();
        assert_eq!(
            states,
            vec![
                ConnState::Idle,
                ConnState::LteOnly,
                ConnState::Nsa,
                ConnState::LteOnly
            ]
        );
        assert_eq!(
            tl.sets[tl.samples[2].id].to_string(),
            "{238@5145* | SCG: 66@632736*, 66@658080}"
        );
    }

    #[test]
    fn handover_without_sp_cell_drops_scg() {
        let p = lte(380, 5145);
        let events = vec![
            rrc(
                0,
                Rat::Lte,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, Rat::Lte, RrcMessage::SetupComplete),
            rrc(
                1000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    sp_cell: Some(nr(53, 632736)),
                    ..Default::default()
                }),
            ),
            rrc(1015, Rat::Lte, RrcMessage::ReconfigurationComplete),
            rrc(
                5000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    mobility_target: Some(lte(380, 5815)),
                    ..Default::default()
                }),
            ),
            rrc(5015, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ];
        let tl = extract_timeline(&events);
        let last = &tl.sets[tl.samples.last().unwrap().id];
        assert_eq!(last.state(), ConnState::LteOnly);
        assert_eq!(last.pcell(), Some(lte(380, 5815)));
    }

    #[test]
    fn on_off_intervals_merge() {
        let p = nr(393, 521310);
        let events = vec![
            rrc(
                0,
                Rat::Nr,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ),
            rrc(100, Rat::Nr, RrcMessage::SetupComplete),
            rrc(
                2000,
                Rat::Nr,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: nr(273, 387410),
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            rrc(2015, Rat::Nr, RrcMessage::ReconfigurationComplete),
            rrc(8000, Rat::Nr, RrcMessage::Release),
            TraceEvent::Throughput {
                t: Timestamp(12_000),
                mbps: 0.0,
            },
        ];
        let tl = extract_timeline(&events);
        let onoff = tl.on_off_intervals();
        // OFF [0,100), ON [100, 8000) (two sets merged), OFF [8000, end].
        assert_eq!(onoff.len(), 3);
        assert!(!onoff[0].2 && onoff[1].2 && !onoff[2].2);
        assert_eq!(onoff[1].0, Timestamp(100));
        assert_eq!(onoff[1].1, Timestamp(8000));
        assert_eq!(onoff[2].1, Timestamp(12_000));
    }

    #[test]
    fn empty_trace_is_all_idle() {
        let tl = extract_timeline(&[]);
        assert_eq!(tl.samples.len(), 1);
        assert_eq!(tl.state(0), ConnState::Idle);
        assert_eq!(tl.on_off_intervals().len(), 1);
    }

    #[test]
    fn interning_reuses_structurally_equal_sets() {
        let p = nr(393, 521310);
        let mut events = Vec::new();
        for k in 0..3u64 {
            let base = k * 10_000;
            events.push(rrc(
                base,
                Rat::Nr,
                RrcMessage::SetupRequest {
                    cell: p,
                    global_id: GlobalCellId(1),
                },
            ));
            events.push(rrc(base + 100, Rat::Nr, RrcMessage::SetupComplete));
            events.push(rrc(base + 5000, Rat::Nr, RrcMessage::Release));
        }
        let tl = extract_timeline(&events);
        // Only two unique sets: IDLE and {PCell}.
        assert_eq!(tl.unique_sets(), 2);
        assert_eq!(tl.samples.len(), 7); // idle, (on, off) ×3
    }
}
