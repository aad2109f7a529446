//! Counterfactual mitigation replay — §7's remedies expressed as *policy
//! transforms* over recorded traces.
//!
//! Instead of re-simulating each remedy with a tweaked policy (a different
//! random stream, so before/after differences mix remedy effect with
//! simulation noise), a [`PolicyTransform`] rewrites the recorded event
//! sequence into what the radio layer would have emitted had the remedy
//! been deployed, and the rewritten trace is re-analysed. Before and after
//! share every radio sample, so the measured delta is the remedy's alone.
//!
//! * [`ScellOnlyRelease`] — **M1** (F9): a bad-apple SCell costs itself,
//!   not the whole MCG. Full-release collapses become single-SCell release
//!   commands; failed-modification collapses release only the swapped-in
//!   target.
//! * [`ScellModFix`] — **M2** (Table 5): the problem channel's
//!   SCell-modification failure is fixed, so the deregistration that
//!   follows a completed modification on it never happens.
//! * [`KeepScgOnHandover`] — **M3** (F15): the 5G-disabled channel allows
//!   5G. Handovers touching it carry the SCG along, and the blind
//!   switch-away it used to command becomes an SCG addition in place.
//! * [`PromptScgRecovery`] — **M4** (F15): the post-SCG-failure
//!   measurement configuration arrives after a prompt period instead of on
//!   the operator's 30 s grid, compressing the OFF time that follows each
//!   SCG failure.

use onoff_rrc::ids::CellId;
use onoff_rrc::messages::{MeasurementReport, ReconfigBody, RrcMessage, Trigger};
use onoff_rrc::perf::{FxMap, InlineVec};
use onoff_rrc::serving::ServingReplay;
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};

/// How long after a completed SCell modification a deregistration is
/// attributed to it (the recorded gap is tens of milliseconds).
const MOD_FAILURE_WINDOW_MS: u64 = 1_000;

/// A streaming rewrite of a recorded trace into its counterfactual under
/// one remedy. `feed` consumes events in order and emits zero or more
/// replacement events via `emit`.
pub trait PolicyTransform {
    /// The remedy's short name (for report labelling).
    fn name(&self) -> &'static str;
    /// Rewrites one event.
    fn feed(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent));
}

/// Applies a transform over a whole recorded trace, clamping any
/// local timestamp reordering the rewrite introduced so the result is a
/// valid (time-ordered) trace.
pub fn apply_transform<T: PolicyTransform + ?Sized>(
    events: &[TraceEvent],
    transform: &mut T,
) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        transform.feed(ev, &mut |e| out.push(e));
    }
    let mut last = 0u64;
    for e in &mut out {
        let ms = e.t().millis();
        if ms < last {
            e.set_t(Timestamp(last));
        } else {
            last = ms;
        }
    }
    out
}

fn rrc_event(t: Timestamp, template: &LogRecord, msg: RrcMessage) -> TraceEvent {
    TraceEvent::Rrc(LogRecord {
        t,
        rat: template.rat,
        channel: LogChannel::for_message(&msg),
        context: template.context,
        msg,
    })
}

/// **M1**: release only the offending SCell instead of collapsing the
/// connection ("don't ruin all for one bad apple", F9).
pub struct ScellOnlyRelease {
    /// The serving set of the rewritten trace.
    replay: ServingReplay,
    /// Latest reported RSRP per cell, deci-dBm.
    rsrp: FxMap<CellId, i32>,
    /// Cells present in the last measurement report.
    last_report: InlineVec<CellId, 8>,
    /// Index swapped in by an in-flight SCell modification.
    pending_mod: Option<u8>,
    /// Last completed SCell modification: swapped-in index + completion time.
    last_mod: Option<(u8, u64)>,
}

impl Default for ScellOnlyRelease {
    fn default() -> Self {
        ScellOnlyRelease::new()
    }
}

impl ScellOnlyRelease {
    /// A fresh M1 transform.
    pub fn new() -> ScellOnlyRelease {
        ScellOnlyRelease {
            replay: ServingReplay::new(),
            rsrp: FxMap::default(),
            last_report: InlineVec::new(),
            pending_mod: None,
            last_mod: None,
        }
    }

    /// The MCG SCell the release is blamed on: one missing from the last
    /// report if any (S1E1's signature), else the weakest by last reported
    /// RSRP (S1E2's).
    fn offender(&self) -> Option<u8> {
        let mut weakest: Option<(u8, i32)> = None;
        for (idx, cell) in self.replay.serving().mcg.scells.iter() {
            if !self.last_report.iter().any(|c| c == cell) {
                return Some(*idx);
            }
            let rsrp = self.rsrp.get(cell).copied().unwrap_or(i32::MIN);
            if weakest.is_none_or(|(_, w)| rsrp < w) {
                weakest = Some((*idx, rsrp));
            }
        }
        weakest.map(|(idx, _)| idx)
    }

    /// Emits the remedy action — one reconfiguration releasing exactly
    /// `idx` — and advances the replay through it.
    fn release_single(
        &mut self,
        t: Timestamp,
        template: &LogRecord,
        idx: u8,
        emit: &mut dyn FnMut(TraceEvent),
    ) {
        let cmd = rrc_event(
            t,
            template,
            RrcMessage::Reconfiguration(ReconfigBody {
                scell_to_release: vec![idx].into(),
                ..Default::default()
            }),
        );
        let done = rrc_event(t, template, RrcMessage::ReconfigurationComplete);
        self.replay.feed(&cmd);
        self.replay.feed(&done);
        emit(cmd);
        emit(done);
    }

    fn pass(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        self.replay.feed(ev);
        emit(ev.clone());
    }
}

impl PolicyTransform for ScellOnlyRelease {
    fn name(&self) -> &'static str {
        "M1 scell-only release"
    }

    fn feed(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        match ev {
            TraceEvent::Rrc(rec) => match &rec.msg {
                RrcMessage::MeasurementReport(rep) => {
                    self.last_report = rep.results.iter().map(|r| r.cell).collect();
                    for r in rep.results.iter() {
                        self.rsrp.insert(r.cell, r.meas.rsrp.deci());
                    }
                    self.pass(ev, emit);
                }
                RrcMessage::Reconfiguration(body) => {
                    self.pending_mod = if body.is_scell_modification() {
                        body.scell_to_add_mod.first().map(|a| a.index)
                    } else {
                        None
                    };
                    self.pass(ev, emit);
                }
                RrcMessage::ReconfigurationComplete => {
                    if let Some(idx) = self.pending_mod.take() {
                        self.last_mod = Some((idx, rec.t.millis()));
                    }
                    self.pass(ev, emit);
                }
                RrcMessage::Release => {
                    // A full release while SCells serve is the S1E1/S1E2
                    // collapse; the remedy drops only the bad apple.
                    match self.offender() {
                        Some(idx) => {
                            let (t, template) = (rec.t, rec.clone());
                            self.release_single(t, &template, idx, emit);
                        }
                        None => self.pass(ev, emit),
                    }
                }
                _ => self.pass(ev, emit),
            },
            TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            } => {
                // The Fig. 26 exception right after a completed SCell
                // modification: the failed swap costs only its target.
                let attributed = self
                    .last_mod
                    .take()
                    .filter(|(_, ct)| t.millis().saturating_sub(*ct) <= MOD_FAILURE_WINDOW_MS);
                match (attributed, self.replay.serving().pcell()) {
                    (Some((idx, _)), Some(pcell)) => {
                        let template = LogRecord {
                            t: *t,
                            rat: pcell.rat,
                            channel: LogChannel::DlDcch,
                            context: Some(pcell),
                            msg: RrcMessage::ReconfigurationComplete,
                        };
                        self.release_single(*t, &template, idx, emit);
                    }
                    _ => self.pass(ev, emit),
                }
            }
            _ => self.pass(ev, emit),
        }
    }
}

/// **M2**: the problem channel's SCell-modification failure is fixed — a
/// deregistration attributed to a completed modification targeting that
/// channel is dropped (the swap the trace already recorded as completed
/// simply sticks).
pub struct ScellModFix {
    problem_arfcn: u32,
    /// In-flight reconfiguration is a modification adding on the channel.
    pending_hit: bool,
    /// Completion time of the last such modification.
    last_fix: Option<u64>,
}

impl ScellModFix {
    /// An M2 transform for the given problem channel.
    pub fn new(problem_arfcn: u32) -> ScellModFix {
        ScellModFix {
            problem_arfcn,
            pending_hit: false,
            last_fix: None,
        }
    }
}

impl PolicyTransform for ScellModFix {
    fn name(&self) -> &'static str {
        "M2 scell-modification fix"
    }

    fn feed(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        match ev {
            TraceEvent::Rrc(rec) => match &rec.msg {
                RrcMessage::Reconfiguration(body) => {
                    self.pending_hit = body.is_scell_modification()
                        && body
                            .scell_to_add_mod
                            .iter()
                            .any(|a| a.cell.arfcn == self.problem_arfcn);
                    emit(ev.clone());
                }
                RrcMessage::ReconfigurationComplete => {
                    if std::mem::take(&mut self.pending_hit) {
                        self.last_fix = Some(rec.t.millis());
                    }
                    emit(ev.clone());
                }
                _ => emit(ev.clone()),
            },
            TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            } => {
                let fixed = self
                    .last_fix
                    .take()
                    .is_some_and(|ct| t.millis().saturating_sub(ct) <= MOD_FAILURE_WINDOW_MS);
                if !fixed {
                    emit(ev.clone());
                }
            }
            _ => emit(ev.clone()),
        }
    }
}

/// **M3**: the named channel allows 5G. Handovers touching it keep the SCG
/// (the `sp_cell`-less mobility command gains the current PSCell), and the
/// blind switch-away the 5G-disabled policy used to command on a 5G report
/// becomes an SCG addition in place.
pub struct KeepScgOnHandover {
    channel: u32,
    /// The serving set of the rewritten trace.
    replay: ServingReplay,
    /// NR cell of the last B1 report (the SCG-addition candidate).
    last_b1: Option<CellId>,
}

impl KeepScgOnHandover {
    /// An M3 transform enabling 5G on `channel`.
    pub fn new(channel: u32) -> KeepScgOnHandover {
        KeepScgOnHandover {
            channel,
            replay: ServingReplay::new(),
            last_b1: None,
        }
    }

    fn pass(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        self.replay.feed(ev);
        emit(ev.clone());
    }
}

impl PolicyTransform for KeepScgOnHandover {
    fn name(&self) -> &'static str {
        "M3 keep SCG on handover"
    }

    fn feed(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        let rec = match ev {
            TraceEvent::Rrc(rec) => rec,
            _ => return self.pass(ev, emit),
        };
        match &rec.msg {
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: Some(Trigger::B1),
                results,
            }) => {
                self.last_b1 = results.first().map(|r| r.cell);
                self.pass(ev, emit);
            }
            RrcMessage::Reconfiguration(body) if body.sp_cell.is_none() => {
                let Some(target) = body.mobility_target else {
                    return self.pass(ev, emit);
                };
                let serving = self.replay.serving();
                let pcell_on_channel = serving.pcell().is_some_and(|p| p.arfcn == self.channel);
                let involved = target.arfcn == self.channel || pcell_on_channel;
                if involved && serving.scg.is_some() {
                    // The SCG-dropping handover keeps the SCG instead.
                    let mut kept = body.clone();
                    kept.sp_cell = serving.pscell();
                    let out = rrc_event(rec.t, rec, RrcMessage::Reconfiguration(kept));
                    self.replay.feed(&out);
                    emit(out);
                } else if pcell_on_channel && serving.scg.is_none() {
                    if let Some(nr) = self.last_b1 {
                        // The blind switch-away on a 5G report becomes an
                        // SCG addition on the now-allowed channel.
                        let out = rrc_event(
                            rec.t,
                            rec,
                            RrcMessage::Reconfiguration(ReconfigBody {
                                sp_cell: Some(nr),
                                ..Default::default()
                            }),
                        );
                        self.replay.feed(&out);
                        emit(out);
                    } else {
                        self.pass(ev, emit);
                    }
                } else {
                    self.pass(ev, emit);
                }
            }
            _ => self.pass(ev, emit),
        }
    }
}

/// **M4**: prompt post-SCG-failure recovery. After the SCG release that
/// follows an `ScgFailureInformation`, everything later than
/// `period_ms` is pulled forward so 5G measurement resumes promptly — the
/// recorded OFF stretch compresses to the prompt period, and all
/// subsequent events shift earlier by the time saved.
pub struct PromptScgRecovery {
    period_ms: u64,
    /// Accumulated time saved so far.
    shift: u64,
    /// An `ScgFailureInformation` was seen; the next SCG release opens the
    /// recovery window.
    failure_seen: bool,
    /// Adjusted-time ceiling while a recovery window is open.
    deadline: Option<u64>,
    /// Last emitted timestamp (output stays monotone).
    last_out: u64,
}

impl PromptScgRecovery {
    /// An M4 transform with the given prompt recovery period.
    pub fn new(period_ms: u64) -> PromptScgRecovery {
        PromptScgRecovery {
            period_ms,
            shift: 0,
            failure_seen: false,
            deadline: None,
            last_out: 0,
        }
    }
}

impl PolicyTransform for PromptScgRecovery {
    fn name(&self) -> &'static str {
        "M4 prompt SCG recovery"
    }

    fn feed(&mut self, ev: &TraceEvent, emit: &mut dyn FnMut(TraceEvent)) {
        let mut t_adj = ev.t().millis().saturating_sub(self.shift);
        if let Some(d) = self.deadline {
            if t_adj > d {
                self.shift += t_adj - d;
                t_adj = d;
            }
        }
        if let TraceEvent::Rrc(rec) = ev {
            match &rec.msg {
                RrcMessage::ScgFailureInformation { .. } => self.failure_seen = true,
                // Only a release attributed to a preceding SCG failure
                // starts the recovery window; an unattributed one is
                // swallowed by the arm below so it cannot fall through to
                // the recovery arms.
                RrcMessage::Reconfiguration(body) if body.scg_release && self.failure_seen => {
                    self.failure_seen = false;
                    self.deadline = Some(t_adj + self.period_ms);
                }
                RrcMessage::Reconfiguration(body) if body.scg_release => {}
                // Recovery: 5G measurement resumed or the SCG came back.
                RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some(Trigger::B1),
                    ..
                }) => self.deadline = None,
                RrcMessage::Reconfiguration(body) if body.sp_cell.is_some() => self.deadline = None,
                _ => {}
            }
        }
        let t_out = t_adj.max(self.last_out);
        self.last_out = t_out;
        emit(ev.with_t(Timestamp(t_out)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::ids::{GlobalCellId, Pci, Rat};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{MeasResult, ScellAddMod, ScgFailureType};

    fn nr(pci: u16, arfcn: u32) -> CellId {
        CellId::nr(Pci(pci), arfcn)
    }

    fn lte(pci: u16, arfcn: u32) -> CellId {
        CellId::lte(Pci(pci), arfcn)
    }

    fn ev(t: u64, rat: Rat, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn report(t: u64, rat: Rat, trigger: Option<Trigger>, rows: &[(CellId, f64)]) -> TraceEvent {
        ev(
            t,
            rat,
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger,
                results: rows
                    .iter()
                    .map(|(cell, rsrp)| MeasResult {
                        cell: *cell,
                        meas: Measurement::new(*rsrp, -11.0),
                    })
                    .collect(),
            }),
        )
    }

    fn sa_setup(pcell: CellId) -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                Rat::Nr,
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            ev(50, Rat::Nr, RrcMessage::SetupComplete),
            ev(
                3_000,
                Rat::Nr,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: nr(273, 387_410),
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            ev(3_015, Rat::Nr, RrcMessage::ReconfigurationComplete),
        ]
    }

    fn releases_of(events: &[TraceEvent]) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rrc(r) if matches!(r.msg, RrcMessage::Release)))
            .count()
    }

    fn mm_deregs_of(events: &[TraceEvent]) -> usize {
        events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Mm {
                        state: MmState::DeregisteredNoCellAvailable,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn m1_turns_full_release_into_single_scell_release() {
        let pcell = nr(393, 521_310);
        let mut trace = sa_setup(pcell);
        // The SCell vanished from the report, then the collapse.
        trace.push(report(9_000, Rat::Nr, None, &[(pcell, -85.0)]));
        trace.push(ev(9_010, Rat::Nr, RrcMessage::Release));
        let out = apply_transform(&trace, &mut ScellOnlyRelease::new());
        assert_eq!(releases_of(&out), 0);
        let single = out.iter().any(|e| {
            matches!(e, TraceEvent::Rrc(r) if matches!(
                &r.msg,
                RrcMessage::Reconfiguration(b)
                    if b.scell_to_release.as_slice() == [1] && b.scell_to_add_mod.is_empty()
            ))
        });
        assert!(single, "expected a single-SCell release: {out:?}");
    }

    #[test]
    fn m1_converts_mod_failure_into_target_release() {
        let pcell = nr(393, 521_310);
        let mut trace = sa_setup(pcell);
        trace.push(report(
            9_000,
            Rat::Nr,
            None,
            &[
                (pcell, -85.0),
                (nr(273, 387_410), -95.0),
                (nr(371, 387_410), -91.0),
            ],
        ));
        trace.push(ev(
            9_020,
            Rat::Nr,
            RrcMessage::Reconfiguration(ReconfigBody {
                scell_to_add_mod: vec![ScellAddMod {
                    index: 2,
                    cell: nr(371, 387_410),
                }]
                .into(),
                scell_to_release: vec![1].into(),
                ..Default::default()
            }),
        ));
        trace.push(ev(9_035, Rat::Nr, RrcMessage::ReconfigurationComplete));
        trace.push(TraceEvent::Mm {
            t: Timestamp(9_040),
            state: MmState::DeregisteredNoCellAvailable,
        });
        let out = apply_transform(&trace, &mut ScellOnlyRelease::new());
        assert_eq!(mm_deregs_of(&out), 0);
        let target_release = out.iter().any(|e| {
            matches!(e, TraceEvent::Rrc(r) if matches!(
                &r.msg,
                RrcMessage::Reconfiguration(b)
                    if b.scell_to_release.as_slice() == [2] && b.scell_to_add_mod.is_empty()
            ))
        });
        assert!(target_release, "expected the swap target released: {out:?}");
    }

    #[test]
    fn m1_keeps_release_without_scells() {
        let pcell = nr(393, 521_310);
        let trace = vec![
            ev(
                0,
                Rat::Nr,
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            ev(50, Rat::Nr, RrcMessage::SetupComplete),
            ev(5_000, Rat::Nr, RrcMessage::Release),
        ];
        let out = apply_transform(&trace, &mut ScellOnlyRelease::new());
        assert_eq!(releases_of(&out), 1, "nothing to blame, keep the release");
    }

    #[test]
    fn m2_drops_the_attributed_deregistration_only() {
        let pcell = nr(393, 521_310);
        let mut trace = sa_setup(pcell);
        trace.push(ev(
            9_020,
            Rat::Nr,
            RrcMessage::Reconfiguration(ReconfigBody {
                scell_to_add_mod: vec![ScellAddMod {
                    index: 2,
                    cell: nr(371, 387_410),
                }]
                .into(),
                scell_to_release: vec![1].into(),
                ..Default::default()
            }),
        ));
        trace.push(ev(9_035, Rat::Nr, RrcMessage::ReconfigurationComplete));
        trace.push(TraceEvent::Mm {
            t: Timestamp(9_040),
            state: MmState::DeregisteredNoCellAvailable,
        });
        // A later, unrelated deregistration stays.
        trace.push(TraceEvent::Mm {
            t: Timestamp(60_000),
            state: MmState::DeregisteredNoCellAvailable,
        });
        let out = apply_transform(&trace, &mut ScellModFix::new(387_410));
        assert_eq!(mm_deregs_of(&out), 1);
        assert_eq!(out.len(), trace.len() - 1);
    }

    #[test]
    fn m2_ignores_other_channels() {
        let pcell = nr(393, 521_310);
        let mut trace = sa_setup(pcell);
        trace.push(ev(
            9_020,
            Rat::Nr,
            RrcMessage::Reconfiguration(ReconfigBody {
                scell_to_add_mod: vec![ScellAddMod {
                    index: 2,
                    cell: nr(371, 398_410),
                }]
                .into(),
                scell_to_release: vec![1].into(),
                ..Default::default()
            }),
        ));
        trace.push(ev(9_035, Rat::Nr, RrcMessage::ReconfigurationComplete));
        trace.push(TraceEvent::Mm {
            t: Timestamp(9_040),
            state: MmState::DeregisteredNoCellAvailable,
        });
        let out = apply_transform(&trace, &mut ScellModFix::new(387_410));
        assert_eq!(mm_deregs_of(&out), 1, "other channels keep failing");
    }

    /// An NSA session on 5815 with an SCG: the M3 scenarios' starting point.
    fn nsa_with_scg(pcell: CellId, pscell: CellId) -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                Rat::Lte,
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            ev(50, Rat::Lte, RrcMessage::SetupComplete),
            ev(
                2_000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    sp_cell: Some(pscell),
                    ..Default::default()
                }),
            ),
            ev(2_015, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ]
    }

    #[test]
    fn m3_keeps_scg_across_the_dropping_handover() {
        let pcell = lte(380, 5_145);
        let pscell = nr(53, 632_736);
        let mut trace = nsa_with_scg(pcell, pscell);
        // Handover back to the 5G-disabled 5815 — drops the SCG as recorded.
        trace.push(ev(
            10_000,
            Rat::Lte,
            RrcMessage::Reconfiguration(ReconfigBody {
                mobility_target: Some(lte(380, 5_815)),
                ..Default::default()
            }),
        ));
        trace.push(ev(10_015, Rat::Lte, RrcMessage::ReconfigurationComplete));
        let out = apply_transform(&trace, &mut KeepScgOnHandover::new(5_815));
        let kept = out.iter().any(|e| {
            matches!(e, TraceEvent::Rrc(r) if matches!(
                &r.msg,
                RrcMessage::Reconfiguration(b)
                    if b.mobility_target == Some(lte(380, 5_815)) && b.sp_cell == Some(pscell)
            ))
        });
        assert!(kept, "handover should carry the SCG: {out:?}");
    }

    #[test]
    fn m3_turns_blind_switch_away_into_scg_addition() {
        let pcell = lte(380, 5_815);
        let nr_cell = nr(53, 632_736);
        let trace = vec![
            ev(
                0,
                Rat::Lte,
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            ev(50, Rat::Lte, RrcMessage::SetupComplete),
            report(5_000, Rat::Lte, Some(Trigger::B1), &[(nr_cell, -88.0)]),
            ev(
                5_080,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    mobility_target: Some(lte(380, 5_145)),
                    ..Default::default()
                }),
            ),
            ev(5_095, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ];
        let out = apply_transform(&trace, &mut KeepScgOnHandover::new(5_815));
        let added = out.iter().any(|e| {
            matches!(e, TraceEvent::Rrc(r) if matches!(
                &r.msg,
                RrcMessage::Reconfiguration(b)
                    if b.sp_cell == Some(nr_cell) && b.mobility_target.is_none()
            ))
        });
        let still_switches = out.iter().any(|e| {
            matches!(e, TraceEvent::Rrc(r) if matches!(
                &r.msg,
                RrcMessage::Reconfiguration(b) if b.mobility_target.is_some()
            ))
        });
        assert!(added, "expected an SCG addition instead: {out:?}");
        assert!(!still_switches, "the blind switch should be gone: {out:?}");
    }

    #[test]
    fn m4_compresses_the_recovery_gap() {
        let pcell = lte(97, 5_230);
        let pscell = nr(97, 648_672);
        let mut trace = nsa_with_scg(pcell, pscell);
        trace.push(ev(
            16_330,
            Rat::Lte,
            RrcMessage::ScgFailureInformation {
                failure: ScgFailureType::RandomAccessProblem,
            },
        ));
        trace.push(ev(
            16_380,
            Rat::Lte,
            RrcMessage::Reconfiguration(ReconfigBody {
                scg_release: true,
                ..Default::default()
            }),
        ));
        trace.push(ev(16_395, Rat::Lte, RrcMessage::ReconfigurationComplete));
        // The 30 s grid: recovery only at t = 30 s.
        trace.push(report(
            30_005,
            Rat::Lte,
            Some(Trigger::B1),
            &[(pscell, -90.0)],
        ));
        trace.push(ev(
            30_060,
            Rat::Lte,
            RrcMessage::Reconfiguration(ReconfigBody {
                sp_cell: Some(pscell),
                ..Default::default()
            }),
        ));
        trace.push(ev(30_080, Rat::Lte, RrcMessage::ReconfigurationComplete));
        let out = apply_transform(&trace, &mut PromptScgRecovery::new(2_000));
        let b1_t = out
            .iter()
            .find_map(|e| match e {
                TraceEvent::Rrc(r)
                    if matches!(
                        &r.msg,
                        RrcMessage::MeasurementReport(m) if m.trigger == Some(Trigger::B1)
                    ) =>
                {
                    Some(r.t.millis())
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(b1_t, 18_380, "recovery pulled to release + period");
        // Everything after shifts by the saved time and stays ordered.
        let saved = 30_005 - 18_380;
        assert_eq!(out.last().unwrap().t().millis(), 30_080 - saved);
        let mut last = 0;
        for e in &out {
            assert!(e.t().millis() >= last);
            last = e.t().millis();
        }
    }

    #[test]
    fn m4_leaves_failure_free_traces_untouched() {
        let pcell = lte(97, 5_230);
        let pscell = nr(97, 648_672);
        let trace = nsa_with_scg(pcell, pscell);
        let out = apply_transform(&trace, &mut PromptScgRecovery::new(2_000));
        assert_eq!(out, trace);
    }
}
