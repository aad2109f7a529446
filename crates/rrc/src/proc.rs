//! RRC procedure grouping.
//!
//! Raw traces are flat message streams; analysis (Fig. 3b's procedure
//! timeline, the classifier's trigger hunt) works at the granularity of
//! *procedures* — request/command/response exchanges with an outcome. The
//! [`ProcedureTracker`] folds a message stream into [`Procedure`] records,
//! pairing commands with their completes and flagging commands that never
//! complete (or complete and then blow up, like S1E3's SCell modification
//! that "ends with an RRC Reconfiguration Complete message, \[but\] the
//! exception occurs immediately").

use serde::{Deserialize, Serialize};

use crate::messages::{ReconfigBody, RrcMessage};
use crate::trace::{LogRecord, MmState, Timestamp, TraceEvent};

/// The kind of RRC procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProcedureKind {
    /// RRC connection establishment (setup request → setup → complete).
    Establishment,
    /// RRC reconfiguration with its body.
    Reconfiguration(ReconfigBody),
    /// Re-establishment after a failure.
    Reestablishment,
    /// Measurement report (single uplink message; modelled as a procedure so
    /// the timeline interleaves correctly).
    MeasurementReport,
    /// SCG failure indication.
    ScgFailureInformation,
    /// Connection release.
    Release,
}

/// How a procedure ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcedureOutcome {
    /// The expected response arrived and nothing contradicted it.
    Success,
    /// The response arrived but the connection collapsed right after —
    /// S1E3's signature (complete at `t`, exception within milliseconds).
    CompletedThenFailed,
    /// No response; the connection collapsed instead.
    Failed,
    /// Still open when the trace ended.
    Pending,
}

/// One reconstructed procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure {
    /// When the initiating message was sent.
    pub start: Timestamp,
    /// When the closing message (or collapse) was observed.
    pub end: Timestamp,
    /// What kind of exchange this was.
    pub kind: ProcedureKind,
    /// How it ended.
    pub outcome: ProcedureOutcome,
}

/// Window after a Complete within which a connection collapse retroactively
/// marks the procedure [`ProcedureOutcome::CompletedThenFailed`]. Fig. 26
/// shows the exception ~5 ms after the Complete; we allow a generous 500 ms.
const POST_COMPLETE_FAILURE_WINDOW_MS: u64 = 500;

/// Streams [`TraceEvent`]s into completed [`Procedure`]s.
#[derive(Debug, Default)]
pub struct ProcedureTracker {
    /// Finished procedures, in start order.
    done: Vec<Procedure>,
    /// The currently open command, if any.
    open: Option<(Timestamp, ProcedureKind)>,
    /// Most recently completed procedure (may be retro-failed).
    last_completed: Option<usize>,
}

impl ProcedureTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event.
    pub fn feed(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Rrc(rec) => self.feed_rrc(rec),
            TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            } => {
                self.on_collapse(*t);
            }
            _ => {}
        }
    }

    fn feed_rrc(&mut self, rec: &LogRecord) {
        let t = rec.t;
        match &rec.msg {
            RrcMessage::SetupRequest { .. } => self.open(t, ProcedureKind::Establishment),
            RrcMessage::Setup => {}
            RrcMessage::SetupComplete => self.close(t, ProcedureOutcome::Success),
            RrcMessage::Reconfiguration(body) => {
                self.open(t, ProcedureKind::Reconfiguration(body.clone()))
            }
            RrcMessage::ReconfigurationComplete => self.close(t, ProcedureOutcome::Success),
            RrcMessage::MeasurementReport(_) => {
                self.done.push(Procedure {
                    start: t,
                    end: t,
                    kind: ProcedureKind::MeasurementReport,
                    outcome: ProcedureOutcome::Success,
                });
            }
            RrcMessage::ScgFailureInformation { .. } => {
                self.done.push(Procedure {
                    start: t,
                    end: t,
                    kind: ProcedureKind::ScgFailureInformation,
                    outcome: ProcedureOutcome::Success,
                });
            }
            RrcMessage::ReestablishmentRequest { .. } => {
                self.open(t, ProcedureKind::Reestablishment)
            }
            RrcMessage::ReestablishmentComplete { .. } => self.close(t, ProcedureOutcome::Success),
            RrcMessage::Release => {
                self.done.push(Procedure {
                    start: t,
                    end: t,
                    kind: ProcedureKind::Release,
                    outcome: ProcedureOutcome::Success,
                });
            }
            RrcMessage::Mib { .. } | RrcMessage::Sib1 { .. } => {}
        }
    }

    fn open(&mut self, t: Timestamp, kind: ProcedureKind) {
        // An unanswered previous command failed implicitly.
        if let Some((start, k)) = self.open.take() {
            self.done.push(Procedure {
                start,
                end: t,
                kind: k,
                outcome: ProcedureOutcome::Failed,
            });
            self.last_completed = None;
        }
        self.open = Some((t, kind));
    }

    fn close(&mut self, t: Timestamp, outcome: ProcedureOutcome) {
        if let Some((start, kind)) = self.open.take() {
            self.done.push(Procedure {
                start,
                end: t,
                kind,
                outcome,
            });
            self.last_completed = Some(self.done.len() - 1);
        }
    }

    /// Registers a connection collapse (MM deregistered / all cells gone) at
    /// `t`: fails the open procedure, or retro-fails a just-completed one.
    pub fn on_collapse(&mut self, t: Timestamp) {
        if let Some((start, kind)) = self.open.take() {
            self.done.push(Procedure {
                start,
                end: t,
                kind,
                outcome: ProcedureOutcome::Failed,
            });
            self.last_completed = None;
            return;
        }
        if let Some(i) = self.last_completed.take() {
            let p = &mut self.done[i];
            if p.outcome == ProcedureOutcome::Success
                && t.since(p.end) <= POST_COMPLETE_FAILURE_WINDOW_MS
            {
                p.outcome = ProcedureOutcome::CompletedThenFailed;
                p.end = t;
            }
        }
    }

    /// Finishes the stream and returns all procedures; an open command is
    /// reported as [`ProcedureOutcome::Pending`].
    pub fn finish(mut self) -> Vec<Procedure> {
        if let Some((start, kind)) = self.open.take() {
            self.done.push(Procedure {
                start,
                end: start,
                kind,
                outcome: ProcedureOutcome::Pending,
            });
        }
        self.done
    }

    /// Convenience: tracks a whole event slice.
    pub fn track(events: &[TraceEvent]) -> Vec<Procedure> {
        let mut tr = ProcedureTracker::new();
        for ev in events {
            tr.feed(ev);
        }
        tr.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CellId, Pci};
    use crate::messages::ScellAddMod;
    use crate::trace::{LogChannel, LogRecord};
    use crate::Rat;

    fn rec(ms: u64, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(ms),
            rat: Rat::Nr,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn cell() -> CellId {
        CellId::nr(Pci(393), 521310)
    }

    #[test]
    fn establishment_success() {
        let events = vec![
            rec(
                0,
                RrcMessage::SetupRequest {
                    cell: cell(),
                    global_id: Default::default(),
                },
            ),
            rec(100, RrcMessage::Setup),
            rec(120, RrcMessage::SetupComplete),
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].kind, ProcedureKind::Establishment);
        assert_eq!(procs[0].outcome, ProcedureOutcome::Success);
        assert_eq!(procs[0].start, Timestamp(0));
        assert_eq!(procs[0].end, Timestamp(120));
    }

    #[test]
    fn scell_modification_completed_then_failed() {
        // The S1E3 shape from Fig. 26: Complete at t, exception ~5 ms later.
        let body = ReconfigBody {
            scell_to_add_mod: vec![ScellAddMod {
                index: 3,
                cell: CellId::nr(Pci(371), 387410),
            }]
            .into(),
            scell_to_release: vec![1].into(),
            ..Default::default()
        };
        let events = vec![
            rec(1000, RrcMessage::Reconfiguration(body.clone())),
            rec(1015, RrcMessage::ReconfigurationComplete),
            TraceEvent::Mm {
                t: Timestamp(1020),
                state: MmState::DeregisteredNoCellAvailable,
            },
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].outcome, ProcedureOutcome::CompletedThenFailed);
        assert_eq!(procs[0].kind, ProcedureKind::Reconfiguration(body));
    }

    #[test]
    fn collapse_long_after_complete_does_not_retrofail() {
        let events = vec![
            rec(1000, RrcMessage::Reconfiguration(ReconfigBody::default())),
            rec(1015, RrcMessage::ReconfigurationComplete),
            TraceEvent::Mm {
                t: Timestamp(5000),
                state: MmState::DeregisteredNoCellAvailable,
            },
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs[0].outcome, ProcedureOutcome::Success);
    }

    #[test]
    fn unanswered_command_fails_on_next_command() {
        let events = vec![
            rec(0, RrcMessage::Reconfiguration(ReconfigBody::default())),
            rec(500, RrcMessage::Reconfiguration(ReconfigBody::default())),
            rec(510, RrcMessage::ReconfigurationComplete),
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].outcome, ProcedureOutcome::Failed);
        assert_eq!(procs[1].outcome, ProcedureOutcome::Success);
    }

    #[test]
    fn collapse_fails_open_command() {
        let events = vec![
            rec(0, RrcMessage::Reconfiguration(ReconfigBody::default())),
            TraceEvent::Mm {
                t: Timestamp(50),
                state: MmState::DeregisteredNoCellAvailable,
            },
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].outcome, ProcedureOutcome::Failed);
    }

    #[test]
    fn open_command_at_end_is_pending() {
        let events = vec![rec(0, RrcMessage::Reconfiguration(ReconfigBody::default()))];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs[0].outcome, ProcedureOutcome::Pending);
    }

    #[test]
    fn single_message_procedures() {
        let events = vec![
            rec(0, RrcMessage::MeasurementReport(Default::default())),
            rec(
                10,
                RrcMessage::ScgFailureInformation {
                    failure: crate::messages::ScgFailureType::RandomAccessProblem,
                },
            ),
            rec(20, RrcMessage::Release),
        ];
        let procs = ProcedureTracker::track(&events);
        assert_eq!(procs.len(), 3);
        assert!(procs.iter().all(|p| p.outcome == ProcedureOutcome::Success));
        assert_eq!(procs[0].kind, ProcedureKind::MeasurementReport);
        assert_eq!(procs[1].kind, ProcedureKind::ScgFailureInformation);
        assert_eq!(procs[2].kind, ProcedureKind::Release);
    }

    #[test]
    fn broadcast_messages_are_not_procedures() {
        let events = vec![
            rec(
                0,
                RrcMessage::Mib {
                    cell: cell(),
                    global_id: Default::default(),
                },
            ),
            rec(
                5,
                RrcMessage::Sib1 {
                    cell: cell(),
                    q_rx_lev_min_deci: -1080,
                },
            ),
        ];
        assert!(ProcedureTracker::track(&events).is_empty());
    }
}
