//! Loop sub-type classification (the paper's §5 taxonomy).
//!
//! Every 5G ON→OFF transition is classified from the signaling evidence
//! around it, mirroring how the paper's Appendix C reads its instances:
//!
//! | Type | Evidence at the OFF transition |
//! |------|--------------------------------|
//! | S1E3 | completed SCell-modification reconfiguration, collapse within ms |
//! | S1E1 | release while a serving SCell was missing from recent reports |
//! | S1E2 | release while a serving SCell reported terrible RSRQ |
//! | N1E1 | `RRCReestablishmentRequest` with `otherFailure` |
//! | N1E2 | `RRCReestablishmentRequest` with `handoverFailure` |
//! | N2E1 | completed handover whose new configuration drops the SCG |
//! | N2E2 | `SCGFailureInformation` then an SCG-release reconfiguration |
//!
//! Each transition also gets its **problematic cell** — the paper's unit of
//! cause analysis (§5.3): the bad-apple SCell (S1), the failing PCell or
//! handover target (N1), the SCG-dropping handover target (N2E1), or the
//! failed SCG-change target (N2E2).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use onoff_rrc::ids::CellId;
use onoff_rrc::meas::{Measurement, Rsrq};
use onoff_rrc::messages::{MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage};
use onoff_rrc::serving::ServingCellSet;
use onoff_rrc::trace::{MmState, Timestamp, TraceEvent};

use crate::cellset::CsTimeline;

/// The seven loop sub-types of Fig. 13, plus an explicit unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LoopType {
    /// SA: SCell measurement configured but never reported.
    S1E1,
    /// SA: SCell reported but terrible; no corrective command.
    S1E2,
    /// SA: SCell modification commanded but fails.
    S1E3,
    /// NSA: 4G PCell radio link failure.
    N1E1,
    /// NSA: 4G PCell handover failure.
    N1E2,
    /// NSA: successful 4G handover drops the SCG.
    N2E1,
    /// NSA: SCG failure handling releases the SCG.
    N2E2,
    /// NSA, legacy: SCG released by an inconsistent A2 threshold while the
    /// B1 threshold keeps re-admitting the same cell (the prior-work loop
    /// the paper's F12 reports as corrected; absent from current policies).
    A2B1,
    /// No matching evidence.
    Unknown,
}

impl LoopType {
    /// All classified types, in taxonomy order.
    pub const ALL: [LoopType; 7] = [
        LoopType::S1E1,
        LoopType::S1E2,
        LoopType::S1E3,
        LoopType::N1E1,
        LoopType::N1E2,
        LoopType::N2E1,
        LoopType::N2E2,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            LoopType::S1E1 => "S1E1",
            LoopType::S1E2 => "S1E2",
            LoopType::S1E3 => "S1E3",
            LoopType::N1E1 => "N1E1",
            LoopType::N1E2 => "N1E2",
            LoopType::N2E1 => "N2E1",
            LoopType::N2E2 => "N2E2",
            LoopType::A2B1 => "A2B1",
            LoopType::Unknown => "?",
        }
    }

    /// Whether this is an S1 (5G SA) type.
    pub fn is_s1(self) -> bool {
        matches!(self, LoopType::S1E1 | LoopType::S1E2 | LoopType::S1E3)
    }
}

impl std::fmt::Display for LoopType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A classified 5G ON→OFF transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffTransition {
    /// When 5G turned OFF.
    pub t: Timestamp,
    /// The classified sub-type.
    pub loop_type: LoopType,
    /// The problematic cell this transition pivots on.
    pub problem_cell: Option<CellId>,
}

/// RSRQ at/below which a reported serving SCell counts as "terrible"
/// (Fig. 28's bad apple reports −25.5 dB; we use −19.5 dB, the A2 RSRQ
/// threshold observed in Fig. 30).
const POOR_RSRQ: Rsrq = Rsrq::from_deci(-195);

/// RSRP at/below which a reported serving SCell counts as "terrible" even
/// with unremarkable RSRQ (deep coverage holes).
const POOR_RSRP: onoff_rrc::meas::Rsrp = onoff_rrc::meas::Rsrp::from_deci(-1130);

/// How far back evidence is searched, ms.
const WINDOW_MS: u64 = 15_000;

/// How far forward evidence is searched, ms: in the paper's N1 instances
/// (Figs. 30/31) the defining failure trails the transition by seconds.
const FWD_MS: u64 = 5_000;

/// Classifies every ON→OFF transition on the timeline.
pub fn classify_all(events: &[TraceEvent], tl: &CsTimeline) -> Vec<OffTransition> {
    let onoff = tl.on_off_intervals();
    let mut out = Vec::new();
    for w in onoff.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if prev.2 && !cur.2 {
            let t = cur.0;
            let serving_before = serving_set_before(tl, t);
            out.push(classify_off_transition(events, &serving_before, t));
        }
    }
    out
}

/// The serving set in effect immediately before `t`.
fn serving_set_before(tl: &CsTimeline, t: Timestamp) -> ServingCellSet {
    let mut last = tl.sets[0].clone();
    for s in &tl.samples {
        if s.t >= t {
            break;
        }
        last = tl.sets[s.id].clone();
    }
    last
}

/// Incremental core of transition classification.
///
/// Batch [`classify_all`] re-filters the whole event slice around every
/// transition; this automaton instead keeps a **bounded sliding window** of
/// condensed evidence facts (see `Fact` — the classification-relevant
/// residue of RRC + MM records within the last `WINDOW_MS + FWD_MS` = 20 s)
/// and a queue of transitions still awaiting forward evidence. A transition
/// at `t` is frozen — classified once, for good — as soon as an event later
/// than `t + FWD_MS` proves its evidence window complete. Memory is bounded
/// by the event density of one window, not by the trace.
///
/// Measurement-report rows live in a flat arena (`rows`) that report facts
/// index by global offset, so feeding an event never deep-clones it: in the
/// steady state (window deques at capacity) `feed_event` allocates nothing,
/// no matter how many rows each report carries.
///
/// Equivalence with the batch path (enforced by proptests) holds for
/// time-ordered feeds: the pruning bound `max_t - WINDOW_MS - FWD_MS` never
/// discards an event a pending or future transition can still see, because
/// an unfrozen transition satisfies `t ≥ max_t - FWD_MS`.
pub struct OffClassifier {
    /// Condensed evidence facts in arrival order, pruned from the front.
    window: VecDeque<(Timestamp, Fact<RowRange>)>,
    /// Flat arena of measurement-report rows, in arrival order; report
    /// facts in `window` address it by global offset so pruning is O(rows
    /// dropped) and steady-state feeding reuses the deque's capacity.
    rows: VecDeque<(CellId, Measurement)>,
    /// Global offset of `rows.front()`.
    rows_base: u64,
    /// Next global row offset to hand out.
    rows_next: u64,
    /// Latest event time seen.
    max_t: Timestamp,
    /// Transitions whose forward window is still open.
    pending: VecDeque<(Timestamp, ServingCellSet)>,
    /// Transitions classified for good.
    finalized: Vec<OffTransition>,
}

impl Default for OffClassifier {
    fn default() -> Self {
        OffClassifier::new()
    }
}

impl OffClassifier {
    pub fn new() -> OffClassifier {
        OffClassifier {
            window: VecDeque::new(),
            rows: VecDeque::new(),
            rows_base: 0,
            rows_next: 0,
            max_t: Timestamp(0),
            pending: VecDeque::new(),
            finalized: Vec::new(),
        }
    }

    /// Back to the fresh state, keeping the deques' and the finalized
    /// list's capacity, so a pooled classifier replays a new run without
    /// reallocating its evidence window.
    pub fn reset(&mut self) {
        self.window.clear();
        self.rows.clear();
        self.rows_base = 0;
        self.rows_next = 0;
        self.max_t = Timestamp(0);
        self.pending.clear();
        self.finalized.clear();
    }

    /// Approximate heap footprint of the classifier state, in bytes
    /// (capacity-based; see `TimelineBuilder::mem_hint`). The window and
    /// row arena are bounded by the evidence horizon, so this converges
    /// per session; `finalized` grows with the transition count.
    pub fn mem_hint(&self) -> usize {
        use std::mem::size_of;
        self.window.capacity() * size_of::<(Timestamp, Fact<RowRange>)>()
            + self.rows.capacity() * size_of::<(CellId, Measurement)>()
            + self.pending.capacity() * size_of::<(Timestamp, ServingCellSet)>()
            + self.finalized.capacity() * size_of::<OffTransition>()
    }

    /// Observes one trace event (every event — throughput samples advance
    /// the clock even though they carry no RRC evidence).
    pub fn feed_event(&mut self, ev: &TraceEvent) {
        self.max_t = self.max_t.max(ev.t());
        if let Some((t, fact)) = fact_of_event(ev) {
            let fact = fact.map_report(|r| {
                let start = self.rows_next;
                self.rows
                    .extend(r.results.iter().map(|row| (row.cell, row.meas)));
                self.rows_next += r.results.len() as u64;
                RowRange {
                    start,
                    len: r.results.len() as u32,
                }
            });
            self.window.push_back((t, fact));
        }
        self.freeze_ready();
        // Prune evidence no pending or future transition can reference
        // (see the type-level invariant in the struct docs). Reports leave
        // the window in arrival order, so their rows are always the front
        // run of the arena.
        let keep_from = self.max_t.millis().saturating_sub(WINDOW_MS + FWD_MS);
        while self
            .window
            .front()
            .is_some_and(|(t, _)| t.millis() < keep_from)
        {
            if let Some((_, Fact::Report(range))) = self.window.pop_front() {
                debug_assert_eq!(range.start, self.rows_base);
                for _ in 0..range.len {
                    self.rows.pop_front();
                }
                self.rows_base += range.len as u64;
            }
        }
    }

    /// Registers a 5G ON→OFF transition at `t`, with the serving set in
    /// effect just before it. Call after `feed_event` on the event that
    /// caused the flip, so the event itself counts as evidence.
    pub fn feed_transition(&mut self, t: Timestamp, serving_before: ServingCellSet) {
        self.pending.push_back((t, serving_before));
        self.freeze_ready();
    }

    /// Classifies `t` against the current condensed window.
    fn classify_window(
        window: &VecDeque<(Timestamp, Fact<RowRange>)>,
        rows: &VecDeque<(CellId, Measurement)>,
        rows_base: u64,
        serving: &ServingCellSet,
        t: Timestamp,
    ) -> OffTransition {
        classify_from_facts(
            window.iter().map(|&(wt, fact)| {
                (
                    wt,
                    fact.map_report(|range| RowsView {
                        rows,
                        base: rows_base,
                        range,
                    }),
                )
            }),
            serving,
            t,
        )
    }

    /// Classifies and finalizes every pending transition whose forward
    /// evidence window has closed.
    fn freeze_ready(&mut self) {
        while self
            .pending
            .front()
            .is_some_and(|(t, _)| self.max_t.millis() > t.millis() + FWD_MS)
        {
            if let Some((t, serving)) = self.pending.pop_front() {
                let tr =
                    Self::classify_window(&self.window, &self.rows, self.rows_base, &serving, t);
                self.finalized.push(tr);
            }
        }
    }

    /// All transitions so far. Pending ones (forward window still open) are
    /// classified provisionally from the evidence at hand; feeding more
    /// events may upgrade them, so this is non-destructive.
    pub fn transitions(&self) -> Vec<OffTransition> {
        let mut out = self.finalized.clone();
        for (t, serving) in &self.pending {
            out.push(Self::classify_window(
                &self.window,
                &self.rows,
                self.rows_base,
                serving,
                *t,
            ));
        }
        out
    }

    /// Consumes the classifier, classifying the still-pending transitions
    /// against the final evidence window.
    pub fn finish(mut self) -> Vec<OffTransition> {
        for (t, serving) in &self.pending {
            self.finalized.push(Self::classify_window(
                &self.window,
                &self.rows,
                self.rows_base,
                serving,
                *t,
            ));
        }
        self.finalized
    }
}

/// Per-report evidence interface the classification core reads: membership
/// (S1E1's "SCell missing from recent reports") and per-cell samples
/// (S1E2's "terrible RSRQ"). Implemented by borrowed batch reports and by
/// the streaming classifier's condensed row ranges, so both paths run the
/// same decision logic over the same facts.
trait ReportEvidence {
    fn contains_cell(&self, cell: CellId) -> bool;
    fn sample_for(&self, cell: CellId) -> Option<Measurement>;
}

impl ReportEvidence for &MeasurementReport {
    fn contains_cell(&self, cell: CellId) -> bool {
        self.contains(cell)
    }

    fn sample_for(&self, cell: CellId) -> Option<Measurement> {
        self.result_for(cell)
    }
}

/// The classification-relevant residue of a `Reconfiguration` body: six
/// copyable fields instead of a cloned `ReconfigBody` (whose `meas_config`
/// vector would otherwise allocate on every window pass).
#[derive(Clone, Copy)]
struct ReconfigFacts {
    scg_release: bool,
    is_scell_mod: bool,
    first_scell_add: Option<CellId>,
    mobility_target: Option<CellId>,
    sp_cell: Option<CellId>,
    drops_scg: bool,
}

impl ReconfigFacts {
    fn of(body: &ReconfigBody) -> ReconfigFacts {
        ReconfigFacts {
            scg_release: body.scg_release,
            is_scell_mod: body.is_scell_modification(),
            first_scell_add: body.scell_to_add_mod.first().map(|a| a.cell),
            mobility_target: body.mobility_target,
            sp_cell: body.sp_cell,
            drops_scg: body.is_handover_dropping_scg(),
        }
    }
}

/// One evidence-bearing fact, generic over how report rows are stored
/// (borrowed report in the batch path, arena range in the streaming path).
#[derive(Clone, Copy)]
enum Fact<R> {
    Reconfig(ReconfigFacts),
    ReconfigComplete,
    ScgFailure,
    Reest(ReestablishmentCause),
    Release,
    Report(R),
    Collapse,
}

impl<R> Fact<R> {
    /// Maps the report payload, leaving every other variant untouched.
    fn map_report<S>(self, f: impl FnOnce(R) -> S) -> Fact<S> {
        match self {
            Fact::Report(r) => Fact::Report(f(r)),
            Fact::Reconfig(x) => Fact::Reconfig(x),
            Fact::ReconfigComplete => Fact::ReconfigComplete,
            Fact::ScgFailure => Fact::ScgFailure,
            Fact::Reest(c) => Fact::Reest(c),
            Fact::Release => Fact::Release,
            Fact::Collapse => Fact::Collapse,
        }
    }
}

/// A report fact's rows in the streaming classifier: a global-offset range
/// into the arena (`u64` offsets never recycle, so pruning can't alias).
#[derive(Clone, Copy)]
struct RowRange {
    start: u64,
    len: u32,
}

/// Borrowed view of one report's rows inside the streaming arena.
#[derive(Clone, Copy)]
struct RowsView<'a> {
    rows: &'a VecDeque<(CellId, Measurement)>,
    base: u64,
    range: RowRange,
}

impl RowsView<'_> {
    fn iter(&self) -> impl Iterator<Item = &(CellId, Measurement)> {
        let start = (self.range.start - self.base) as usize;
        self.rows.range(start..start + self.range.len as usize)
    }
}

impl ReportEvidence for RowsView<'_> {
    fn contains_cell(&self, cell: CellId) -> bool {
        self.iter().any(|&(c, _)| c == cell)
    }

    fn sample_for(&self, cell: CellId) -> Option<Measurement> {
        self.iter().find(|&&(c, _)| c == cell).map(|&(_, m)| m)
    }
}

/// Condenses one trace event to its evidence fact, if it carries any.
fn fact_of_event(ev: &TraceEvent) -> Option<(Timestamp, Fact<&MeasurementReport>)> {
    match ev {
        TraceEvent::Rrc(rec) => {
            let fact = match &rec.msg {
                RrcMessage::Reconfiguration(body) => Fact::Reconfig(ReconfigFacts::of(body)),
                RrcMessage::ReconfigurationComplete => Fact::ReconfigComplete,
                RrcMessage::ScgFailureInformation { .. } => Fact::ScgFailure,
                RrcMessage::ReestablishmentRequest { cause } => Fact::Reest(*cause),
                RrcMessage::Release => Fact::Release,
                RrcMessage::MeasurementReport(r) => Fact::Report(r),
                _ => return None,
            };
            Some((rec.t, fact))
        }
        TraceEvent::Mm {
            t,
            state: MmState::DeregisteredNoCellAvailable,
        } => Some((*t, Fact::Collapse)),
        _ => None,
    }
}

/// Classifies a single OFF transition at `t` given the serving set that was
/// just released/degraded.
pub fn classify_off_transition(
    events: &[TraceEvent],
    serving_before: &ServingCellSet,
    t: Timestamp,
) -> OffTransition {
    classify_from_facts(events.iter().filter_map(fact_of_event), serving_before, t)
}

/// The shared classification core: walks time-stamped facts (in trace
/// order), keeps the ones inside the evidence window, and applies the §5
/// taxonomy. Both the batch and streaming paths reduce to this.
fn classify_from_facts<R: ReportEvidence + Copy>(
    facts: impl Iterator<Item = (Timestamp, Fact<R>)>,
    serving_before: &ServingCellSet,
    t: Timestamp,
) -> OffTransition {
    let lo = Timestamp(t.millis().saturating_sub(WINDOW_MS));
    // Evidence may trail the transition: in the paper's N1 instances
    // (Figs. 30/31) the PCell failure that defines the loop happens a few
    // seconds *after* 5G dropped (the SCG-releasing handover), during the
    // OFF period.
    let hi = Timestamp(t.millis() + FWD_MS);

    // Collect window facts.
    let mut scell_mods: Vec<(Timestamp, CellId)> = Vec::new(); // completed (t, target)
    let mut pending_reconf: Option<(Timestamp, ReconfigFacts)> = None;
    let mut handovers: Vec<(Timestamp, CellId, ReconfigFacts, bool)> = Vec::new();
    let mut last_sp_change: Option<(Timestamp, CellId)> = None;
    let mut scg_failures: Vec<Timestamp> = Vec::new();
    let mut scg_releases: Vec<Timestamp> = Vec::new();
    let mut reest_cause: Option<(Timestamp, ReestablishmentCause)> = None;
    let mut collapse_at: Option<Timestamp> = None;
    let mut release_at: Option<Timestamp> = None;
    let mut reports: Vec<(Timestamp, R)> = Vec::new();

    for (ft, fact) in facts {
        if ft < lo || ft > hi {
            continue;
        }
        match fact {
            Fact::Reconfig(f) => {
                pending_reconf = Some((ft, f));
                if f.scg_release {
                    scg_releases.push(ft);
                }
            }
            Fact::ReconfigComplete => {
                if let Some((t0, f)) = pending_reconf.take() {
                    if f.is_scell_mod {
                        if let Some(add) = f.first_scell_add {
                            scell_mods.push((ft, add));
                        }
                    }
                    if let Some(target) = f.mobility_target {
                        handovers.push((ft, target, f, true));
                    }
                    if let (Some(sp), None) = (f.sp_cell, f.mobility_target) {
                        last_sp_change = Some((t0, sp));
                    }
                }
            }
            Fact::ScgFailure => scg_failures.push(ft),
            Fact::Reest(cause) => {
                if let Some((t0, f)) = pending_reconf.take() {
                    if let Some(target) = f.mobility_target {
                        handovers.push((t0, target, f, false));
                    }
                }
                reest_cause = Some((ft, cause));
            }
            Fact::Release => release_at = Some(ft),
            Fact::Report(r) => reports.push((ft, r)),
            Fact::Collapse => collapse_at = Some(ft),
        }
    }

    let near = |a: Option<Timestamp>, slack: u64| -> bool {
        a.is_some_and(|x| x.millis().abs_diff(t.millis()) <= slack)
    };

    // S1E3: completed SCell modification, collapse right after.
    if let Some(col) = collapse_at {
        let culprit = scell_mods
            .iter()
            .filter(|(mt, _)| col.since(*mt) <= 1000 && *mt <= col)
            .max_by_key(|(mt, _)| *mt);
        if near(collapse_at, 1000) {
            if let Some(&(_, target)) = culprit {
                return OffTransition {
                    t,
                    loop_type: LoopType::S1E3,
                    problem_cell: Some(target),
                };
            }
        }
    }

    // N1E2 / N1E1: re-establishment with its cause — at the transition or
    // within the first seconds of the OFF period it initiates.
    if let Some((rt, cause)) = reest_cause {
        if rt.millis() + 1500 >= t.millis() && rt.millis() <= t.millis() + 5000 {
            return match cause {
                ReestablishmentCause::HandoverFailure => OffTransition {
                    t,
                    loop_type: LoopType::N1E2,
                    // The failing handover: the last one initiated at or
                    // before the re-establishment.
                    problem_cell: handovers
                        .iter()
                        .rfind(|(ht, ..)| *ht <= rt)
                        .map(|(_, target, _, _)| *target),
                },
                _ => OffTransition {
                    t,
                    loop_type: LoopType::N1E1,
                    problem_cell: serving_before.pcell(),
                },
            };
        }
    }

    // The SCG release at this transition (if any), and whether an SCG
    // failure indication preceded it within a couple of seconds.
    let release_here = scg_releases
        .iter()
        .find(|rt| rt.millis().abs_diff(t.millis()) <= 1000)
        .copied();
    if let Some(rel) = release_here {
        let failed = scg_failures
            .iter()
            .any(|ft| *ft <= rel && rel.since(*ft) <= 2000);
        if failed {
            // N2E2: SCG failure information answered by an SCG release.
            return OffTransition {
                t,
                loop_type: LoopType::N2E2,
                problem_cell: last_sp_change.map(|(_, c)| c),
            };
        }
        if serving_before.scg.is_some() {
            // Legacy A2/B1: a release with no failure indication — the
            // network dropped a healthy SCG on a measurement threshold.
            return OffTransition {
                t,
                loop_type: LoopType::A2B1,
                problem_cell: serving_before.pscell(),
            };
        }
    }

    // N2E1: a completed handover at the transition whose configuration
    // dropped the SCG (later handovers inside the OFF period don't count).
    if serving_before.scg.is_some() {
        let at_transition = handovers.iter().find(|(ht, _, f, completed)| {
            *completed && ht.millis().abs_diff(t.millis()) <= 1000 && f.drops_scg
        });
        if let Some((_, target, _, _)) = at_transition {
            return OffTransition {
                t,
                loop_type: LoopType::N2E1,
                problem_cell: Some(*target),
            };
        }
    }

    // S1E1 / S1E2: a release (or collapse) with report-level evidence.
    if near(release_at, 1000) || near(collapse_at, 1000) {
        let scells = || serving_before.mcg.scells.values().copied();
        // S1E1: some serving SCell absent from the last 3 reports (while
        // reports kept flowing).
        if reports.len() >= 3 {
            let recent = || reports.iter().rev().take(3).map(|&(_, r)| r);
            for scell in scells() {
                if recent().all(|r| !r.contains_cell(scell)) {
                    return OffTransition {
                        t,
                        loop_type: LoopType::S1E1,
                        problem_cell: Some(scell),
                    };
                }
            }
        }
        // S1E2: worst reported serving SCell at/below the RSRQ floor.
        if let Some(&(_, last_report)) = reports.last() {
            let worst = scells()
                .filter_map(|c| last_report.sample_for(c).map(|m| (c, m)))
                .min_by_key(|(_, m)| m.rsrq);
            if let Some((cell, m)) = worst {
                if m.rsrq <= POOR_RSRQ || m.rsrp <= POOR_RSRP {
                    return OffTransition {
                        t,
                        loop_type: LoopType::S1E2,
                        problem_cell: Some(cell),
                    };
                }
            }
        }
    }

    OffTransition {
        t,
        loop_type: LoopType::Unknown,
        problem_cell: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::ids::{Pci, Rat};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{MeasResult, ScellAddMod, ScgFailureType};
    use onoff_rrc::trace::{LogChannel, LogRecord};

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

    fn sa_set() -> ServingCellSet {
        let mut cs = ServingCellSet::with_pcell(nr(393, 521310));
        cs.add_mcg_scell(1, nr(273, 387410));
        cs.add_mcg_scell(2, nr(273, 398410));
        cs
    }

    fn report(t: u64, cells: &[(CellId, f64, f64)]) -> TraceEvent {
        rrc(
            t,
            Rat::Nr,
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: None,
                results: cells
                    .iter()
                    .map(|&(c, p, q)| MeasResult {
                        cell: c,
                        meas: Measurement::new(p, q),
                    })
                    .collect(),
            }),
        )
    }

    #[test]
    fn s1e3_from_completed_modification_and_collapse() {
        let events = vec![
            rrc(
                5000,
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
            rrc(5015, Rat::Nr, RrcMessage::ReconfigurationComplete),
            TraceEvent::Mm {
                t: Timestamp(5020),
                state: MmState::DeregisteredNoCellAvailable,
            },
        ];
        let tr = classify_off_transition(&events, &sa_set(), Timestamp(5020));
        assert_eq!(tr.loop_type, LoopType::S1E3);
        assert_eq!(tr.problem_cell, Some(nr(371, 387410)));
    }

    #[test]
    fn s1e1_from_missing_scell_reports() {
        let p = nr(393, 521310);
        let present = nr(273, 398410);
        let events = vec![
            report(1000, &[(p, -82.0, -10.5), (present, -82.0, -10.5)]),
            report(2000, &[(p, -82.0, -10.5), (present, -82.0, -10.5)]),
            report(3000, &[(p, -82.0, -10.5), (present, -82.0, -10.5)]),
            rrc(3100, Rat::Nr, RrcMessage::Release),
        ];
        let tr = classify_off_transition(&events, &sa_set(), Timestamp(3100));
        assert_eq!(tr.loop_type, LoopType::S1E1);
        // 273@387410 is the serving SCell that never shows up.
        assert_eq!(tr.problem_cell, Some(nr(273, 387410)));
    }

    #[test]
    fn s1e2_from_terrible_scell_report() {
        let p = nr(393, 521310);
        let bad = nr(273, 387410);
        let ok = nr(273, 398410);
        let events = vec![
            report(
                1000,
                &[(p, -82.0, -10.5), (bad, -108.5, -25.5), (ok, -82.0, -10.5)],
            ),
            report(
                2000,
                &[(p, -82.0, -10.5), (bad, -108.0, -25.0), (ok, -82.0, -10.5)],
            ),
            report(
                3000,
                &[(p, -82.0, -10.5), (bad, -109.0, -26.0), (ok, -82.0, -10.5)],
            ),
            rrc(3100, Rat::Nr, RrcMessage::Release),
        ];
        let tr = classify_off_transition(&events, &sa_set(), Timestamp(3100));
        assert_eq!(tr.loop_type, LoopType::S1E2);
        assert_eq!(tr.problem_cell, Some(bad));
    }

    #[test]
    fn n1e1_from_other_failure_reestablishment() {
        let serving = ServingCellSet::with_pcell(lte(191, 66936));
        let events = vec![rrc(
            7000,
            Rat::Lte,
            RrcMessage::ReestablishmentRequest {
                cause: ReestablishmentCause::OtherFailure,
            },
        )];
        let tr = classify_off_transition(&events, &serving, Timestamp(7000));
        assert_eq!(tr.loop_type, LoopType::N1E1);
        assert_eq!(tr.problem_cell, Some(lte(191, 66936)));
    }

    #[test]
    fn n1e2_from_handover_failure() {
        let serving = ServingCellSet::with_pcell(lte(97, 5815));
        let events = vec![
            rrc(
                6500,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    mobility_target: Some(lte(97, 5145)),
                    ..Default::default()
                }),
            ),
            rrc(
                6800,
                Rat::Lte,
                RrcMessage::ReestablishmentRequest {
                    cause: ReestablishmentCause::HandoverFailure,
                },
            ),
        ];
        let tr = classify_off_transition(&events, &serving, Timestamp(6800));
        assert_eq!(tr.loop_type, LoopType::N1E2);
        assert_eq!(tr.problem_cell, Some(lte(97, 5145)));
    }

    #[test]
    fn n2e1_from_scg_dropping_handover() {
        let mut serving = ServingCellSet::with_pcell(lte(380, 5145));
        serving.set_pscell(nr(53, 632736));
        let events = vec![
            rrc(
                9000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    mobility_target: Some(lte(380, 5815)),
                    ..Default::default()
                }),
            ),
            rrc(9015, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ];
        let tr = classify_off_transition(&events, &serving, Timestamp(9015));
        assert_eq!(tr.loop_type, LoopType::N2E1);
        assert_eq!(tr.problem_cell, Some(lte(380, 5815)));
    }

    #[test]
    fn n2e2_from_scg_failure_handling() {
        let mut serving = ServingCellSet::with_pcell(lte(62, 1075));
        serving.set_pscell(nr(188, 648672));
        let events = vec![
            rrc(
                4000,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    sp_cell: Some(nr(393, 648672)),
                    ..Default::default()
                }),
            ),
            rrc(4015, Rat::Lte, RrcMessage::ReconfigurationComplete),
            rrc(
                4330,
                Rat::Lte,
                RrcMessage::ScgFailureInformation {
                    failure: ScgFailureType::RandomAccessProblem,
                },
            ),
            rrc(
                4380,
                Rat::Lte,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scg_release: true,
                    ..Default::default()
                }),
            ),
            rrc(4395, Rat::Lte, RrcMessage::ReconfigurationComplete),
        ];
        let tr = classify_off_transition(&events, &serving, Timestamp(4395));
        assert_eq!(tr.loop_type, LoopType::N2E2);
        assert_eq!(tr.problem_cell, Some(nr(393, 648672)));
    }

    #[test]
    fn unexplained_transition_is_unknown() {
        let tr = classify_off_transition(&[], &sa_set(), Timestamp(1000));
        assert_eq!(tr.loop_type, LoopType::Unknown);
        assert_eq!(tr.problem_cell, None);
    }

    #[test]
    fn labels_and_s1_predicate() {
        assert_eq!(LoopType::S1E3.label(), "S1E3");
        assert!(LoopType::S1E1.is_s1());
        assert!(!LoopType::N2E2.is_s1());
        assert_eq!(LoopType::ALL.len(), 7);
    }
}
