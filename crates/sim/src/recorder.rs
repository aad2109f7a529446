//! Trace recorder shared by the SA and NSA engines.
//!
//! A [`Recorder`] holds the events of one run while a
//! [`Stepper`](crate::Stepper) steps it and hands them out in final order,
//! step by step or whole at the end. Reset between runs, one recorder
//! serves all of a caller's runs from retained capacity.

use onoff_rrc::ids::{CellId, Rat};
use onoff_rrc::messages::{MeasResult, MeasurementReport, RrcMessage, Trigger};
use onoff_rrc::perf::InlineVec;
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};

use crate::output::{GroundTruth, InjectedCause, SimOutput};

/// Cap on recycled measurement-report buffers: enough for every in-flight
/// report of a multi-minute run, small enough that a pooled recorder's
/// idle footprint stays bounded.
const REPORT_SPARE_CAP: usize = 512;

/// Accumulates trace events and ground truth during a run.
///
/// Events land in a pending window in emission order. A step at `t`
/// records throughput samples at or below `t` and procedures at `t` plus
/// a non-negative offset, so once the step at `t` is done no later step
/// can record anything at or below `t`.
/// [`Stepper::stream`](crate::Stepper::stream) relies on that horizon
/// invariant to flush the settled prefix of the window after every step;
/// [`Recorder::finish`] settles the whole window at once. Both produce the
/// order a stable sort of the whole trace by timestamp gives
/// (`tests/stream_equiv.rs`).
#[derive(Debug, Default)]
pub struct Recorder {
    /// Recorded events not yet flushed.
    events: Vec<TraceEvent>,
    truth: Vec<GroundTruth>,
    /// Recycled heap buffers for spilled measurement-report rows,
    /// harvested from flushed or replaced events and consumed by
    /// [`Recorder::meas_report`]. Contents of reports built from spares
    /// are bitwise-identical to freshly allocated ones.
    report_spares: Vec<Vec<MeasResult>>,
    /// Horizon of the last `flush`: everything at or below it has been
    /// handed out, so nothing may be recorded there any more.
    flushed_to: Option<u64>,
}

impl Recorder {
    /// Fresh recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Debug builds reject an event at or below the last flushed
    /// horizon: it would sort before events already handed out.
    fn check_horizon(&self, t_ms: u64) {
        debug_assert!(
            self.flushed_to.is_none_or(|h| t_ms > h),
            "event at {t_ms} ms recorded at or below the flushed horizon {:?}",
            self.flushed_to
        );
    }

    /// Records an RRC message at `t_ms` under the given control-plane RAT
    /// and serving context.
    pub fn rrc(&mut self, t_ms: u64, rat: Rat, context: Option<CellId>, msg: RrcMessage) {
        self.check_horizon(t_ms);
        let channel = LogChannel::for_message(&msg);
        self.events.push(TraceEvent::Rrc(LogRecord {
            t: Timestamp(t_ms),
            rat,
            channel,
            context,
            msg,
        }));
    }

    /// Records a measurement report at `t_ms`, recycling a spare heap
    /// buffer for the result rows when the report overflows the inline
    /// capacity — the steady-state per-step sweep report then allocates
    /// nothing. The recorded event is identical to building the report
    /// with `results.iter().cloned().collect()`.
    pub fn meas_report(
        &mut self,
        t_ms: u64,
        rat: Rat,
        context: Option<CellId>,
        trigger: Option<Trigger>,
        results: &[MeasResult],
    ) {
        let results = InlineVec::from_slice_reusing(results, self.report_spares.pop());
        self.rrc(
            t_ms,
            rat,
            context,
            RrcMessage::MeasurementReport(MeasurementReport { trigger, results }),
        );
    }

    /// Records the MM collapse line NSG shows during an SA exception.
    pub fn mm_deregistered(&mut self, t_ms: u64) {
        self.check_horizon(t_ms);
        self.events.push(TraceEvent::Mm {
            t: Timestamp(t_ms),
            state: MmState::DeregisteredNoCellAvailable,
        });
    }

    /// Records a throughput sample.
    pub fn throughput(&mut self, t_ms: u64, mbps: f64) {
        self.check_horizon(t_ms);
        self.events.push(TraceEvent::Throughput {
            t: Timestamp(t_ms),
            mbps,
        });
    }

    /// Records a hidden ground-truth 5G-OFF trigger.
    pub fn truth(&mut self, t_ms: u64, cause: InjectedCause) {
        self.truth.push(GroundTruth {
            t: Timestamp(t_ms),
            cause,
        });
    }

    /// Reserves event capacity for a run of `duration_ms`: one throughput
    /// sample per second plus roughly one procedure event per measurement
    /// round, so a steady-state run never regrows the buffer mid-flight.
    pub fn reserve_for(&mut self, duration_ms: u64) {
        let estimate = (duration_ms / 1000) as usize * 2 + 64;
        if self.events.capacity() < estimate {
            self.events.reserve(estimate - self.events.len());
        }
        if self.truth.capacity() < 16 {
            self.truth.reserve(16 - self.truth.len());
        }
    }

    /// Clears the recorder for reuse, keeping its buffers' capacity — the
    /// pooled half of the `reset`/`finish_into` lifecycle.
    pub fn reset(&mut self) {
        self.events.clear();
        self.truth.clear();
        self.flushed_to = None;
    }

    /// Hands every pending event at or below `horizon` to `sink`, in final
    /// order, then recycles their spilled report rows for later
    /// [`Recorder::meas_report`] calls.
    ///
    /// Call it after the step at `horizon` (or with `u64::MAX` after the
    /// last step): by the horizon invariant no later step can record an
    /// event that sorts before the ones handed out, so the concatenated
    /// flushes equal [`Recorder::finish`]'s events exactly. Debug builds
    /// check that nothing is recorded at or below `horizon` afterwards.
    pub(crate) fn flush(&mut self, horizon: u64, mut sink: impl FnMut(&TraceEvent)) {
        sort_events_by_time(&mut self.events);
        let n = self.events.partition_point(|e| e.t().millis() <= horizon);
        for ev in &self.events[..n] {
            sink(ev);
        }
        harvest_spares(&mut self.report_spares, &mut self.events[..n]);
        self.events.drain(..n);
        self.flushed_to = Some(horizon);
    }

    /// Finishes the run: every pending event, in final order.
    pub fn finish(mut self) -> SimOutput {
        sort_events_by_time(&mut self.events);
        SimOutput {
            events: self.events,
            truth: self.truth,
        }
    }

    /// Takes the heap rows behind `out`'s spilled measurement reports for
    /// this recorder's own reports: a caller about to overwrite `out` with
    /// the next run's trace recycles them instead of freeing them.
    pub(crate) fn recycle_spares(&mut self, out: &mut SimOutput) {
        harvest_spares(&mut self.report_spares, &mut out.events);
    }

    /// Finishes the run into `out`, recycling storage: `out`'s previous
    /// buffers are cleared and swapped into the recorder, so the capacity of
    /// both sides ping-pongs across pooled runs instead of being reallocated.
    /// The resulting `out` is bitwise-identical to [`Recorder::finish`].
    pub fn finish_into(&mut self, out: &mut SimOutput) {
        sort_events_by_time(&mut self.events);
        out.events.clear();
        out.truth.clear();
        std::mem::swap(&mut self.events, &mut out.events);
        std::mem::swap(&mut self.truth, &mut out.truth);
    }
}

/// Takes the heap buffers behind `events`' spilled measurement reports
/// into `spares`, up to [`REPORT_SPARE_CAP`].
fn harvest_spares(spares: &mut Vec<Vec<MeasResult>>, events: &mut [TraceEvent]) {
    for ev in events {
        if spares.len() >= REPORT_SPARE_CAP {
            break;
        }
        if let TraceEvent::Rrc(rec) = ev {
            if let RrcMessage::MeasurementReport(r) = &mut rec.msg {
                if let Some(spare) = r.results.take_spilled() {
                    spares.push(spare);
                }
            }
        }
    }
}

/// Sorts events by timestamp, stably and in place. Returns `true` when the
/// events were already non-decreasing (the common case: a run with no
/// intra-step interleaving) and the sort was skipped entirely.
///
/// The fallback is a stable insertion sort: recorder output is nearly
/// sorted (only intra-step procedure offsets can overtake the next step's
/// grid samples, so displacements are local), which makes it linear-ish
/// here — and unlike `sort_by_key`'s merge sort it allocates nothing.
fn sort_events_by_time(events: &mut [TraceEvent]) -> bool {
    if events.windows(2).all(|w| w[0].t() <= w[1].t()) {
        return true;
    }
    for i in 1..events.len() {
        let mut j = i;
        // Adjacent swaps only while strictly out of order: stable, so the
        // permutation matches the previous `sort_by_key` exactly.
        while j > 0 && events[j - 1].t() > events[j].t() {
            events.swap(j - 1, j);
            j -= 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_sorts_by_time() {
        let mut r = Recorder::new();
        r.throughput(2000, 1.0);
        r.rrc(1000, Rat::Nr, None, RrcMessage::Release);
        r.mm_deregistered(1500);
        let out = r.finish();
        let ts: Vec<u64> = out.events.iter().map(|e| e.t().millis()).collect();
        assert_eq!(ts, vec![1000, 1500, 2000]);
    }

    #[test]
    fn sorted_input_takes_fast_path_and_unsorted_falls_back() {
        let tp = |t: u64, mbps: f64| TraceEvent::Throughput {
            t: Timestamp(t),
            mbps,
        };
        // Already sorted: the helper reports the skip and leaves the order.
        let mut sorted = vec![tp(1000, 1.0), tp(1000, 2.0), tp(2000, 3.0)];
        let expected = sorted.clone();
        assert!(sort_events_by_time(&mut sorted));
        assert_eq!(sorted, expected);

        // Unsorted: the helper reports the fallback, and the stable sort
        // produces the same order sort_by_key did, including tie stability.
        let mut unsorted = vec![tp(2000, 1.0), tp(1000, 2.0), tp(1000, 3.0), tp(500, 4.0)];
        assert!(!sort_events_by_time(&mut unsorted));
        assert_eq!(
            unsorted,
            vec![tp(500, 4.0), tp(1000, 2.0), tp(1000, 3.0), tp(2000, 1.0)]
        );
    }

    #[test]
    fn finish_into_matches_finish_and_recycles_capacity() {
        let record = |r: &mut Recorder| {
            r.throughput(2000, 1.0);
            r.rrc(1000, Rat::Nr, None, RrcMessage::Release);
            r.mm_deregistered(1500);
            r.truth(
                1500,
                InjectedCause::PcellRlf {
                    cell: CellId::lte(onoff_rrc::ids::Pci(1), 850),
                },
            );
        };
        let mut fresh = Recorder::new();
        record(&mut fresh);
        let expected = fresh.finish();

        let mut pooled = Recorder::new();
        pooled.reserve_for(300_000);
        let mut out = SimOutput::default();
        for _ in 0..3 {
            pooled.reset();
            record(&mut pooled);
            pooled.finish_into(&mut out);
            assert_eq!(out, expected);
        }
        // After finish_into the recorder is empty and ready for reuse.
        pooled.reset();
        let empty = pooled.finish();
        assert!(empty.events.is_empty() && empty.truth.is_empty());
    }

    /// Flushing after every "step" hands out exactly `finish`'s order,
    /// ties included, and leaves nothing behind.
    #[test]
    fn per_step_flushes_concatenate_to_finish() {
        let record = |r: &mut Recorder, t: u64| {
            r.throughput(t, t as f64);
            r.rrc(t + 400, Rat::Nr, None, RrcMessage::Release);
            r.mm_deregistered(t + 400);
            r.rrc(t + 5, Rat::Nr, None, RrcMessage::ReconfigurationComplete);
        };
        for period in [100, 250, 1000] {
            let mut whole = Recorder::new();
            let mut streamed = Recorder::new();
            let mut flushed = Vec::new();
            let mut t = 0;
            while t < 3000 {
                record(&mut whole, t);
                record(&mut streamed, t);
                streamed.flush(t, |ev| flushed.push(ev.clone()));
                assert!(flushed.iter().all(|e| e.t().millis() <= t));
                t += period;
            }
            streamed.flush(u64::MAX, |ev| flushed.push(ev.clone()));
            assert_eq!(flushed, whole.finish().events, "period {period}");
        }
    }

    /// Flushed spilled reports return their heap rows to the recorder,
    /// and reports rebuilt from them are identical.
    #[test]
    fn flush_recycles_spilled_report_rows() {
        use onoff_rrc::ids::Pci;
        use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
        let rows: Vec<MeasResult> = (0..20u16)
            .map(|i| MeasResult {
                cell: CellId::nr(Pci(i), 521310),
                meas: Measurement {
                    rsrp: Rsrp::from_db(-90.0),
                    rsrq: Rsrq::from_db(-11.0),
                },
            })
            .collect();
        let mut r = Recorder::new();
        r.meas_report(0, Rat::Nr, None, None, &rows);
        let mut first = Vec::new();
        r.flush(0, |ev| first.push(ev.clone()));
        assert_eq!(r.report_spares.len(), 1);
        r.meas_report(1000, Rat::Nr, None, None, &rows);
        assert!(r.report_spares.is_empty(), "the spare was reused");
        let mut second = Vec::new();
        r.flush(1000, |ev| second.push(ev.clone()));
        assert_eq!(first[0].with_t(Timestamp(1000)), second[0]);
    }

    /// Debug builds reject an event recorded at or below the flushed
    /// horizon: handing it out would break the stable order.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "flushed horizon")]
    fn recording_below_the_horizon_is_caught() {
        let mut r = Recorder::new();
        r.throughput(1000, 1.0);
        r.flush(1000, |_| {});
        r.throughput(1000, 2.0);
    }

    #[test]
    fn truth_is_kept_separate() {
        let mut r = Recorder::new();
        r.truth(
            500,
            InjectedCause::PcellRlf {
                cell: CellId::lte(onoff_rrc::ids::Pci(1), 850),
            },
        );
        let out = r.finish();
        assert!(out.events.is_empty());
        assert_eq!(out.truth.len(), 1);
    }
}
