//! Per-run performance metrics (Figs. 10 and 11).

use serde::{Deserialize, Serialize};

use onoff_rrc::trace::Timestamp;

use crate::cellset::CsTimeline;
use crate::loops::LoopInstance;

/// Performance summary of one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Total 5G ON time, ms.
    pub on_ms: u64,
    /// Total 5G OFF time, ms.
    pub off_ms: u64,
    /// Median download speed over 5G ON seconds, Mbps (None: never ON).
    pub median_on_mbps: Option<f64>,
    /// Median download speed over 5G OFF seconds, Mbps (None: never OFF).
    pub median_off_mbps: Option<f64>,
    /// Per-cycle statistics of every loop cycle: (cycle ms, off ms,
    /// off ratio, median ON Mbps, median OFF Mbps).
    pub cycle_stats: Vec<CycleStat>,
}

/// One loop cycle's impact numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleStat {
    /// Full cycle duration, ms.
    pub cycle_ms: u64,
    /// OFF duration, ms.
    pub off_ms: u64,
    /// OFF share.
    pub off_ratio: f64,
    /// Median speed while ON in this cycle, Mbps.
    pub on_mbps: Option<f64>,
    /// Median speed while OFF in this cycle, Mbps.
    pub off_mbps: Option<f64>,
    /// ON-minus-OFF speed loss, Mbps (None if either side is missing).
    pub loss_mbps: Option<f64>,
}

fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// A run's throughput values as the incremental core keeps them: the bare
/// values in arrival order, cut into the timeline's intervals, with no
/// timestamps.
///
/// A value counts toward the interval whose time span holds it (`s ≤ t <
/// e`), the last interval running through the trace end. Values arrive in
/// time order, so each interval's values are one contiguous run, and every
/// boundary the metrics read — an interval start, a cycle's `on_at`,
/// `off_at` or `end_at` — is a timeline sample time or the trace end. A
/// set change appended at the newest millisecond takes the values already
/// fed at that millisecond with it, which is why the index of the first
/// of them is kept.
#[derive(Debug, Default)]
pub(crate) struct IntervalThroughput {
    /// Throughput values, in arrival (= time) order.
    values: Vec<f64>,
    /// For each timeline sample after the first, the index of its
    /// interval's first value (the first sample's interval starts at 0).
    splits: Vec<u32>,
    /// Time of the newest value.
    newest_t: Timestamp,
    /// Index of the first value at `newest_t`.
    newest_from: usize,
}

impl IntervalThroughput {
    /// Back to empty, keeping both buffers' capacity.
    pub(crate) fn reset(&mut self) {
        self.values.clear();
        self.splits.clear();
        self.newest_t = Timestamp(0);
        self.newest_from = 0;
    }

    /// Appends a value fed at `t`, no earlier than every value before it.
    pub(crate) fn push(&mut self, t: Timestamp, mbps: f64) {
        debug_assert!(t >= self.newest_t, "throughput fed out of time order");
        if t > self.newest_t {
            self.newest_t = t;
            self.newest_from = self.values.len();
        }
        self.values.push(mbps);
    }

    /// Opens the interval of a timeline sample appended at `t`, no earlier
    /// than every value fed so far.
    pub(crate) fn split(&mut self, t: Timestamp) {
        let at = self.first_at(t);
        self.splits
            .push(u32::try_from(at).expect("fewer than 2^32 throughput values"));
    }

    /// Index of the first value fed at or after `t`, for `t` no earlier
    /// than the newest value.
    fn first_at(&self, t: Timestamp) -> usize {
        debug_assert!(t >= self.newest_t, "boundary before the newest value");
        if t == self.newest_t {
            self.newest_from
        } else {
            self.values.len()
        }
    }

    /// Heap held, capacity-based.
    pub(crate) fn mem_hint(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.splits.capacity() * std::mem::size_of::<u32>()
    }

    /// The run's metrics over `tl`, the timeline these values were cut
    /// along, and the loops detected on it.
    pub(crate) fn metrics(&self, tl: &CsTimeline, loops: &[LoopInstance]) -> RunMetrics {
        debug_assert_eq!(self.splits.len() + 1, tl.samples.len());
        metrics(
            &Intervals {
                values: &self.values,
                lead: 0,
                splits: &self.splits,
                tail: self.first_at(tl.end),
            },
            tl,
            loops,
        )
    }
}

/// Time-ordered throughput values laid out on a timeline: `values[..lead]`
/// fall before its first sample, and interval `k` holds
/// `values[start(k)..start(k + 1)]`, the last one running to the end of
/// `values`.
struct Intervals<'a> {
    values: &'a [f64],
    /// Values before the timeline's first sample (read as OFF).
    lead: usize,
    /// The first value of every interval after the first.
    splits: &'a [u32],
    /// The first value at the trace end.
    tail: usize,
}

impl Intervals<'_> {
    /// Index of interval `k`'s first value.
    fn start(&self, k: usize) -> usize {
        match k.checked_sub(1) {
            None => self.lead,
            Some(i) => self
                .splits
                .get(i)
                .map_or(self.values.len(), |&s| s as usize),
        }
    }

    /// `values[from..to]`, empty when the bounds cross.
    fn slice(&self, from: usize, to: usize) -> &[f64] {
        self.values.get(from..to).unwrap_or_default()
    }

    /// Index of the first value at or after `b`, a sample time of `tl` or
    /// its end.
    fn first_at(&self, tl: &CsTimeline, b: Timestamp) -> usize {
        let k = tl.samples.partition_point(|s| s.t < b);
        if k < tl.samples.len() {
            self.start(k)
        } else {
            self.tail
        }
    }
}

/// Median of `xs`, sorted in the reused `scratch`.
fn median_of(scratch: &mut Vec<f64>, xs: &[f64]) -> Option<f64> {
    scratch.clear();
    scratch.extend_from_slice(xs);
    median(scratch)
}

/// The metrics core: durations from the timeline, speed medians from
/// contiguous runs of values, one walk over the intervals plus a binary
/// search per cycle boundary.
fn metrics(iv: &Intervals, tl: &CsTimeline, loops: &[LoopInstance]) -> RunMetrics {
    let mut on_ms = 0u64;
    let mut off_ms = 0u64;
    for (s, e, on) in tl.on_off_intervals() {
        if on {
            on_ms += e.since(s);
        } else {
            off_ms += e.since(s);
        }
    }

    let mut scratch = Vec::with_capacity(iv.values.len());
    let mut side_median = |on: bool| {
        scratch.clear();
        if !on {
            scratch.extend_from_slice(iv.slice(0, iv.lead));
        }
        for (k, s) in tl.samples.iter().enumerate() {
            if tl.uses_5g(s.id) == on {
                scratch.extend_from_slice(iv.slice(iv.start(k), iv.start(k + 1)));
            }
        }
        median(&mut scratch)
    };
    let median_on_mbps = side_median(true);
    let median_off_mbps = side_median(false);

    let mut cycle_stats = Vec::new();
    for c in loops.iter().flat_map(|lp| &lp.cycles) {
        let on_at = iv.first_at(tl, c.on_at);
        let off_at = iv.first_at(tl, c.off_at);
        let end_at = iv.first_at(tl, c.end_at);
        let on_mbps = median_of(&mut scratch, iv.slice(on_at, off_at));
        let off_mbps = median_of(&mut scratch, iv.slice(off_at, end_at));
        cycle_stats.push(CycleStat {
            cycle_ms: c.cycle_ms(),
            off_ms: c.off_ms(),
            off_ratio: c.off_ratio(),
            on_mbps,
            off_mbps,
            loss_mbps: match (on_mbps, off_mbps) {
                (Some(a), Some(b)) => Some(a - b),
                _ => None,
            },
        });
    }

    RunMetrics {
        on_ms,
        off_ms,
        median_on_mbps,
        median_off_mbps,
        cycle_stats,
    }
}

/// Computes run metrics from timestamped throughput samples, in any
/// order. Sorts a copy by time, cuts it along the timeline in one walk
/// and hands the values to the same core the analyzer uses; the loops'
/// cycle boundaries must be sample times of `tl` or its end, as loop
/// detection over `tl` gives them.
pub fn run_metrics_from_samples(
    samples: &[(Timestamp, f64)],
    tl: &CsTimeline,
    loops: &[LoopInstance],
) -> RunMetrics {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|&(t, _)| t);
    let values: Vec<f64> = sorted.iter().map(|&(_, v)| v).collect();
    let mut next = 0;
    let mut first_at = |b: Timestamp| {
        while sorted.get(next).is_some_and(|&(t, _)| t < b) {
            next += 1;
        }
        next
    };
    let lead = tl.samples.first().map_or(values.len(), |s| first_at(s.t));
    let splits: Vec<u32> = tl
        .samples
        .iter()
        .skip(1)
        .map(|s| u32::try_from(first_at(s.t)).expect("fewer than 2^32 throughput values"))
        .collect();
    let tail = first_at(tl.end);
    metrics(
        &Intervals {
            values: &values,
            lead,
            splits: &splits,
            tail,
        },
        tl,
        loops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellset::CsSample;
    use crate::loops::Cycle;
    use onoff_rrc::ids::{CellId, Pci};
    use onoff_rrc::serving::ServingCellSet;
    use onoff_rrc::trace::Timestamp;

    fn timeline() -> CsTimeline {
        // OFF [0,10s), ON [10s,40s), OFF [40s,60s].
        CsTimeline {
            sets: vec![
                ServingCellSet::idle(),
                ServingCellSet::with_pcell(CellId::nr(Pci(1), 521310)),
            ],
            samples: vec![
                CsSample {
                    t: Timestamp(0),
                    id: 0,
                },
                CsSample {
                    t: Timestamp::from_secs(10),
                    id: 1,
                },
                CsSample {
                    t: Timestamp::from_secs(40),
                    id: 0,
                },
            ],
            end: Timestamp::from_secs(60),
        }
    }

    /// A throughput sample, as the analyzer collects it from a
    /// `TraceEvent::Throughput`.
    fn tp(t_s: u64, mbps: f64) -> (Timestamp, f64) {
        (Timestamp::from_secs(t_s), mbps)
    }

    #[test]
    fn on_off_durations() {
        let m = run_metrics_from_samples(&[], &timeline(), &[]);
        assert_eq!(m.on_ms, 30_000);
        assert_eq!(m.off_ms, 30_000);
    }

    #[test]
    fn speed_medians_split_by_state() {
        let samples = vec![
            tp(5, 0.0),
            tp(15, 100.0),
            tp(20, 200.0),
            tp(25, 300.0),
            tp(50, 1.0),
        ];
        let m = run_metrics_from_samples(&samples, &timeline(), &[]);
        assert_eq!(m.median_on_mbps, Some(200.0));
        assert_eq!(m.median_off_mbps, Some(0.5));
    }

    #[test]
    fn cycle_stats_and_loss() {
        let lp = LoopInstance {
            block: vec![1, 0],
            episode_period: 1,
            repetitions: 2,
            persistence: crate::loops::Persistence::Persistent,
            start: Timestamp::from_secs(10),
            end: Timestamp::from_secs(60),
            cycles: vec![Cycle {
                on_at: Timestamp::from_secs(10),
                off_at: Timestamp::from_secs(40),
                end_at: Timestamp::from_secs(60),
            }],
            degraded: false,
        };
        let samples = vec![tp(15, 180.0), tp(20, 220.0), tp(45, 0.0), tp(50, 0.0)];
        let m = run_metrics_from_samples(&samples, &timeline(), &[lp]);
        assert_eq!(m.cycle_stats.len(), 1);
        let c = &m.cycle_stats[0];
        assert_eq!(c.cycle_ms, 50_000);
        assert_eq!(c.off_ms, 20_000);
        assert_eq!(c.on_mbps, Some(200.0));
        assert_eq!(c.off_mbps, Some(0.0));
        assert_eq!(c.loss_mbps, Some(200.0));
        assert!((c.off_ratio - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_run() {
        let tl = CsTimeline {
            sets: vec![ServingCellSet::idle()],
            samples: vec![CsSample {
                t: Timestamp(0),
                id: 0,
            }],
            end: Timestamp(0),
        };
        let m = run_metrics_from_samples(&[], &tl, &[]);
        assert_eq!(m.on_ms, 0);
        assert_eq!(m.median_on_mbps, None);
        assert!(m.cycle_stats.is_empty());
    }

    #[test]
    fn nan_throughput_does_not_panic_the_median() {
        let mut xs = [2.0, f64::NAN, 1.0];
        // total_cmp sorts the NaN last; the median over three samples is
        // the middle finite value.
        assert_eq!(median(&mut xs), Some(2.0));
        let mut empty: [f64; 0] = [];
        assert_eq!(median(&mut empty), None);
    }
}
