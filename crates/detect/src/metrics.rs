//! Per-run performance metrics (Figs. 10 and 11).

use serde::{Deserialize, Serialize};

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

/// Computes run metrics from pre-extracted throughput samples — the only
/// thing the metrics need from the trace. Streaming callers accumulate the
/// (small) sample list instead of buffering every event.
pub fn run_metrics_from_samples(
    samples: &[(onoff_rrc::trace::Timestamp, f64)],
    tl: &CsTimeline,
    loops: &[LoopInstance],
) -> RunMetrics {
    let onoff = tl.on_off_intervals();
    let is_on_at = |t: onoff_rrc::trace::Timestamp| -> bool {
        onoff
            .iter()
            .find(|(s, e, _)| t >= *s && t < *e)
            .or(onoff.last().filter(|(_, e, _)| t >= *e))
            .map(|(_, _, on)| *on)
            .unwrap_or(false)
    };

    let mut on_ms = 0u64;
    let mut off_ms = 0u64;
    for (s, e, on) in &onoff {
        if *on {
            on_ms += e.since(*s);
        } else {
            off_ms += e.since(*s);
        }
    }

    let mut on_speeds: Vec<f64> = Vec::new();
    let mut off_speeds: Vec<f64> = Vec::new();
    for &(t, mbps) in samples {
        if is_on_at(t) {
            on_speeds.push(mbps);
        } else {
            off_speeds.push(mbps);
        }
    }

    let mut cycle_stats = Vec::new();
    for lp in loops {
        for c in &lp.cycles {
            let mut on_v: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= c.on_at && *t < c.off_at)
                .map(|(_, m)| *m)
                .collect();
            let mut off_v: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= c.off_at && *t < c.end_at)
                .map(|(_, m)| *m)
                .collect();
            let on_mbps = median(&mut on_v);
            let off_mbps = median(&mut off_v);
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
    }

    RunMetrics {
        on_ms,
        off_ms,
        median_on_mbps: median(&mut on_speeds),
        median_off_mbps: median(&mut off_speeds),
        cycle_stats,
    }
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
