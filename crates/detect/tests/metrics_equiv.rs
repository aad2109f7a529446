//! The analyzer keeps throughput as bare values cut along the timeline
//! (no timestamps), so its metrics must equal what the timestamped
//! computation gives: each sample classified ON or OFF by the interval
//! holding its time (`s ≤ t < e`, the last interval through the trace
//! end), each cycle's medians filtered by `on_at ≤ t < off_at` and
//! `off_at ≤ t < end_at`. `timestamped_metrics` below is that
//! computation, kept here as the oracle.
//!
//! The feeds pile throughput and set changes onto single milliseconds
//! (throughput fed before and after a set change at its instant, several
//! set changes at one instant), run backwards so the core clamps them,
//! end with throughput at the trace end, and are compared at a snapshot
//! after every event as well as at `finish`.

use onoff_detect::metrics::CycleStat;
use onoff_detect::{run_metrics_from_samples, CsTimeline, LoopInstance, RunMetrics, TraceAnalyzer};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::messages::{ReestablishmentCause, RrcMessage};
use onoff_rrc::trace::{LogChannel, LogRecord, Timestamp, TraceEvent};
use proptest::prelude::*;

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

/// The timestamped computation: every sample looked up in the ON/OFF
/// intervals, every cycle filtering every sample.
fn timestamped_metrics(
    samples: &[(Timestamp, f64)],
    tl: &CsTimeline,
    loops: &[LoopInstance],
) -> RunMetrics {
    let onoff = tl.on_off_intervals();
    let is_on_at = |t: Timestamp| -> bool {
        onoff
            .iter()
            .find(|(s, e, _)| t >= *s && t < *e)
            .or(onoff.last().filter(|(_, e, _)| t >= *e))
            .is_some_and(|(_, _, on)| *on)
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
    let within = |from: Timestamp, to: Timestamp| -> Vec<f64> {
        samples
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, m)| *m)
            .collect()
    };
    let cycle_stats = loops
        .iter()
        .flat_map(|lp| &lp.cycles)
        .map(|c| {
            let on_mbps = median(&mut within(c.on_at, c.off_at));
            let off_mbps = median(&mut within(c.off_at, c.end_at));
            CycleStat {
                cycle_ms: c.cycle_ms(),
                off_ms: c.off_ms(),
                off_ratio: c.off_ratio(),
                on_mbps,
                off_mbps,
                loss_mbps: match (on_mbps, off_mbps) {
                    (Some(a), Some(b)) => Some(a - b),
                    _ => None,
                },
            }
        })
        .collect();
    RunMetrics {
        on_ms,
        off_ms,
        median_on_mbps: median(&mut on_speeds),
        median_off_mbps: median(&mut off_speeds),
        cycle_stats,
    }
}

fn rrc(t: u64, rat: Rat, msg: RrcMessage) -> TraceEvent {
    TraceEvent::Rrc(LogRecord {
        t: Timestamp(t),
        rat,
        channel: LogChannel::for_message(&msg),
        context: None,
        msg,
    })
}

fn tput(t: u64, mbps: f64) -> TraceEvent {
    TraceEvent::Throughput {
        t: Timestamp(t),
        mbps,
    }
}

fn nr_a() -> CellId {
    CellId::nr(Pci(393), 521310)
}

fn nr_b() -> CellId {
    CellId::nr(Pci(273), 387410)
}

fn lte() -> CellId {
    CellId::lte(Pci(380), 5145)
}

/// A setup onto `cell`, request and complete at `t`.
fn setup(events: &mut Vec<TraceEvent>, t: u64, cell: CellId) {
    let rat = if cell == lte() { Rat::Lte } else { Rat::Nr };
    events.push(rrc(
        t,
        rat,
        RrcMessage::SetupRequest {
            cell,
            global_id: GlobalCellId(1),
        },
    ));
    events.push(rrc(t, rat, RrcMessage::SetupComplete));
}

/// Feeds `events` through a core one at a time, checking a snapshot
/// after every event and the finished analysis against the timestamped
/// computation over the samples the core saw (clamped times included).
/// Returns the finished metrics.
fn check_feed(events: &[TraceEvent]) -> Result<RunMetrics, TestCaseError> {
    let mut core = TraceAnalyzer::new();
    let mut samples: Vec<(Timestamp, f64)> = Vec::new();
    let mut newest = Timestamp(0);
    for ev in events {
        core.feed(ev);
        newest = newest.max(ev.t());
        if let TraceEvent::Throughput { mbps, .. } = ev {
            samples.push((newest, *mbps));
        }
        let snap = core.analysis();
        prop_assert_eq!(
            &snap.metrics,
            &timestamped_metrics(&samples, &snap.timeline, &snap.loops)
        );
    }
    let done = core.finish();
    let oracle = timestamped_metrics(&samples, &done.timeline, &done.loops);
    prop_assert_eq!(&done.metrics, &oracle);
    // The public entry point groups the timestamped samples onto the same
    // core, in any order.
    prop_assert_eq!(
        &run_metrics_from_samples(&samples, &done.timeline, &done.loops),
        &oracle
    );
    samples.reverse();
    prop_assert_eq!(
        &run_metrics_from_samples(&samples, &done.timeline, &done.loops),
        &oracle
    );
    Ok(done.metrics)
}

#[test]
fn throughput_at_a_set_change_counts_toward_the_new_set() {
    let mut ev = vec![tput(1_000, 10.0)];
    // Fed before, between and after the setup's two records at 2 s: all
    // three land in the ON interval that starts at 2 s.
    ev.push(tput(2_000, 20.0));
    ev.push(rrc(
        2_000,
        Rat::Nr,
        RrcMessage::SetupRequest {
            cell: nr_a(),
            global_id: GlobalCellId(1),
        },
    ));
    ev.push(tput(2_000, 21.0));
    ev.push(rrc(2_000, Rat::Nr, RrcMessage::SetupComplete));
    ev.push(tput(2_000, 22.0));
    // Two set changes at 5 s (through IDLE onto an LTE cell, OFF): the
    // values fed around them all belong to the last one.
    ev.push(tput(5_000, 50.0));
    ev.push(rrc(
        5_000,
        Rat::Nr,
        RrcMessage::ReestablishmentRequest {
            cause: ReestablishmentCause::OtherFailure,
        },
    ));
    ev.push(tput(5_000, 51.0));
    ev.push(rrc(
        5_000,
        Rat::Lte,
        RrcMessage::ReestablishmentComplete { cell: lte() },
    ));
    ev.push(tput(5_000, 52.0));
    // Backwards records are clamped to 8 s: the setup completing "at 6 s"
    // turns 5G ON at 8 s and takes the value already fed at 8 s with it,
    // and so does a value "at 3 s".
    ev.push(rrc(
        7_000,
        Rat::Nr,
        RrcMessage::SetupRequest {
            cell: nr_a(),
            global_id: GlobalCellId(1),
        },
    ));
    ev.push(tput(8_000, 80.0));
    ev.push(rrc(6_000, Rat::Nr, RrcMessage::SetupComplete));
    ev.push(tput(3_000, 30.0));
    ev.push(tput(9_000, 90.0));

    let m = check_feed(&ev).unwrap();
    // ON: 20, 21, 22, 30, 80, 90. OFF: 10, 50, 51, 52.
    assert_eq!(m.median_on_mbps, Some(26.0));
    assert_eq!(m.median_off_mbps, Some(50.5));
    assert_eq!(
        TraceAnalyzer::new().analysis().metrics,
        RunMetrics::default()
    );
}

#[test]
fn throughput_at_the_trace_end_counts_for_the_run_not_the_last_cycle() {
    // Three identical SA episodes: a persistent loop whose last cycle
    // ends at the trace end, 60 s, where two more values arrive.
    let mut ev = Vec::new();
    for (k, off_mbps) in [1.0, 3.0, 5.0].into_iter().enumerate() {
        let base = k as u64 * 20_000;
        setup(&mut ev, base, nr_a());
        ev.push(tput(base, 100.0));
        ev.push(rrc(base + 10_000, Rat::Nr, RrcMessage::Release));
        ev.push(tput(base + 10_000, off_mbps));
    }
    ev.push(tput(60_000, 50.0));
    ev.push(tput(60_000, 60.0));

    let m = check_feed(&ev).unwrap();
    let last = m.cycle_stats.last().expect("a loop with cycles");
    assert_eq!(m.cycle_stats.len(), 3);
    assert_eq!(last.cycle_ms, 20_000);
    // The last cycle's OFF side is [50 s, 60 s): the end values are out.
    assert_eq!(last.off_mbps, Some(5.0));
    // The run's OFF side runs through the end: 1, 3, 5, 50, 60.
    assert_eq!(m.median_off_mbps, Some(5.0));
    assert_eq!(m.median_on_mbps, Some(100.0));
}

/// Expands a script into a feed: each step moves the clock by one of a
/// few gaps (zero half the time, so records pile onto one millisecond),
/// then emits one action. Actions that run backwards emit records the
/// core clamps. Every feed ends with a value at the trace end.
fn feed_from_script(script: &[(u8, u16)]) -> Vec<TraceEvent> {
    let mut t = 0u64;
    let mut ev = Vec::new();
    for &(action, arg) in script {
        t += [0, 0, 0, 1, 400, 2_500][usize::from(arg % 6)];
        let mbps = f64::from(arg % 97);
        let back = 1 + u64::from(arg % 7) * 500;
        match action % 10 {
            0 => setup(&mut ev, t, nr_a()),
            1 => setup(&mut ev, t, nr_b()),
            2 => setup(&mut ev, t, lte()),
            3 => ev.push(rrc(t, Rat::Nr, RrcMessage::Release)),
            4 => {
                // Two set changes at one millisecond.
                ev.push(rrc(
                    t,
                    Rat::Nr,
                    RrcMessage::ReestablishmentRequest {
                        cause: ReestablishmentCause::OtherFailure,
                    },
                ));
                let cell = if arg % 2 == 0 { nr_b() } else { lte() };
                ev.push(rrc(
                    t,
                    Rat::Nr,
                    RrcMessage::ReestablishmentComplete { cell },
                ));
            }
            5..=7 => ev.push(tput(t, mbps)),
            8 => ev.push(tput(t.saturating_sub(back), mbps)),
            _ => ev.push(rrc(t.saturating_sub(back), Rat::Nr, RrcMessage::Release)),
        }
    }
    let end = ev.iter().map(TraceEvent::t).max().unwrap_or(Timestamp(0));
    ev.push(tput(end.millis(), 1_000.0));
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random feeds: the grouped metrics equal the timestamped ones at a
    /// snapshot after every event and at the end.
    #[test]
    fn grouped_metrics_equal_the_timestamped_computation(
        script in prop::collection::vec((any::<u8>(), any::<u16>()), 0..60),
    ) {
        check_feed(&feed_from_script(&script))?;
    }
}
