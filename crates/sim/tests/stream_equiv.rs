//! Streamed ≡ collected: `Stepper::stream` hands a UE's events out after
//! every step, as soon as no later step can precede them, and the
//! sequence it produces must equal `simulate(cfg).events` bitwise — the
//! order a stable sort of the whole trace gives.
//!
//! This pins the horizon invariant the per-step flush relies on: a step
//! at `t` records nothing at or below the previous step's time. The
//! measurement periods cover both sides of it. Below ~505 ms (the longest
//! procedure offset: setup ≤ 400 ms plus its trailing reconfiguration,
//! handovers ≤ 395 ms) a step's procedures land after the next step's
//! time, so events stay pending across flushes; at 2000 ms a step records
//! the throughput sample of the second it skipped, behind its own time.
//! Debug builds additionally assert inside the recorder that nothing is
//! recorded at or below a flushed horizon.

use onoff_policy::{op_a_policy, op_t_policy, op_v_policy, OperatorPolicy, PhoneModel};
use onoff_radio::{CellSite, Point, RadioEnvironment, RadioTables, UeSampler};
use onoff_rrc::ids::{CellId, Pci, Rat};
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::trace::TraceEvent;
use onoff_sim::recorder::Recorder;
use onoff_sim::{simulate, MovementPath, PolicyTables, SimConfig, StepCtx, Stepper};
use proptest::prelude::*;

const PERIODS_MS: [u64; 5] = [100, 250, 500, 1000, 2000];

/// A small random deployment: 1–3 towers, each carrying one cell per
/// channel of the policy's plan, so SA and NSA engines alike find their
/// anchors, SCells and SCG candidates.
fn arb_towers() -> impl Strategy<Value = (u64, Vec<(f64, f64, f64)>)> {
    (
        1u64..1000,
        prop::collection::vec((-500.0f64..500.0, -300.0f64..300.0, -6.0f64..6.0), 1..4),
    )
}

fn env(policy: &OperatorPolicy, seed: u64, towers: &[(f64, f64, f64)]) -> RadioEnvironment {
    let mut cells = Vec::new();
    for (i, &(x, y, dtx)) in towers.iter().enumerate() {
        let pci = Pci((100 + i * 37) as u16);
        for plan in &policy.channels {
            let cell = match plan.rat {
                Rat::Lte => CellId::lte(pci, plan.arfcn),
                Rat::Nr => CellId::nr(pci, plan.arfcn),
            };
            let mut site =
                CellSite::macro_site(cell, Point::new(x, y), 0.7 * i as f64, plan.bandwidth_mhz);
            site.tx_power_dbm = plan.tx_power_dbm + dtx;
            cells.push(site);
        }
    }
    RadioEnvironment::new(seed, cells)
}

fn location(i: usize) -> Point {
    Point::new(70.0 * i as f64 - 100.0, 30.0)
}

/// Equality down to the bits of every throughput sample.
fn same_bits(a: &[TraceEvent], b: &[TraceEvent]) -> bool {
    a == b
        && a.iter().zip(b).all(|pair| match pair {
            (TraceEvent::Throughput { mbps: x, .. }, TraceEvent::Throughput { mbps: y, .. }) => {
                x.to_bits() == y.to_bits()
            }
            _ => true,
        })
}

/// Streams each UE through its own stepper, recording into recorders
/// from `pool`, and returns each UE's events in arrival order.
fn streamed(
    policy: &OperatorPolicy,
    env: &RadioEnvironment,
    seeds: &[u64],
    duration_ms: u64,
    period_ms: u64,
    pool: &mut Vec<Recorder>,
) -> Vec<Vec<TraceEvent>> {
    let device = PhoneModel::OnePlus12R.profile();
    let tables = RadioTables::new(env);
    let ptab = PolicyTables::new(policy);
    let mut per_ue = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let path = MovementPath::Stationary(location(i));
        let cx = StepCtx {
            policy,
            device: &device,
            path: &path,
            ptab: &ptab,
            seed,
        };
        let stepper = Stepper::new(
            cx,
            UeSampler::with_salt(&tables, seed),
            duration_ms,
            period_ms,
        );
        let mut events = Vec::new();
        let rec = pool.pop().unwrap_or_default();
        pool.push(stepper.stream(rec, |ev| events.push(ev.clone())));
        per_ue.push(events);
    }
    per_ue
}

fn single(
    policy: &OperatorPolicy,
    env: &RadioEnvironment,
    i: usize,
    seed: u64,
    duration_ms: u64,
    period_ms: u64,
) -> Vec<TraceEvent> {
    let mut cfg = SimConfig::stationary(
        policy.clone(),
        PhoneModel::OnePlus12R,
        env.clone(),
        location(i),
        seed,
    );
    cfg.duration_ms = duration_ms;
    cfg.meas_period_ms = period_ms;
    simulate(&cfg).events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every UE's streamed sequence equals its single-run trace, for SA
    /// and both NSA operators at every measurement period — and stays so
    /// when the recorders come back from the pool for a second batch.
    #[test]
    fn streamed_events_equal_simulate(towers in arb_towers(),
                                      seeds in prop::collection::vec(0u64..500, 1..4),
                                      op_idx in 0usize..3, period_idx in 0usize..5) {
        let policy = [op_t_policy(), op_a_policy(), op_v_policy()][op_idx].clone();
        let env = env(&policy, towers.0, &towers.1);
        let period = PERIODS_MS[period_idx];
        let duration = 60_000;
        let mut pool = Vec::new();
        for _ in 0..2 {
            let per_ue = streamed(&policy, &env, &seeds, duration, period, &mut pool);
            for (i, (&seed, events)) in seeds.iter().zip(&per_ue).enumerate() {
                let expected = single(&policy, &env, i, seed, duration, period);
                prop_assert!(
                    same_bits(events, &expected),
                    "UE {} at {} ms: streamed order differs from simulate", i, period
                );
            }
        }
    }
}

/// The property above is not vacuous: at a 100 ms period a connection
/// setup's `SetupComplete` lands more than one period after the step that
/// began it (so it waits in the recorder across flushes), and at 2000 ms
/// throughput samples fall between step times. Both streams still match.
#[test]
fn both_sides_of_the_horizon_are_exercised() {
    for (policy, period) in [
        (op_t_policy(), 100),
        (op_a_policy(), 100),
        (op_t_policy(), 2000),
    ] {
        let env = env(&policy, 7, &[(-150.0, 0.0, 0.0), (300.0, 80.0, -3.0)]);
        let duration = 30_000;
        let per_ue = streamed(&policy, &env, &[3, 11], duration, period, &mut Vec::new());
        for (i, (seed, events)) in [3u64, 11].iter().zip(&per_ue).enumerate() {
            assert!(same_bits(
                events,
                &single(&policy, &env, i, *seed, duration, period)
            ));
            if period < 505 {
                let at = |want: fn(&RrcMessage) -> bool| {
                    events.iter().find_map(|e| match e {
                        TraceEvent::Rrc(r) if want(&r.msg) => Some(r.t.millis()),
                        _ => None,
                    })
                };
                let started = at(|m| matches!(m, RrcMessage::SetupRequest { .. }))
                    .expect("the UE sets up a connection");
                let done = at(|m| matches!(m, RrcMessage::SetupComplete)).expect("setup completes");
                assert!(done - started > period, "setup must straddle a step");
            } else {
                assert!(events.iter().any(|e| matches!(
                    e,
                    TraceEvent::Throughput { t, .. } if t.millis() % period != 0
                )));
            }
        }
    }
}
