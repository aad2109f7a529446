//! The 5G NSA engine (OP_A / OP_V): produces N1E1 / N1E2 / N2E1 / N2E2
//! dynamics.
//!
//! LTE owns the connection (MCG); 5G rides as the SCG. 5G turns OFF when
//!
//! * the 4G PCell hits a radio link failure (N1E1) or a handover fails
//!   (N1E2) — "4G ruins 5G" (F10),
//! * a successful 4G handover lands on a channel whose policy drops the SCG
//!   (N2E1 — OP_A's 5G-disabled 5815, OP_V's SCG-releasing 5230), or
//! * an SCG change hits a random-access failure and the network releases
//!   the SCG (N2E2).
//!
//! 5G turns back ON through B1-triggered SCG addition — gated, after an SCG
//! *failure*, by the operator's measurement-configuration cadence (OP_V:
//! every 30 s, hence its long N2E2 OFF times).
//!
//! The state machine lives in `NsaCore`, generic over [`Sampler`]: one
//! `step` per measurement period against either the scalar per-call radio
//! path or the table-driven memoizing path, with bitwise-identical output.
//! [`Stepper`](crate::Stepper) runs it through a whole run.

use rand::rngs::StdRng;
use rand::Rng;

use onoff_radio::Sampler;
use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Rat};
use onoff_rrc::meas::Measurement;
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType,
};
use onoff_rrc::serving::ServingCellSet;

use crate::config::timing;
use crate::output::InjectedCause;
use crate::policy_tables::StepCtx;
use crate::recorder::Recorder;
use crate::select::{co_sited_on_channel, measure_cell, strongest_cell_mean};
use crate::throughput::sample_mbps;

enum State {
    Idle {
        /// Earliest re-selection time.
        until: u64,
    },
    Conn(Conn),
}

struct Conn {
    cs: ServingCellSet,
    /// Consecutive rounds the PCell spent below the RLF floor.
    rlf_rounds: u32,
    /// No A3 handover evaluation before this time.
    ho_holdoff_until: u64,
    /// No 5G (B1) measurement before this time (SCG-failure recovery gate).
    b1_gate_at: u64,
}

/// The steppable NSA state machine: one UE's RRC lifecycle, advanced one
/// measurement period at a time against any [`Sampler`].
pub(crate) struct NsaCore {
    state: State,
    /// Next 1 s throughput-grid sample time.
    next_tp: u64,
}

impl NsaCore {
    pub(crate) fn new() -> NsaCore {
        NsaCore {
            state: State::Idle { until: 0 },
            next_tp: 0,
        }
    }

    /// Advances the UE to time `t`: throughput samples due up to `t`, then
    /// one round of RRC procedures.
    pub(crate) fn step<S: Sampler>(
        &mut self,
        cx: &StepCtx<'_>,
        s: &mut S,
        rng: &mut StdRng,
        rec: &mut Recorder,
        t: u64,
    ) {
        let p = cx.path.at(t);
        let op = cx.policy.operator;

        // Throughput sampling on a 1 s grid, against the state in effect
        // *before* this step's procedures (a sample at second k describes
        // the service up to k, not the reconfiguration happening at k).
        while self.next_tp <= t {
            let cs = match &self.state {
                State::Conn(c) => c.cs.clone(),
                State::Idle { .. } => ServingCellSet::idle(),
            };
            rec.throughput(
                self.next_tp,
                sample_mbps(s, op, &cs, p, self.next_tp, cx.seed),
            );
            self.next_tp += 1000;
        }

        self.state = match std::mem::replace(&mut self.state, State::Idle { until: 0 }) {
            State::Idle { until } if t >= until => {
                try_establish(cx, s, rec, rng, t, p).map_or(State::Idle { until }, State::Conn)
            }
            idle @ State::Idle { .. } => idle,
            State::Conn(conn) => step_connected(cx, s, rec, rng, t, p, conn),
        };
    }
}

/// When the next post-SCG-failure measurement configuration arrives.
/// Long cadences (OP_V's 30 s) are grid-aligned — the cause of the paper's
/// "delays are often multiples of 30 seconds".
fn next_config_time(t: u64, period_ms: u64) -> u64 {
    if period_ms >= 10_000 {
        (t / period_ms + 1) * period_ms
    } else {
        t + period_ms
    }
}

fn fresh_holdoff(rng: &mut StdRng, t: u64) -> u64 {
    t + rng.random_range(timing::HO_HOLDOFF_MS.0..=timing::HO_HOLDOFF_MS.1)
}

fn try_establish<S: Sampler>(
    cx: &StepCtx<'_>,
    s: &mut S,
    rec: &mut Recorder,
    rng: &mut StdRng,
    t: u64,
    p: onoff_radio::Point,
) -> Option<Conn> {
    let floor = cx.policy.q_rx_lev_min_deci;
    // Mean-field selection: the same location camps on the same PCell.
    let (pcell, _) = strongest_cell_mean(s, p, |c| c.cell.rat == Rat::Lte)
        .filter(|(_, mean)| *mean * 10.0 > floor as f64)?;

    let gid = GlobalCellId(0x4000_0000u64 | u64::from(pcell.pci.0) << 20 | u64::from(pcell.arfcn));
    rec.rrc(
        t,
        Rat::Lte,
        Some(pcell),
        RrcMessage::Mib {
            cell: pcell,
            global_id: GlobalCellId(0),
        },
    );
    rec.rrc(
        t + 40,
        Rat::Lte,
        Some(pcell),
        RrcMessage::Sib1 {
            cell: pcell,
            q_rx_lev_min_deci: floor,
        },
    );
    let setup_len = rng.random_range(timing::SETUP_MS.0..=timing::SETUP_MS.1);
    rec.rrc(
        t + 60,
        Rat::Lte,
        Some(pcell),
        RrcMessage::SetupRequest {
            cell: pcell,
            global_id: gid,
        },
    );
    rec.rrc(
        t + 60 + setup_len - 10,
        Rat::Lte,
        Some(pcell),
        RrcMessage::Setup,
    );
    rec.rrc(
        t + 60 + setup_len,
        Rat::Lte,
        Some(pcell),
        RrcMessage::SetupComplete,
    );

    // Initial measurement configuration: B1 per NR channel, A2/A3 per LTE
    // channel (the shapes in Figs. 30–33).
    let mut meas_config: Vec<MeasEvent> = Vec::new();
    for c in cx.policy.nr_channels() {
        meas_config.push(MeasEvent::new(
            EventKind::B1 {
                threshold: Threshold(cx.policy.b1_threshold_deci),
            },
            TriggerQuantity::Rsrp,
            c.arfcn,
        ));
    }
    for c in cx.policy.lte_channels() {
        meas_config.push(MeasEvent::new(
            EventKind::A3 {
                offset: cx.policy.a3_offset_deci,
            },
            TriggerQuantity::Rsrq,
            c.arfcn,
        ));
    }
    rec.rrc(
        t + 60 + setup_len + 30,
        Rat::Lte,
        Some(pcell),
        RrcMessage::Reconfiguration(ReconfigBody {
            meas_config,
            ..Default::default()
        }),
    );
    rec.rrc(
        t + 60 + setup_len + 45,
        Rat::Lte,
        Some(pcell),
        RrcMessage::ReconfigurationComplete,
    );

    Some(Conn {
        cs: ServingCellSet::with_pcell(pcell),
        rlf_rounds: 0,
        ho_holdoff_until: fresh_holdoff(rng, t),
        b1_gate_at: t,
    })
}

/// Re-establishes the connection on the strongest LTE cell after a failure.
fn reestablish<S: Sampler>(
    cx: &StepCtx<'_>,
    s: &mut S,
    rec: &mut Recorder,
    rng: &mut StdRng,
    t: u64,
    p: onoff_radio::Point,
    cause: ReestablishmentCause,
) -> State {
    rec.rrc(
        t,
        Rat::Lte,
        None,
        RrcMessage::ReestablishmentRequest { cause },
    );
    match strongest_cell_mean(s, p, |c| c.cell.rat == Rat::Lte)
        .filter(|(_, mean)| *mean * 10.0 > cx.policy.q_rx_lev_min_deci as f64)
    {
        Some((best, _)) => {
            rec.rrc(
                t + 100,
                Rat::Lte,
                Some(best),
                RrcMessage::ReestablishmentComplete { cell: best },
            );
            State::Conn(Conn {
                cs: ServingCellSet::with_pcell(best),
                rlf_rounds: 0,
                ho_holdoff_until: fresh_holdoff(rng, t),
                b1_gate_at: t,
            })
        }
        None => {
            let dwell = rng.random_range(timing::NSA_IDLE_DWELL_MS.0..=timing::NSA_IDLE_DWELL_MS.1);
            State::Idle { until: t + dwell }
        }
    }
}

fn step_connected<S: Sampler>(
    cx: &StepCtx<'_>,
    s: &mut S,
    rec: &mut Recorder,
    rng: &mut StdRng,
    t: u64,
    p: onoff_radio::Point,
    mut conn: Conn,
) -> State {
    let pcell = conn.cs.pcell().expect("NSA connection always has a PCell");
    let Some(pcell_meas) = measure_cell(s, pcell, p, t) else {
        // PCell vanished from the environment (shouldn't happen in practice).
        return reestablish(cx, s, rec, rng, t, p, ReestablishmentCause::OtherFailure);
    };

    // N1E1: radio link failure on the 4G PCell.
    if pcell_meas.rsrp.deci() < timing::LTE_RLF_RSRP_DECI {
        conn.rlf_rounds += 1;
        if conn.rlf_rounds >= timing::RLF_ROUNDS {
            rec.truth(t, InjectedCause::PcellRlf { cell: pcell });
            return reestablish(
                cx,
                s,
                rec,
                rng,
                t + 5,
                p,
                ReestablishmentCause::OtherFailure,
            );
        }
    } else {
        conn.rlf_rounds = 0;
    }

    let device_5g = cx.device.supports_5g_on(cx.policy.operator);

    // 5G measurement sweep (B1) — allowed on 5G-disabled channels too, and
    // gated after SCG failures by the operator's config cadence.
    if device_5g && t >= conn.b1_gate_at && conn.cs.scg.is_none() {
        // Cell choice by local mean (stable across the run); the B1 event
        // itself is still gated by the instantaneous sample.
        let best_nr = strongest_cell_mean(s, p, |c| c.cell.rat == Rat::Nr)
            .and_then(|(c, _)| measure_cell(s, c, p, t).map(|m| (c, m)))
            .filter(|(_, m)| m.rsrp.deci() > cx.policy.b1_threshold_deci);
        if let Some((nr_cell, nr_meas)) = best_nr {
            rec.rrc(
                t + 5,
                Rat::Lte,
                Some(pcell),
                RrcMessage::MeasurementReport(MeasurementReport {
                    trigger: Some("B1".into()),
                    results: [MeasResult {
                        cell: nr_cell,
                        meas: nr_meas,
                    }]
                    .into(),
                }),
            );
            let pcell_flags = cx.ptab.flags(pcell.arfcn);
            if let Some(target_chan) = pcell_flags.switch_away_on_5g_report {
                // F15: the 5G-disabled PCell flips to its co-sited twin the
                // moment a 5G cell is reported — blind, unmeasured.
                if let Some((target, tm)) =
                    co_sited_on_channel(s, pcell, Rat::Lte, target_chan, p, t)
                {
                    return execute_handover(
                        cx,
                        s,
                        rec,
                        rng,
                        t + 80,
                        p,
                        conn,
                        target,
                        tm.rsrp.deci(),
                    );
                }
            } else if pcell_flags.allow_5g {
                // SCG addition: PSCell plus the co-sited SCell on the other
                // NR channel.
                let mut body = ReconfigBody {
                    sp_cell: Some(nr_cell),
                    ..Default::default()
                };
                // Gate the second SCell on the local-mean field so every
                // SCG addition at this spot configures the same cells. A
                // channel whose co-sited pick fails the floor does not stop
                // the search — the next channel is still tried.
                let mut second: Option<CellId> = None;
                let channels: Vec<u32> = cx
                    .policy
                    .nr_channels()
                    .filter(|c| c.arfcn != nr_cell.arfcn)
                    .map(|c| c.arfcn)
                    .collect();
                for arfcn in channels {
                    let Some((cell, _)) = co_sited_on_channel(s, nr_cell, Rat::Nr, arfcn, p, t)
                    else {
                        continue;
                    };
                    if let Some(i) = s.find(cell) {
                        if s.local_rsrp_dbm(i, p) * 10.0 > timing::SCG_SCELL_ADD_FLOOR_DECI as f64 {
                            second = Some(cell);
                            break;
                        }
                    }
                }
                if let Some(scell) = second {
                    body.scell_to_add_mod.push(ScellAddMod {
                        index: 1,
                        cell: scell,
                    });
                }
                rec.rrc(
                    t + 60,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::Reconfiguration(body.clone()),
                );
                rec.rrc(
                    t + 80,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::ReconfigurationComplete,
                );
                conn.cs.set_pscell(nr_cell);
                if let Some(s) = body.scell_to_add_mod.first() {
                    conn.cs.add_scg_scell(s.index, s.cell);
                }
                return State::Conn(conn);
            }
        }
    }

    // A3 handover between LTE cells (with per-channel candidate bonuses).
    if t >= conn.ho_holdoff_until {
        let bonus = |arfcn: u32| -> i32 { cx.ptab.flags(arfcn).a3_offset_bonus_deci };
        // Handover scoring is RSRP-based with per-channel candidate offsets
        // (cell-individual Ocn); RSRP keeps the decision distance-sensitive
        // where an unloaded channel's RSRQ would saturate. Exact score ties
        // break towards the smaller cell id (config-order independent).
        let serving_score = pcell_meas.rsrp.deci() + bonus(pcell.arfcn);
        let mut cand: Option<(CellId, Measurement, i32)> = None;
        for idx in 0..s.env().cells.len() {
            let cell = s.env().cells[idx].cell;
            if cell.rat != Rat::Lte || cell == pcell {
                continue;
            }
            let m = s.measure(idx, p, t);
            if m.rsrp.deci() <= -1250 {
                continue;
            }
            let score = m.rsrp.deci() + bonus(cell.arfcn);
            let better = match &cand {
                None => true,
                Some((bc, _, bs)) => score > *bs || (score == *bs && cell < *bc),
            };
            if better {
                cand = Some((cell, m, score));
            }
        }
        if let Some((target, tm, target_score)) = cand {
            if target_score > serving_score + cx.policy.a3_offset_deci {
                rec.rrc(
                    t + 5,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::MeasurementReport(MeasurementReport {
                        trigger: Some("A3".into()),
                        results: [
                            MeasResult {
                                cell: pcell,
                                meas: pcell_meas,
                            },
                            MeasResult {
                                cell: target,
                                meas: tm,
                            },
                        ]
                        .into(),
                    }),
                );
                return execute_handover(cx, s, rec, rng, t + 50, p, conn, target, tm.rsrp.deci());
            }
        }
    }

    // Legacy A2-driven SCG release (F12): with the historical
    // misconfigured thresholds, a borderline PSCell is dropped the moment
    // it measures below Θ_A2 — and re-added as soon as B1 re-admits it.
    if let (Some(theta), Some(pscell)) = (cx.policy.legacy_scg_a2_release_deci, conn.cs.pscell()) {
        if let Some(m) = measure_cell(s, pscell, p, t) {
            if m.rsrp.deci() < theta {
                rec.rrc(
                    t + 3,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::MeasurementReport(MeasurementReport {
                        trigger: Some("A2".into()),
                        results: [MeasResult {
                            cell: pscell,
                            meas: m,
                        }]
                        .into(),
                    }),
                );
                rec.rrc(
                    t + 30,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::Reconfiguration(ReconfigBody {
                        scg_release: true,
                        ..Default::default()
                    }),
                );
                rec.rrc(
                    t + 45,
                    Rat::Lte,
                    Some(pcell),
                    RrcMessage::ReconfigurationComplete,
                );
                rec.truth(t + 30, InjectedCause::LegacyA2Release { cell: pscell });
                conn.cs.release_scg();
                return State::Conn(conn);
            }
        }
    }

    // SCG-internal PSCell change (A3 with the SCG offset) — the N2E2 path.
    if let Some(pscell) = conn.cs.pscell() {
        if let Some(ps_meas) = measure_cell(s, pscell, p, t) {
            // Exact RSRP ties break towards the smaller cell id.
            let mut cand: Option<(CellId, Measurement)> = None;
            for idx in 0..s.env().cells.len() {
                let cell = s.env().cells[idx].cell;
                if cell.rat != Rat::Nr || cell.arfcn != pscell.arfcn || cell == pscell {
                    continue;
                }
                let m = s.measure(idx, p, t);
                let better = match &cand {
                    None => true,
                    Some((bc, bm)) => m.rsrp > bm.rsrp || (m.rsrp == bm.rsrp && cell < *bc),
                };
                if better {
                    cand = Some((cell, m));
                }
            }
            if let Some((target, tm)) = cand {
                if tm.rsrp.deci() > ps_meas.rsrp.deci() + timing::SCG_A3_OFFSET_DECI {
                    rec.rrc(
                        t + 3,
                        Rat::Lte,
                        Some(pcell),
                        RrcMessage::MeasurementReport(MeasurementReport {
                            trigger: Some("A3".into()),
                            results: [
                                MeasResult {
                                    cell: pscell,
                                    meas: ps_meas,
                                },
                                MeasResult {
                                    cell: target,
                                    meas: tm,
                                },
                            ]
                            .into(),
                        }),
                    );
                    rec.rrc(
                        t + 30,
                        Rat::Lte,
                        Some(pcell),
                        RrcMessage::Reconfiguration(ReconfigBody {
                            sp_cell: Some(target),
                            ..Default::default()
                        }),
                    );
                    rec.rrc(
                        t + 45,
                        Rat::Lte,
                        Some(pcell),
                        RrcMessage::ReconfigurationComplete,
                    );
                    if tm.rsrp.deci() < timing::SCG_RA_FAIL_RSRP_DECI {
                        // N2E2: random access towards the new PSCell fails;
                        // the network reacts by releasing the whole SCG.
                        rec.rrc(
                            t + 330,
                            Rat::Lte,
                            Some(pcell),
                            RrcMessage::ScgFailureInformation {
                                failure: ScgFailureType::RandomAccessProblem,
                            },
                        );
                        rec.rrc(
                            t + 380,
                            Rat::Lte,
                            Some(pcell),
                            RrcMessage::Reconfiguration(ReconfigBody {
                                scg_release: true,
                                ..Default::default()
                            }),
                        );
                        rec.rrc(
                            t + 395,
                            Rat::Lte,
                            Some(pcell),
                            RrcMessage::ReconfigurationComplete,
                        );
                        rec.truth(t + 380, InjectedCause::ScgRaFailure { target });
                        conn.cs.release_scg();
                        conn.b1_gate_at =
                            next_config_time(t, cx.policy.scg_recovery_config_period_ms);
                    } else {
                        conn.cs.set_pscell(target);
                    }
                    return State::Conn(conn);
                }
            }
        }
    }

    State::Conn(conn)
}

/// Executes a 4G PCell handover: policy decides the SCG's fate, radio
/// conditions decide success.
#[allow(clippy::too_many_arguments)]
fn execute_handover<S: Sampler>(
    cx: &StepCtx<'_>,
    s: &mut S,
    rec: &mut Recorder,
    rng: &mut StdRng,
    t: u64,
    p: onoff_radio::Point,
    mut conn: Conn,
    target: CellId,
    target_rsrp_deci: i32,
) -> State {
    let had_scg = conn.cs.scg.is_some();
    let target_flags = cx.ptab.flags(target.arfcn);
    let keep_scg = had_scg && target_flags.allow_5g && !target_flags.release_scg_on_entry;

    let pcell = conn.cs.pcell();
    rec.rrc(
        t,
        Rat::Lte,
        pcell,
        RrcMessage::Reconfiguration(ReconfigBody {
            mobility_target: Some(target),
            sp_cell: keep_scg.then(|| conn.cs.pscell()).flatten(),
            ..Default::default()
        }),
    );

    if target_rsrp_deci < timing::HO_FAIL_RSRP_DECI {
        // N1E2: the handover cannot complete; everything is released and the
        // UE re-establishes.
        rec.truth(t + 300, InjectedCause::HandoverFailure { target });
        return reestablish(
            cx,
            s,
            rec,
            rng,
            t + 300,
            p,
            ReestablishmentCause::HandoverFailure,
        );
    }

    rec.rrc(
        t + 15,
        Rat::Lte,
        Some(target),
        RrcMessage::ReconfigurationComplete,
    );
    if had_scg && !keep_scg {
        rec.truth(t + 15, InjectedCause::HandoverDropScg { target });
    }
    conn.cs.handover(target, keep_scg);
    conn.rlf_rounds = 0;
    conn.ho_holdoff_until = fresh_holdoff(rng, t);
    State::Conn(conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::output::SimOutput;
    use crate::{simulate, simulate_scalar};
    use onoff_policy::{op_a_policy, op_v_policy, PhoneModel};
    use onoff_radio::{CellSite, Point, RadioEnvironment};
    use onoff_rrc::ids::Pci;
    use onoff_rrc::messages::Trigger;
    use onoff_rrc::trace::TraceEvent;

    fn site(cell: CellId, x: f64, y: f64, bw: f64, tx: f64) -> CellSite {
        let mut s = CellSite::macro_site(
            cell,
            Point::new(x, y),
            Point::new(x, y).bearing_to(Point::new(0.0, 0.0)),
            bw,
        );
        s.tx_power_dbm = tx;
        s.shadow_sigma_db = 2.0;
        s
    }

    /// OP_A flip-flop environment: one tower carrying the 5815/5145 pair
    /// (same PCI, 5815 hotter) plus co-sited n77 carriers.
    fn op_a_env(tx_5145: f64) -> RadioEnvironment {
        RadioEnvironment::new(
            21,
            vec![
                site(CellId::lte(Pci(380), 5815), -300.0, 0.0, 10.0, 19.0),
                site(CellId::lte(Pci(380), 5145), -300.0, 0.0, 10.0, tx_5145),
                site(CellId::nr(Pci(53), 632736), -300.0, 0.0, 40.0, 22.0),
                site(CellId::nr(Pci(53), 658080), -300.0, 0.0, 40.0, 22.0),
            ],
        )
    }

    fn cfg_a(env: RadioEnvironment, seed: u64) -> SimConfig {
        SimConfig {
            meas_period_ms: 1000,
            ..SimConfig::stationary(
                op_a_policy(),
                PhoneModel::OnePlus12R,
                env,
                Point::new(0.0, 0.0),
                seed,
            )
        }
    }

    fn count<F: Fn(&InjectedCause) -> bool>(out: &SimOutput, f: F) -> usize {
        out.truth.iter().filter(|g| f(&g.cause)).count()
    }

    #[test]
    fn op_a_flip_flop_produces_n2e1_loop() {
        let out = simulate(&cfg_a(op_a_env(17.0), 3));
        let n2e1 = count(&out, |c| matches!(c, InjectedCause::HandoverDropScg { .. }));
        assert!(n2e1 >= 2, "expected repeated N2E1, truth: {:?}", out.truth);
    }

    #[test]
    fn op_a_blind_switch_to_dead_cell_is_n1e2() {
        // 5145 far below the handover-failure floor: the blind switch the
        // 5815 policy commands cannot complete.
        let out = simulate(&cfg_a(op_a_env(-40.0), 3));
        let n1e2 = count(&out, |c| matches!(c, InjectedCause::HandoverFailure { .. }));
        assert!(n1e2 >= 1, "truth: {:?}", out.truth);
    }

    #[test]
    fn op_a_blind_switch_to_weak_cell_causes_rlf() {
        // 5145 just above the handover floor but under the RLF floor:
        // the UE arrives, then loses the radio link (N1E1).
        let out = simulate(&cfg_a(op_a_env(-30.0), 3));
        let n1e1 = count(&out, |c| matches!(c, InjectedCause::PcellRlf { .. }));
        assert!(n1e1 >= 1, "truth: {:?}", out.truth);
    }

    #[test]
    fn scalar_path_matches_tables_path() {
        for seed in [3, 8] {
            let cfg = cfg_a(op_a_env(17.0), seed);
            assert_eq!(simulate(&cfg), simulate_scalar(&cfg));
        }
    }

    /// OP_V environment: two towers with co-channel 5230 cells of similar
    /// strength at the midpoint (fading-driven ping-pong), each with
    /// co-sited n77 carriers.
    fn op_v_env() -> RadioEnvironment {
        RadioEnvironment::new(
            22,
            vec![
                site(CellId::lte(Pci(97), 5230), -280.0, 0.0, 10.0, 19.0),
                site(CellId::lte(Pci(310), 5230), 280.0, 30.0, 10.0, 19.0),
                site(CellId::nr(Pci(97), 648672), -280.0, 0.0, 60.0, 21.0),
                site(CellId::nr(Pci(97), 653952), -280.0, 0.0, 60.0, 21.0),
                site(CellId::nr(Pci(310), 648672), 280.0, 30.0, 60.0, 21.0),
                site(CellId::nr(Pci(310), 653952), 280.0, 30.0, 60.0, 21.0),
            ],
        )
    }

    #[test]
    fn op_v_co_channel_swap_drops_scg_transiently() {
        let cfg = SimConfig {
            meas_period_ms: 500,
            ..SimConfig::stationary(
                op_v_policy(),
                PhoneModel::OnePlus12R,
                op_v_env(),
                Point::new(0.0, 10.0),
                14,
            )
        };
        let out = simulate(&cfg);
        let n2e1 = count(&out, |c| matches!(c, InjectedCause::HandoverDropScg { .. }));
        assert!(n2e1 >= 1, "truth: {:?}", out.truth);
    }

    /// N2E2 environment: PSCell and a co-channel neighbour both hovering in
    /// the random-access-failure zone (means ≈ −118 / −116.5 dBm), with a
    /// healthy LTE anchor.
    fn n2e2_env() -> RadioEnvironment {
        RadioEnvironment::new(
            23,
            vec![
                site(CellId::lte(Pci(62), 1075), -200.0, 0.0, 20.0, 19.0),
                site(CellId::nr(Pci(188), 648672), -2900.0, 0.0, 60.0, 21.0),
                site(CellId::nr(Pci(393), 648672), 2600.0, 100.0, 60.0, 21.0),
            ],
        )
    }

    #[test]
    fn op_v_scg_failure_waits_for_30s_config_grid() {
        let cfg = SimConfig {
            meas_period_ms: 500,
            ..SimConfig::stationary(
                op_v_policy(),
                PhoneModel::OnePlus12R,
                n2e2_env(),
                Point::new(0.0, 0.0),
                3,
            )
        };
        let out = simulate(&cfg);
        let n2e2 = count(&out, |c| matches!(c, InjectedCause::ScgRaFailure { .. }));
        assert!(n2e2 >= 1, "truth: {:?}", out.truth);
        // After each SCG failure, no B1 report before the next 30 s grid
        // point.
        for g in &out.truth {
            if let InjectedCause::ScgRaFailure { .. } = g.cause {
                let fail_t = g.t.millis();
                let next_grid = (fail_t / 30_000 + 1) * 30_000;
                let early_b1 = out.events.iter().any(|e| match e {
                    TraceEvent::Rrc(r) => {
                        r.t.millis() > fail_t
                            && r.t.millis() < next_grid
                            && matches!(
                                &r.msg,
                                RrcMessage::MeasurementReport(m)
                                    if m.trigger == Some(Trigger::B1)
                            )
                    }
                    _ => false,
                });
                assert!(
                    !early_b1,
                    "B1 report before the 30 s config grid after {fail_t}"
                );
            }
        }
    }

    #[test]
    fn ten_pro_is_4g_only_on_op_a_and_loopless() {
        let cfg = SimConfig {
            meas_period_ms: 1000,
            ..SimConfig::stationary(
                op_a_policy(),
                PhoneModel::OnePlus10Pro,
                op_a_env(17.0),
                Point::new(0.0, 0.0),
                3,
            )
        };
        let out = simulate(&cfg);
        assert!(out.truth.is_empty(), "truth: {:?}", out.truth);
        // It still gets (4G) data service.
        let moving = out
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Throughput { mbps, .. } if *mbps > 1.0))
            .count();
        assert!(moving > 100, "got {moving}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&cfg_a(op_a_env(17.0), 8));
        let b = simulate(&cfg_a(op_a_env(17.0), 8));
        assert_eq!(a, b);
    }

    #[test]
    fn trace_round_trips_through_nsglog() {
        let out = simulate(&cfg_a(op_a_env(17.0), 3));
        let parsed = onoff_nsglog::parse_str(&out.to_log()).unwrap();
        assert_eq!(parsed.len(), out.events.len());
    }

    #[test]
    fn next_config_time_grids() {
        assert_eq!(next_config_time(16_055, 30_000), 30_000);
        assert_eq!(next_config_time(30_000, 30_000), 60_000);
        assert_eq!(next_config_time(65_000, 30_000), 90_000);
        assert_eq!(next_config_time(5_000, 1_500), 6_500);
    }
}
