//! Per-run records — the dataset's unit.

use serde::{de, Deserialize, Number, Serialize, Value};

use onoff_detect::metrics::CycleStat;
use onoff_detect::{LoopType, Persistence, PredictionReport, RunAnalysis, ScoringConfig};
use onoff_policy::{Operator, OperatorPolicy, PhoneModel};
use onoff_rrc::ids::Rat;
use onoff_rrc::meas::Rsrp;
use onoff_rrc::messages::{RrcMessage, Trigger};
use onoff_rrc::trace::TraceEvent;
use onoff_sim::SimOutput;

/// The condensed outcome of one stationary run. The raw trace is dropped
/// after analysis; everything any figure needs is summarised here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Operator of the run.
    pub operator: Operator,
    /// Area name ("A1" … "A11").
    pub area: String,
    /// Location index within the area.
    pub location: usize,
    /// Phone model used.
    pub device: PhoneModel,
    /// Run seed.
    pub seed: u64,
    /// Run length, minutes.
    pub minutes: f64,
    /// Whether an ON-OFF loop was detected (Fig. 4 label).
    pub has_loop: bool,
    /// Persistence of the (first) loop.
    pub persistence: Option<Persistence>,
    /// Dominant classified sub-type of the run's loops.
    pub loop_type: Option<LoopType>,
    /// Per-cycle impact stats of all loop cycles.
    pub cycles: Vec<CycleStat>,
    /// OFF durations per classified OFF transition (for Fig. 19).
    pub off_by_type: Vec<(LoopType, u64)>,
    /// Median download speed while 5G ON, Mbps.
    pub median_on_mbps: Option<f64>,
    /// Median download speed while 5G OFF, Mbps.
    pub median_off_mbps: Option<f64>,
    /// Distinct serving sets observed (Table 3's "# CS (unique)").
    pub unique_cs: usize,
    /// CS timeline samples (Table 3's "# CS sample").
    pub cs_samples: usize,
    /// RSRP/RSRQ measurement results seen in reports (Table 3's "# RSRP/RSRQ").
    pub meas_results: u64,
    /// RSRP samples of cells on the operator's problematic channel,
    /// harvested from measurement reports (Fig. 17).
    pub problem_channel_rsrp: RsrpSamples,
    /// N2E2 recovery delays: SCG release → next B1 report, ms (Fig. 19c).
    pub scg_meas_delays_ms: Vec<u64>,
    /// Measurement reports scored by the fused online predictor (§6).
    /// Defaults on deserialization so pre-fusion datasets still load.
    #[serde(default)]
    pub scored_reports: u64,
    /// Session-mean §6 loop-proneness over the scored reports, if any
    /// report was scored.
    #[serde(default)]
    pub predicted_loop_prob: Option<f64>,
}

/// A run's problem-channel RSRP samples, each held as its exact deci-dBm
/// integer in two bytes. Reportable RSRP (TS 38.133: −156..−31 dBm) and
/// every value the simulator produces fit an `i16`.
///
/// Serializes as an array of dBm numbers, each the `f64` [`Rsrp::db`]
/// gives for the sample, so persisted datasets read as they did when the
/// column held `f64`s. Deserializing accepts a number only if it is
/// bitwise such a value for some `i16` (−3276.8..=3276.7 dBm on the 0.1 dB
/// grid); an off-grid number, `null` or a string is an error.
///
/// The record fold saturates a sample outside that range to its nearest
/// end rather than wrapping it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsrpSamples(pub(crate) Vec<i16>);

impl RsrpSamples {
    /// The samples in dBm, in report order.
    pub fn dbm(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.0.iter().map(|&d| deci_dbm(d))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the run reported no problem-channel cell.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A sample's dBm value: bit for bit what [`Rsrp::db`] returns for it.
fn deci_dbm(d: i16) -> f64 {
    Rsrp::from_deci(i32::from(d)).db()
}

impl Serialize for RsrpSamples {
    fn to_value(&self) -> Value {
        Value::Array(
            self.dbm()
                .map(|x| Value::Number(Number::from_f64(x)))
                .collect(),
        )
    }
}

impl Deserialize for RsrpSamples {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let Value::Array(items) = v else {
            return Err(de::Error::invalid_type("array (problem_channel_rsrp)", v));
        };
        items
            .iter()
            .map(|item| {
                let x = item.as_f64().ok_or_else(|| {
                    de::Error::invalid_type("number (problem_channel_rsrp sample)", item)
                })?;
                // `x * 10` rounds to the one candidate; the bitwise check
                // then rejects anything `Rsrp::db` cannot produce.
                let d = (x * 10.0).round();
                if (f64::from(i16::MIN)..=f64::from(i16::MAX)).contains(&d)
                    && deci_dbm(d as i16).to_bits() == x.to_bits()
                {
                    Ok(d as i16)
                } else {
                    Err(de::Error::custom(format!(
                        "problem_channel_rsrp: {x:?} is not an RSRP on the 0.1 dB grid \
                         within -3276.8..=3276.7 dBm"
                    )))
                }
            })
            .collect::<Result<Vec<i16>, _>>()
            .map(RsrpSamples)
    }
}

/// The "problematic channel" under study per operator (F14).
pub fn problem_channel(op: Operator) -> u32 {
    match op {
        Operator::OpT => 387410,
        Operator::OpA => 5815,
        Operator::OpV => 5230,
    }
}

/// For Fig. 17 the interesting RSRP samples are the NR 387410 ones; for the
/// NSA operators the problematic channels are LTE so the RAT differs.
pub fn problem_channel_rat(op: Operator) -> Rat {
    match op {
        Operator::OpT => Rat::Nr,
        _ => Rat::Lte,
    }
}

/// The scoring configuration the campaign fuses into every run's analysis
/// pass: the operator's problematic channel under study (F14), plus the NR
/// carriers wide enough (≥ 40 MHz) to anchor a PCell — everything else in
/// the config (reservoir, CI level, bootstrap seed) stays at the library
/// default so predictions are comparable across operators.
pub fn scoring_config_for(op: Operator, policy: &OperatorPolicy) -> ScoringConfig {
    ScoringConfig {
        problem_arfcn: problem_channel(op),
        pcell_arfcns: policy
            .nr_channels()
            .filter(|c| c.bandwidth_mhz >= 40.0)
            .map(|c| c.arfcn)
            .collect(),
        ..ScoringConfig::default()
    }
}

impl RunRecord {
    /// Builds a record from a simulated run and its analysis, folding the
    /// trace one event at a time as the streamed campaign does.
    #[allow(clippy::too_many_arguments)]
    pub fn from_run(
        operator: Operator,
        area: &str,
        location: usize,
        device: PhoneModel,
        seed: u64,
        out: &SimOutput,
        analysis: &RunAnalysis,
        predictions: &PredictionReport,
    ) -> RunRecord {
        let mut fold = RecordFold::new(operator);
        for ev in &out.events {
            fold.feed(ev);
        }
        fold.record(area, location, device, seed, analysis, predictions)
    }
}

/// The trace-derived part of a [`RunRecord`], folded one event at a time
/// so a run's events can stream past without being kept. The record's
/// vectors are built exact-fit (a `Vec` clone or `to_vec` allocates just
/// its length); the fold keeps its buffers for the next run.
#[derive(Debug)]
pub(crate) struct RecordFold {
    operator: Operator,
    last_t: u64,
    meas_results: u64,
    problem_channel_rsrp: Vec<i16>,
    scg_meas_delays_ms: Vec<u64>,
    scg_released_at: Option<u64>,
}

impl RecordFold {
    /// An empty fold for a run of `operator`.
    pub(crate) fn new(operator: Operator) -> RecordFold {
        RecordFold {
            operator,
            last_t: 0,
            meas_results: 0,
            problem_channel_rsrp: Vec::new(),
            scg_meas_delays_ms: Vec::new(),
            scg_released_at: None,
        }
    }

    /// Empties the fold for a new run of `operator`, keeping capacity.
    pub(crate) fn reset(&mut self, operator: Operator) {
        self.operator = operator;
        self.last_t = 0;
        self.meas_results = 0;
        self.problem_channel_rsrp.clear();
        self.scg_meas_delays_ms.clear();
        self.scg_released_at = None;
    }

    /// Folds in the run's next event.
    pub(crate) fn feed(&mut self, ev: &TraceEvent) {
        self.last_t = ev.t().millis();
        let TraceEvent::Rrc(rec) = ev else { return };
        match &rec.msg {
            RrcMessage::MeasurementReport(r) => {
                self.meas_results += r.results.len() as u64;
                let (ch, rat) = (
                    problem_channel(self.operator),
                    problem_channel_rat(self.operator),
                );
                for m in &r.results {
                    if m.cell.arfcn == ch && m.cell.rat == rat {
                        // Saturates, as `RsrpSamples` documents.
                        let deci = m.meas.rsrp.deci();
                        self.problem_channel_rsrp
                            .push(deci.clamp(i16::MIN.into(), i16::MAX.into()) as i16);
                    }
                }
                if r.trigger == Some(Trigger::B1) {
                    if let Some(rel) = self.scg_released_at.take() {
                        self.scg_meas_delays_ms
                            .push(rec.t.millis().saturating_sub(rel));
                    }
                }
            }
            RrcMessage::Reconfiguration(body) if body.scg_release => {
                self.scg_released_at = Some(rec.t.millis());
            }
            _ => {}
        }
    }

    /// The run's record, from the events folded so far and its analysis.
    pub(crate) fn record(
        &self,
        area: &str,
        location: usize,
        device: PhoneModel,
        seed: u64,
        analysis: &RunAnalysis,
        predictions: &PredictionReport,
    ) -> RunRecord {
        // Pair each classified OFF transition with its cycle's OFF time.
        let mut off_by_type = Vec::new();
        for tr in &analysis.off_transitions {
            let cycle = analysis
                .loops
                .iter()
                .flat_map(|l| l.cycles.iter())
                .find(|c| c.off_at == tr.t);
            if let Some(c) = cycle {
                off_by_type.push((tr.loop_type, c.off_ms()));
            }
        }
        off_by_type.shrink_to_fit();

        RunRecord {
            operator: self.operator,
            area: area.to_string(),
            location,
            device,
            seed,
            minutes: self.last_t as f64 / 60_000.0,
            has_loop: analysis.has_loop(),
            persistence: analysis.loops.first().map(|l| l.persistence),
            loop_type: analysis.dominant_loop_type(),
            cycles: analysis.metrics.cycle_stats.clone(),
            off_by_type,
            median_on_mbps: analysis.metrics.median_on_mbps,
            median_off_mbps: analysis.metrics.median_off_mbps,
            unique_cs: analysis.timeline.unique_sets(),
            cs_samples: analysis.timeline.samples.len(),
            meas_results: self.meas_results,
            problem_channel_rsrp: RsrpSamples(self.problem_channel_rsrp.to_vec()),
            scg_meas_delays_ms: self.scg_meas_delays_ms.to_vec(),
            scored_reports: predictions.scored,
            predicted_loop_prob: predictions.session_mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_config_targets_the_operator_problem_channel() {
        use onoff_policy::policy_for;
        let cfg = scoring_config_for(Operator::OpT, &policy_for(Operator::OpT));
        assert_eq!(cfg.problem_arfcn, 387410);
        // OP_T's wide NR carriers anchor PCells; the narrow problematic
        // 387410 carrier must not be among them.
        assert!(!cfg.pcell_arfcns.is_empty());
        assert!(cfg.pcell_arfcns.iter().all(|&a| a != 387410));
        let nsa = scoring_config_for(Operator::OpA, &policy_for(Operator::OpA));
        assert_eq!(nsa.problem_arfcn, 5815);
    }

    #[test]
    fn rsrp_samples_serialize_as_the_f64_column_did() {
        let decis: Vec<i16> = (-1560..=-310).chain([i16::MIN, i16::MAX]).collect();
        let samples = RsrpSamples(decis.clone());
        let column: Vec<f64> = decis
            .iter()
            .map(|&d| Rsrp::from_deci(i32::from(d)).db())
            .collect();
        let json = serde_json::to_string(&samples).unwrap();
        assert_eq!(json, serde_json::to_string(&column).unwrap());
        assert_eq!(
            serde_json::to_string_pretty(&samples).unwrap(),
            serde_json::to_string_pretty(&column).unwrap()
        );
        let back: RsrpSamples = serde_json::from_str(&json).unwrap();
        assert_eq!(back, samples);
        assert!(samples
            .dbm()
            .map(f64::to_bits)
            .eq(column.iter().map(|x| x.to_bits())));
        assert_eq!(samples.len(), decis.len());
    }

    #[test]
    fn rsrp_samples_reject_what_the_column_cannot_hold() {
        for bad in [
            "[-90.55]",
            "[null]",
            "[\"-85.0\"]",
            "[4000.0]",
            "[-3276.9]",
            "{}",
        ] {
            let err = serde_json::from_str::<RsrpSamples>(bad)
                .expect_err(bad)
                .to_string();
            assert!(err.contains("problem_channel_rsrp"), "{bad}: {err}");
        }
        let edges: RsrpSamples = serde_json::from_str("[-3276.8, 3276.7, -85, 0]").unwrap();
        assert_eq!(edges.0, [i16::MIN, i16::MAX, -850, 0]);
    }

    #[test]
    fn fold_saturates_rsrp_outside_the_i16_range() {
        use onoff_rrc::ids::{CellId, Pci};
        let problem = CellId::nr(Pci(273), 387410);
        let events = onoff_sim::TraceBuilder::new()
            .report(
                Some("A2"),
                &[
                    (problem, 4000.0, -10.0),
                    (problem, -4000.0, -10.0),
                    (problem, 3276.7, -10.0),
                    (problem, -90.5, -10.0),
                    (CellId::nr(Pci(393), 521310), -80.0, -10.0),
                ],
            )
            .build();
        let mut fold = RecordFold::new(Operator::OpT);
        for ev in &events {
            fold.feed(ev);
        }
        assert_eq!(
            fold.problem_channel_rsrp,
            [i16::MAX, i16::MIN, i16::MAX, -905]
        );
        let samples = RsrpSamples(fold.problem_channel_rsrp.clone());
        let dbm: Vec<f64> = samples.dbm().collect();
        assert_eq!(dbm, [3276.7, -3276.8, 3276.7, -90.5]);
    }

    #[test]
    fn problem_channels_match_f14() {
        assert_eq!(problem_channel(Operator::OpT), 387410);
        assert_eq!(problem_channel(Operator::OpA), 5815);
        assert_eq!(problem_channel(Operator::OpV), 5230);
        assert_eq!(problem_channel_rat(Operator::OpT), Rat::Nr);
        assert_eq!(problem_channel_rat(Operator::OpV), Rat::Lte);
    }
}
