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

/// A run's problem-channel RSRP samples, frame-of-reference bit-packed.
/// Each sample is its exact deci-dBm integer; reportable RSRP (TS 38.133:
/// −156..−31 dBm) and every value the simulator produces fit an `i16`.
/// The column keeps its smallest sample as a base and every sample as its
/// offset from that base, at the fewest bits that hold the largest offset
/// (0 for a constant column, 16 for one spanning the whole `i16` range),
/// back to back in one byte slice. A five-minute run's samples span a few
/// tens of dB, so most columns pack at 9 or 10 bits a sample.
///
/// The packing is canonical (the base is the smallest sample, the width
/// the least that fits, the last byte's unused bits zero), so two columns
/// compare equal exactly when their sample sequences do.
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
pub struct RsrpSamples {
    /// The smallest sample, deci-dBm (0 when the column is empty).
    base: i16,
    /// Bits per offset, 0..=16.
    width: u8,
    /// Number of samples.
    len: usize,
    /// Sample `i`'s offset from `base` at bits `i·width..(i+1)·width`,
    /// least significant bit first.
    bits: Box<[u8]>,
}

impl RsrpSamples {
    /// Packs deci-dBm samples, in report order.
    pub(crate) fn from_deci(decis: &[i16]) -> RsrpSamples {
        let lo = decis.iter().copied().min().unwrap_or(0);
        let hi = decis.iter().copied().max().unwrap_or(0);
        let width = (u16::BITS - hi.abs_diff(lo).leading_zeros()) as usize;
        let mut bits = vec![0u8; (decis.len() * width).div_ceil(8)].into_boxed_slice();
        for (i, &d) in decis.iter().enumerate() {
            let bit = i * width;
            // At most 16 bits shifted by at most 7: three bytes.
            let word = u32::from(d.abs_diff(lo)) << (bit % 8);
            for (dst, b) in bits[bit / 8..].iter_mut().zip(word.to_le_bytes()) {
                *dst |= b;
            }
        }
        RsrpSamples {
            base: lo,
            width: width as u8,
            len: decis.len(),
            bits,
        }
    }

    /// The samples in deci-dBm, in report order.
    pub(crate) fn deci(&self) -> impl ExactSizeIterator<Item = i16> + '_ {
        let width = usize::from(self.width);
        let mask = (1u32 << width) - 1;
        (0..self.len).map(move |i| {
            let bit = i * width;
            let word = self.bits[bit / 8..]
                .iter()
                .take(3)
                .rev()
                .fold(0u32, |w, &b| (w << 8) | u32::from(b));
            self.base
                .wrapping_add_unsigned(((word >> (bit % 8)) & mask) as u16)
        })
    }

    /// The samples in dBm, in report order.
    pub fn dbm(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.deci().map(deci_dbm)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run reported no problem-channel cell.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            .map(|decis| RsrpSamples::from_deci(&decis))
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
            problem_channel_rsrp: RsrpSamples::from_deci(&self.problem_channel_rsrp),
            scg_meas_delays_ms: self.scg_meas_delays_ms.to_vec(),
            scored_reports: predictions.scored,
            predicted_loop_prob: predictions.session_mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    /// Every promise of the packed column for one input: it gives the
    /// samples back, as deci-dBm and as dBm, and its JSON both ways is the
    /// `f64` column's.
    fn assert_packs(decis: &[i16]) {
        let samples = RsrpSamples::from_deci(decis);
        assert!(samples.deci().eq(decis.iter().copied()), "{decis:?}");
        assert_eq!(samples.len(), decis.len());
        assert_eq!(samples.is_empty(), decis.is_empty());
        let column: Vec<f64> = decis
            .iter()
            .map(|&d| Rsrp::from_deci(i32::from(d)).db())
            .collect();
        assert!(
            samples
                .dbm()
                .map(f64::to_bits)
                .eq(column.iter().map(|x| x.to_bits())),
            "{decis:?}"
        );
        let json = serde_json::to_string(&samples).unwrap();
        assert_eq!(json, serde_json::to_string(&column).unwrap());
        assert_eq!(
            serde_json::to_string_pretty(&samples).unwrap(),
            serde_json::to_string_pretty(&column).unwrap()
        );
        let back: RsrpSamples = serde_json::from_str(&json).unwrap();
        assert_eq!(back, samples);
    }

    #[test]
    fn rsrp_samples_serialize_as_the_f64_column_did() {
        let reportable: Vec<i16> = (-1560..=-310).collect();
        // Empty; constant; 1, 9 and 11 bits at lengths whose bit count
        // ends mid-byte; both `i16` ends. Each packs at the least width.
        let cases: [(&[i16], u8); 7] = [
            (&[], 0),
            (&[-905; 5], 0),
            (&[-850, -849, -850], 1),
            (&[-1000, -489, -905], 9),
            (&reportable, 11),
            (&[i16::MIN, i16::MAX, 0], 16),
            (&[i16::MAX, i16::MIN], 16),
        ];
        for (decis, width) in cases {
            assert_packs(decis);
            let samples = RsrpSamples::from_deci(decis);
            assert_eq!(samples.width, width, "{decis:?}");
            let bits = decis.len() * usize::from(width);
            assert_eq!(samples.bits.len(), bits.div_ceil(8), "{decis:?}");
        }
    }

    /// Columns of every packed width: offsets of `width` random bits over
    /// a random base, so spans run from constant (0 bits) to 16 bits, or
    /// any samples with both ends of the `i16` range among them.
    fn column() -> impl Strategy<Value = Vec<i16>> {
        prop_oneof![
            (
                any::<i16>(),
                0u32..=16,
                prop::collection::vec(any::<u16>(), 0..48)
            )
                .prop_map(|(base, width, raw)| {
                    let mask = ((1u32 << width) - 1) as u16;
                    raw.iter()
                        .map(|r| base.saturating_add_unsigned(r & mask))
                        .collect()
                }),
            (prop::collection::vec(any::<i16>(), 0..48), any::<usize>()).prop_map(
                |(mut decis, at)| {
                    decis.insert(at % (decis.len() + 1), i16::MIN);
                    decis.insert(at % decis.len(), i16::MAX);
                    decis
                }
            ),
        ]
    }

    proptest! {
        #[test]
        fn rsrp_columns_pack_losslessly(decis in column()) {
            assert_packs(&decis);
        }

        #[test]
        fn rsrp_columns_are_equal_exactly_when_their_samples_are(
            a in column(),
            other in column(),
            at in any::<usize>(),
            delta in 1u16..=u16::MAX,
        ) {
            // `a` against itself, against `a` with one sample moved, and
            // against an unrelated column.
            let mut moved = a.clone();
            if !moved.is_empty() {
                let i = at % moved.len();
                moved[i] = moved[i].wrapping_add_unsigned(delta);
            }
            let packed = RsrpSamples::from_deci(&a);
            for b in [&a, &moved, &other] {
                prop_assert_eq!(packed == RsrpSamples::from_deci(b), a == *b);
            }
        }
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
        assert!(edges.deci().eq([i16::MIN, i16::MAX, -850, 0]));
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
        let samples = RsrpSamples::from_deci(&fold.problem_channel_rsrp);
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
