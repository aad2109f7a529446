//! The campaign dataset and its figure/table aggregations.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use onoff_analysis::{bootstrap_ci, proportion_ci};
use onoff_detect::channel::{ChannelUsage, ScellModStats};
use onoff_detect::{LoopType, Persistence};
use onoff_policy::Operator;

use crate::quarantine::QuarantineReport;
use crate::record::RunRecord;

/// Everything the campaign produced.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// One record per stationary run.
    pub records: Vec<RunRecord>,
    /// Per-operator NR channel usage (Table 5, Fig. 18c).
    pub usage_nr: BTreeMap<Operator, ChannelUsage>,
    /// Per-operator LTE channel usage (Fig. 18a/18b).
    pub usage_lte: BTreeMap<Operator, ChannelUsage>,
    /// Per-operator SCell-modification stats (Table 5's failure column).
    pub scell_mod: BTreeMap<Operator, ScellModStats>,
    /// Deployed (5G, 4G) cell counts per operator (Table 3).
    pub cell_counts: BTreeMap<Operator, (usize, usize)>,
    /// (name, operator, km²) of every area.
    pub areas: Vec<(String, Operator, f64)>,
    /// Per-location predicted-vs-observed loop proneness (§6 validation),
    /// rebuilt from the sorted records by [`location_predictions`] so it is
    /// bitwise-identical at any worker count. Defaults on deserialization
    /// so pre-fusion datasets still load.
    #[serde(default)]
    pub predictions: Vec<LocationPrediction>,
    /// Dirty-capture ledger: loss counters for accepted runs and the runs
    /// the campaign gave up on (chaos mode; empty/clean otherwise).
    /// Defaults on deserialization so pre-existing datasets still load.
    #[serde(default)]
    pub quarantine: QuarantineReport,
    /// Throughput counters for the producing campaign run. Wall-clock
    /// measurements, so excluded from persistence: the serialized dataset
    /// stays bitwise-identical across machines and worker counts.
    #[serde(skip)]
    pub stats: CampaignStats,
}

/// Throughput counters from one [`run_campaign`](crate::run_campaign)
/// invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Number of stationary runs executed.
    pub runs: usize,
    /// Worker threads used: the requested count, capped at the number of
    /// runs.
    pub workers: usize,
    /// Total trace events produced and analyzed.
    pub events_processed: u64,
    /// Total simulated time, ms.
    pub simulated_ms: u64,
    /// Wall-clock time of the campaign, ms.
    pub wall_ms: u64,
    /// Runs completed per wall-clock second.
    pub runs_per_sec: f64,
    /// Simulated milliseconds per wall-clock second (the speed-up lens:
    /// how much faster than real time the campaign replays).
    pub simulated_ms_per_sec: f64,
}

/// One row of the dataset's predicted-vs-observed table: how often runs at
/// a location actually looped, against what the fused online §6 scorer
/// predicted for those same runs, both with percentile-bootstrap 95% CIs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocationPrediction {
    /// Operator of the location's area.
    pub operator: Operator,
    /// Area name.
    pub area: String,
    /// Location index within the area.
    pub location: usize,
    /// Runs aggregated at this location.
    pub runs: usize,
    /// Observed share of runs with a detected loop.
    pub observed: f64,
    /// Bootstrap CI bounds `(lo, hi)` on the observed share.
    pub observed_ci: Option<(f64, f64)>,
    /// Mean predicted session loop-proneness over the runs that scored at
    /// least one measurement report.
    pub predicted: Option<f64>,
    /// Bootstrap CI bounds `(lo, hi)` on the predicted mean.
    pub predicted_ci: Option<(f64, f64)>,
}

/// Bootstrap parameters for [`location_predictions`]: the paper-standard
/// 95% level, the resample count every other CI in the workspace uses, and
/// a fixed seed so the table is a pure function of the records.
const PREDICTION_CI_LEVEL: f64 = 0.95;
const PREDICTION_CI_RESAMPLES: usize = 200;
const PREDICTION_CI_SEED: u64 = 0xC1_5EED;

/// Builds the per-location predicted-vs-observed table from run records.
/// Grouping goes through a `BTreeMap`, so the rows come out sorted by
/// (operator, area, location) regardless of the input record order.
pub fn location_predictions(records: &[RunRecord]) -> Vec<LocationPrediction> {
    // Per-location arms: (looped per run, predicted session mean per
    // scored run).
    type Arms = (Vec<bool>, Vec<f64>);
    let mut per_loc: BTreeMap<(Operator, &str, usize), Arms> = BTreeMap::new();
    for r in records {
        let e = per_loc
            .entry((r.operator, r.area.as_str(), r.location))
            .or_default();
        e.0.push(r.has_loop);
        if let Some(p) = r.predicted_loop_prob {
            e.1.push(p);
        }
    }
    per_loc
        .into_iter()
        .map(|((operator, area, location), (looped, preds))| {
            let observed_ci = proportion_ci(
                &looped,
                PREDICTION_CI_LEVEL,
                PREDICTION_CI_RESAMPLES,
                PREDICTION_CI_SEED,
            );
            let predicted_ci = bootstrap_ci(
                &preds,
                |v| v.iter().sum::<f64>() / v.len() as f64,
                PREDICTION_CI_LEVEL,
                PREDICTION_CI_RESAMPLES,
                PREDICTION_CI_SEED,
            );
            LocationPrediction {
                operator,
                area: area.to_string(),
                location,
                runs: looped.len(),
                observed: looped.iter().filter(|&&b| b).count() as f64 / looped.len() as f64,
                observed_ci: observed_ci.map(|ci| (ci.lo, ci.hi)),
                predicted: predicted_ci.map(|ci| ci.estimate),
                predicted_ci: predicted_ci.map(|ci| (ci.lo, ci.hi)),
            }
        })
        .collect()
}

/// Per-run loop label in Fig. 4/6 vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunLabel {
    /// Type I: no loop.
    NoLoop,
    /// Type II-P: persistent loop.
    LoopPersistent,
    /// Type II-SP: semi-persistent loop.
    LoopSemiPersistent,
}

impl RunRecord {
    /// The run's Fig. 4 label.
    pub fn label(&self) -> RunLabel {
        match (self.has_loop, self.persistence) {
            (false, _) => RunLabel::NoLoop,
            (true, Some(Persistence::SemiPersistent)) => RunLabel::LoopSemiPersistent,
            (true, _) => RunLabel::LoopPersistent,
        }
    }
}

/// Fractions of (no-loop, persistent, semi-persistent) runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LoopRatio {
    /// Share of runs without loops (type I).
    pub no_loop: f64,
    /// Share with persistent loops (II-P).
    pub persistent: f64,
    /// Share with semi-persistent loops (II-SP).
    pub semi_persistent: f64,
}

impl LoopRatio {
    fn of<'a, I: Iterator<Item = &'a RunRecord>>(runs: I) -> LoopRatio {
        let mut n = 0usize;
        let mut p = 0usize;
        let mut sp = 0usize;
        let mut total = 0usize;
        for r in runs {
            total += 1;
            match r.label() {
                RunLabel::NoLoop => n += 1,
                RunLabel::LoopPersistent => p += 1,
                RunLabel::LoopSemiPersistent => sp += 1,
            }
        }
        if total == 0 {
            return LoopRatio::default();
        }
        let t = total as f64;
        LoopRatio {
            no_loop: n as f64 / t,
            persistent: p as f64 / t,
            semi_persistent: sp as f64 / t,
        }
    }

    /// Total loop share (II-P + II-SP).
    pub fn any_loop(&self) -> f64 {
        self.persistent + self.semi_persistent
    }
}

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Operator.
    pub operator: Operator,
    /// Area names.
    pub areas: Vec<String>,
    /// Total area, km².
    pub size_km2: f64,
    /// Number of sparse locations.
    pub locations: usize,
    /// Total measurement time, minutes.
    pub total_minutes: f64,
    /// Deployed 5G / 4G cells.
    pub cells_5g: usize,
    /// Deployed 4G cells.
    pub cells_4g: usize,
    /// RSRP/RSRQ result count across reports.
    pub meas_results: u64,
    /// CS timeline samples.
    pub cs_samples: usize,
    /// Distinct serving sets (summed over runs).
    pub unique_cs: usize,
    /// Runs with ON-OFF loops.
    pub loop_runs: usize,
    /// Total ON-OFF cycles observed inside loops.
    pub loop_cycles: usize,
}

impl Dataset {
    /// Runs for one operator.
    pub fn by_operator(&self, op: Operator) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(move |r| r.operator == op)
    }

    /// Runs in one area.
    pub fn by_area<'a>(&'a self, area: &'a str) -> impl Iterator<Item = &'a RunRecord> {
        self.records.iter().filter(move |r| r.area == area)
    }

    /// Fig. 6: loop ratio per operator.
    pub fn loop_ratio(&self, op: Operator) -> LoopRatio {
        LoopRatio::of(self.by_operator(op))
    }

    /// Fig. 9a: loop ratio per area.
    pub fn area_loop_ratio(&self, area: &str) -> LoopRatio {
        LoopRatio::of(self.by_area(area))
    }

    /// Fig. 8 / 9b: per-location loop likelihood within an area, indexed by
    /// location id.
    pub fn location_likelihoods(&self, area: &str) -> Vec<f64> {
        let mut per_loc: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for r in self.by_area(area) {
            let e = per_loc.entry(r.location).or_insert((0, 0));
            e.1 += 1;
            if r.has_loop {
                e.0 += 1;
            }
        }
        per_loc
            .values()
            .map(|&(l, t)| l as f64 / t as f64)
            .collect()
    }

    /// Fig. 10 inputs: per-cycle (cycle s, off s, off ratio) per operator.
    pub fn cycle_stats(&self, op: Operator) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut cyc = Vec::new();
        let mut off = Vec::new();
        let mut ratio = Vec::new();
        for r in self.by_operator(op) {
            for c in &r.cycles {
                cyc.push(c.cycle_ms as f64 / 1000.0);
                off.push(c.off_ms as f64 / 1000.0);
                ratio.push(c.off_ratio);
            }
        }
        (cyc, off, ratio)
    }

    /// Fig. 11 inputs: per-cycle median ON speed, OFF speed and loss.
    pub fn speed_stats(&self, op: Operator) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut on = Vec::new();
        let mut off = Vec::new();
        let mut loss = Vec::new();
        for r in self.by_operator(op) {
            for c in &r.cycles {
                if let Some(v) = c.on_mbps {
                    on.push(v);
                }
                if let Some(v) = c.off_mbps {
                    off.push(v);
                }
                if let Some(v) = c.loss_mbps {
                    loss.push(v);
                }
            }
        }
        (on, off, loss)
    }

    /// Fig. 16: classified OFF-transition counts per sub-type within an
    /// area (the paper's unit is loop cycles/instances, so minority
    /// sub-types at a location remain visible).
    pub fn subtype_breakdown(&self, area: &str) -> BTreeMap<LoopType, usize> {
        let mut out = BTreeMap::new();
        for r in self.by_area(area) {
            for &(t, _) in &r.off_by_type {
                *out.entry(t).or_insert(0) += 1;
            }
        }
        out
    }

    /// Fig. 16 aggregated per operator.
    pub fn subtype_breakdown_op(&self, op: Operator) -> BTreeMap<LoopType, usize> {
        let mut out = BTreeMap::new();
        for r in self.by_operator(op) {
            for &(t, _) in &r.off_by_type {
                *out.entry(t).or_insert(0) += 1;
            }
        }
        out
    }

    /// Fig. 19a/19b: OFF durations (seconds) grouped by classified sub-type.
    pub fn off_times_by_type(&self, op: Operator) -> BTreeMap<LoopType, Vec<f64>> {
        let mut out: BTreeMap<LoopType, Vec<f64>> = BTreeMap::new();
        for r in self.by_operator(op) {
            for &(t, off_ms) in &r.off_by_type {
                out.entry(t).or_default().push(off_ms as f64 / 1000.0);
            }
        }
        out
    }

    /// Fig. 19c: SCG-loss → first-5G-measurement delays, seconds.
    pub fn scg_meas_delays(&self, op: Operator) -> Vec<f64> {
        self.by_operator(op)
            .flat_map(|r| r.scg_meas_delays_ms.iter().map(|&d| d as f64 / 1000.0))
            .collect()
    }

    /// Fig. 17 input: per-run 10th-percentile RSRP of problematic-channel
    /// cells, grouped per area.
    pub fn problem_rsrp_p10_by_area(&self, op: Operator) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in self.by_operator(op) {
            if r.problem_channel_rsrp.is_empty() {
                continue;
            }
            if let Some(p10) = onoff_analysis::quantile(&r.problem_channel_rsrp, 0.10) {
                out.entry(r.area.clone()).or_default().push(p10);
            }
        }
        out
    }

    /// Fig. 17c input: median problematic-channel RSRP per run, grouped by
    /// the run's label (sub-type or no-loop).
    pub fn problem_rsrp_by_type(&self, op: Operator) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in self.by_operator(op) {
            let Some(med) = onoff_analysis::median(&r.problem_channel_rsrp) else {
                continue;
            };
            let key = if r.has_loop {
                r.loop_type
                    .map_or("?".to_string(), |t| t.label().to_string())
            } else {
                "no-loop".to_string()
            };
            out.entry(key).or_default().push(med);
        }
        out
    }

    /// Table 3: the per-operator dataset statistics row.
    pub fn table3_row(&self, op: Operator) -> Table3Row {
        let areas: Vec<String> = self
            .areas
            .iter()
            .filter(|(_, o, _)| *o == op)
            .map(|(n, _, _)| n.clone())
            .collect();
        let size_km2: f64 = self
            .areas
            .iter()
            .filter(|(_, o, _)| *o == op)
            .map(|(_, _, s)| s)
            .sum();
        let mut locations: std::collections::BTreeSet<(String, usize)> = Default::default();
        let mut total_minutes = 0.0;
        let mut meas_results = 0u64;
        let mut cs_samples = 0usize;
        let mut unique_cs = 0usize;
        let mut loop_runs = 0usize;
        let mut loop_cycles = 0usize;
        for r in self.by_operator(op) {
            locations.insert((r.area.clone(), r.location));
            total_minutes += r.minutes;
            meas_results += r.meas_results;
            cs_samples += r.cs_samples;
            unique_cs += r.unique_cs;
            if r.has_loop {
                loop_runs += 1;
                loop_cycles += r.cycles.len();
            }
        }
        let (cells_5g, cells_4g) = self.cell_counts.get(&op).copied().unwrap_or((0, 0));
        Table3Row {
            operator: op,
            areas,
            size_km2,
            locations: locations.len(),
            total_minutes,
            cells_5g,
            cells_4g,
            meas_results,
            cs_samples,
            unique_cs,
            loop_runs,
            loop_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_detect::metrics::CycleStat;
    use onoff_policy::PhoneModel;

    fn record(
        op: Operator,
        area: &str,
        location: usize,
        has_loop: bool,
        persistence: Option<Persistence>,
        loop_type: Option<LoopType>,
    ) -> RunRecord {
        RunRecord {
            operator: op,
            area: area.to_string(),
            location,
            device: PhoneModel::OnePlus12R,
            seed: 1,
            minutes: 5.0,
            has_loop,
            persistence,
            loop_type,
            cycles: if has_loop {
                vec![CycleStat {
                    cycle_ms: 40_000,
                    off_ms: 11_000,
                    off_ratio: 0.275,
                    on_mbps: Some(190.0),
                    off_mbps: Some(0.0),
                    loss_mbps: Some(190.0),
                }]
            } else {
                Vec::new()
            },
            off_by_type: if has_loop {
                vec![(loop_type.unwrap_or(LoopType::Unknown), 11_000)]
            } else {
                Vec::new()
            },
            median_on_mbps: Some(190.0),
            median_off_mbps: if has_loop { Some(0.0) } else { None },
            unique_cs: 4,
            cs_samples: 10,
            meas_results: 500,
            problem_channel_rsrp: vec![-85.0, -90.0, -100.0],
            scg_meas_delays_ms: Vec::new(),
            scored_reports: 300,
            predicted_loop_prob: Some(if has_loop { 0.8 } else { 0.1 }),
        }
    }

    fn tiny_dataset() -> Dataset {
        Dataset {
            records: vec![
                record(
                    Operator::OpT,
                    "A1",
                    0,
                    true,
                    Some(Persistence::Persistent),
                    Some(LoopType::S1E3),
                ),
                record(Operator::OpT, "A1", 0, false, None, None),
                record(
                    Operator::OpT,
                    "A1",
                    1,
                    true,
                    Some(Persistence::Persistent),
                    Some(LoopType::S1E2),
                ),
                record(
                    Operator::OpT,
                    "A2",
                    0,
                    true,
                    Some(Persistence::SemiPersistent),
                    Some(LoopType::S1E2),
                ),
                record(
                    Operator::OpA,
                    "A6",
                    0,
                    true,
                    Some(Persistence::Persistent),
                    Some(LoopType::N2E1),
                ),
                record(Operator::OpA, "A6", 1, false, None, None),
            ],
            areas: vec![
                ("A1".into(), Operator::OpT, 2.89),
                ("A2".into(), Operator::OpT, 1.96),
                ("A6".into(), Operator::OpA, 1.44),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn loop_ratios() {
        let d = tiny_dataset();
        let t = d.loop_ratio(Operator::OpT);
        assert!((t.no_loop - 0.25).abs() < 1e-12);
        assert!((t.persistent - 0.5).abs() < 1e-12);
        assert!((t.semi_persistent - 0.25).abs() < 1e-12);
        assert!((t.any_loop() - 0.75).abs() < 1e-12);
        let a = d.loop_ratio(Operator::OpA);
        assert!((a.any_loop() - 0.5).abs() < 1e-12);
        // Operator without runs.
        assert_eq!(d.loop_ratio(Operator::OpV), LoopRatio::default());
    }

    #[test]
    fn location_likelihoods_per_area() {
        let d = tiny_dataset();
        let l = d.location_likelihoods("A1");
        // Location 0: 1/2 runs loop; location 1: 1/1.
        assert_eq!(l, vec![0.5, 1.0]);
    }

    #[test]
    fn subtype_breakdowns() {
        let d = tiny_dataset();
        let a1 = d.subtype_breakdown("A1");
        assert_eq!(a1[&LoopType::S1E3], 1);
        assert_eq!(a1[&LoopType::S1E2], 1);
        let op_t = d.subtype_breakdown_op(Operator::OpT);
        assert_eq!(op_t[&LoopType::S1E2], 2);
    }

    #[test]
    fn cycle_and_speed_stats() {
        let d = tiny_dataset();
        let (cyc, off, ratio) = d.cycle_stats(Operator::OpT);
        assert_eq!(cyc.len(), 3);
        assert_eq!(off[0], 11.0);
        assert!((ratio[0] - 0.275).abs() < 1e-12);
        let (on, off_s, loss) = d.speed_stats(Operator::OpT);
        assert_eq!(on.len(), 3);
        assert_eq!(off_s[0], 0.0);
        assert_eq!(loss[0], 190.0);
    }

    #[test]
    fn table3_row_aggregates() {
        let d = tiny_dataset();
        let row = d.table3_row(Operator::OpT);
        assert_eq!(row.areas, vec!["A1".to_string(), "A2".to_string()]);
        assert!((row.size_km2 - 4.85).abs() < 1e-12);
        assert_eq!(row.locations, 3); // (A1,0), (A1,1), (A2,0)
        assert_eq!(row.total_minutes, 20.0);
        assert_eq!(row.loop_runs, 3);
        assert_eq!(row.loop_cycles, 3);
    }

    #[test]
    fn off_times_by_type() {
        let d = tiny_dataset();
        let by = d.off_times_by_type(Operator::OpT);
        assert_eq!(by[&LoopType::S1E3], vec![11.0]);
        assert_eq!(by[&LoopType::S1E2].len(), 2);
    }

    #[test]
    fn location_predictions_pair_observed_and_predicted() {
        let d = tiny_dataset();
        let rows = location_predictions(&d.records);
        // Five distinct (operator, area, location) keys, sorted.
        assert_eq!(rows.len(), 5);
        let keys: Vec<_> = rows
            .iter()
            .map(|r| (r.operator, r.area.as_str(), r.location))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // A1 location 0: one loop of two runs; predictions average the
        // per-run session means (0.8 and 0.1).
        let a1l0 = rows
            .iter()
            .find(|r| r.area == "A1" && r.location == 0)
            .unwrap();
        assert_eq!(a1l0.runs, 2);
        assert!((a1l0.observed - 0.5).abs() < 1e-12);
        assert!((a1l0.predicted.unwrap() - 0.45).abs() < 1e-12);
        let (lo, hi) = a1l0.observed_ci.unwrap();
        assert!(lo <= a1l0.observed && a1l0.observed <= hi);
        let (plo, phi) = a1l0.predicted_ci.unwrap();
        assert!(plo <= a1l0.predicted.unwrap() && a1l0.predicted.unwrap() <= phi);
        // Deterministic: a pure function of the records.
        assert_eq!(rows, location_predictions(&d.records));
    }

    #[test]
    fn location_predictions_handle_unscored_runs() {
        let mut rec = record(Operator::OpV, "A9", 0, false, None, None);
        rec.predicted_loop_prob = None;
        let rows = location_predictions(&[rec]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].runs, 1);
        assert_eq!(rows[0].predicted, None);
        assert_eq!(rows[0].predicted_ci, None);
        assert!(rows[0].observed_ci.is_some());
    }

    #[test]
    fn problem_rsrp_groupings() {
        let d = tiny_dataset();
        let p10 = d.problem_rsrp_p10_by_area(Operator::OpT);
        assert_eq!(p10["A1"].len(), 3);
        let by_type = d.problem_rsrp_by_type(Operator::OpT);
        assert!(by_type.contains_key("S1E3"));
        assert!(by_type.contains_key("no-loop"));
    }
}
