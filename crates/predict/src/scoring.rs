//! Online loop-proneness scoring: the §6 models evaluated incrementally
//! over the same event stream the detector consumes.
//!
//! [`OnlineScorer`] keeps the latest reported RSRP of every cell. On every
//! `MeasurementReport` taken while a PCell serves, it derives one
//! [`CellsetFeatures`] for the serving combination, scores it with a
//! configured [`S1Model`], and retains the score in a bounded per-PCell
//! ring reservoir. Querying [`OnlineScorer::report`] produces per-cell
//! loop-proneness with percentile-bootstrap confidence intervals
//! ([`onoff_analysis::bootstrap`]), deterministically seeded per cell so
//! reports are a pure function of the fed event sequence.
//!
//! The serving set comes from [`ServingReplay`] (`onoff-rrc`), the one
//! replay of RRC procedures. A scorer hosted in the detector's analyzer is
//! handed the set the analyzer's timeline already keeps
//! ([`OnlineScorer::feed_with_set`]), so each event is replayed once; a
//! standalone scorer ([`OnlineScorer::feed`]) runs a replay of its own.
//! The per-event path performs zero heap allocations: the replay holds a
//! pending command inline, and the measurement table is an [`FxMap`]
//! that only grows on first sight of a cell.
//!
//! Because scoring depends only on the order of events (timestamps are
//! never read), hosting the scorer inside the detect crate's batch and
//! streaming analyzers extends their equivalence contract to predictions
//! for free: any chunking of an in-order feed produces bitwise-identical
//! reports.

use onoff_analysis::bootstrap::{bootstrap_ci, ConfidenceInterval};
use onoff_rrc::ids::{CellId, Rat};
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::perf::{FxMap, InlineVec};
use onoff_rrc::serving::{ServingCellSet, ServingReplay};
use onoff_rrc::trace::TraceEvent;

use crate::model::{CellsetFeatures, S1Model};

/// PCell gap assumed when the PCell (or any rival) is unmeasured: decisive
/// enough that the combination counts as used, matching the fine-grained
/// study's no-rival default.
const DEFAULT_PCELL_GAP_DB: f64 = 20.0;
/// SCell gap sentinel for "no swap possible" (no co-channel rival, or the
/// swap-window gates fail) — far outside the S1E3 decay window.
const NO_SWAP_GAP_DB: f64 = 99.0;
/// Swap-window gates, matching the fine-grained study's fading-widened
/// RAN thresholds: serving alive above −112 dBm, rival usable above
/// −114 dBm, rival advantage at most 16 dB.
const SCELL_SERVING_FLOOR_DBM: f64 = -112.0;
const SCELL_RIVAL_FLOOR_DBM: f64 = -114.0;
const SCELL_SWAP_CEIL_DB: f64 = 16.0;
/// Worst-SCell RSRP assumed when nothing serving is measured: a neutral
/// mid-range value that keeps the e12 logistic near its floor.
const NEUTRAL_WORST_DBM: f64 = -80.0;

/// Configuration of the online scorer.
#[derive(Debug, Clone)]
pub struct ScoringConfig {
    /// The §6 model scoring each derived feature vector.
    pub model: S1Model,
    /// The S1E3 problem channel: the co-channel SCell gap is derived on
    /// this ARFCN only (OP_T's 387410 in the paper).
    pub problem_arfcn: u32,
    /// ARFCNs a PCell may anchor on (the wide capacity carriers). Rival
    /// PCell candidates are looked for on these channels; when empty, any
    /// same-RAT measured cell counts as a candidate.
    pub pcell_arfcns: InlineVec<u32, 8>,
    /// Per-cell reservoir bound: only the most recent this-many scores per
    /// PCell back the confidence interval.
    pub reservoir: usize,
    /// Confidence level of the bootstrap intervals (e.g. 0.95).
    pub level: f64,
    /// Bootstrap resample count (clamped to ≥ 50 by the bootstrap).
    pub resamples: usize,
    /// Base seed; each cell's bootstrap derives its own stream from this,
    /// so reports do not depend on reservoir iteration order.
    pub seed: u64,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        ScoringConfig {
            model: S1Model::default(),
            problem_arfcn: 387_410,
            pcell_arfcns: InlineVec::new(),
            reservoir: 256,
            level: 0.95,
            resamples: 200,
            seed: 0x5EED_5C0E,
        }
    }
}

/// The latest reported RSRP per cell, and the §6 features it yields for a
/// serving set it is handed. Zero heap allocations per event once every
/// cell in the trace has been seen.
#[derive(Default)]
struct FeatureTracker {
    /// Latest reported RSRP per cell, deci-dBm.
    meas: FxMap<CellId, i32>,
}

impl FeatureTracker {
    /// Records a measurement report's RSRPs. Returns the serving PCell and
    /// the derived features when the event is a measurement report and a
    /// PCell is serving — the scoring cadence.
    fn feed(
        &mut self,
        ev: &TraceEvent,
        serving: &ServingCellSet,
        config: &ScoringConfig,
    ) -> Option<(CellId, CellsetFeatures)> {
        let TraceEvent::Rrc(rec) = ev else {
            return None;
        };
        let RrcMessage::MeasurementReport(report) = &rec.msg else {
            return None;
        };
        for r in report.results.iter() {
            self.meas.insert(r.cell, r.meas.rsrp.deci());
        }
        let pcell = serving.pcell()?;
        Some((pcell, self.features(pcell, serving, config)))
    }

    fn rsrp_dbm(&self, cell: CellId) -> Option<f64> {
        self.meas.get(&cell).map(|deci| f64::from(*deci) / 10.0)
    }

    /// Derives the §6 features of the serving combination from the latest
    /// measurement table. Allocation-free.
    fn features(
        &self,
        pcell: CellId,
        serving: &ServingCellSet,
        config: &ScoringConfig,
    ) -> CellsetFeatures {
        let pcell_capable =
            |arfcn| config.pcell_arfcns.is_empty() || config.pcell_arfcns.contains(&arfcn);
        // Serving SCells of both cell groups (the S1 features' subjects).
        let serving_scells = || {
            serving
                .mcg
                .scells
                .values()
                .copied()
                .chain(serving.scg.iter().flat_map(|g| g.scells.values().copied()))
        };
        let pc_rsrp = self.rsrp_dbm(pcell);

        // Δᵖ: serving PCell over the best measured rival anchor.
        let pcell_gap_db = match pc_rsrp {
            Some(pc) => {
                let mut best = f64::NEG_INFINITY;
                for (cell, deci) in self.meas.iter() {
                    if *cell == pcell || cell.rat != pcell.rat || !pcell_capable(cell.arfcn) {
                        continue;
                    }
                    best = best.max(f64::from(*deci) / 10.0);
                }
                if best.is_finite() {
                    pc - best
                } else {
                    DEFAULT_PCELL_GAP_DB
                }
            }
            None => DEFAULT_PCELL_GAP_DB,
        };

        // Δˢ: the serving SCell on the problem channel against its best
        // measured co-channel rival, gated by the RAN's swap window.
        let target = serving_scells().find(|c| c.arfcn == config.problem_arfcn);
        let scell_gap_db = match target.and_then(|t| self.rsrp_dbm(t).map(|r| (t, r))) {
            Some((t, serving_rsrp)) => {
                let mut rival = f64::NEG_INFINITY;
                for (cell, deci) in self.meas.iter() {
                    if *cell == t || cell.rat != t.rat || cell.arfcn != t.arfcn {
                        continue;
                    }
                    rival = rival.max(f64::from(*deci) / 10.0);
                }
                if rival.is_finite()
                    && serving_rsrp > SCELL_SERVING_FLOOR_DBM
                    && rival > SCELL_RIVAL_FLOOR_DBM
                    && rival - serving_rsrp <= SCELL_SWAP_CEIL_DB
                {
                    (serving_rsrp - rival).abs()
                } else {
                    NO_SWAP_GAP_DB
                }
            }
            None => NO_SWAP_GAP_DB,
        };

        // Worst measured serving SCell; PCell as fallback subject.
        let mut worst = f64::INFINITY;
        for c in serving_scells() {
            if let Some(r) = self.rsrp_dbm(c) {
                worst = worst.min(r);
            }
        }
        if !worst.is_finite() {
            worst = pc_rsrp.unwrap_or(NEUTRAL_WORST_DBM);
        }

        CellsetFeatures {
            pcell_gap_db,
            scell_gap_db,
            worst_scell_rsrp_dbm: worst,
        }
    }
}

/// Heap bytes `std`'s table allocates for `map`: its buckets (about 1/8
/// of them kept empty, so `capacity()` alone undercounts) times the entry
/// size, padded to the 16-byte control-group alignment, plus one control
/// byte per bucket and one trailing group.
fn table_bytes<K, V>(map: &FxMap<K, V>) -> usize {
    const GROUP: usize = 16;
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    // `capacity()` is `buckets - 1` below 8 buckets and 7/8 of them above.
    let buckets = if cap < 8 { cap + 1 } else { cap / 7 * 8 };
    (buckets * std::mem::size_of::<(K, V)>()).next_multiple_of(GROUP) + buckets + GROUP
}

/// A bounded ring of the most recent scores for one cell. The ring's
/// buffer grows with the scores pushed, up to `cap`, so a cell scored a
/// handful of times holds a handful of slots.
#[derive(Debug, Clone)]
struct Reservoir {
    ring: Vec<f64>,
    head: usize,
    cap: usize,
    total: u64,
}

impl Reservoir {
    fn with_cap(cap: usize) -> Reservoir {
        Reservoir {
            ring: Vec::new(),
            head: 0,
            cap: cap.max(1),
            total: 0,
        }
    }

    fn push(&mut self, x: f64) {
        if self.ring.len() < self.cap {
            if self.ring.len() == self.ring.capacity() {
                // Double, as `push` would, but never past the bound.
                let grow = self.ring.len().max(4).min(self.cap - self.ring.len());
                self.ring.reserve_exact(grow);
            }
            self.ring.push(x);
        } else {
            self.ring[self.head] = x;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Empties the ring without giving back its capacity.
    fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.total = 0;
    }
}

/// One cell's loop-proneness summary.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellPrediction {
    /// The PCell anchoring the scored combinations.
    pub cell: CellId,
    /// How many reports were scored against this cell (including any that
    /// have since rotated out of the reservoir).
    pub samples: u64,
    /// Mean score over the retained reservoir.
    pub mean: f64,
    /// Percentile-bootstrap interval over the retained reservoir.
    pub ci: Option<ConfidenceInterval>,
}

/// A point-in-time prediction snapshot: per-cell loop-proneness, sorted by
/// cell, plus the session aggregate.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PredictionReport {
    /// Per-PCell predictions in ascending cell order.
    pub cells: Vec<CellPrediction>,
    /// Total scored measurement reports this session.
    pub scored: u64,
    /// Mean score over every scored report (not only the retained ones);
    /// `None` before anything was scored.
    pub session_mean: Option<f64>,
}

/// SplitMix64-style finalizer: derives a cell's bootstrap seed from the
/// base seed, independent of reservoir iteration order.
fn mix(seed: u64, word: u64) -> u64 {
    let mut z = seed ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds a cell identity into one word for seed derivation.
fn cell_word(cell: CellId) -> u64 {
    let rat = match cell.rat {
        Rat::Lte => 0u64,
        Rat::Nr => 1u64,
    };
    (rat << 63) | (u64::from(cell.pci.0) << 40) | u64::from(cell.arfcn)
}

/// The incremental scorer: last-RSRP table + model + bounded per-cell
/// reservoirs. Feeding is allocation-free once the trace's cells have been
/// seen; [`OnlineScorer::reset_session`] clears state while keeping every
/// capacity, so re-scoring a same-shaped trace allocates nothing at all.
pub struct OnlineScorer {
    config: ScoringConfig,
    /// The serving-set replay of a standalone feed ([`OnlineScorer::feed`]);
    /// a hosted scorer reads its host's set and leaves this IDLE.
    replay: ServingReplay,
    tracker: FeatureTracker,
    reservoirs: FxMap<CellId, Reservoir>,
    scored: u64,
    score_sum: f64,
}

impl OnlineScorer {
    /// A scorer with the given configuration.
    pub fn new(config: ScoringConfig) -> OnlineScorer {
        OnlineScorer {
            config,
            replay: ServingReplay::new(),
            tracker: FeatureTracker::default(),
            reservoirs: FxMap::default(),
            scored: 0,
            score_sum: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScoringConfig {
        &self.config
    }

    /// Number of measurement reports scored so far.
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Mean score over everything scored so far.
    pub fn session_mean(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.score_sum / self.scored as f64)
    }

    /// Advances the scorer with one event, replaying the serving set
    /// itself. Timestamps are never read, so scoring is a pure function of
    /// the event order.
    pub fn feed(&mut self, ev: &TraceEvent) {
        self.replay.feed(ev);
        // The replay's set is borrowed beside the tracker, never copied.
        let scored = self.tracker.feed(ev, self.replay.serving(), &self.config);
        self.tally(scored);
    }

    /// Advances the scorer with one event whose effect on the serving set
    /// the caller has already replayed: `serving` is the set after `ev`.
    /// Only measurement reports are scored and they never change the set,
    /// so this matches [`feed`](Self::feed) when the host keeps the same
    /// replay.
    pub fn feed_with_set(&mut self, ev: &TraceEvent, serving: &ServingCellSet) {
        let scored = self.tracker.feed(ev, serving, &self.config);
        self.tally(scored);
    }

    fn tally(&mut self, scored: Option<(CellId, CellsetFeatures)>) {
        if let Some((pcell, f)) = scored {
            let p = self.config.model.predict(std::slice::from_ref(&f));
            self.scored += 1;
            self.score_sum += p;
            let cap = self.config.reservoir;
            self.reservoirs
                .entry(pcell)
                .or_insert_with(|| Reservoir::with_cap(cap))
                .push(p);
        }
    }

    /// Approximate heap footprint in bytes, capacity-based: the last-RSRP
    /// table, the reservoir map and every reservoir's ring.
    pub fn mem_hint(&self) -> usize {
        let rings: usize = self.reservoirs.values().map(|r| r.ring.capacity()).sum();
        table_bytes(&self.tracker.meas)
            + table_bytes(&self.reservoirs)
            + rings * std::mem::size_of::<f64>()
    }

    /// Resets per-session state (serving set, measurement table, reservoir
    /// contents, counters) while retaining every allocation, so the next
    /// session over the same cells runs with zero allocations per event.
    pub fn reset_session(&mut self) {
        self.replay.reset();
        self.tracker.meas.clear();
        for r in self.reservoirs.values_mut() {
            r.clear();
        }
        self.scored = 0;
        self.score_sum = 0.0;
    }

    /// A point-in-time [`PredictionReport`]: per-cell mean scores with
    /// percentile-bootstrap confidence intervals over the retained
    /// reservoirs. Deterministic: per-cell seeds derive from the config
    /// seed and the cell identity, never from map iteration order.
    pub fn report(&self) -> PredictionReport {
        let mut cells: Vec<CellPrediction> = self
            .reservoirs
            .iter()
            .filter(|(_, r)| r.total > 0)
            .map(|(cell, r)| {
                let mean = r.ring.iter().sum::<f64>() / r.ring.len() as f64;
                let ci = bootstrap_ci(
                    &r.ring,
                    |v| v.iter().sum::<f64>() / v.len() as f64,
                    self.config.level,
                    self.config.resamples,
                    mix(self.config.seed, cell_word(*cell)),
                );
                CellPrediction {
                    cell: *cell,
                    samples: r.total,
                    mean,
                    ci,
                }
            })
            .collect();
        cells.sort_by_key(|c| c.cell);
        PredictionReport {
            cells,
            scored: self.scored,
            session_mean: self.session_mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::ids::{GlobalCellId, Pci};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{MeasResult, MeasurementReport, ReconfigBody, ScellAddMod};
    use onoff_rrc::trace::{LogChannel, LogRecord, Timestamp};

    fn nr(pci: u16, arfcn: u32) -> CellId {
        CellId::nr(Pci(pci), arfcn)
    }

    fn rec(t: u64, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn report(t: u64, rows: &[(CellId, f64)]) -> TraceEvent {
        rec(
            t,
            RrcMessage::MeasurementReport(MeasurementReport {
                trigger: None,
                results: rows
                    .iter()
                    .map(|(cell, rsrp)| MeasResult {
                        cell: *cell,
                        meas: Measurement::new(*rsrp, -11.0),
                    })
                    .collect(),
            }),
        )
    }

    /// An SA session on 393@521310 with an SCell on the problem channel and
    /// a co-channel rival at the given gap.
    fn session(rival_rsrp: f64) -> Vec<TraceEvent> {
        let pcell = nr(393, 521_310);
        let scell = nr(273, 387_410);
        let rival = nr(371, 387_410);
        let mut events = vec![
            rec(
                0,
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(1),
                },
            ),
            rec(100, RrcMessage::SetupComplete),
            rec(
                200,
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![ScellAddMod {
                        index: 1,
                        cell: scell,
                    }]
                    .into(),
                    ..Default::default()
                }),
            ),
            rec(250, RrcMessage::ReconfigurationComplete),
        ];
        for i in 0..20u64 {
            events.push(report(
                1_000 + i * 1_000,
                &[(pcell, -85.0), (scell, -95.0), (rival, rival_rsrp)],
            ));
        }
        events
    }

    #[test]
    fn scores_are_probabilities_and_reported_per_cell() {
        let mut s = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-97.0) {
            s.feed(&ev);
        }
        let rep = s.report();
        assert_eq!(rep.scored, 20);
        assert_eq!(rep.cells.len(), 1);
        let c = &rep.cells[0];
        assert_eq!(c.cell, nr(393, 521_310));
        assert_eq!(c.samples, 20);
        assert!((0.0..=1.0).contains(&c.mean), "{c:?}");
        let ci = c.ci.expect("non-empty reservoir has a CI");
        assert!(ci.lo <= c.mean && c.mean <= ci.hi, "{ci:?}");
        assert_eq!(rep.session_mean, Some(c.mean));
    }

    #[test]
    fn close_rival_scores_higher_than_distant_rival() {
        let mut near = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-96.0) {
            near.feed(&ev);
        }
        let mut far = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-113.0) {
            far.feed(&ev);
        }
        let near_mean = near.session_mean().unwrap();
        let far_mean = far.session_mean().unwrap();
        assert!(near_mean > far_mean, "{near_mean} vs {far_mean}");
    }

    #[test]
    fn idle_reports_are_not_scored() {
        let mut s = OnlineScorer::new(ScoringConfig::default());
        s.feed(&report(10, &[(nr(393, 521_310), -85.0)]));
        assert_eq!(s.scored(), 0);
        assert_eq!(s.report(), PredictionReport::default());
    }

    #[test]
    fn reports_are_deterministic() {
        let mut a = OnlineScorer::new(ScoringConfig::default());
        let mut b = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-98.5) {
            a.feed(&ev);
            b.feed(&ev);
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn reset_session_matches_fresh_scorer() {
        let mut warm = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-96.0) {
            warm.feed(&ev);
        }
        warm.reset_session();
        assert_eq!(warm.scored(), 0);
        assert_eq!(warm.report(), PredictionReport::default());
        for ev in session(-98.5) {
            warm.feed(&ev);
        }
        let mut fresh = OnlineScorer::new(ScoringConfig::default());
        for ev in session(-98.5) {
            fresh.feed(&ev);
        }
        assert_eq!(warm.report(), fresh.report());
    }

    #[test]
    fn reservoir_is_bounded() {
        let config = ScoringConfig {
            reservoir: 5,
            ..ScoringConfig::default()
        };
        let mut s = OnlineScorer::new(config);
        for ev in session(-96.0) {
            s.feed(&ev);
        }
        let rep = s.report();
        assert_eq!(rep.scored, 20);
        assert_eq!(rep.cells[0].samples, 20);
        // The CI is backed by at most `reservoir` retained scores; with all
        // scores equal here the interval collapses onto the mean.
        let ci = rep.cells[0].ci.unwrap();
        assert!((ci.hi - ci.lo).abs() < 1e-12, "{ci:?}");
    }

    #[test]
    fn release_ends_the_scored_combination() {
        let pcell = nr(393, 521_310);
        let mut s = OnlineScorer::new(ScoringConfig::default());
        s.feed(&rec(
            0,
            RrcMessage::SetupRequest {
                cell: pcell,
                global_id: GlobalCellId(1),
            },
        ));
        s.feed(&rec(100, RrcMessage::SetupComplete));
        s.feed(&report(200, &[(pcell, -85.0)]));
        assert_eq!(s.scored(), 1);
        s.feed(&rec(300, RrcMessage::Release));
        s.feed(&report(400, &[(pcell, -85.0)]));
        assert_eq!(s.scored(), 1, "idle reports must not score");
    }
}
