//! # onoff-detect
//!
//! The paper's primary contribution as a library: given a signaling +
//! throughput trace (from `onoff-nsglog` or `onoff-sim`), reconstruct the
//! serving-cell-set sequence (Appendix B), detect 5G ON-OFF loops and label
//! their persistence (Fig. 4), classify each loop into the seven sub-types
//! (S1E1/S1E2/S1E3/N1E1/N1E2/N2E1/N2E2, §5), and quantify impact (cycle /
//! OFF time, Fig. 10; ON/OFF download speed, Fig. 11).
//!
//! The pipeline is evidence-based: it consumes only what an analyst reading
//! the capture would see. Simulator ground truth never enters here — it is
//! used by the test suite to *score* the classifier.
//!
//! ## Two layers: incremental cores, batch drivers
//!
//! Every analysis stage exists once, as an incremental state machine —
//! [`cellset::TimelineBuilder`] (the cell-set timeline, over `onoff_rrc`'s
//! serving-set replay), the episode splitter
//! behind loop detection, and [`classify::OffClassifier`] (transition
//! classification over a bounded evidence window). They are composed by
//! [`stream::TraceAnalyzer`], whose `feed` is amortized O(1) per event.
//! Pick your entry point by workload:
//!
//! * [`analyze_trace`] — a slice already in memory; drives the core over
//!   it and returns the [`RunAnalysis`].
//! * [`StreamingAnalyzer`] — a live feed with possible mild reordering;
//!   adds a bounded reorder buffer and interactive queries.
//! * [`stream::TraceAnalyzer`] — a feed you can promise is time-ordered
//!   (e.g. simulator output); the zero-overhead core itself.
//!
//! Batch and stream share one source of truth, so they cannot drift;
//! equivalence under arbitrary chunkings is enforced by proptests.
//!
//! ```
//! use onoff_detect::analyze_trace;
//! # let events: Vec<onoff_rrc::trace::TraceEvent> = Vec::new();
//! let analysis = analyze_trace(&events);
//! println!("loops found: {}", analysis.loops.len());
//! ```

pub mod cellset;
pub mod channel;
pub mod classify;
pub mod degrade;
pub mod export;
pub mod loops;
pub mod metrics;
pub mod render;
pub mod stream;

pub use cellset::{CsSample, CsTimeline, TimelineBuilder};
pub use channel::{ChannelUsage, Merge, ScellModScan, ScellModStats};
pub use classify::{classify_off_transition, LoopType, OffClassifier, OffTransition};
pub use degrade::DegradationReport;
pub use loops::{detect_loops, Cycle, LoopInstance, Persistence};
pub use metrics::{run_metrics_from_samples, RunMetrics};
pub use stream::{StreamingAnalyzer, TraceAnalyzer};

pub use onoff_predict::scoring::{CellPrediction, PredictionReport, ScoringConfig};

use onoff_rrc::trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// Full analysis of one measurement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAnalysis {
    /// The reconstructed serving-cell-set timeline.
    pub timeline: CsTimeline,
    /// Detected ON-OFF loops (usually 0 or 1 per 5-minute run).
    pub loops: Vec<LoopInstance>,
    /// Every 5G ON→OFF transition, classified.
    pub off_transitions: Vec<OffTransition>,
    /// Performance metrics.
    pub metrics: RunMetrics,
    /// What the analyzers had to tolerate (clean input ⇒ all zeros).
    /// Defaults on deserialization so pre-existing exports still load.
    #[serde(default)]
    pub degradation: DegradationReport,
}

impl RunAnalysis {
    /// Whether this run contains any ON-OFF loop (the paper's per-run
    /// loop/no-loop label behind Figs. 6, 8, 9).
    pub fn has_loop(&self) -> bool {
        !self.loops.is_empty()
    }

    /// The run's dominant loop type, by majority over the OFF transitions
    /// inside loop spans.
    pub fn dominant_loop_type(&self) -> Option<LoopType> {
        let mut counts = std::collections::BTreeMap::new();
        for lp in &self.loops {
            for tr in &self.off_transitions {
                if tr.t >= lp.start && tr.t <= lp.end {
                    *counts.entry(tr.loop_type).or_insert(0usize) += 1;
                }
            }
        }
        counts.into_iter().max_by_key(|(_, n)| *n).map(|(t, _)| t)
    }
}

/// Runs the full pipeline over a trace: the batch driver over the
/// incremental core ([`stream::TraceAnalyzer`]), so batch and streaming
/// analysis cannot drift.
pub fn analyze_trace(events: &[TraceEvent]) -> RunAnalysis {
    let mut core = stream::TraceAnalyzer::new();
    for ev in events {
        core.feed(ev);
    }
    core.finish()
}

/// [`analyze_trace`] with the online prediction stage enabled: the same
/// single pass also scores every measurement report with the §6 models and
/// returns the per-cell loop-proneness report alongside the analysis.
///
/// Drives the identical code path a scoring-enabled [`StreamingAnalyzer`]
/// runs, so batch and streaming predictions are bitwise-identical for any
/// in-order chunking of the same events.
pub fn analyze_trace_scored(
    events: &[TraceEvent],
    config: ScoringConfig,
) -> (RunAnalysis, PredictionReport) {
    let mut core = stream::TraceAnalyzer::with_scoring(config);
    for ev in events {
        core.feed(ev);
    }
    let predictions = core.predictions().expect("scoring enabled");
    (core.finish(), predictions)
}
