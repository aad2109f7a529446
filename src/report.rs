//! The report API: NSG-style log text in, loop report out. This is the
//! entry point a downstream user (say, someone with their own signaling
//! captures) would reach for; the finer-grained building blocks live in
//! [`detect`](crate::detect) and [`nsglog`](crate::nsglog).
//!
//! ```
//! use fiveg_onoff::analyze_log_text;
//!
//! let log = "\
//! 00:00:00.000 NR5G RRC OTA Packet -- UL_CCCH / RRC Setup Req
//!   Physical Cell ID = 393, NR Cell Global ID = 42, Freq = 521310
//! 00:00:00.150 NR5G RRC OTA Packet -- UL_DCCH / RRCSetup Complete
//! 00:00:30.000 NR5G RRC OTA Packet -- DL_DCCH / RRC Release
//! ";
//! let report = analyze_log_text(log).unwrap();
//! assert!(!report.analysis.has_loop());
//! assert_eq!(report.analysis.timeline.unique_sets(), 2);
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use onoff_detect::{analyze_trace, LoopType, Persistence, RunAnalysis};
use onoff_nsglog::ParseError;
use onoff_rrc::trace::TraceEvent;

/// A complete loop report for one capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopReport {
    /// The underlying full analysis.
    pub analysis: RunAnalysis,
    /// One summary line per detected loop.
    pub findings: Vec<LoopFinding>,
}

/// One detected loop, summarised.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopFinding {
    /// Classified sub-type (majority over the loop's OFF transitions).
    pub loop_type: LoopType,
    /// Persistence label.
    pub persistence: Persistence,
    /// Observed full repetitions.
    pub repetitions: usize,
    /// Median cycle time, seconds.
    pub median_cycle_s: f64,
    /// Median OFF time, seconds.
    pub median_off_s: f64,
    /// The problematic cell (`PCI@ARFCN`), when identified.
    pub problem_cell: Option<String>,
}

impl fmt::Display for LoopFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} loop ({}), {} repetitions, median cycle {:.1}s / OFF {:.1}s{}",
            self.loop_type,
            match self.persistence {
                Persistence::Persistent => "persistent",
                Persistence::SemiPersistent => "semi-persistent",
            },
            self.repetitions,
            self.median_cycle_s,
            self.median_off_s,
            match &self.problem_cell {
                Some(c) => format!(", problematic cell {c}"),
                None => String::new(),
            }
        )
    }
}

/// Analyzes an already-parsed trace.
pub fn analyze_events(events: &[TraceEvent]) -> LoopReport {
    let analysis = analyze_trace(events);
    let findings = analysis
        .loops
        .iter()
        .map(|lp| {
            let cycles: Vec<f64> = lp
                .cycles
                .iter()
                .map(|c| c.cycle_ms() as f64 / 1000.0)
                .collect();
            let offs: Vec<f64> = lp
                .cycles
                .iter()
                .map(|c| c.off_ms() as f64 / 1000.0)
                .collect();
            let median_cycle_s = onoff_analysis::median(&cycles).unwrap_or(0.0);
            let median_off_s = onoff_analysis::median(&offs).unwrap_or(0.0);
            // Majority sub-type and its problem cell among this loop's
            // OFF transitions.
            let mut counts: std::collections::BTreeMap<LoopType, usize> = Default::default();
            let mut cell = None;
            for tr in &analysis.off_transitions {
                if tr.t >= lp.start && tr.t <= lp.end {
                    *counts.entry(tr.loop_type).or_insert(0) += 1;
                }
            }
            let loop_type = counts
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(t, _)| *t)
                .unwrap_or(LoopType::Unknown);
            for tr in &analysis.off_transitions {
                if tr.loop_type == loop_type && tr.problem_cell.is_some() {
                    cell = tr.problem_cell;
                    break;
                }
            }
            LoopFinding {
                loop_type,
                persistence: lp.persistence,
                repetitions: lp.repetitions,
                median_cycle_s,
                median_off_s,
                problem_cell: cell.map(|c| c.to_string()),
            }
        })
        .collect();
    LoopReport { analysis, findings }
}

/// Parses NSG-style log text and analyzes it.
pub fn analyze_log_text(text: &str) -> Result<LoopReport, ParseError> {
    let events = onoff_nsglog::parse_str(text)?;
    Ok(analyze_events(&events))
}

/// Renders a human-readable multi-line summary of a report.
pub fn render_report(report: &LoopReport) -> String {
    let mut out = String::new();
    let m = &report.analysis.metrics;
    out.push_str(&format!(
        "5G ON {:.1}s / OFF {:.1}s; median speed ON {} / OFF {}\n",
        m.on_ms as f64 / 1000.0,
        m.off_ms as f64 / 1000.0,
        m.median_on_mbps
            .map_or("n/a".into(), |v| format!("{v:.1} Mbps")),
        m.median_off_mbps
            .map_or("n/a".into(), |v| format!("{v:.1} Mbps")),
    ));
    // The first sample is the opening set, not a change.
    out.push_str(&format!(
        "serving-cell sets: {} unique, {} transitions\n",
        report.analysis.timeline.unique_sets(),
        report.analysis.timeline.samples.len().saturating_sub(1),
    ));
    if report.findings.is_empty() {
        out.push_str("no 5G ON-OFF loop detected\n");
    }
    for f in &report.findings {
        out.push_str(&format!("{f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MM:SS.mmm` stamp from seconds + millis.
    fn ts(secs: u64, ms: u64) -> String {
        format!("00:{:02}:{:02}.{:03}", secs / 60, secs % 60, ms)
    }

    /// A hand-written S1E3-style log with three identical cycles.
    fn looping_log() -> String {
        let mut s = String::new();
        for k in 0..3u64 {
            let base = k * 40; // seconds
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- UL_CCCH / RRC Setup Req\n  \
                 Physical Cell ID = 393, NR Cell Global ID = 42, Freq = 521310\n",
                ts(base, 0)
            ));
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- UL_DCCH / RRCSetup Complete\n",
                ts(base, 150)
            ));
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\n  \
                 sCellToAddModList {{\n    {{sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}}\n  }}\n",
                ts(base + 3, 0)
            ));
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- UL_DCCH / RRCReconfiguration Complete\n",
                ts(base + 3, 15)
            ));
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\n  \
                 sCellToAddModList {{\n    {{sCellIndex 2, physCellId 371, absoluteFrequencySSB 387410}}\n  }}\n  \
                 sCellToReleaseList {{1}}\n",
                ts(base + 28, 0)
            ));
            s.push_str(&format!(
                "{} NR5G RRC OTA Packet -- UL_DCCH / RRCReconfiguration Complete\n",
                ts(base + 28, 15)
            ));
            s.push_str(&format!(
                "{} MM5G State = DEREGISTERED\n  \
                 Mm5g Deregistered Substate = NO_CELL_AVAILABLE\n",
                ts(base + 28, 20)
            ));
        }
        s
    }

    #[test]
    fn detects_and_reports_the_loop() {
        let report = analyze_log_text(&looping_log()).unwrap();
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.loop_type, LoopType::S1E3);
        assert_eq!(f.persistence, Persistence::Persistent);
        assert!(f.repetitions >= 2);
        assert_eq!(f.problem_cell.as_deref(), Some("371@387410"));
        let text = render_report(&report);
        assert!(text.contains("S1E3"));
        assert!(text.contains("persistent"));
    }

    #[test]
    fn clean_log_reports_no_loop() {
        let log = "\
00:00:00.000 NR5G RRC OTA Packet -- UL_CCCH / RRC Setup Req
  Physical Cell ID = 393, NR Cell Global ID = 42, Freq = 521310
00:00:00.150 NR5G RRC OTA Packet -- UL_DCCH / RRCSetup Complete
";
        let report = analyze_log_text(log).unwrap();
        assert!(report.findings.is_empty());
        assert!(render_report(&report).contains("no 5G ON-OFF loop"));
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(analyze_log_text("garbage\n").is_err());
    }

    #[test]
    fn finding_display() {
        let f = LoopFinding {
            loop_type: LoopType::N2E1,
            persistence: Persistence::SemiPersistent,
            repetitions: 4,
            median_cycle_s: 26.0,
            median_off_s: 2.5,
            problem_cell: Some("380@5815".into()),
        };
        let s = f.to_string();
        assert!(s.contains("N2E1"));
        assert!(s.contains("semi-persistent"));
        assert!(s.contains("380@5815"));
    }
}
