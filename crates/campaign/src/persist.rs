//! Dataset persistence: save/load the campaign dataset as JSON so
//! EXPERIMENTS.md numbers can be regenerated without re-running the
//! simulation, mirroring the paper's released-dataset workflow.
//!
//! Individual run traces persist separately in the binary columnar store
//! (`onoff-store`): [`save_trace`] writes a run's events once,
//! [`reanalyze_trace`] replays them straight into the streaming analysis
//! core with no text round-trip. Store-level corruption surfaces as
//! counted segment skips ([`StoreStats`]) that [`absorb_store_loss`]
//! folds into the campaign's [`QuarantineReport`], the same ledger the
//! lossy text parser feeds.

use std::io;
use std::path::Path;

use onoff_detect::{RunAnalysis, TraceAnalyzer};
use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::trace::TraceEvent;
use onoff_store::{StoreReader, StoreStats};

use crate::dataset::Dataset;
use crate::quarantine::QuarantineReport;

/// Saves a dataset as pretty-printed JSON.
pub fn save_json(ds: &Dataset, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string_pretty(ds)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Loads a dataset saved by [`save_json`].
pub fn load_json(path: &Path) -> io::Result<Dataset> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn invalid(e: onoff_store::StoreError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Saves a run's events in the binary columnar store format.
pub fn save_trace(events: &[TraceEvent], path: &Path) -> io::Result<()> {
    std::fs::write(path, onoff_store::encode_events(events))
}

/// Loads a binary trace saved by [`save_trace`]. Under the lossy
/// policies, corrupt segments become counted skips in the returned
/// [`StoreStats`]; under `FailFast` they are an `InvalidData` error.
pub fn load_trace(
    path: &Path,
    policy: RecoveryPolicy,
) -> io::Result<(Vec<TraceEvent>, StoreStats)> {
    let bytes = std::fs::read(path)?;
    let reader = StoreReader::new(&bytes).map_err(invalid)?;
    reader.read_all(policy).map_err(invalid)
}

/// Re-analyzes a persisted binary trace by replaying it straight into
/// the streaming core — no text re-parse, no event buffer. Fold the
/// returned stats into the campaign ledger with [`absorb_store_loss`].
pub fn reanalyze_trace(
    path: &Path,
    policy: RecoveryPolicy,
) -> io::Result<(RunAnalysis, StoreStats)> {
    let bytes = std::fs::read(path)?;
    let reader = StoreReader::new(&bytes).map_err(invalid)?;
    let mut core = TraceAnalyzer::new();
    let stats = reader.replay(policy, |ev| core.feed(ev)).map_err(invalid)?;
    Ok((core.finish(), stats))
}

/// Folds binary-store segment loss into the quarantine ledger, mirroring
/// what the text parser's `ParseStats` contributes on the chaos path.
pub fn absorb_store_loss(report: &mut QuarantineReport, stats: &StoreStats) {
    report.records_lost += stats.skipped;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RsrpSamples, RunRecord};
    use onoff_policy::{Operator, PhoneModel};

    fn tiny() -> Dataset {
        Dataset {
            records: vec![RunRecord {
                operator: Operator::OpT,
                area: "A1".into(),
                location: 3,
                device: PhoneModel::OnePlus12R,
                seed: 42,
                minutes: 5.0,
                has_loop: true,
                persistence: Some(onoff_detect::Persistence::Persistent),
                loop_type: Some(onoff_detect::LoopType::S1E3),
                cycles: Vec::new(),
                off_by_type: vec![(onoff_detect::LoopType::S1E3, 11_000)],
                median_on_mbps: Some(186.1),
                median_off_mbps: Some(0.0),
                unique_cs: 5,
                cs_samples: 40,
                meas_results: 1234,
                problem_channel_rsrp: RsrpSamples::from_deci(&[-850, -905]),
                scg_meas_delays_ms: Vec::new(),
                scored_reports: 250,
                predicted_loop_prob: Some(0.62),
            }],
            areas: vec![("A1".into(), Operator::OpT, 2.89)],
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("onoff_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        let ds = tiny();
        save_json(&ds, &path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        let back = load_json(&path).unwrap();
        // Whole records, so a lossy column cannot pass: the −90.5 dBm
        // sample sits on the 0.1 dB grid and must come back exactly.
        assert_eq!(back.records, ds.records);
        assert_eq!(back.areas, ds.areas);
        save_json(&back, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), saved);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_json(Path::new("/definitely/not/here.json")).is_err());
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("onoff_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(load_json(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
