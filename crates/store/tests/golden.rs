//! Golden-store snapshot layer: two checked-in binary `.ostr` fixtures,
//! each pinned three ways —
//!
//! 1. **byte stability**: re-encoding the scripted events must reproduce
//!    the checked-in file bit for bit, so any codec change (tag values,
//!    column order, varint width) is caught the moment it happens;
//! 2. **analysis snapshot**: replaying the fixture through
//!    [`TraceAnalyzer`] must render the checked-in `.expected` report;
//! 3. **versioning**: a bumped version byte must be refused with
//!    [`StoreError::UnsupportedVersion`], never decoded on a guess.
//!
//! To refresh the `.expected` snapshots after an intentional behavior
//! change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p onoff-store --test golden
//! ```
//!
//! The `.ostr` files themselves are regenerated (only when the format
//! version bumps or the storylines intentionally change) with:
//!
//! ```text
//! cargo test -p onoff-store --test golden -- --ignored
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use onoff_detect::stream::TraceAnalyzer;
use onoff_detect::RunAnalysis;
use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::ids::{CellId, Pci};
use onoff_rrc::messages::ScgFailureType;
use onoff_rrc::trace::TraceEvent;
use onoff_sim::TraceBuilder;
use onoff_store::{encode_events_with, EncodeOptions, StoreError, StoreReader, FORMAT_VERSION};

/// Small segments so both fixtures exercise the multi-segment path.
const FIXTURE_OPTS: EncodeOptions = EncodeOptions {
    segment_records: 16,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run --ignored regenerator", name))
}

/// A three-cycle S1-style ON-OFF loop: establish, add the SCell on the
/// problem channel, sample throughput, release into a long OFF tail.
fn loop3_events() -> Vec<TraceEvent> {
    let pcell = CellId::nr(Pci(393), 521310);
    let scell = CellId::nr(Pci(273), 387410);
    let mut b = TraceBuilder::new();
    for k in 0..3u64 {
        b = b
            .at(k * 40_000)
            .establish(pcell)
            .after(1_000)
            .report(Some("A2"), &[(scell, -112.0, -20.5)])
            .after(500)
            .add_scells(&[scell])
            .after(500)
            .throughput(180.5)
            .after(1_000)
            .throughput(201.25)
            .after(20_000)
            .release()
            .after(2_000)
            .throughput(0.5);
    }
    b.build()
}

/// NSA churn: SCG setup and failure, an LTE handover that fails into
/// re-establishment, an RLF, and a vendor-specific report trigger — wide
/// dictionary coverage (5 cells, an `Other` trigger symbol).
fn nsa_churn_events() -> Vec<TraceEvent> {
    let anchor = CellId::lte(Pci(380), 5815);
    let anchor2 = CellId::lte(Pci(81), 1300);
    let pscell = CellId::nr(Pci(540), 501390);
    let pscell2 = CellId::nr(Pci(11), 504990);
    let reest = CellId::lte(Pci(442), 5815);
    TraceBuilder::new()
        .establish(anchor)
        .after(800)
        .report(Some("B1"), &[(pscell, -95.0, -11.0)])
        .after(200)
        .scg_add(pscell, Some(pscell2))
        .after(2_000)
        .throughput(412.0)
        .after(3_000)
        .scg_failure(ScgFailureType::RlcMaxNumRetx)
        .after(1_500)
        .report(
            Some("D1"),
            &[(pscell, -118.5, -21.0), (pscell2, -121.0, -22.5)],
        )
        .after(500)
        .handover(anchor2, None, Some(reest))
        .after(4_000)
        .rlf(reest)
        .after(1_000)
        .throughput(6.25)
        .after(5_000)
        .release()
        .build()
}

/// Renders the replayed analysis as a stable, human-diffable report.
fn render_report(bytes: &[u8], reader: &StoreReader, analysis: &RunAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== store ==");
    let _ = writeln!(
        out,
        "{} bytes, {} records in {} segments, {} cells interned",
        bytes.len(),
        reader.records(),
        reader.segment_count(),
        reader.cells().len()
    );
    let _ = writeln!(out, "== analysis ==");
    let _ = writeln!(out, "degradation: {}", analysis.degradation);
    let _ = writeln!(
        out,
        "timeline: {} unique sets, {} samples, end = {} ms",
        analysis.timeline.unique_sets(),
        analysis.timeline.samples.len(),
        analysis.timeline.end.millis()
    );
    let _ = writeln!(out, "loops: {}", analysis.loops.len());
    for lp in &analysis.loops {
        let _ = writeln!(
            out,
            "  block = {:?}, repetitions = {}, persistence = {:?}, span = {}..{} ms",
            lp.block,
            lp.repetitions,
            lp.persistence,
            lp.start.millis(),
            lp.end.millis(),
        );
    }
    let _ = writeln!(out, "off transitions: {}", analysis.off_transitions.len());
    for tr in &analysis.off_transitions {
        let _ = writeln!(out, "  t = {} ms, type = {:?}", tr.t.millis(), tr.loop_type);
    }
    let _ = writeln!(
        out,
        "median mbps: on = {:?}, off = {:?}",
        analysis.metrics.median_on_mbps, analysis.metrics.median_off_mbps
    );
    out
}

/// Pins one fixture: checked-in bytes are exactly what the codec emits
/// today, they replay cleanly, and the analysis matches its snapshot.
fn check_golden(name: &str, events: &[TraceEvent]) {
    let bytes = read_fixture(&format!("{name}.ostr"));
    let reencoded = encode_events_with(events, &FIXTURE_OPTS);
    assert_eq!(
        bytes, reencoded,
        "{name}.ostr no longer matches the codec; if the format changed \
         intentionally, bump FORMAT_VERSION and rerun the --ignored regenerator"
    );

    let reader = StoreReader::new(&bytes).unwrap();
    let mut core = TraceAnalyzer::new();
    let stats = reader
        .replay(RecoveryPolicy::FailFast, |ev| core.feed(ev))
        .unwrap();
    assert!(stats.is_clean(), "checked-in fixture must replay cleanly");
    let analysis = core.finish();
    assert_eq!(analysis, onoff_detect::analyze_trace(events));

    let report = render_report(&bytes, &reader, &analysis);
    let expected_path = fixture_path(&format!("{name}.expected"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &report).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("missing snapshot {name}.expected ({e}); rerun with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        report, expected,
        "golden mismatch for {name}; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_loop3() {
    check_golden("loop3", &loop3_events());
}

#[test]
fn golden_nsa_churn() {
    check_golden("nsa_churn", &nsa_churn_events());
}

/// A future-versioned file must be refused outright with an actionable
/// error, not decoded on a guess.
#[test]
fn stale_version_fixture_is_refused() {
    let mut bytes = read_fixture("loop3.ostr");
    bytes[4] = FORMAT_VERSION + 1;
    assert_eq!(
        StoreReader::new(&bytes).unwrap_err(),
        StoreError::UnsupportedVersion {
            found: FORMAT_VERSION + 1,
            supported: FORMAT_VERSION,
        }
    );
}

/// Regenerates the two `.ostr` fixtures from the scripted storylines. Run
/// manually (`-- --ignored`) only on an intentional format change, then
/// refresh the snapshots with UPDATE_GOLDEN=1.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    for (name, events) in [("loop3", loop3_events()), ("nsa_churn", nsa_churn_events())] {
        let bytes = encode_events_with(&events, &FIXTURE_OPTS);
        std::fs::write(fixture_path(&format!("{name}.ostr")), &bytes).unwrap();
    }
}
