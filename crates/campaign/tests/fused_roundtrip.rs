//! The campaign hot path fuses simulator output straight into the
//! incremental analysis core, skipping the emit→parse text round-trip.
//! That fusion must be a pure performance change: analyzing the re-parsed
//! text export — in batch or streamed line by line — and building the
//! persisted record from it yields bitwise-identical results.

use onoff_campaign::areas::area_a1;
use onoff_campaign::{run_location, scoring_config_for, RunRecord};
use onoff_detect::{analyze_trace, analyze_trace_scored, StreamingAnalyzer};
use onoff_policy::{policy_for, PhoneModel};

#[test]
fn fused_path_matches_text_round_trip() {
    let a1 = area_a1(0x050FF);
    let (record, out, fused) = run_location(&a1, 0, PhoneModel::OnePlus12R, 7, 60_000);

    // Round-trip: emit the trace as NSG text, re-parse it, re-analyze.
    let text = out.to_log();
    let reparsed: Vec<_> = onoff_nsglog::parse_str(&text).expect("emitted log must re-parse");
    assert_eq!(reparsed, out.events, "text round-trip must be lossless");

    // Batch over the re-parsed events… (scored: the fused path scores
    // every run, and scoring must not perturb the analysis)
    let scoring = scoring_config_for(a1.operator, &policy_for(a1.operator));
    let (batch, batch_pred) = analyze_trace_scored(&reparsed, scoring);
    assert_eq!(fused, batch, "fused analysis diverged from batch");
    assert_eq!(
        batch,
        analyze_trace(&reparsed),
        "scoring perturbed the analysis"
    );

    // …and streamed, as a live tail would consume the same text.
    let mut s = StreamingAnalyzer::new();
    s.feed_all(reparsed.iter().cloned());
    let streamed = s.finish();
    assert_eq!(fused, streamed, "fused analysis diverged from streaming");

    // The persisted record built from the round-trip analysis is bitwise
    // identical to the one the fused path produced.
    let roundtrip_record = RunRecord::from_run(
        a1.operator,
        &a1.name,
        0,
        PhoneModel::OnePlus12R,
        7,
        &out,
        &batch,
        &batch_pred,
    );
    let fused_json = serde_json::to_string_pretty(&record).unwrap();
    let roundtrip_json = serde_json::to_string_pretty(&roundtrip_record).unwrap();
    assert_eq!(fused_json, roundtrip_json);
}
