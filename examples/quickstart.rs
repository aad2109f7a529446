//! Quickstart: reproduce the paper's motivating example end to end.
//!
//! Builds the showcase campus area (A1, OP_T 5G SA), runs one 5-minute
//! stationary speed test at a loop-prone location, prints the download-speed
//! timeline with its ON-OFF dips, and runs the full analysis pipeline —
//! exactly the §1/§3 storyline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fiveg_onoff::prelude::*;
use fiveg_onoff::{analyze_events, render_report};
use onoff_rrc::trace::TraceEvent;

fn main() {
    // The deployment: the paper's showcase campus area A1.
    let area = fiveg_onoff::campaign::areas::area_a1(0x050FF);
    println!(
        "Area A1 ({}): {:.1} km², {} cells, {} test locations",
        area.operator,
        area.size_km2(),
        area.env.cells.len(),
        area.locations.len()
    );

    // One 5-minute bulk-download run with the OnePlus 12R at location P1.
    let cfg = SimConfig::stationary(
        op_t_policy(),
        PhoneModel::OnePlus12R,
        area.env.clone(),
        area.locations[0],
        7,
    );
    let out = simulate(&cfg);

    // The observable capture, exactly as NSG would log it.
    let log_text = out.to_log();
    println!(
        "\ncaptured {} trace events ({} KiB of signaling log)",
        out.events.len(),
        log_text.len() / 1024
    );

    // The Fig. 1b-style speed timeline (one char per 5 s, x = 5G OFF).
    println!("\ndownload speed (each char = 5 s, '#' fast, '.' slow, 'x' zero):");
    let speeds: Vec<f64> = out
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Throughput { mbps, .. } => Some(*mbps),
            _ => None,
        })
        .collect();
    let line: String = speeds
        .chunks(5)
        .map(|w| {
            let avg = w.iter().sum::<f64>() / w.len() as f64;
            if avg < 1.0 {
                'x'
            } else if avg < 80.0 {
                '.'
            } else {
                '#'
            }
        })
        .collect();
    println!("  {line}");

    // Parse the log back (round-trip through the text format) and analyze.
    let events = parse_str(&log_text).expect("self-emitted logs always parse");
    let report = analyze_events(&events);
    println!("\n{}", render_report(&report));

    // Serving-cell-set sequence, the paper's Appendix-B view.
    println!("serving-cell-set sequence (first 12 transitions):");
    let tl = &report.analysis.timeline;
    for s in tl.samples.iter().take(12) {
        println!("  t = {:>6.1}s  {}", s.t.secs_f64(), tl.sets[s.id]);
    }
}
