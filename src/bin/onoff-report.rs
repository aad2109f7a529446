//! `onoff-report` — analyze NSG-style signaling logs from the command line.
//!
//! ```text
//! onoff-report capture.txt              # human-readable loop report
//! onoff-report --csv timeline capture.txt
//! onoff-report --csv transitions capture.txt
//! onoff-report --csv cycles capture.txt
//! onoff-report --stats capture.txt      # message/sample counters
//! cat capture.txt | onoff-report -      # read from stdin
//! ```

use std::io::Read;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: onoff-report [--csv timeline|transitions|cycles] [--stats] <log-file|->");
    ExitCode::from(2)
}

/// The CSV tables `--csv` can print.
enum Csv {
    Timeline,
    Transitions,
    Cycles,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv: Option<Csv> = None;
    let mut stats = false;
    let mut path: Option<String> = None;
    let mut it = args.into_iter();
    // Every argument is checked here, before the capture is read.
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => match it.next().as_deref() {
                Some("timeline") => csv = Some(Csv::Timeline),
                Some("transitions") => csv = Some(Csv::Transitions),
                Some("cycles") => csv = Some(Csv::Cycles),
                Some(other) => {
                    eprintln!("unknown CSV kind {other:?} (timeline|transitions|cycles)");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--stats" => stats = true,
            "-h" | "--help" => return usage(),
            _ if path.is_none() => path = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    if stats && csv.is_some() {
        eprintln!("error: --stats and --csv cannot be combined");
        return usage();
    }

    let text = if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("error: cannot read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let events = match onoff_nsglog::parse_str(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if stats {
        let s = onoff_nsglog::stats::stats(&events);
        println!(
            "events: {} over {:.1} s; {} RRC messages kinds; {} meas results; {} cells; \
             {} throughput samples; {} MM events",
            s.events,
            s.span_ms as f64 / 1000.0,
            s.by_message.len(),
            s.meas_results,
            s.distinct_cells,
            s.throughput_samples,
            s.mm_events
        );
        for (name, n) in &s.by_message {
            println!("  {name}: {n}");
        }
        return ExitCode::SUCCESS;
    }

    let report = fiveg_onoff::analyze_events(&events);
    match csv {
        None => print!("{}", fiveg_onoff::render_report(&report)),
        Some(Csv::Timeline) => print!("{}", onoff_detect::export::timeline_csv(&report.analysis)),
        Some(Csv::Transitions) => {
            print!(
                "{}",
                onoff_detect::export::transitions_csv(&report.analysis.off_transitions)
            )
        }
        Some(Csv::Cycles) => {
            print!(
                "{}",
                onoff_detect::export::cycles_csv(&report.analysis.loops)
            )
        }
    }
    ExitCode::SUCCESS
}
