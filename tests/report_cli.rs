//! The `onoff-report` binary end to end: every output mode on a capture
//! with a persistent loop and on one without, stdin input, and the exit
//! codes of a parse error (1) and of usage errors (2), which are found
//! before the capture is read. Expected stdout is pinned byte for byte
//! under `tests/fixtures/onoff-report/`.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Output modes: the fixture suffix each one's stdout is pinned under,
/// and the flags that select it.
const MODES: [(&str, &[&str]); 5] = [
    ("report.txt", &[]),
    ("timeline.csv", &["--csv", "timeline"]),
    ("transitions.csv", &["--csv", "transitions"]),
    ("cycles.csv", &["--csv", "cycles"]),
    ("stats.txt", &["--stats"]),
];

fn onoff_report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_onoff-report"))
}

fn run(args: &[&str]) -> Output {
    onoff_report()
        .args(args)
        .output()
        .expect("spawn onoff-report")
}

/// A capture log from the detector's golden fixtures.
fn capture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/detect/tests/fixtures")
        .join(name)
}

fn expected(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/onoff-report")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stdout_of(out: Output) -> String {
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn check_every_mode(log: &str) {
    let path = capture(&format!("{log}.log"));
    for (suffix, flags) in MODES {
        let mut args = flags.to_vec();
        args.push(path.to_str().unwrap());
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{log} {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stderr.is_empty(), "{log} {flags:?}");
        assert_eq!(
            stdout_of(out),
            expected(&format!("{log}.{suffix}")),
            "{log} {flags:?}"
        );
    }
}

#[test]
fn persistent_loop_in_every_mode() {
    check_every_mode("clean");
    assert!(expected("clean.report.txt").contains("loop (persistent)"));
}

#[test]
fn no_loop_in_every_mode() {
    check_every_mode("reordered");
    assert!(expected("reordered.report.txt").contains("no 5G ON-OFF loop detected"));
}

#[test]
fn truncated_capture_is_a_parse_error() {
    let out = run(&[capture("truncated.log").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "parse error: line 11: unterminated sCellToAddModList block: \
         \"00:00:01.650 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\"\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn dash_reads_the_capture_from_stdin() {
    let mut child = onoff_report()
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn onoff-report");
    let log = std::fs::read(capture("clean.log")).unwrap();
    child.stdin.take().unwrap().write_all(&log).unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout_of(out), expected("clean.report.txt"));
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "usage: onoff-report [--csv timeline|transitions|cycles] [--stats] <log-file|->\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_csv_kind_is_a_usage_error_before_reading() {
    // The capture does not exist: the kind must be refused first.
    let out = run(&["--csv", "bogus", "/nonexistent.log"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown CSV kind \"bogus\" (timeline|transitions|cycles)\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn stats_with_csv_is_a_usage_error() {
    let out = run(&[
        "--stats",
        "--csv",
        "cycles",
        capture("clean.log").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .starts_with("error: --stats and --csv cannot be combined\n"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
}
