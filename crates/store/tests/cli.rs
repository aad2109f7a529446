//! Script-safety contract of the `nsgstore` binary: corrupt or refused
//! inputs must produce a nonzero exit code and a stderr diagnostic — under
//! `--fail-fast` for *any* damage, and under the default lenient policy
//! for *total* loss (partial loss stays a warning + exit 0, matching the
//! library's lossy contract).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use onoff_rrc::trace::{Timestamp, TraceEvent};
use onoff_store::{encode_events_with, EncodeOptions};

fn nsgstore() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nsgstore"))
}

fn run(args: &[&str]) -> Output {
    nsgstore().args(args).output().expect("spawn nsgstore")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nsgstore-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir.join(name)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const GOOD_TEXT: &str = "00:00:01.000 Throughput = 1.5 Mbps\n\
                         00:00:02.000 Throughput = 2.0 Mbps\n";

fn write_good_store(path: &Path) {
    std::fs::write(tmp("good.txt"), GOOD_TEXT).unwrap();
    let out = run(&[
        "encode",
        tmp("good.txt").to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "encode failed: {}", stderr_of(&out));
}

#[test]
fn roundtrip_exits_zero() {
    let ostr = tmp("rt.ostr");
    write_good_store(&ostr);
    let txt = tmp("rt.txt");
    let out = run(&["decode", ostr.to_str().unwrap(), txt.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(std::fs::read_to_string(&txt).unwrap(), GOOD_TEXT);
}

#[test]
fn usage_error_exits_two() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn missing_input_exits_nonzero_with_diagnostic() {
    for args in [
        &["encode", "/nonexistent/in.txt", "/tmp/out.ostr"][..],
        &["decode", "/nonexistent/in.ostr", "/tmp/out.txt"][..],
        &["info", "/nonexistent/in.ostr"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "args: {args:?}");
        assert!(
            stderr_of(&out).contains("error:"),
            "args {args:?} stderr: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn fail_fast_decode_of_corrupt_store_exits_nonzero() {
    let ostr = tmp("ff.ostr");
    write_good_store(&ostr);
    let mut bytes = std::fs::read(&ostr).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&ostr, &bytes).unwrap();

    for cmd in ["decode", "info"] {
        let out = if cmd == "decode" {
            run(&[
                "--fail-fast",
                cmd,
                ostr.to_str().unwrap(),
                tmp("ff.txt").to_str().unwrap(),
            ])
        } else {
            run(&["--fail-fast", cmd, ostr.to_str().unwrap()])
        };
        assert_eq!(out.status.code(), Some(1), "{cmd} must refuse corruption");
        assert!(
            stderr_of(&out).contains("error:"),
            "{cmd} needs a diagnostic"
        );
    }
}

#[test]
fn fail_fast_encode_of_malformed_text_exits_nonzero() {
    let txt = tmp("bad.txt");
    std::fs::write(&txt, "not an nsg record\n").unwrap();
    let out = run(&[
        "--fail-fast",
        "encode",
        txt.to_str().unwrap(),
        tmp("bad.ostr").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr_of(&out),
        format!(
            "error: parse error in {}: line 1: malformed HH:MM:SS.mmm timestamp: \"not an nsg record\"\n",
            txt.to_str().unwrap()
        )
    );
}

#[test]
fn lenient_total_loss_is_refused_not_silently_empty() {
    // Text where every record is malformed: lenient encode must refuse.
    let txt = tmp("hopeless.txt");
    std::fs::write(&txt, "garbage one\ngarbage two\n").unwrap();
    let out_path = tmp("hopeless.ostr");
    let out = run(&["encode", txt.to_str().unwrap(), out_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("all 2 text records are malformed"));
    assert!(!out_path.exists(), "refused encode must not write output");

    // A store whose every segment is corrupt: lenient decode must refuse.
    let ostr = tmp("allgone.ostr");
    write_good_store(&ostr);
    let mut bytes = std::fs::read(&ostr).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff; // single segment -> total loss
    std::fs::write(&ostr, &bytes).unwrap();
    let txt_out = tmp("allgone.txt");
    let out = run(&["decode", ostr.to_str().unwrap(), txt_out.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("records lost to corruption"));
    assert!(!txt_out.exists(), "refused decode must not write output");
}

#[test]
fn lenient_partial_loss_warns_but_succeeds() {
    // Multi-segment store with exactly one corrupt segment: the lenient
    // path keeps the survivors, warns on stderr, and exits 0.
    let events: Vec<TraceEvent> = (0..128)
        .map(|k| TraceEvent::Throughput {
            t: Timestamp(k * 1_000),
            mbps: k as f64,
        })
        .collect();
    let bytes = encode_events_with(
        &events,
        &EncodeOptions {
            segment_records: 32,
        },
    );
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 8;
    corrupt[last] ^= 0x01; // land in the final segment's payload
    let ostr = tmp("partial.ostr");
    std::fs::write(&ostr, &corrupt).unwrap();
    let txt_out = tmp("partial.txt");
    let out = run(&["decode", ostr.to_str().unwrap(), txt_out.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "partial loss is not a refusal: {}",
        stderr_of(&out)
    );
    assert!(stderr_of(&out).contains("warning:"));
    let decoded = std::fs::read_to_string(&txt_out).unwrap();
    assert!(decoded.lines().count() >= 96, "survivors must be emitted");
}
