//! `nsgstore` — convert between text nsglog traces and the binary store.
//!
//! ```text
//! nsgstore encode capture.txt capture.ostr    # text → binary
//! nsgstore decode capture.ostr capture.txt    # binary → text
//! nsgstore info capture.ostr                  # header + integrity summary
//! ```
//!
//! `encode` parses leniently (`SkipAndCount`): malformed text records are
//! dropped with a count on stderr, matching the campaign quarantine path.
//! `decode` and `info` skip corrupt segments the same way; pass
//! `--fail-fast` to turn either kind of damage into a hard error.
//!
//! Exit codes are script-safe: `0` success (possibly with loss warnings on
//! stderr), `1` refused input — unreadable files, any damage under
//! `--fail-fast`, or **total** loss under the lenient policies (a capture
//! where every record is lost produces no output file, a diagnostic on
//! stderr, and a nonzero exit instead of silently succeeding empty) —
//! and `2` usage errors.

use std::io::Write;
use std::process::ExitCode;

use onoff_nsglog::RecoveryPolicy;
use onoff_store::StoreReader;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nsgstore [--fail-fast] encode <log.txt> <out.ostr>\n\
         \x20      nsgstore [--fail-fast] decode <in.ostr> <out.txt>\n\
         \x20      nsgstore [--fail-fast] info <in.ostr>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut policy = RecoveryPolicy::SkipAndCount;
    args.retain(|a| {
        if a == "--fail-fast" {
            policy = RecoveryPolicy::FailFast;
            false
        } else {
            true
        }
    });
    match args.first().map(String::as_str) {
        Some("encode") if args.len() == 3 => encode(&args[1], &args[2], policy),
        Some("decode") if args.len() == 3 => decode(&args[1], &args[2], policy),
        Some("info") if args.len() == 2 => info(&args[1], policy),
        _ => usage(),
    }
}

fn encode(input: &str, output: &str, policy: RecoveryPolicy) -> ExitCode {
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    let (events, stats) = onoff_nsglog::parse_str_lossy(&text, policy);
    if let (RecoveryPolicy::FailFast, Some(e)) = (policy, &stats.first_error) {
        return fail(&format!("parse error in {input}: {e}"));
    }
    if stats.parsed == 0 && stats.records > 0 {
        // Total loss is a refusal, not a warning: a script piping a
        // hopeless capture through `encode` must not see success and an
        // empty store file.
        return fail(&format!(
            "{input}: all {} text records are malformed ({})",
            stats.records,
            stats
                .first_error
                .as_ref()
                .map_or_else(|| "no first error recorded".to_string(), |e| e.to_string())
        ));
    }
    if stats.skipped > 0 {
        eprintln!(
            "warning: {} of {} text records skipped as malformed",
            stats.skipped, stats.records
        );
    }
    let bytes = onoff_store::encode_events(&events);
    if let Err(e) = std::fs::write(output, &bytes) {
        return fail(&format!("cannot write {output}: {e}"));
    }
    eprintln!(
        "{}: {} events, {} bytes (text was {})",
        output,
        events.len(),
        bytes.len(),
        text.len()
    );
    ExitCode::SUCCESS
}

fn decode(input: &str, output: &str, policy: RecoveryPolicy) -> ExitCode {
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    let reader = match StoreReader::new(&bytes) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{input}: {e}")),
    };
    let (events, stats) = match reader.read_all(policy) {
        Ok(out) => out,
        Err(e) => return fail(&format!("{input}: {e}")),
    };
    if stats.decoded == 0 && stats.records > 0 {
        // Same refusal as `encode`: every segment lost means there is
        // nothing to emit, and exit 0 plus an empty file would hide it.
        return fail(&format!(
            "{input}: all {} records lost to corruption ({})",
            stats.records,
            stats
                .first_error
                .as_ref()
                .map_or_else(|| "no first error recorded".to_string(), |e| e.to_string())
        ));
    }
    if !stats.is_clean() {
        eprintln!("warning: {stats}");
    }
    let file = match std::fs::File::create(output) {
        Ok(f) => f,
        Err(e) => return fail(&format!("cannot create {output}: {e}")),
    };
    let mut out = std::io::BufWriter::new(file);
    let mut record = String::new();
    let written = events.iter().try_for_each(|ev| {
        record.clear();
        onoff_nsglog::emit_event(ev, &mut record).expect("fmt::Write to a String is infallible");
        out.write_all(record.as_bytes())
    });
    if let Err(e) = written.and_then(|()| out.flush()) {
        return fail(&format!("cannot write {output}: {e}"));
    }
    eprintln!("{}: {} events", output, events.len());
    ExitCode::SUCCESS
}

fn info(input: &str, policy: RecoveryPolicy) -> ExitCode {
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {input}: {e}")),
    };
    let reader = match StoreReader::new(&bytes) {
        Ok(r) => r,
        Err(e) => return fail(&format!("{input}: {e}")),
    };
    println!(
        "{input}: {} bytes, {} records in {} segments, {} cells interned",
        bytes.len(),
        reader.records(),
        reader.segment_count(),
        reader.cells().len()
    );
    match reader.read_all(policy) {
        Ok((_, stats)) => {
            println!("integrity: {stats}");
            if let Some(e) = &stats.first_error {
                println!("first error: {e}");
            }
        }
        Err(e) => return fail(&format!("{input}: {e}")),
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}
