//! The repository benchmark: end-to-end and per-layer numbers for the
//! paper-scale campaign, its dirty-capture variant, and the fleet ingest
//! daemon over a unix socket.
//!
//! ```text
//! onoff-benchmark --workload campaign|chaos-campaign|serve-socket|all
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `all` runs each workload in a process of its own. `--seconds` is each
//! workload's measuring window; it defaults to `run_seconds` of
//! `BENCHMARK.json`, the value a runner following that file passes.
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! and allocation counting off. `--trace 1` re-drives the workload's
//! work on one thread with a span around each public call into a layer,
//! and reports the per-layer metrics. Either way the workload's outputs are
//! checked first; the last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`), and a failed check
//! exits with status 1. See `README.md` beside this crate for the
//! workloads and every metric's definition.

mod alloc;
mod campaign;
mod report;
mod rss;
mod serve;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The repository's master seed.
const DEFAULT_SEED: u64 = 0x050FF;

/// The measuring window, s: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 30;

/// Where a run keeps its socket and span dumps, relative to the
/// working directory.
const RUN_DIR: &str = ".bench_run";

const WORKLOADS: [&str; 3] = ["campaign", "chaos-campaign", "serve-socket"];

/// Parsed command line.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub run_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("onoff-benchmark: {msg}");
    eprintln!(
        "usage: onoff-benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Writes the pass's spans beside the socket and notes where.
pub fn write_spans(opts: &Opts, rep: &mut report::Report, tracer: &trace::Tracer) {
    let path = opts
        .run_dir
        .join(format!("spans-{}-{}.tsv", rep.workload, opts.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => rep.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => rep.note(format!("spans not written to {}: {e}", path.display())),
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        run_dir: PathBuf::from(RUN_DIR),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                opts.seed = parse_seed(&value()).unwrap_or_else(|| usage("--seed needs a u64"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload == "all" {
        run_each(&opts);
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!(
            "onoff-benchmark: cannot create {}: {e}",
            opts.run_dir.display()
        );
        std::process::exit(1);
    }
    println!(
        "seed {:#x}, {} s per workload, trace {}, {} cores available",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut rep = match workload.as_str() {
        "campaign" => campaign::run(&opts, false),
        "chaos-campaign" => campaign::run(&opts, true),
        _ => serve::run(&opts),
    };
    let (keys, missing_is_zero) = if opts.trace {
        (&report::PER_LAYER[..], true)
    } else {
        (&report::END_TO_END[..], false)
    };
    if !rep.print(keys, missing_is_zero) {
        std::process::exit(1);
    }
}

/// `--workload all`: runs each workload in a process of its own, as a
/// single-workload run does, so memory one workload leaves allocated
/// does not count toward the next one's `peak_rss_mb`. Exits 1 if any
/// of them failed.
fn run_each(opts: &Opts) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("onoff-benchmark: cannot find its own executable: {e}");
        std::process::exit(1);
    });
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
