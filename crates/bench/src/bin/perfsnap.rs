//! `perfsnap` — fixed-workload performance snapshot for the analysis
//! pipeline, and the workspace's perf gate.
//!
//! Measures wall-clock throughput (events/sec, bytes/sec) and allocation
//! counts (allocs/event) for the hot workloads the campaign and the
//! serving tier exercise millions of times:
//!
//! * `parse`          — NSG log text → `Vec<TraceEvent>` (`parse_str`)
//! * `parse-lossy`    — chaos-corrupted log text through the recovering
//!   parser (`parse_str_lossy_into`, `SkipAndCount`) into one reused
//!   buffer; its events are record attempts (`ParseStats::records`)
//! * `emit`           — events → NSG log text (`emit`)
//! * `extract`        — events → CS timeline (`extract_timeline`)
//! * `detect`         — events → full `RunAnalysis` (`analyze_trace`)
//! * `stream-feed`    — events through the incremental `TraceAnalyzer`
//! * `stream-feed-8x` — the same over an 8× longer trace: read against
//!   `stream-feed`, it shows how per-event cost grows with trace length
//! * `predict`        — events through a warm `OnlineScorer` (§6 online
//!   scoring): must run at exactly 0 allocs/event
//! * `sim-step`       — one stationary run on the table-driven path
//!   (`simulate`): the radio sweep and engine step every campaign run pays
//! * `fused-campaign` — a one-run-per-location campaign (`run_campaign`)
//! * `store-encode`   — events → binary columnar store (`encode_events`)
//! * `store-replay`   — binary store replayed straight into the streaming
//!   core (`StoreReader::replay`): the re-analysis path that replaces
//!   `parse` + `stream-feed` for persisted traces
//! * `serve-ingest`   — 100k concurrent sessions fed through the serving
//!   tier's session table (in-process): the fleet daemon's steady-state
//!   routing + per-session analysis cost
//!
//! Every workload is deterministic (fixed seeds, fixed tiling), so the
//! allocation counts are exactly reproducible and the wall numbers are
//! comparable across commits on the same machine.
//!
//! Usage:
//!
//! ```text
//! perfsnap [--out FILE]     # snapshot JSON destination (default BENCH_PR10.json)
//!          [--check FILE]   # gate against baseline FILE, exit 1 on failure
//! ```
//!
//! Each workload runs one unmetered warm-up pass and then `N >= 5`
//! metered repetitions; the reported numbers are the median-wall
//! repetition's (alloc count included), which is what a steady-state
//! deployment sees — min-of-N systematically reported lucky scheduling
//! windows on shared machines.
//!
//! The snapshot schema (`perfsnap/v2`) is one JSON object with a
//! `workloads` array; each entry carries `events`, `bytes`, `wall_ms`,
//! `events_per_sec`, `bytes_per_sec`, `allocs`, `allocs_per_event`,
//! `repetitions`, and — with `--check` — the baseline's numbers under
//! `"before"`. `--check` fails when a workload has no baseline entry,
//! when its events/sec drops below half the baseline's or its
//! allocs/event rises above twice the baseline's (at least 0.5), or when
//! any absolute floor in `verdict` is broken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use onoff_campaign::areas::area_a1;
use onoff_campaign::{CampaignConfig, ParallelismConfig};
use onoff_detect::cellset::extract_timeline;
use onoff_detect::{analyze_trace, TraceAnalyzer};
use onoff_nsglog::{parse_str_lossy_into, RecoveryPolicy};
use onoff_policy::{op_t_policy, PhoneModel};
use onoff_predict::{OnlineScorer, ScoringConfig};
use onoff_rrc::trace::TraceEvent;
use onoff_serve::{ServeConfig, ServeEngine, SessionMeta};
use onoff_sim::{chaos_text, simulate, ChaosConfig, SimConfig};
use onoff_store::StoreReader;

/// Counts every heap allocation, so each workload reports allocs/event.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result plus (allocation count, wall seconds).
fn metered<T>(f: impl FnOnce() -> T) -> (T, u64, f64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (out, allocs, wall)
}

/// One workload's measured numbers: the median-ranked repetition, with
/// the repetition count it was drawn from.
#[derive(Debug, Clone, Copy)]
struct Sample {
    events: u64,
    bytes: u64,
    wall_s: f64,
    allocs: u64,
    repetitions: u32,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / (self.events.max(1)) as f64
    }
}

/// Measures `f` (which returns the processed (events, bytes)) `reps`
/// times after one unmetered warm-up pass, reporting the median-wall
/// repetition (its alloc count travels with it). The warm-up keeps
/// lazily-built structures — allocator arenas, page faults, file-backed
/// code — out of every measured rep; the median filters shared-machine
/// noise in *both* directions, where the old min-of-N systematically
/// reported a lucky scheduling window no steady-state deployment sees.
fn run_workload(reps: u32, mut f: impl FnMut() -> (u64, u64)) -> Sample {
    let reps = reps.max(1);
    std::hint::black_box(f());
    let mut samples: Vec<Sample> = (0..reps)
        .map(|_| {
            let ((events, bytes), allocs, wall_s) = metered(&mut f);
            Sample {
                events,
                bytes,
                wall_s,
                allocs,
                repetitions: reps,
            }
        })
        .collect();
    samples.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    samples[samples.len() / 2]
}

/// The fixed simulated run every in-process workload is built from.
fn sample_events() -> Vec<TraceEvent> {
    let area = area_a1(0x050FF);
    let cfg = SimConfig::stationary(
        op_t_policy(),
        PhoneModel::OnePlus12R,
        area.env.clone(),
        area.locations[0],
        42,
    );
    simulate(&cfg).events
}

/// Tiles a trace `k` times, shifting each copy past the previous span, so
/// parse/extract workloads run long enough to time reliably.
fn tile(events: &[TraceEvent], k: u64) -> Vec<TraceEvent> {
    let span = events.last().map_or(0, |e| e.t().millis()) + 1_000;
    let mut out = Vec::with_capacity(events.len() * k as usize);
    for i in 0..k {
        for ev in events {
            out.push(ev.with_t(onoff_rrc::trace::Timestamp(ev.t().millis() + i * span)));
        }
    }
    out
}

/// Size comparison between the two trace representations, reported as a
/// top-level `"store"` block in the snapshot.
#[derive(Debug, Clone, Copy)]
struct StoreInfo {
    text_bytes: u64,
    binary_bytes: u64,
}

impl StoreInfo {
    fn compression_ratio(&self) -> f64 {
        self.text_bytes as f64 / (self.binary_bytes.max(1)) as f64
    }
}

/// Feeds `events` through a fresh incremental core and finishes it: the
/// body of the `stream-feed` workloads.
fn stream_feed(events: &[TraceEvent]) -> (u64, u64) {
    let mut core = TraceAnalyzer::new();
    for ev in events {
        core.feed(ev);
    }
    let analysis = core.finish();
    std::hint::black_box(analysis.loops.len());
    (events.len() as u64, 0)
}

fn measure() -> (Vec<(&'static str, Sample)>, StoreInfo) {
    let base = sample_events();
    let events = tile(&base, 4);
    let text = onoff_nsglog::emit(&events);
    let n = events.len() as u64;
    let bytes = text.len() as u64;

    let parse = run_workload(5, || {
        let parsed = onoff_nsglog::parse_str(&text).expect("workload text parses");
        (parsed.len() as u64, bytes)
    });
    // The campaign's chaos stage applies `ChaosConfig::default()` (through
    // `ChaosOptions::default()`). This report-heavy trace loses about half
    // of its record attempts to it, more than the chaos campaign averages.
    let dirty = chaos_text(&text, &ChaosConfig::default(), 0xD187).0;
    let mut lossy = Vec::new();
    let parse_lossy = run_workload(5, || {
        let stats = parse_str_lossy_into(&dirty, RecoveryPolicy::SkipAndCount, &mut lossy);
        (stats.records as u64, dirty.len() as u64)
    });
    let emit = run_workload(5, || {
        let emitted = onoff_nsglog::emit(&events);
        (n, emitted.len() as u64)
    });
    let extract = run_workload(5, || {
        let tl = extract_timeline(&events);
        std::hint::black_box(tl.samples.len());
        (n, 0)
    });
    let detect = run_workload(5, || {
        let analysis = analyze_trace(&events);
        std::hint::black_box(analysis.loops.len());
        (n, 0)
    });
    let stream = run_workload(5, || stream_feed(&events));
    let long = tile(&base, 32);
    let stream_8x = run_workload(5, || stream_feed(&long));
    let predict = {
        // Warm pass outside the metered region: the first traversal grows
        // the measurement table and per-cell reservoirs once. After
        // `reset_session` the capacity is retained, so re-scoring the same
        // trace must allocate nothing — the 0 allocs/event budget CI pins.
        let mut scorer = OnlineScorer::new(ScoringConfig::default());
        for ev in &events {
            scorer.feed(ev);
        }
        run_workload(5, || {
            scorer.reset_session();
            for ev in &events {
                scorer.feed(ev);
            }
            std::hint::black_box(scorer.scored());
            (n, 0)
        })
    };
    let sim_cfg = {
        let area = area_a1(0x050FF);
        let mut cfg = SimConfig::stationary(
            op_t_policy(),
            PhoneModel::OnePlus12R,
            area.env.clone(),
            area.locations[0],
            42,
        );
        cfg.duration_ms = 300_000;
        cfg.meas_period_ms = 1000;
        cfg
    };
    let sim_step = run_workload(5, || {
        let out = simulate(&sim_cfg);
        (out.events.len() as u64, 0)
    });
    let store_bytes = onoff_store::encode_events(&events);
    // The store workloads finish in ~1-2ms, so their median needs more
    // reps than the tens-of-ms workloads to filter scheduler noise.
    let store_encode = run_workload(21, || {
        let encoded = onoff_store::encode_events(&events);
        std::hint::black_box(encoded.len());
        (n, encoded.len() as u64)
    });
    let store_replay = run_workload(21, || {
        let reader = StoreReader::new(&store_bytes).expect("freshly encoded store is valid");
        let mut core = TraceAnalyzer::new();
        reader
            .replay(RecoveryPolicy::SkipAndCount, &mut core)
            .expect("lossy replay never errors");
        let analysis = core.finish();
        std::hint::black_box(analysis.loops.len());
        (n, store_bytes.len() as u64)
    });
    // Fleet ingest fan-out: 100k concurrent sessions, each fed a small
    // burst through the serving tier's session table (in-process — the
    // workload measures routing + per-session analyzer cost, not socket
    // syscalls). The budget is wide open so nothing spills; eviction cost
    // is the chaos suites' concern, steady-state ingest is the number the
    // perf floor pins.
    let serve_ingest = run_workload(5, || {
        let engine = ServeEngine::new(ServeConfig {
            global_budget: 16 << 30,
            session_budget: 64 << 20,
            shards: 64,
            ..ServeConfig::default()
        });
        let mut fed = 0u64;
        let window = 12usize;
        let mut burst: Vec<TraceEvent> = Vec::with_capacity(window);
        for sid in 0..100_000u64 {
            let start = (sid as usize * 7) % (base.len() - window);
            burst.clear();
            burst.extend_from_slice(&base[start..start + window]);
            fed += engine
                .table()
                .ingest_drain(sid, &mut burst, SessionMeta::default())
                .expect("wide-open budget never sheds");
        }
        std::hint::black_box(engine.table().bytes_used());
        (fed, 0)
    });
    let campaign = run_workload(5, || {
        let cfg = CampaignConfig {
            seed: 0x050FF,
            runs_a1: 1,
            runs_other: 1,
            device: PhoneModel::OnePlus12R,
            duration_ms: 60_000,
            parallelism: ParallelismConfig::with_workers(1),
            chaos: None,
        };
        let ds = onoff_campaign::run_campaign(&cfg);
        (ds.stats.events_processed, 0)
    });

    let info = StoreInfo {
        text_bytes: bytes,
        binary_bytes: store_bytes.len() as u64,
    };
    (
        vec![
            ("parse", parse),
            ("parse-lossy", parse_lossy),
            ("emit", emit),
            ("extract", extract),
            ("detect", detect),
            ("stream-feed", stream),
            ("stream-feed-8x", stream_8x),
            ("predict", predict),
            ("sim-step", sim_step),
            ("fused-campaign", campaign),
            ("store-encode", store_encode),
            ("store-replay", store_replay),
            ("serve-ingest", serve_ingest),
        ],
        info,
    )
}

/// The prior numbers for one workload, as loaded from a snapshot file.
#[derive(Debug, Clone, Copy)]
struct Prior {
    events_per_sec: f64,
    bytes_per_sec: f64,
    allocs_per_event: f64,
}

fn load_priors(path: &str) -> Vec<(String, Prior)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    let workloads = v
        .get("workloads")
        .and_then(|w| w.as_array())
        .unwrap_or_else(|| die(&format!("{path}: no `workloads` array")));
    workloads
        .iter()
        .filter_map(|w| {
            let name = w.get("name")?.as_str()?.to_string();
            let f = |key: &str| w.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
            Some((
                name,
                Prior {
                    events_per_sec: f("events_per_sec"),
                    bytes_per_sec: f("bytes_per_sec"),
                    allocs_per_event: f("allocs_per_event"),
                },
            ))
        })
        .collect()
}

fn die(msg: &str) -> ! {
    eprintln!("perfsnap: {msg}");
    std::process::exit(2);
}

/// Renders the snapshot JSON (stable key order, two-space indent).
fn render(
    results: &[(&'static str, Sample)],
    info: StoreInfo,
    priors: &[(String, Prior)],
) -> String {
    let mut out = String::from("{\n  \"schema\": \"perfsnap/v2\",\n");
    out.push_str(&format!(
        "  \"store\": {{\"text_bytes\": {}, \"binary_bytes\": {}, \"compression_ratio\": {:.3}}},\n",
        info.text_bytes,
        info.binary_bytes,
        info.compression_ratio(),
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, s)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"events\": {}, \"bytes\": {}, \"wall_ms\": {:.3}, \
             \"events_per_sec\": {:.0}, \"bytes_per_sec\": {:.0}, \"allocs\": {}, \
             \"allocs_per_event\": {:.3}, \"repetitions\": {}",
            s.events,
            s.bytes,
            s.wall_s * 1e3,
            s.events_per_sec(),
            s.bytes_per_sec(),
            s.allocs,
            s.allocs_per_event(),
            s.repetitions,
        ));
        if let Some((_, p)) = priors.iter().find(|(n, _)| n == name) {
            out.push_str(&format!(
                ", \"before\": {{\"events_per_sec\": {:.0}, \"bytes_per_sec\": {:.0}, \
                 \"allocs_per_event\": {:.3}}}",
                p.events_per_sec, p.bytes_per_sec, p.allocs_per_event,
            ));
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Regression factor `--check` allows against the baseline: events/sec
/// may fall to half the baseline's, allocs/event may rise to twice it.
/// Alloc counts are deterministic, so the factor is generous headroom for
/// intentional small changes while still catching a per-event leak; the
/// wall clock gets the same factor for shared-runner noise.
const THRESHOLD: f64 = 2.0;

/// The least allocs/event budget `--check` grants, so a workload whose
/// baseline is near zero is not failed by a handful of allocations.
const MIN_ALLOC_BUDGET: f64 = 0.5;

/// Every reason `results` fails the gate against `baseline`, one line
/// each, `workload: detail`; empty when it passes.
///
/// Beyond the baseline comparison, absolute floors pin what a relative
/// gate would let drift:
/// * `fused-campaign` clears 300k events/s, the pooled pipeline's floor;
/// * `sim-step` and `fused-campaign` hold the pooled pipeline to
///   ≤ 1.0 allocs/event;
/// * a warm `predict` session makes exactly 0 allocations;
/// * `store-replay` stays ≥ 5× `parse` and ≥ 1M events/s, and the store
///   compresses the text ≥ 2×;
/// * `serve-ingest` feeds ≥ 1M events (100k sessions × 12 events) at
///   ≥ 150k events/s.
fn verdict(
    results: &[(&'static str, Sample)],
    info: StoreInfo,
    baseline: &[(String, Prior)],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, s) in results {
        let Some((_, p)) = baseline.iter().find(|(n, _)| n == name) else {
            failures.push(format!("{name}: no baseline entry"));
            continue;
        };
        if s.events_per_sec() < p.events_per_sec / THRESHOLD {
            failures.push(format!(
                "{name}: events/sec {:.0} < baseline {:.0} / {THRESHOLD}",
                s.events_per_sec(),
                p.events_per_sec
            ));
        }
        if s.allocs_per_event() > (p.allocs_per_event * THRESHOLD).max(MIN_ALLOC_BUDGET) {
            failures.push(format!(
                "{name}: allocs/event {:.3} > baseline {:.3} x {THRESHOLD} (at least {MIN_ALLOC_BUDGET})",
                s.allocs_per_event(),
                p.allocs_per_event
            ));
        }
    }

    // A workload missing from `results` fails every floor on it.
    let sample = |name: &str| results.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
    let eps = |name: &str| sample(name).map_or(0.0, |s| s.events_per_sec());
    let ape = |name: &str| sample(name).map_or(f64::INFINITY, |s| s.allocs_per_event());
    let (fused, parse, replay) = (eps("fused-campaign"), eps("parse"), eps("store-replay"));
    let (sim_ape, fused_ape) = (ape("sim-step"), ape("fused-campaign"));
    let predict_allocs = sample("predict").map_or(u64::MAX, |s| s.allocs);
    let (serve, serve_events) = (
        eps("serve-ingest"),
        sample("serve-ingest").map_or(0, |s| s.events),
    );
    let ratio = info.compression_ratio();
    let floors = [
        (
            fused >= 300_000.0,
            format!("fused-campaign: {fused:.0} events/s below the 300000 floor"),
        ),
        (
            sim_ape <= 1.0,
            format!("sim-step: {sim_ape:.3} allocs/event above the 1.0 budget"),
        ),
        (
            fused_ape <= 1.0,
            format!("fused-campaign: {fused_ape:.3} allocs/event above the 1.0 budget"),
        ),
        (
            predict_allocs == 0,
            format!("predict: {predict_allocs} allocations in a warm session, not 0"),
        ),
        (
            replay >= 5.0 * parse,
            format!("store-replay: {replay:.0} events/s under 5x parse's {parse:.0}"),
        ),
        (
            replay >= 1_000_000.0,
            format!("store-replay: {replay:.0} events/s below the 1000000 floor"),
        ),
        (
            ratio >= 2.0,
            format!("store: compression {ratio:.2}x below the 2x floor"),
        ),
        (
            serve_events >= 1_000_000,
            format!("serve-ingest: fed {serve_events} events, under 1000000"),
        ),
        (
            serve >= 150_000.0,
            format!("serve-ingest: {serve:.0} events/s below the 150000 floor"),
        ),
    ];
    failures.extend(
        floors
            .into_iter()
            .filter_map(|(ok, msg)| (!ok).then_some(msg)),
    );
    failures
}

fn main() {
    let mut out_path = String::from("BENCH_PR10.json");
    let mut check_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let baseline = check_path.as_deref().map(load_priors).unwrap_or_default();

    let (results, info) = measure();
    for (name, s) in &results {
        eprintln!(
            "{name:>15}: {:>10.0} events/s  {:>12.0} bytes/s  {:>8.2} allocs/event  ({:.1} ms)",
            s.events_per_sec(),
            s.bytes_per_sec(),
            s.allocs_per_event(),
            s.wall_s * 1e3,
        );
    }
    eprintln!(
        "{:>15}: text {} bytes -> binary {} bytes ({:.2}x)",
        "store",
        info.text_bytes,
        info.binary_bytes,
        info.compression_ratio(),
    );

    let json = render(&results, info, &baseline);
    if let Err(e) = std::fs::write(&out_path, &json) {
        die(&format!("cannot write {out_path}: {e}"));
    }
    eprintln!("wrote {out_path}");

    if check_path.is_some() {
        let failures = verdict(&results, info, &baseline);
        for f in &failures {
            eprintln!("check {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        eprintln!("check passed: baseline (threshold {THRESHOLD}x) and floors");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample of `events` at exactly `events_per_sec`.
    fn sample(events: u64, events_per_sec: f64, allocs: u64) -> Sample {
        Sample {
            events,
            bytes: 0,
            wall_s: events as f64 / events_per_sec,
            allocs,
            repetitions: 5,
        }
    }

    /// A snapshot that clears every floor, its rates spaced so that each
    /// floor can be pushed one unit past its limit without tripping the
    /// baseline comparison or another floor.
    fn snapshot() -> Vec<(&'static str, Sample)> {
        vec![
            ("parse", sample(3_596, 190_000.0, 5_991)),
            ("detect", sample(3_596, 5_500_000.0, 452)),
            ("predict", sample(3_596, 2_000_000.0, 0)),
            ("sim-step", sample(629, 300_000.0, 375)),
            ("fused-campaign", sample(10_631, 400_000.0, 10_355)),
            ("store-replay", sample(3_596, 1_500_000.0, 2_347)),
            ("serve-ingest", sample(1_200_000, 250_000.0, 2_022_681)),
        ]
    }

    const STORE: StoreInfo = StoreInfo {
        text_bytes: 4_141_660,
        binary_bytes: 588_798,
    };

    /// The baseline file `snapshot()` would have written.
    fn baseline() -> Vec<(String, Prior)> {
        snapshot()
            .into_iter()
            .map(|(name, s)| {
                let prior = Prior {
                    events_per_sec: s.events_per_sec(),
                    bytes_per_sec: s.bytes_per_sec(),
                    allocs_per_event: s.allocs_per_event(),
                };
                (name.to_string(), prior)
            })
            .collect()
    }

    /// The gate's failures with workload `name` replaced by `s`.
    fn verdict_with(name: &str, s: Sample) -> Vec<String> {
        let mut snap = snapshot();
        snap.iter_mut()
            .find(|(n, _)| *n == name)
            .expect("fixture workload")
            .1 = s;
        verdict(&snap, STORE, &baseline())
    }

    /// Asserts that workload `name` replaced by `s` fails the gate exactly
    /// once, with a failure that starts with `expected`.
    fn assert_trips(name: &str, s: Sample, expected: &str) {
        let failures = verdict_with(name, s);
        assert_eq!(failures.len(), 1, "{expected}: {failures:?}");
        assert!(
            failures[0].starts_with(expected),
            "{expected}: {failures:?}"
        );
    }

    #[test]
    fn the_baselines_own_numbers_pass() {
        assert_eq!(
            verdict(&snapshot(), STORE, &baseline()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_workload_without_a_baseline_entry_fails() {
        let mut without_detect = baseline();
        without_detect.retain(|(n, _)| n != "detect");
        let failures = verdict(&snapshot(), STORE, &without_detect);
        assert_eq!(failures, ["detect: no baseline entry"]);
    }

    #[test]
    fn events_per_sec_under_half_the_baseline_fails() {
        assert!(verdict_with("detect", sample(3_596, 2_750_001.0, 452)).is_empty());
        assert_trips(
            "detect",
            sample(3_596, 2_749_999.0, 452),
            "detect: events/sec",
        );
    }

    #[test]
    fn allocs_per_event_over_the_budget_fails() {
        // detect's baseline is 0.126 allocs/event: the 0.5 minimum budget
        // applies, 1,798 allocations over 3,596 events.
        assert!(verdict_with("detect", sample(3_596, 5_500_000.0, 1_798)).is_empty());
        assert_trips(
            "detect",
            sample(3_596, 5_500_000.0, 1_799),
            "detect: allocs/event",
        );
        // parse's baseline is 5,991 allocations: twice that is the budget.
        assert!(verdict_with("parse", sample(3_596, 190_000.0, 11_981)).is_empty());
        assert_trips(
            "parse",
            sample(3_596, 190_000.0, 11_983),
            "parse: allocs/event",
        );
    }

    #[test]
    fn each_floor_trips_alone() {
        let cases = [
            (
                "fused-campaign",
                sample(10_631, 299_999.0, 10_355),
                "fused-campaign: 299999 events/s",
            ),
            (
                "sim-step",
                sample(629, 300_000.0, 630),
                "sim-step: 1.002 allocs/event",
            ),
            (
                "fused-campaign",
                sample(10_631, 400_000.0, 10_632),
                "fused-campaign: 1.000 allocs/event",
            ),
            (
                "predict",
                sample(3_596, 2_000_000.0, 1),
                "predict: 1 allocations",
            ),
            // store-replay's 1.5M events/s under 5x parse's 300,001.
            (
                "parse",
                sample(3_596, 300_001.0, 5_991),
                "store-replay: 1500000 events/s under 5x",
            ),
            (
                "store-replay",
                sample(3_596, 999_999.0, 2_347),
                "store-replay: 999999 events/s below",
            ),
            (
                "serve-ingest",
                sample(999_999, 250_000.0, 0),
                "serve-ingest: fed 999999 events",
            ),
            (
                "serve-ingest",
                sample(1_200_000, 149_999.0, 2_022_681),
                "serve-ingest: 149999 events/s",
            ),
        ];
        for (name, s, expected) in cases {
            assert_trips(name, s, expected);
        }
        let barely_compressed = StoreInfo {
            text_bytes: 2_000_000,
            binary_bytes: 1_000_001,
        };
        let failures = verdict(&snapshot(), barely_compressed, &baseline());
        assert_eq!(failures, ["store: compression 2.00x below the 2x floor"]);
    }
}
