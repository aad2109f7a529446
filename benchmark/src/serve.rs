//! The `serve-socket` workload: a real `onoff-serve` daemon on a unix
//! socket, driven in a closed loop.
//!
//! Two client threads each hold one connection and multiplex
//! [`SLOTS`] concurrent sessions round-robin, sending one request and
//! waiting for its answer before the next. Each session streams one
//! 5-minute trace in [`FRAME_EVENTS`]-event frames — odd-numbered
//! sessions as NSG text, even-numbered ones as store blobs — with a
//! `Query` after every [`QUERY_EVERY`]th frame and `EndSession` after the
//! last; a new session then takes the slot. The traces (4 locations × 11
//! areas) are simulated from the seed and encoded into frames before
//! timing starts; the generator copies each frame into a buffer of its
//! own and patches the session id there.
//!
//! The request sequence of one pass is fixed, so the traced run replays
//! exactly that sequence in-process on one thread: untraced through
//! `ServeEngine::handle`, as the daemon's workers call it, and traced
//! through the calls beneath it, with a span around each.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use onoff_campaign::all_areas;
use onoff_detect::{ScoringConfig, TraceAnalyzer};
use onoff_nsglog::RecoveryPolicy;
use onoff_policy::{policy_for, PhoneModel};
use onoff_predict::OnlineScorer;
use onoff_radio::noise::hash_words;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::protocol::SID_OFFSET;
use onoff_serve::{
    Client, Daemon, DaemonConfig, FleetMetrics, FrameBuf, Request, Response, ServeConfig,
    ServeEngine, SessionError, SessionMeta, SessionReport, SessionTable,
};
use onoff_sim::{simulate, SimConfig};
use onoff_store::StoreReader;

use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{self, median};
use crate::trace::{alternate, ratio, Kind, Passes, Summary, Tracer, LAYERS};
use crate::{alloc, rss, Opts};

/// Connections, one client thread each.
const CONNECTIONS: usize = 2;
/// Concurrent sessions per connection.
const SLOTS: usize = 32;
/// Sessions each slot runs per pass: 2 × 32 × 19 = 1216 sessions.
const SESSIONS_PER_SLOT: usize = 19;
/// Locations per area whose traces the sessions stream.
const LOCATIONS: usize = 4;
/// Events per ingest frame.
const FRAME_EVENTS: usize = 64;
/// A session queries after every this many frames.
const QUERY_EVERY: usize = 4;
/// Daemon start-ups timed per set-up round.
const SETUP_STARTS: usize = 15;
/// Passes per run at most. The generator's latency buffers are sized
/// for this many and touched before the daemon starts, so they add
/// nothing to the resident set measured after.
const MAX_PASSES: usize = 64;

const SESSIONS_PER_CONN: usize = SLOTS * SESSIONS_PER_SLOT;
const SESSIONS: usize = CONNECTIONS * SESSIONS_PER_CONN;

/// Text ingests parse under the daemon's default policy.
const POLICY: RecoveryPolicy = RecoveryPolicy::SkipAndCount;

fn serve_config() -> ServeConfig {
    ServeConfig {
        // Wide open: nothing is evicted or shed.
        global_budget: 16 << 30,
        session_budget: 1 << 30,
        scoring: Some(ScoringConfig::default()),
        policy: POLICY,
        ..ServeConfig::default()
    }
}

/// One trace in one encoding, as frames ready to send.
struct Stream {
    /// Wire frames with session id 0.
    frames: Vec<Vec<u8>>,
    /// Events each frame must be acknowledged with.
    acks: Vec<u64>,
    /// The `EndSession` answer for session id 0, without its `"sid":0}`
    /// tail: offline `analyze_trace` plus standalone-scorer predictions.
    expected_end: String,
}

impl Stream {
    fn events(&self) -> u64 {
        self.acks.iter().sum()
    }
}

/// Everything the generator sends, built before timing. Every client
/// reads the one copy.
struct Inputs {
    /// Per trace: `[store blob stream, NSG text stream]`.
    streams: Vec<[Stream; 2]>,
    query: Vec<u8>,
    end: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Frame(usize),
    Query,
    End,
}

/// One request of a pass: which session (index within the pass) and what.
#[derive(Debug, Clone, Copy)]
struct Req {
    session: usize,
    op: Op,
}

fn sid(pass: u64, session: usize) -> u64 {
    (pass << 32) | (session as u64 + 1)
}

/// Session `i` streams trace `(i / 2) % traces`, as text when `i` is odd.
fn stream_of(inputs: &Inputs, session: usize) -> &Stream {
    &inputs.streams[(session / 2) % inputs.streams.len()][session % 2]
}

/// A session's requests: each frame, a query after every
/// [`QUERY_EVERY`]th, then the end.
fn session_ops(frames: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for f in 0..frames {
        ops.push(Op::Frame(f));
        if (f + 1) % QUERY_EVERY == 0 {
            ops.push(Op::Query);
        }
    }
    ops.push(Op::End);
    ops
}

/// The fixed request sequence of connection `conn` for one pass.
fn plan(inputs: &Inputs, conn: usize) -> Vec<Req> {
    let mut pending = (conn * SESSIONS_PER_CONN..(conn + 1) * SESSIONS_PER_CONN)
        .rev()
        .collect::<Vec<_>>();
    let mut slots: Vec<Option<(usize, Vec<Op>, usize)>> = (0..SLOTS)
        .map(|_| {
            pending
                .pop()
                .map(|s| (s, session_ops(stream_of(inputs, s).frames.len()), 0))
        })
        .collect();
    let mut out = Vec::new();
    while slots.iter().any(Option::is_some) {
        for slot in slots.iter_mut() {
            let Some((session, ops, next)) = slot else {
                continue;
            };
            out.push(Req {
                session: *session,
                op: ops[*next],
            });
            *next += 1;
            if *next == ops.len() {
                *slot = pending
                    .pop()
                    .map(|s| (s, session_ops(stream_of(inputs, s).frames.len()), 0));
            }
        }
    }
    out
}

/// Simulates the 44 traces and encodes them both ways.
fn build_inputs(seed: u64, reference: &mut Tracer) -> Inputs {
    let scoring = ScoringConfig::default();
    let mut streams = Vec::new();
    for (a, area) in all_areas(seed).iter().enumerate() {
        for loc in 0..LOCATIONS {
            let mut cfg = SimConfig::stationary(
                policy_for(area.operator),
                PhoneModel::OnePlus12R,
                area.env.clone(),
                area.locations[loc],
                hash_words(&[seed, a as u64, loc as u64, 0x5E55]),
            );
            cfg.meas_period_ms = 1000;
            let events = simulate(&cfg).events;
            let chunks: Vec<&[TraceEvent]> = events.chunks(FRAME_EVENTS).collect();
            let bin: Vec<Request> = chunks
                .iter()
                .map(|c| Request::BinEvents {
                    sid: 0,
                    bytes: onoff_store::encode_events(c),
                })
                .collect();
            let text: Vec<Request> = chunks
                .iter()
                .map(|c| Request::TextEvents {
                    sid: 0,
                    text: onoff_nsglog::emit(c),
                })
                .collect();
            streams.push([
                stream(bin, &scoring, reference),
                stream(text, &scoring, reference),
            ]);
        }
    }
    let encode = |r: Request| r.encode().expect("small frame");
    Inputs {
        streams,
        query: encode(Request::Query { sid: 0 }),
        end: encode(Request::EndSession { sid: 0 }),
    }
}

/// Encodes one stream's frames and computes its expected end report the
/// offline way: decode every frame as the daemon would, then
/// `TraceAnalyzer` (scoring off) and a standalone scorer over the events.
fn stream(requests: Vec<Request>, scoring: &ScoringConfig, tr: &mut Tracer) -> Stream {
    let mut events = Vec::new();
    let mut meta = SessionMeta::default();
    let mut acks = Vec::new();
    let mut chunk = Vec::new();
    for req in &requests {
        match req {
            Request::TextEvents { text, .. } => {
                let st = onoff_nsglog::parse_str_lossy_into(text, POLICY, &mut chunk);
                meta.records += st.records;
                meta.parsed += st.parsed;
                meta.skipped += st.skipped;
            }
            Request::BinEvents { bytes, .. } => {
                let st = StoreReader::new(bytes)
                    .and_then(|r| r.read_all_into(POLICY, &mut chunk))
                    .expect("freshly encoded store decodes");
                meta.records += st.decoded + st.skipped;
                meta.parsed += st.decoded;
                meta.skipped += st.skipped;
            }
            _ => unreachable!("streams hold ingest requests only"),
        }
        acks.push(chunk.len() as u64);
        events.append(&mut chunk);
    }
    let analysis = tr.span(Kind::Detect, 0, |_| {
        let mut core = TraceAnalyzer::new();
        for ev in &events {
            core.feed(ev);
        }
        core.finish()
    });
    let predictions = tr.span(Kind::Predict, 0, |_| {
        let mut scorer = OnlineScorer::new(scoring.clone());
        for ev in &events {
            scorer.feed(ev);
        }
        scorer.report()
    });
    let report = SessionReport {
        sid: 0,
        events: events.len(),
        meta,
        analysis,
        predictions: Some(predictions),
        ended: true,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    Stream {
        frames: requests
            .into_iter()
            .map(|r| r.encode().expect("64-event frames fit"))
            .collect(),
        acks,
        expected_end: json
            .strip_suffix("\"sid\":0}")
            .expect("sid is the last key of a report")
            .to_string(),
    }
}

/// The frame template `req` sends.
fn wire(inputs: &Inputs, req: Req) -> &[u8] {
    match req.op {
        Op::Frame(f) => &stream_of(inputs, req.session).frames[f],
        Op::Query => &inputs.query,
        Op::End => &inputs.end,
    }
}

/// Copies `req`'s frame template into `buf` with the session id of pass
/// `pass` patched in.
fn frame_for(inputs: &Inputs, pass: u64, req: Req, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(wire(inputs, req));
    buf[SID_OFFSET..SID_OFFSET + 8].copy_from_slice(&sid(pass, req.session).to_le_bytes());
}

/// The two connections' plans interleaved request by request: the order
/// the in-process replay runs them in.
fn interleaved(plans: &[Vec<Req>]) -> Vec<Req> {
    let longest = plans.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| plans.iter().filter_map(move |p| p.get(k).copied()))
        .collect()
}

/// What one answer should be, judged by the generator.
fn judge(inputs: &Inputs, pass: u64, req: Req, resp: &Response) -> Verdict {
    match (req.op, resp) {
        (Op::Frame(f), Response::Ok { events }) => {
            if *events == stream_of(inputs, req.session).acks[f] {
                Verdict::Ok(*events)
            } else {
                Verdict::Wrong
            }
        }
        (Op::Query, Response::Json { payload }) if payload.contains("\"ended\":false") => {
            Verdict::Ok(0)
        }
        (Op::End, Response::Json { payload }) => {
            let tail = format!("\"sid\":{}}}", sid(pass, req.session));
            if payload.strip_suffix(&tail) == Some(&stream_of(inputs, req.session).expected_end) {
                Verdict::Ok(0)
            } else {
                Verdict::Wrong
            }
        }
        (_, Response::Shed { .. }) => Verdict::Shed,
        (_, Response::Error { .. }) => Verdict::Error,
        _ => Verdict::Wrong,
    }
}

enum Verdict {
    /// Answered as expected, acknowledging this many events.
    Ok(u64),
    /// Answered `Shed`.
    Shed,
    /// Answered `Error`.
    Error,
    /// Answered, but not with what the offline reference says.
    Wrong,
}

/// Request kinds with their own latency distribution.
#[derive(Debug, Clone, Copy)]
enum Class {
    Text,
    Bin,
    Query,
    End,
}

fn class(req: Req) -> Class {
    match req.op {
        Op::Frame(_) if req.session % 2 == 1 => Class::Text,
        Op::Frame(_) => Class::Bin,
        Op::Query => Class::Query,
        Op::End => Class::End,
    }
}

/// One connection's results over the timed phase.
#[derive(Default)]
struct ConnStats {
    /// Round trips in ns, per [`Class`].
    rtt: [Vec<u64>; 4],
    sent: u64,
    sheds: u64,
    errors: u64,
    unanswered: u64,
    wrong: u64,
    events: u64,
    /// Time between round trips: picking, patching, judging.
    loadgen_ns: u64,
}

impl ConnStats {
    /// Empty stats whose latency buffers hold [`MAX_PASSES`] passes of
    /// `plan`, their pages already resident.
    fn sized_for(plan: &[Req]) -> ConnStats {
        let mut st = ConnStats::default();
        for req in plan {
            st.rtt[class(*req) as usize].push(0);
        }
        for r in &mut st.rtt {
            let per_pass = r.len();
            r.resize(per_pass * MAX_PASSES, 1);
            std::hint::black_box(&r[..]);
            r.clear();
        }
        st
    }

    fn merge(&mut self, o: ConnStats) {
        for (a, b) in self.rtt.iter_mut().zip(o.rtt) {
            a.extend(b);
        }
        self.sent += o.sent;
        self.sheds += o.sheds;
        self.errors += o.errors;
        self.unanswered += o.unanswered;
        self.wrong += o.wrong;
        self.events += o.events;
        self.loadgen_ns += o.loadgen_ns;
    }

    /// Requests answered `Error` or `Shed`, or not answered.
    fn failed(&self) -> u64 {
        self.sheds + self.errors + self.unanswered
    }

    fn rtt_total(&self) -> u64 {
        self.rtt.iter().flatten().sum()
    }

    fn rtt_count(&self) -> usize {
        self.rtt.iter().map(Vec::len).sum()
    }
}

/// One client thread: runs its connection's plan once per pass until the
/// coordinator stops it. Every thread meets the coordinator at both
/// barriers of every pass, even after its connection broke.
fn client(
    path: &Path,
    inputs: &Inputs,
    plan: &[Req],
    mut st: ConnStats,
    barrier: &Barrier,
    stop: &AtomicBool,
) -> ConnStats {
    let mut conn = Client::connect_unix(path).ok();
    let mut buf = Vec::new();
    let mut pass = 0u64;
    loop {
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            return st;
        }
        let busy = Instant::now();
        let mut rtt_ns = 0;
        for &req in plan {
            st.sent += 1;
            let Some(c) = conn.as_mut() else {
                st.unanswered += 1;
                continue;
            };
            frame_for(inputs, pass, req, &mut buf);
            let t = Instant::now();
            let answer = c.send_raw(&buf).and_then(|()| c.read_response());
            let dt = t.elapsed().as_nanos() as u64;
            rtt_ns += dt;
            match answer {
                Ok(resp) => {
                    st.rtt[class(req) as usize].push(dt);
                    match judge(inputs, pass, req, &resp) {
                        Verdict::Ok(events) => st.events += events,
                        Verdict::Shed => st.sheds += 1,
                        Verdict::Error => st.errors += 1,
                        Verdict::Wrong => st.wrong += 1,
                    }
                }
                Err(_) => {
                    st.unanswered += 1;
                    conn = None;
                }
            }
        }
        st.loadgen_ns += (busy.elapsed().as_nanos() as u64).saturating_sub(rtt_ns);
        pass += 1;
        barrier.wait();
    }
}

/// What the socket passes measured.
struct SocketRun {
    /// Wall of each pass, s.
    walls: Vec<f64>,
    /// Peak resident set of each pass above the resident set before the
    /// daemon started, MB.
    peaks: Vec<f64>,
    total: ConnStats,
    /// The kernel's refusal to reset the peak mark, if it refused.
    reset_error: Option<std::io::Error>,
}

/// Runs passes against a started daemon until `seconds` have elapsed
/// (at least one pass, at most [`MAX_PASSES`]), taking set-up rounds
/// between passes as they fall due. `buffers` are the clients' pre-sized
/// stats; `baseline_mb` is the resident set before the daemon started.
fn socket_passes(
    path: &Path,
    inputs: &Inputs,
    plans: &[Vec<Req>],
    buffers: Vec<ConnStats>,
    baseline_mb: f64,
    seconds: f64,
    setup: &mut Setup<'_>,
) -> SocketRun {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let stop = AtomicBool::new(false);
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut total = ConnStats::default();
    let mut reset_error = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(buffers)
            .map(|(p, st)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || client(path, inputs, p, st, barrier, stop))
            })
            .collect();
        let started = Instant::now();
        loop {
            let done = started.elapsed().as_secs_f64() >= seconds || walls.len() == MAX_PASSES;
            if !walls.is_empty() && done {
                stop.store(true, Ordering::SeqCst);
            } else if let Err(e) = rss::reset_peak() {
                reset_error.get_or_insert(e);
            }
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let t = Instant::now();
            barrier.wait();
            walls.push(t.elapsed().as_secs_f64());
            peaks.push(rss::peak_mb() - baseline_mb);
            setup.between();
        }
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    SocketRun {
        walls,
        peaks,
        total,
        reset_error,
    }
}

fn daemon_config(path: &Path) -> DaemonConfig {
    DaemonConfig {
        tcp_addr: None,
        unix_path: Some(path.to_path_buf()),
        workers: 2,
        session: serve_config(),
        ..DaemonConfig::default()
    }
}

/// Starts a daemon on `path` and shuts it down again; returns how long
/// `Daemon::start` took to return, s.
fn time_start(path: &Path) -> std::io::Result<f64> {
    let t = Instant::now();
    let daemon = Daemon::start(daemon_config(path))?;
    let secs = t.elapsed().as_secs_f64();
    Daemon::shutdown(daemon);
    Ok(secs)
}

/// Asks the daemon for its fleet counters and checks them against the
/// generator's own counts.
fn check_fleet(path: &Path, passes: usize, total: &ConnStats, rep: &mut Report) {
    let fleet = Client::connect_unix(path)
        .and_then(|mut c| c.request(&Request::FleetQuery))
        .ok()
        .and_then(|r| match r {
            Response::Json { payload } => serde_json::from_str::<FleetMetrics>(&payload).ok(),
            _ => None,
        });
    let Some(m) = fleet else {
        rep.check(false, || "FleetQuery went unanswered".to_string());
        return;
    };
    let sessions = (passes * SESSIONS) as u64;
    let ok = m.frames == total.sent + 1
        && m.events_total == total.events
        && m.sheds == total.sheds
        && m.frame_errors == 0
        && m.sessions_ended == sessions
        && m.sessions_live == 0;
    rep.check(ok, || {
        format!(
            "fleet counters (frames {}, events {}, sheds {}, frame errors {}, ended {}, live {}) \
             disagree with the generator (sent {} + 1, events {}, sheds {}, sessions {sessions})",
            m.frames,
            m.events_total,
            m.sheds,
            m.frame_errors,
            m.sessions_ended,
            m.sessions_live,
            total.sent,
            total.events,
            total.sheds
        )
    });
}

/// Adds p50 and the tail percentile of one latency class, in ms.
fn latency(rep: &mut Report, prefix: &str, rtt: &[u64]) {
    let mut ms: Vec<f64> = rtt.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    if ms.is_empty() {
        rep.check(false, || format!("no {prefix} round trips were measured"));
        return;
    }
    rep.add(
        &format!("{prefix}_p50_ms"),
        "ms",
        stats::percentile(&ms, 50.0),
        Some(ms.len()),
    );
    if let Some((p, v)) = stats::tail(&ms) {
        rep.add(
            &format!("{prefix}_{}_ms", stats::label(p)),
            "ms",
            v,
            Some(ms.len()),
        );
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::new("serve-socket");
    let inputs = build_inputs(opts.seed, &mut Tracer::new(false));
    let plans: Vec<Vec<Req>> = (0..CONNECTIONS).map(|c| plan(&inputs, c)).collect();
    let events_per_pass: u64 = (0..SESSIONS).map(|s| stream_of(&inputs, s).events()).sum();
    let buffers: Vec<ConnStats> = plans.iter().map(|p| ConnStats::sized_for(p)).collect();
    let pid = std::process::id();
    let path = opts.run_dir.join(format!("serve-{pid}.sock"));
    // Set-up is timed on a daemon of its own, so the measured one keeps
    // its connections.
    let setup_path = opts.run_dir.join(format!("serve-{pid}-setup.sock"));
    let mut setup = Setup::start(SETUP_STARTS, opts.seconds, |_| time_start(&setup_path));
    rss::trim();
    let baseline_mb = rss::current_mb();
    let daemon = match Daemon::start(daemon_config(&path)) {
        Ok(d) => d,
        Err(e) => {
            rep.check(false, || {
                format!("daemon failed to start on {}: {e}", path.display())
            });
            return rep;
        }
    };
    // The traced run spends a quarter of its window on socket passes,
    // for the round trips the transport cost is measured against.
    let socket_share = if opts.trace { 0.25 } else { 1.0 };
    let SocketRun {
        walls,
        peaks,
        total,
        reset_error,
    } = socket_passes(
        &path,
        &inputs,
        &plans,
        buffers,
        baseline_mb,
        opts.seconds * socket_share,
        &mut setup,
    );
    check_fleet(&path, walls.len(), &total, &mut rep);
    Daemon::shutdown(daemon);
    match setup.finish() {
        Ok(best) => rep.add("setup_s", "s", best.value(), Some(best.repeats())),
        Err(e) => rep.check(false, || {
            format!("daemon failed to start on {}: {e}", setup_path.display())
        }),
    }
    if let Some(e) = reset_error {
        rep.check(false, || format!("cannot reset the peak resident set: {e}"));
    }

    rep.attempted += total.sent;
    rep.failed += total.failed();
    rep.check(total.wrong == 0, || {
        format!(
            "{} answers disagree with the offline reference",
            total.wrong
        )
    });
    rep.check(total.events == events_per_pass * walls.len() as u64, || {
        format!(
            "{} events acknowledged, expected {} per pass × {}",
            total.events,
            events_per_pass,
            walls.len()
        )
    });
    let loadgen_us = ratio(total.loadgen_ns as f64, total.sent as f64) / 1e3;
    let loadgen_share = ratio(
        total.loadgen_ns as f64,
        CONNECTIONS as f64 * walls.iter().sum::<f64>() * 1e9,
    );
    if opts.trace {
        traced(
            opts,
            opts.seconds * (1.0 - socket_share),
            &inputs,
            &plans,
            &total,
            &mut rep,
        );
        rep.add(
            "loadgen.us_per_req",
            "us/req",
            loadgen_us,
            Some(total.sent as usize),
        );
        rep.add("loadgen.share", "ratio", loadgen_share, None);
        return rep;
    }
    let wall = median(&walls);
    rep.note(format!(
        "pass walls: min {:.3} s, median {wall:.3} s, max {:.3} s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max)
    ));
    rep.add(
        "events_per_s",
        "events/s",
        events_per_pass as f64 / wall,
        Some(walls.len()),
    );
    latency(&mut rep, "text_ingest", &total.rtt[Class::Text as usize]);
    latency(&mut rep, "bin_ingest", &total.rtt[Class::Bin as usize]);
    latency(&mut rep, "query", &total.rtt[Class::Query as usize]);
    rep.add(
        "failed_share",
        "ratio",
        ratio(total.failed() as f64, total.sent as f64),
        Some(total.sent as usize),
    );
    rep.add("peak_rss_mb", "MB", median(&peaks), Some(peaks.len()));
    rep.note(format!(
        "{SESSIONS} sessions and {events_per_pass} events per pass, {} passes, \
         {CONNECTIONS} connections × {SLOTS} sessions, {} traces",
        walls.len(),
        inputs.streams.len()
    ));
    rep.note(format!(
        "resident set before the daemon started: {baseline_mb:.1} MB (inputs and the \
         generator's buffers); peak_rss_mb is the peak of each pass above it"
    ));
    rep.note(format!(
        "load generator: {loadgen_us:.2} us/req, {:.1}% of client wall",
        loadgen_share * 100.0
    ));
    rep
}

/// Work counted by a replay, for the per-unit rates.
#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    text_records: u64,
    text_skipped: u64,
    bin_events: u64,
    warm_events: u64,
    wrong: u64,
    /// In-process time of each request, excluding the generator, ns.
    handle_ns: u64,
    /// Allocations counted in that time.
    allocs: u64,
}

/// Maps a session-table refusal to its answer, as the engine does.
fn refuse(e: SessionError) -> Response {
    match e {
        SessionError::Shed { reason } => Response::Shed { reason },
        other => Response::Error {
            msg: other.to_string(),
        },
    }
}

/// Replays pass 0's request sequence (`order`) in-process on one thread
/// through `ServeEngine::handle`, as a daemon worker calls it: each
/// request through frame reassembly and decode, the engine, and the
/// answer's trip back. This is the untraced replay: its in-process time
/// and allocations are the program's own.
fn replay_engine(inputs: &Inputs, order: &[Req], tr: &mut Tracer, ctr: &mut Counters) {
    let engine = ServeEngine::new(serve_config());
    let (mut inbound, mut outbound) = (FrameBuf::new(), FrameBuf::new());
    let mut buf = Vec::new();
    tr.span(Kind::Root, 0, |_| {
        for &req in order {
            frame_for(inputs, 0, req, &mut buf);
            let (t, allocs) = (Instant::now(), alloc::count());
            inbound.push(&buf);
            let (kind, payload) = inbound
                .next_frame()
                .expect("well-framed")
                .expect("one whole frame");
            let resp = match Request::decode(kind, &payload) {
                Ok(request) => engine.handle(request),
                Err(e) => Response::Error {
                    msg: format!("decode: {e:?}"),
                },
            };
            outbound.push(&resp.encode());
            let (kind, payload) = outbound
                .next_frame()
                .expect("well-framed")
                .expect("one whole frame");
            let back = Response::decode(kind, &payload);
            ctr.handle_ns += t.elapsed().as_nanos() as u64;
            ctr.allocs += alloc::count() - allocs;
            ctr.requests += 1;
            let ok = back.is_ok_and(|r| matches!(judge(inputs, 0, req, &r), Verdict::Ok(_)));
            ctr.wrong += u64::from(!ok);
        }
    });
}

/// The traced replay of the same sequence: the engine's handler steps
/// spelled out through the public calls beneath `ServeEngine::handle`,
/// so each gets a span of its own.
fn replay_traced(inputs: &Inputs, order: &[Req], tr: &mut Tracer, ctr: &mut Counters) {
    let table = SessionTable::new(serve_config());
    let (mut inbound, mut outbound) = (FrameBuf::new(), FrameBuf::new());
    let mut scratch: Vec<TraceEvent> = Vec::new();
    let mut buf = Vec::new();
    // Sessions with a live table entry, by index within the pass.
    let mut live = vec![false; SESSIONS];
    tr.span(Kind::Root, 0, |tr| {
        for &req in order {
            let id = sid(0, req.session);
            tr.span(Kind::Loadgen, id, |_| frame_for(inputs, 0, req, &mut buf));
            let t = Instant::now();
            let decoded = tr.span(Kind::Protocol, id, |_| {
                inbound.push(&buf);
                let (kind, payload) = inbound
                    .next_frame()
                    .expect("well-framed")
                    .expect("one whole frame");
                Request::decode(kind, &payload)
            });
            let resp = match decoded {
                Ok(Request::TextEvents { sid, text }) => {
                    let st = tr.span(Kind::Parse, sid, |_| {
                        onoff_nsglog::parse_str_lossy_into(&text, POLICY, &mut scratch)
                    });
                    ctr.text_records += st.records as u64;
                    ctr.text_skipped += st.skipped as u64;
                    let meta = SessionMeta {
                        records: st.records,
                        parsed: st.parsed,
                        skipped: st.skipped,
                    };
                    ingest(
                        tr,
                        &table,
                        sid,
                        &mut scratch,
                        meta,
                        &mut live[req.session],
                        ctr,
                    )
                }
                Ok(Request::BinEvents { sid, bytes }) => {
                    let decoded = tr.span(Kind::StoreDecode, sid, |_| {
                        StoreReader::new(&bytes).and_then(|r| r.read_all_into(POLICY, &mut scratch))
                    });
                    match decoded {
                        Ok(st) => {
                            ctr.bin_events += st.decoded as u64;
                            let meta = SessionMeta {
                                records: st.decoded + st.skipped,
                                parsed: st.decoded,
                                skipped: st.skipped,
                            };
                            ingest(
                                tr,
                                &table,
                                sid,
                                &mut scratch,
                                meta,
                                &mut live[req.session],
                                ctr,
                            )
                        }
                        Err(e) => Response::Error {
                            msg: format!("store decode: {e}"),
                        },
                    }
                }
                Ok(Request::Query { sid }) => {
                    match tr.span(Kind::Query, sid, |_| table.query(sid)) {
                        Ok((analysis, predictions, meta, events)) => {
                            let report = SessionReport {
                                sid,
                                events,
                                meta,
                                analysis,
                                predictions,
                                ended: false,
                            };
                            let payload = tr.span(Kind::ReportJson, sid, |_| {
                                serde_json::to_string(&report).expect("report serializes")
                            });
                            Response::Json { payload }
                        }
                        Err(e) => refuse(e),
                    }
                }
                Ok(Request::EndSession { sid }) => {
                    live[req.session] = false;
                    tr.span(Kind::End, sid, |_| match table.end_session(sid) {
                        Ok(f) => Response::Json {
                            payload: serde_json::to_string(&SessionReport {
                                sid,
                                events: f.events,
                                meta: f.meta,
                                analysis: f.analysis,
                                predictions: f.predictions,
                                ended: true,
                            })
                            .expect("report serializes"),
                        },
                        Err(e) => refuse(e),
                    })
                }
                other => Response::Error {
                    msg: format!("unexpected request {other:?}"),
                },
            };
            let back = tr.span(Kind::Protocol, id, |_| {
                outbound.push(&resp.encode());
                let (kind, payload) = outbound
                    .next_frame()
                    .expect("well-framed")
                    .expect("one whole frame");
                Response::decode(kind, &payload)
            });
            ctr.handle_ns += t.elapsed().as_nanos() as u64;
            ctr.requests += 1;
            tr.span(Kind::Loadgen, id, |_| {
                let ok = back.is_ok_and(|r| matches!(judge(inputs, 0, req, &r), Verdict::Ok(_)));
                ctr.wrong += u64::from(!ok);
            });
        }
    });
}

/// `SessionTable::ingest_drain`, cold when it creates the session.
fn ingest(
    tr: &mut Tracer,
    table: &SessionTable,
    sid: u64,
    scratch: &mut Vec<TraceEvent>,
    meta: SessionMeta,
    live: &mut bool,
    ctr: &mut Counters,
) -> Response {
    let cold = !std::mem::replace(live, true);
    if !cold {
        ctr.warm_events += scratch.len() as u64;
    }
    let kind = if cold {
        Kind::ColdIngest
    } else {
        Kind::WarmIngest
    };
    let resp = match tr.span(kind, sid, |_| table.ingest_drain(sid, scratch, meta)) {
        Ok(events) => Response::Ok { events },
        Err(e) => refuse(e),
    };
    scratch.clear();
    resp
}

fn traced(
    opts: &Opts,
    seconds: f64,
    inputs: &Inputs,
    plans: &[Vec<Req>],
    socket: &ConnStats,
    rep: &mut Report,
) {
    let started = Instant::now();
    let order = interleaved(plans);
    let mut reference = Tracer::new(true);
    alloc::set_counting(true);
    build_inputs(opts.seed, &mut reference);
    alloc::set_counting(false);
    let r = Summary::of(reference.spans());
    let ref_events: u64 = inputs.streams.iter().flatten().map(Stream::events).sum();

    let mut handle_us = Vec::new();
    let Passes {
        wall_off_ns: wall_off,
        summary: s,
        counters: ctr,
        tracer,
        traced: n_passes,
    } = alternate(started, seconds, rep, |tr, rep| {
        let mut ctr = Counters::default();
        if tr.is_on() {
            replay_traced(inputs, &order, tr, &mut ctr);
        } else {
            replay_engine(inputs, &order, tr, &mut ctr);
            handle_us.push(ratio(ctr.handle_ns as f64, ctr.requests as f64) / 1e3);
        }
        rep.attempted += ctr.requests;
        rep.check(ctr.wrong == 0, || {
            format!(
                "{} in-process answers disagree with the offline reference",
                ctr.wrong
            )
        });
        ctr
    });

    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    rep.add(
        "nsglog.parse_ns_per_record",
        "ns/record",
        per(s.ns(Kind::Parse), ctr.text_records),
        None,
    );
    rep.add(
        "nsglog.allocs_per_record",
        "allocs/record",
        per(s.allocs(Kind::Parse), ctr.text_records),
        None,
    );
    rep.add(
        "nsglog.loss_ratio",
        "ratio",
        per(ctr.text_skipped, ctr.text_records),
        Some(ctr.text_records as usize),
    );
    rep.add(
        "store.decode_ns_per_event",
        "ns/event",
        per(s.ns(Kind::StoreDecode), ctr.bin_events),
        None,
    );
    rep.add(
        "detect.ns_per_event",
        "ns/event",
        per(r.ns(Kind::Detect), ref_events),
        None,
    );
    rep.add(
        "detect.allocs_per_event",
        "allocs/event",
        per(r.allocs(Kind::Detect), ref_events),
        None,
    );
    rep.add(
        "predict.ns_per_event",
        "ns/event",
        per(r.ns(Kind::Predict), ref_events),
        None,
    );
    rep.add(
        "serve.protocol.ns_per_frame",
        "ns/frame",
        per(s.ns(Kind::Protocol), ctr.requests),
        Some(ctr.requests as usize),
    );
    rep.add(
        "serve.session.warm_ingest_ns_per_event",
        "ns/event",
        per(s.ns(Kind::WarmIngest), ctr.warm_events),
        None,
    );
    for (name, kind) in [
        ("serve.session.cold_ingest_us", Kind::ColdIngest),
        ("serve.session.query_us", Kind::Query),
        ("serve.engine.report_json_us", Kind::ReportJson),
        ("serve.session.end_us", Kind::End),
    ] {
        rep.add(
            name,
            "us",
            per(s.ns(kind), s.count(kind)) / 1e3,
            Some(s.count(kind) as usize),
        );
    }
    // The engine's own allocations: two counted engine replays, which
    // must agree exactly.
    let engine_allocs: Vec<u64> = (0..2)
        .map(|_| {
            let mut c = Counters::default();
            alloc::set_counting(true);
            replay_engine(inputs, &order, &mut Tracer::new(false), &mut c);
            alloc::set_counting(false);
            c.allocs
        })
        .collect();
    rep.check(engine_allocs[0] == engine_allocs[1], || {
        format!(
            "engine allocation counts differ between replays: {} vs {}",
            engine_allocs[0], engine_allocs[1]
        )
    });
    rep.add(
        "serve.engine.allocs_per_frame",
        "allocs/frame",
        per(engine_allocs[0], ctr.requests),
        None,
    );
    let socket_us = ratio(socket.rtt_total() as f64, socket.rtt_count() as f64) / 1e3;
    let inproc_us = median(&handle_us);
    rep.add(
        "serve.transport_us_per_req",
        "us/req",
        socket_us - inproc_us,
        Some(socket.rtt_count()),
    );
    for layer in LAYERS.iter().filter(|&&l| l != "loadgen") {
        rep.add(&format!("{layer}.share"), "ratio", s.share(layer), None);
    }
    let unattributed = s.unattributed_share();
    rep.add("unattributed.share", "ratio", unattributed, None);
    rep.add(
        "trace.overhead",
        "ratio",
        s.wall_ns as f64 / wall_off - 1.0,
        Some(n_passes),
    );
    rep.check(unattributed <= 0.05, || {
        format!(
            "layer self times cover only {:.1}% of the traced wall",
            (1.0 - unattributed) * 100.0
        )
    });
    rep.note(format!(
        "traced replay {:.3} s (median of {n_passes}), untraced ServeEngine::handle replay \
         {:.3} s; socket round trip {socket_us:.1} us vs {inproc_us:.1} us in-process; \
         in-process generator share {:.3}",
        s.wall_ns as f64 / 1e9,
        wall_off / 1e9,
        s.share("loadgen")
    ));
    rep.note(
        "detect and predict run inside SessionTable::ingest_drain here; their rates come from \
         the offline reference pass over the same events"
            .to_string(),
    );
    crate::write_spans(opts, rep, &tracer);
}
