//! Seeded fault injection for the dirty-capture test harness.
//!
//! Real NSG captures are messy: the paper's logs were extracted manually
//! (Appendix B), and field pipelines see truncated lines, tool garbage,
//! clock steps and duplicated or late records. This module corrupts clean
//! traces the same way — **deterministically**: a [`ChaosEngine`] is keyed
//! by a `u64` seed, every mutation it applies is recorded as an
//! [`Injection`], and the full [`InjectionManifest`] can be reported next
//! to the analysis so a failure reproduces from `(input, config, seed)`
//! alone.
//!
//! Two mutation surfaces, composable through one engine:
//!
//! * **text** ([`ChaosEngine::corrupt_text`], or piece by piece with
//!   [`ChaosEngine::corrupt_text_piece`]) — line truncation, garbage lines,
//!   single-character field corruption; exercises the parser's recovery
//!   path ([`onoff_nsglog::RecoveringParser`], which takes the dirty text
//!   in the same whole-line pieces).
//! * **events** ([`ChaosEngine::corrupt_events`]) — duplication, forward
//!   clock jumps, clock rollbacks and displacement beyond the stream
//!   reorder horizon; exercises the analyzers' degradation accounting.
//!
//! The default magnitudes push rollbacks and displacements **past** the
//! streaming reorder horizon (5 s) on purpose: within-horizon jitter is
//! silently repaired by the reorder buffer, so only beyond-horizon faults
//! land in the `DegradationReport` — and for those, batch and streaming
//! analysis are provably identical (enforced by the differential chaos
//! proptests in `onoff-detect`).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use onoff_rrc::trace::{Timestamp, TraceEvent};

/// Per-record / per-line fault probabilities and magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Probability a text line is truncated at a random byte.
    pub truncate_line: f64,
    /// Probability a garbage line is inserted before a text line.
    pub garbage_line: f64,
    /// Probability one character of a text line is overwritten.
    pub corrupt_field: f64,
    /// Probability an event is emitted twice.
    pub duplicate_event: f64,
    /// Probability the clock steps forward at an event (skew persists).
    pub clock_jump: f64,
    /// Probability the clock rolls backwards at an event (skew persists).
    pub clock_rollback: f64,
    /// Probability an event is displaced to arrive late.
    pub reorder: f64,
    /// Forward clock-jump magnitude, ms (inclusive bounds).
    pub jump_ms: (u64, u64),
    /// Rollback magnitude, ms. The default floor exceeds the streaming
    /// reorder horizon so every injected rollback is batch/stream-visible.
    pub rollback_ms: (u64, u64),
    /// How far a displaced event arrives after its slot, ms. Same floor
    /// rationale as `rollback_ms`.
    pub displace_ms: (u64, u64),
}

impl Default for ChaosConfig {
    /// A "lightly dirty capture": ~1% of lines/events faulted per mutator.
    fn default() -> ChaosConfig {
        ChaosConfig {
            truncate_line: 0.01,
            garbage_line: 0.01,
            corrupt_field: 0.01,
            duplicate_event: 0.01,
            clock_jump: 0.005,
            clock_rollback: 0.005,
            reorder: 0.005,
            jump_ms: (10_000, 60_000),
            rollback_ms: (6_000, 30_000),
            displace_ms: (6_000, 20_000),
        }
    }
}

impl ChaosConfig {
    /// No faults at all (corrupt passes become identity).
    pub fn quiet() -> ChaosConfig {
        ChaosConfig {
            truncate_line: 0.0,
            garbage_line: 0.0,
            corrupt_field: 0.0,
            duplicate_event: 0.0,
            clock_jump: 0.0,
            clock_rollback: 0.0,
            reorder: 0.0,
            ..ChaosConfig::default()
        }
    }

    /// Total text destruction: every line truncated, shadowed by garbage
    /// and corrupted. Models a hopeless capture (quarantine-path tests).
    pub fn destroy() -> ChaosConfig {
        ChaosConfig {
            truncate_line: 1.0,
            garbage_line: 1.0,
            corrupt_field: 1.0,
            ..ChaosConfig::default()
        }
    }

    /// Scales every fault probability by `f` (clamped to `[0, 1]`).
    pub fn with_intensity(mut self, f: f64) -> ChaosConfig {
        let scale = |p: &mut f64| *p = (*p * f).clamp(0.0, 1.0);
        scale(&mut self.truncate_line);
        scale(&mut self.garbage_line);
        scale(&mut self.corrupt_field);
        scale(&mut self.duplicate_event);
        scale(&mut self.clock_jump);
        scale(&mut self.clock_rollback);
        scale(&mut self.reorder);
        self
    }
}

/// One applied mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionKind {
    /// A text line was cut short.
    TruncatedLine,
    /// A garbage line was inserted.
    GarbageLine,
    /// One character of a line was overwritten.
    CorruptedField,
    /// An event was emitted twice.
    DuplicatedEvent,
    /// The clock stepped forward by `ms` at this event and stayed ahead.
    ClockJump {
        /// Step size, ms.
        ms: u64,
    },
    /// The clock rolled back by `ms` at this event and stayed behind.
    ClockRollback {
        /// Step size, ms.
        ms: u64,
    },
    /// The event was displaced to arrive `ms` later than its slot.
    Reordered {
        /// Displacement, ms.
        ms: u64,
    },
    /// `len` garbage bytes were injected into the wire stream before a
    /// frame, desynchronizing the length-prefixed framing.
    GarbageBytes {
        /// Injected byte count.
        len: usize,
    },
    /// A frame was cut short on the wire and the connection dropped.
    TruncatedFrame {
        /// Bytes actually sent of the frame.
        sent: usize,
    },
    /// The client stalled mid-stream for `ms` before the next write.
    Stalled {
        /// Stall duration, ms.
        ms: u64,
    },
    /// The connection was dropped mid-stream with frames still unsent.
    Disconnected,
    /// A frame was sent twice back to back.
    DuplicatedFrame,
    /// The frame's embedded session id was rewritten to `sid` (drawn from
    /// the offender's own pool — spoofing *other* tenants is exactly what
    /// the isolation tests must show to be impossible, so the chaos client
    /// only ever interleaves ids it legitimately owns).
    RewrittenSid {
        /// The substituted session id.
        sid: u64,
    },
}

impl InjectionKind {
    /// Stable label for summaries.
    pub fn label(&self) -> &'static str {
        match self {
            InjectionKind::TruncatedLine => "truncated-line",
            InjectionKind::GarbageLine => "garbage-line",
            InjectionKind::CorruptedField => "corrupted-field",
            InjectionKind::DuplicatedEvent => "duplicated-event",
            InjectionKind::ClockJump { .. } => "clock-jump",
            InjectionKind::ClockRollback { .. } => "clock-rollback",
            InjectionKind::Reordered { .. } => "reordered",
            InjectionKind::GarbageBytes { .. } => "garbage-bytes",
            InjectionKind::TruncatedFrame { .. } => "truncated-frame",
            InjectionKind::Stalled { .. } => "stalled",
            InjectionKind::Disconnected => "disconnected",
            InjectionKind::DuplicatedFrame => "duplicated-frame",
            InjectionKind::RewrittenSid { .. } => "rewritten-sid",
        }
    }
}

/// One fault at one place: `at` is the 0-based input line index for text
/// mutations (counted over every line the engine has corrupted, so a text
/// corrupted piece by piece numbers its lines as the whole text does), the
/// 0-based input event index for event mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Where (input line or event index).
    pub at: usize,
    /// What.
    pub kind: InjectionKind,
}

/// Everything a chaos pass did, reproducible from the seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InjectionManifest {
    /// The engine seed.
    pub seed: u64,
    /// Applied mutations, in application order.
    pub injections: Vec<Injection>,
}

impl InjectionManifest {
    /// Injection counts per mutation label, deterministically ordered.
    pub fn summary(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for inj in &self.injections {
            *out.entry(inj.kind.label()).or_insert(0) += 1;
        }
        out
    }
}

impl fmt::Display for InjectionManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos seed {:#x}: {} injections",
            self.seed,
            self.injections.len()
        )?;
        for (label, n) in self.summary() {
            write!(f, ", {label} x{n}")?;
        }
        Ok(())
    }
}

/// Deterministic fault injector over text and event streams.
///
/// One engine can run several passes (e.g. event corruption, then text
/// corruption of the emitted log); the manifest accumulates across them.
pub struct ChaosEngine {
    cfg: ChaosConfig,
    seed: u64,
    rng: StdRng,
    injections: Vec<Injection>,
    /// Text lines corrupted so far, across every text call.
    text_lines: usize,
}

/// Garbage lines a capture tool plausibly interleaves: binary spill,
/// tool markers, half-records. Some are indented (absorbed into the
/// previous record's body), some look like record heads (parse as their
/// own failing record).
const GARBAGE_POOL: &[&str] = &[
    "#### NSG capture glitch ####",
    "<binary payload 0x1F8B08 truncated>",
    "  [capture tool dropped 12 packets]",
    "??:??:??.??? LOST SYNC",
    "99:99:99.999 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration",
    "  rawBytes = 0A 3F 99 C2 17",
];

impl ChaosEngine {
    /// A new engine over `cfg`, keyed by `seed`.
    pub fn new(cfg: ChaosConfig, seed: u64) -> ChaosEngine {
        ChaosEngine {
            cfg,
            seed,
            rng: StdRng::seed_from_u64(seed),
            injections: Vec::new(),
            text_lines: 0,
        }
    }

    /// Mutations applied so far.
    pub fn manifest(&self) -> InjectionManifest {
        InjectionManifest {
            seed: self.seed,
            injections: self.injections.clone(),
        }
    }

    /// Consumes the engine into its manifest.
    pub fn into_manifest(self) -> InjectionManifest {
        InjectionManifest {
            seed: self.seed,
            injections: self.injections,
        }
    }

    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p.clamp(0.0, 1.0))
    }

    fn range(&mut self, (lo, hi): (u64, u64)) -> u64 {
        if lo >= hi {
            lo
        } else {
            self.rng.random_range(lo..=hi)
        }
    }

    /// Corrupts raw NSG text line by line.
    pub fn corrupt_text(&mut self, text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        self.corrupt_text_piece(text, &mut out);
        out
    }

    /// [`corrupt_text`](Self::corrupt_text) one piece at a time: appends
    /// the corruption of `piece`, a run of whole lines (every piece but the
    /// last ends in a newline), to `out`. Line indices in the manifest
    /// continue across calls, and the random draws are the ones the whole
    /// text takes, so corrupting a text piece by piece with one engine
    /// yields exactly the text and manifest `corrupt_text` gives — without
    /// ever holding a dirty copy of the whole text.
    pub fn corrupt_text_piece(&mut self, piece: &str, out: &mut String) {
        out.reserve(piece.len());
        for line in piece.lines() {
            let i = self.text_lines;
            self.text_lines += 1;
            if self.draw(self.cfg.garbage_line) {
                let pick = self.rng.random_range(0..GARBAGE_POOL.len());
                out.push_str(GARBAGE_POOL[pick]);
                out.push('\n');
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::GarbageLine,
                });
            }
            if !line.is_empty() && self.draw(self.cfg.truncate_line) {
                let cut = self.rng.random_range(0..line.len());
                out.push_str(&line[..line.floor_char_boundary(cut)]);
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::TruncatedLine,
                });
            } else if !line.is_empty() && self.draw(self.cfg.corrupt_field) {
                let at = line.floor_char_boundary(self.rng.random_range(0..line.len()));
                let end = line[at..].chars().next().map_or(at, |c| at + c.len_utf8());
                out.push_str(&line[..at]);
                out.push('#');
                out.push_str(&line[end..]);
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::CorruptedField,
                });
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
    }

    /// Corrupts an event stream: duplication, persistent clock skew
    /// (jumps/rollbacks), and beyond-horizon displacement. Returns the
    /// faulted **arrival order** — the sequence a tolerant consumer would
    /// receive.
    pub fn corrupt_events(&mut self, events: &[TraceEvent]) -> Vec<TraceEvent> {
        // Pass 1: apply per-event skew and duplication; collect displaced
        // events with their release times.
        let mut add = 0u64;
        let mut sub = 0u64;
        let mut base: Vec<TraceEvent> = Vec::with_capacity(events.len());
        let mut late: Vec<(u64, TraceEvent)> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if self.draw(self.cfg.clock_jump) {
                let ms = self.range(self.cfg.jump_ms);
                add += ms;
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::ClockJump { ms },
                });
            }
            if self.draw(self.cfg.clock_rollback) {
                let ms = self.range(self.cfg.rollback_ms);
                sub += ms;
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::ClockRollback { ms },
                });
            }
            let t = (ev.t().millis() + add).saturating_sub(sub);
            let ev = ev.with_t(Timestamp(t));
            if self.draw(self.cfg.reorder) {
                let ms = self.range(self.cfg.displace_ms);
                late.push((t.saturating_add(ms), ev));
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::Reordered { ms },
                });
                continue;
            }
            if self.draw(self.cfg.duplicate_event) {
                base.push(ev.clone());
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::DuplicatedEvent,
                });
            }
            base.push(ev);
        }
        // Pass 2: merge displaced events back at their release times.
        late.sort_by_key(|(release, _)| *release);
        let mut out = Vec::with_capacity(base.len() + late.len());
        let mut late = late.into_iter().peekable();
        for ev in base {
            while late
                .peek()
                .is_some_and(|(release, _)| *release <= ev.t().millis())
            {
                out.push(late.next().expect("peeked").1);
            }
            out.push(ev);
        }
        out.extend(late.map(|(_, ev)| ev));
        out
    }
}

/// Wire-level fault probabilities for a framed client connection.
///
/// The third mutation surface: where [`ChaosConfig`] dirties what a
/// capture *says*, `WireChaosConfig` dirties how it *arrives* — garbage
/// bytes that desync length-prefixed framing, frames cut short by a
/// dropped connection, stalls past the server's read timeout, duplicate
/// frames, and session ids swapped between the streams one client
/// legitimately interleaves. [`ChaosEngine::corrupt_frames`] compiles a
/// clean frame sequence into a deterministic [`WireOp`] plan a chaos
/// client replays verbatim against the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct WireChaosConfig {
    /// Probability garbage bytes are injected before a frame.
    pub garbage_bytes: f64,
    /// Probability a frame is truncated mid-write and the connection
    /// dropped (terminates the plan).
    pub truncate_frame: f64,
    /// Probability the client stalls before writing a frame.
    pub stall: f64,
    /// Probability the connection drops cleanly before a frame, leaving
    /// the rest unsent (terminates the plan).
    pub disconnect: f64,
    /// Probability a frame is sent twice back to back.
    pub duplicate_frame: f64,
    /// Probability a frame's embedded session id is rewritten to another
    /// drawn from `sid_pool`.
    pub rewrite_sid: f64,
    /// Stall duration bounds, ms (inclusive).
    pub stall_ms: (u64, u64),
    /// Injected garbage length bounds, bytes (inclusive).
    pub garbage_len: (u64, u64),
    /// Byte offset of the little-endian `u64` session id within a frame
    /// (header length in the serve protocol); rewrite only fires on
    /// frames long enough to hold one.
    pub sid_offset: usize,
    /// Session ids the rewrite mutator may substitute — the offender's
    /// **own** sids, so hostility stays within its tenancy.
    pub sid_pool: Vec<u64>,
}

impl Default for WireChaosConfig {
    /// A hostile-but-plausible client: most frames arrive clean, every
    /// fault class fires somewhere in a few-hundred-frame stream.
    fn default() -> WireChaosConfig {
        WireChaosConfig {
            garbage_bytes: 0.01,
            truncate_frame: 0.005,
            stall: 0.01,
            disconnect: 0.005,
            duplicate_frame: 0.01,
            rewrite_sid: 0.02,
            stall_ms: (50, 400),
            garbage_len: (1, 64),
            sid_offset: 5,
            sid_pool: Vec::new(),
        }
    }
}

impl WireChaosConfig {
    /// No wire faults: the plan is exactly one `Send` per input frame.
    pub fn quiet() -> WireChaosConfig {
        WireChaosConfig {
            garbage_bytes: 0.0,
            truncate_frame: 0.0,
            stall: 0.0,
            disconnect: 0.0,
            duplicate_frame: 0.0,
            rewrite_sid: 0.0,
            ..WireChaosConfig::default()
        }
    }
}

/// One step of a wire chaos plan, replayed in order by a chaos client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// Write these bytes to the socket.
    Send(Vec<u8>),
    /// Sleep this long before the next op.
    StallMs(u64),
    /// Drop the connection; any remaining plan is abandoned.
    Disconnect,
}

impl ChaosEngine {
    /// Compiles clean protocol `frames` into a deterministic wire plan:
    /// same `(frames, cfg, seed)`, same plan. Truncation and disconnect
    /// end the plan early (the frames after them are never sent), exactly
    /// like the socket they model.
    pub fn corrupt_frames(&mut self, frames: &[Vec<u8>], cfg: &WireChaosConfig) -> Vec<WireOp> {
        let mut plan = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            if self.draw(cfg.stall) {
                let ms = self.range(cfg.stall_ms);
                plan.push(WireOp::StallMs(ms));
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::Stalled { ms },
                });
            }
            if self.draw(cfg.garbage_bytes) {
                let len = self.range(cfg.garbage_len) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| self.rng.random_range(0..=255)).collect();
                plan.push(WireOp::Send(bytes));
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::GarbageBytes { len },
                });
            }
            if self.draw(cfg.disconnect) {
                plan.push(WireOp::Disconnect);
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::Disconnected,
                });
                return plan;
            }
            let mut frame = frame.clone();
            if !cfg.sid_pool.is_empty()
                && frame.len() >= cfg.sid_offset + 8
                && self.draw(cfg.rewrite_sid)
            {
                let pick = self.rng.random_range(0..cfg.sid_pool.len());
                let sid = cfg.sid_pool[pick];
                frame[cfg.sid_offset..cfg.sid_offset + 8].copy_from_slice(&sid.to_le_bytes());
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::RewrittenSid { sid },
                });
            }
            if !frame.is_empty() && self.draw(cfg.truncate_frame) {
                let sent = self.rng.random_range(0..frame.len());
                frame.truncate(sent);
                plan.push(WireOp::Send(frame));
                plan.push(WireOp::Disconnect);
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::TruncatedFrame { sent },
                });
                return plan;
            }
            if self.draw(cfg.duplicate_frame) {
                plan.push(WireOp::Send(frame.clone()));
                self.injections.push(Injection {
                    at: i,
                    kind: InjectionKind::DuplicatedFrame,
                });
            }
            plan.push(WireOp::Send(frame));
        }
        plan
    }
}

/// One-shot wire-plan compilation: `(plan, manifest)`.
pub fn chaos_frames(
    frames: &[Vec<u8>],
    cfg: &WireChaosConfig,
    seed: u64,
) -> (Vec<WireOp>, InjectionManifest) {
    let mut engine = ChaosEngine::new(ChaosConfig::quiet(), seed);
    let plan = engine.corrupt_frames(frames, cfg);
    (plan, engine.into_manifest())
}

/// One-shot text corruption: `(dirty text, manifest)`.
pub fn chaos_text(text: &str, cfg: &ChaosConfig, seed: u64) -> (String, InjectionManifest) {
    let mut engine = ChaosEngine::new(cfg.clone(), seed);
    let dirty = engine.corrupt_text(text);
    (dirty, engine.into_manifest())
}

/// One-shot event-stream corruption: `(faulted arrival order, manifest)`.
pub fn chaos_trace(
    events: &[TraceEvent],
    cfg: &ChaosConfig,
    seed: u64,
) -> (Vec<TraceEvent>, InjectionManifest) {
    let mut engine = ChaosEngine::new(cfg.clone(), seed);
    let faulted = engine.corrupt_events(events);
    (faulted, engine.into_manifest())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tput(t: u64) -> TraceEvent {
        TraceEvent::Throughput {
            t: Timestamp(t),
            mbps: 1.0,
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        (0..50).map(|i| tput(i * 1_000)).collect()
    }

    #[test]
    fn same_seed_same_faults() {
        let events = sample_events();
        let cfg = ChaosConfig::default().with_intensity(20.0);
        let (a, ma) = chaos_trace(&events, &cfg, 7);
        let (b, mb) = chaos_trace(&events, &cfg, 7);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
        assert!(!ma.injections.is_empty(), "high intensity must inject");
        let (c, mc) = chaos_trace(&events, &cfg, 8);
        assert!(c != a || mc != ma, "different seeds must diverge");
    }

    #[test]
    fn quiet_config_is_identity() {
        let events = sample_events();
        let (out, manifest) = chaos_trace(&events, &ChaosConfig::quiet(), 99);
        assert_eq!(out, events);
        assert!(manifest.injections.is_empty());
        let text = "00:00:01.000 Throughput = 1.0 Mbps\n";
        let (dirty, m2) = chaos_text(text, &ChaosConfig::quiet(), 99);
        assert_eq!(dirty, text);
        assert!(m2.injections.is_empty());
    }

    #[test]
    fn duplication_preserves_conservation() {
        let events = sample_events();
        let cfg = ChaosConfig {
            duplicate_event: 1.0,
            ..ChaosConfig::quiet()
        };
        let (out, manifest) = chaos_trace(&events, &cfg, 3);
        assert_eq!(out.len(), events.len() * 2);
        assert_eq!(manifest.summary()["duplicated-event"], events.len());
    }

    #[test]
    fn rollback_skew_persists_and_is_non_monotonic() {
        let events = sample_events();
        let cfg = ChaosConfig {
            clock_rollback: 0.2,
            ..ChaosConfig::quiet()
        };
        let (out, manifest) = chaos_trace(&events, &cfg, 11);
        let rollbacks = manifest
            .summary()
            .get("clock-rollback")
            .copied()
            .unwrap_or(0);
        assert!(rollbacks > 0, "0.2 over 50 events should fire");
        let non_monotonic = out.windows(2).filter(|w| w[1].t() < w[0].t()).count();
        assert!(non_monotonic > 0, "a rollback must break monotonicity");
        // Magnitudes always exceed the streaming reorder horizon.
        for inj in &manifest.injections {
            if let InjectionKind::ClockRollback { ms } = inj.kind {
                assert!(ms >= 6_000);
            }
        }
    }

    #[test]
    fn displaced_events_arrive_late_but_none_are_lost() {
        let events = sample_events();
        let cfg = ChaosConfig {
            reorder: 0.3,
            ..ChaosConfig::quiet()
        };
        let (out, manifest) = chaos_trace(&events, &cfg, 5);
        assert_eq!(out.len(), events.len(), "displacement never drops events");
        let displaced = manifest.summary().get("reordered").copied().unwrap_or(0);
        assert!(displaced > 0);
        let mut sorted = out.clone();
        sorted.sort_by_key(|e| e.t());
        let sorted_in: Vec<u64> = events.iter().map(|e| e.t().millis()).collect();
        let sorted_out: Vec<u64> = sorted.iter().map(|e| e.t().millis()).collect();
        assert_eq!(sorted_in, sorted_out, "timestamps are untouched");
    }

    #[test]
    fn text_corruption_is_seed_stable_and_line_preserving_in_count() {
        let text = "00:00:01.000 MM5G State = REGISTERED\n\
                    00:00:02.000 Throughput = 1.5 Mbps\n\
                    00:00:03.000 Throughput = 2.5 Mbps\n";
        let cfg = ChaosConfig::destroy();
        let (a, ma) = chaos_text(text, &cfg, 1);
        let (b, _) = chaos_text(text, &cfg, 1);
        assert_eq!(a, b);
        // destroy(): every line gains a garbage shadow and is truncated.
        assert_eq!(a.lines().count(), 2 * text.lines().count());
        assert_eq!(ma.summary()["garbage-line"], 3);
        assert_eq!(ma.summary()["truncated-line"], 3);
    }

    #[test]
    fn text_corrupted_piece_by_piece_matches_the_whole_text() {
        let text = "00:00:01.000 MM5G State = REGISTERED\n\
                    00:00:02.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
                    Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n\
                    00:00:03.000 Throughput = 2.5 Mbps\n\
                    00:00:04.000 Throughput = 3.5 Mbps\n\
                    00:00:05.000 MM5G State = DEREGISTERED\n";
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let heavy = ChaosConfig::default().with_intensity(30.0);
        for (cfg, seed) in [(ChaosConfig::destroy(), 1), (heavy, 2)] {
            let (whole, manifest) = chaos_text(text, &cfg, seed);
            // Every injection past the first line must be numbered by its
            // place in the whole text, not in its piece.
            assert!(manifest.injections.iter().any(|inj| inj.at >= 3));
            for size in 1..=lines.len() {
                let mut engine = ChaosEngine::new(cfg.clone(), seed);
                let mut out = String::new();
                for piece in lines.chunks(size) {
                    engine.corrupt_text_piece(&piece.concat(), &mut out);
                }
                assert_eq!(out, whole, "pieces of {size} lines");
                assert_eq!(engine.into_manifest(), manifest, "pieces of {size} lines");
            }
        }
    }

    fn sample_frames() -> Vec<Vec<u8>> {
        // Shaped like the serve protocol: u32 LE len | kind | u64 LE sid
        // | payload, so the sid-rewrite offset (5) lands on real bytes.
        (0..40u64)
            .map(|i| {
                let payload = [i.to_le_bytes().as_slice(), b"event line\n"].concat();
                let mut f = (payload.len() as u32 + 1).to_le_bytes().to_vec();
                f.push(0x01);
                f.extend_from_slice(&payload);
                f
            })
            .collect()
    }

    #[test]
    fn quiet_wire_config_is_identity_plan() {
        let frames = sample_frames();
        let (plan, manifest) = chaos_frames(&frames, &WireChaosConfig::quiet(), 17);
        assert!(manifest.injections.is_empty());
        let expected: Vec<WireOp> = frames.iter().cloned().map(WireOp::Send).collect();
        assert_eq!(plan, expected);
    }

    #[test]
    fn wire_plan_is_seed_stable() {
        let frames = sample_frames();
        let cfg = WireChaosConfig {
            sid_pool: vec![3, 9],
            ..WireChaosConfig::default()
        };
        let (a, ma) = chaos_frames(&frames, &cfg, 42);
        let (b, mb) = chaos_frames(&frames, &cfg, 42);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
        let (c, mc) = chaos_frames(&frames, &cfg, 43);
        assert!(c != a || mc != ma, "different seeds must diverge");
    }

    #[test]
    fn disconnect_and_truncation_terminate_the_plan() {
        let frames = sample_frames();
        let cfg = WireChaosConfig {
            disconnect: 1.0,
            ..WireChaosConfig::quiet()
        };
        let (plan, m) = chaos_frames(&frames, &cfg, 1);
        assert_eq!(plan, vec![WireOp::Disconnect]);
        assert_eq!(m.summary()["disconnected"], 1);

        let cfg = WireChaosConfig {
            truncate_frame: 1.0,
            ..WireChaosConfig::quiet()
        };
        let (plan, m) = chaos_frames(&frames, &cfg, 1);
        assert_eq!(plan.len(), 2, "one partial send then drop");
        assert!(matches!(&plan[0], WireOp::Send(b) if b.len() < frames[0].len()));
        assert_eq!(plan[1], WireOp::Disconnect);
        assert_eq!(m.summary()["truncated-frame"], 1);
    }

    #[test]
    fn sid_rewrite_draws_only_from_the_pool() {
        let frames = sample_frames();
        let pool = vec![77u64, 88, 99];
        let cfg = WireChaosConfig {
            rewrite_sid: 1.0,
            ..WireChaosConfig::quiet()
        };
        let cfg = WireChaosConfig {
            sid_pool: pool.clone(),
            ..cfg
        };
        let (plan, m) = chaos_frames(&frames, &cfg, 6);
        assert_eq!(m.summary()["rewritten-sid"], frames.len());
        for op in &plan {
            let WireOp::Send(bytes) = op else {
                panic!("rewrite-only plan has no stalls/drops")
            };
            let sid = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
            assert!(pool.contains(&sid), "sid {sid} escaped the pool");
        }
        // Without a pool the mutator never fires, even at p = 1.
        let no_pool = WireChaosConfig {
            sid_pool: Vec::new(),
            rewrite_sid: 1.0,
            ..WireChaosConfig::quiet()
        };
        let (_, m) = chaos_frames(&frames, &no_pool, 6);
        assert!(m.injections.is_empty());
    }

    #[test]
    fn duplicate_and_garbage_mutators_fire_and_count() {
        let frames = sample_frames();
        let cfg = WireChaosConfig {
            duplicate_frame: 1.0,
            garbage_bytes: 1.0,
            stall: 1.0,
            ..WireChaosConfig::quiet()
        };
        let (plan, m) = chaos_frames(&frames, &cfg, 9);
        // Per frame: stall, garbage send, duplicate send, real send.
        assert_eq!(plan.len(), frames.len() * 4);
        assert_eq!(m.summary()["duplicated-frame"], frames.len());
        assert_eq!(m.summary()["garbage-bytes"], frames.len());
        assert_eq!(m.summary()["stalled"], frames.len());
        for inj in &m.injections {
            if let InjectionKind::Stalled { ms } = inj.kind {
                assert!((50..=400).contains(&ms));
            }
        }
    }

    #[test]
    fn manifest_display_summarizes() {
        let events = sample_events();
        let cfg = ChaosConfig {
            duplicate_event: 1.0,
            ..ChaosConfig::quiet()
        };
        let (_, manifest) = chaos_trace(&events, &cfg, 2);
        let s = manifest.to_string();
        assert!(s.contains("50 injections"), "got: {s}");
        assert!(s.contains("duplicated-event x50"), "got: {s}");
    }
}
