//! The transport-independent request engine.
//!
//! [`ServeEngine`] owns the [`SessionTable`] and maps each decoded
//! request to a [`Response`]: a [`RequestView`] borrowed from the frame
//! as the daemon's socket workers decode it, or an owned [`Request`] as
//! the bench harness and the tests build it, through the one dispatch in
//! [`ServeEngine::handle_view`]. So wire behavior and in-process behavior
//! cannot drift.
//!
//! Ingest decoding honors the configured [`RecoveryPolicy`]: under the
//! lossy policies, malformed text records or corrupt store segments are dropped
//! and counted against *that session only* — the parse counters ride the
//! session's [`SessionMeta`] and surface in its reports and the fleet
//! totals. Under `FailFast` the whole request is refused instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use onoff_detect::{PredictionReport, RunAnalysis};
use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::trace::TraceEvent;
use onoff_store::StoreReader;
use serde::{Deserialize, Serialize};

use crate::metrics::FleetMetrics;
use crate::protocol::{Request, RequestView, Response};
use crate::session::{ServeConfig, SessionError, SessionTable};
use crate::snapshot::SessionMeta;

/// A session's analysis as answered to query and end-session requests
/// (serialized as the JSON payload of [`Response::Json`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The session id.
    pub sid: u64,
    /// Events the session has ingested.
    pub events: usize,
    /// Text/binary parse counters for the session.
    pub meta: SessionMeta,
    /// The analysis (point-in-time for queries, final for end-session).
    pub analysis: RunAnalysis,
    /// Loop-proneness predictions, when scoring is configured.
    pub predictions: Option<PredictionReport>,
    /// True when this report is final (the session is retired).
    pub ended: bool,
}

/// Upper bound on pooled parse-scratch shells. One per connection worker
/// is the steady-state demand; a small fixed cap keeps a burst of
/// concurrent frames from parking unbounded capacity in the pool.
const PARSE_SCRATCH_CAP: usize = 16;

/// Stateful request processor shared by every connection worker.
pub struct ServeEngine {
    table: SessionTable,
    frames: AtomicU64,
    frame_errors: AtomicU64,
    sheds: AtomicU64,
    /// Recycled event buffers for frame decoding (DESIGN.md §16): each
    /// ingest pops a shell, parses into it, drains it into the session
    /// table, and returns the (empty, capacity-retaining) shell here.
    parse_scratch: Mutex<Vec<Vec<TraceEvent>>>,
}

impl ServeEngine {
    /// An engine over a fresh [`SessionTable`] under `cfg`.
    pub fn new(cfg: ServeConfig) -> ServeEngine {
        ServeEngine {
            table: SessionTable::new(cfg),
            frames: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            parse_scratch: Mutex::new(Vec::new()),
        }
    }

    fn take_scratch(&self) -> Vec<TraceEvent> {
        self.parse_scratch
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    fn put_scratch(&self, mut shell: Vec<TraceEvent>) {
        shell.clear();
        if shell.capacity() == 0 {
            return;
        }
        if let Ok(mut pool) = self.parse_scratch.lock() {
            if pool.len() < PARSE_SCRATCH_CAP {
                pool.push(shell);
            }
        }
    }

    /// The underlying session table.
    pub fn table(&self) -> &SessionTable {
        &self.table
    }

    /// Adopts spilled sessions left by a previous process
    /// ([`SessionTable::recover`]).
    pub fn recover(&self) -> usize {
        self.table.recover()
    }

    /// Spills every live session for a graceful shutdown
    /// ([`SessionTable::drain`]).
    pub fn drain(&self) -> usize {
        self.table.drain()
    }

    /// Counts one connection-level framing/decoding failure (the workers
    /// call this; it keeps wire damage visible in fleet metrics).
    pub fn note_frame_error(&self) {
        self.frame_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The live fleet metrics document.
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            frames: self.frames.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            ..self.table.stats()
        }
    }

    /// Maps an owned request to its response: [`handle_view`] on its
    /// view.
    ///
    /// [`handle_view`]: ServeEngine::handle_view
    pub fn handle(&self, req: Request) -> Response {
        self.handle_view(req.view())
    }

    /// Maps a request decoded in place to its response, reading its text
    /// or store bytes where the frame holds them. Never panics on any
    /// input; failures come back as [`Response::Error`] or
    /// [`Response::Shed`].
    pub fn handle_view(&self, req: RequestView<'_>) -> Response {
        self.frames.fetch_add(1, Ordering::Relaxed);
        match req {
            RequestView::TextEvents { sid, text } => self.ingest_text(sid, text),
            RequestView::BinEvents { sid, bytes } => self.ingest_bin(sid, bytes),
            RequestView::Query { sid } => self.report(sid, false),
            RequestView::EndSession { sid } => self.report(sid, true),
            RequestView::FleetQuery => Response::Json {
                payload: serde_json::to_string(&self.metrics()).expect("metrics serialize"),
            },
            RequestView::Ping => Response::Ok { events: 0 },
        }
    }

    fn ingest_text(&self, sid: u64, text: &str) -> Response {
        let policy = self.table.config().policy;
        let mut events = self.take_scratch();
        let stats = onoff_nsglog::parse_str_lossy_into(text, policy, &mut events);
        if let (RecoveryPolicy::FailFast, Some(e)) = (policy, &stats.first_error) {
            self.put_scratch(events);
            return Response::Error {
                msg: format!("text parse: {e}"),
            };
        }
        let delta = SessionMeta {
            records: stats.records,
            parsed: stats.parsed,
            skipped: stats.skipped,
        };
        self.apply(sid, events, delta)
    }

    fn ingest_bin(&self, sid: u64, bytes: &[u8]) -> Response {
        let policy = self.table.config().policy;
        let reader = match StoreReader::new(bytes) {
            Ok(reader) => reader,
            Err(e) => {
                return Response::Error {
                    msg: format!("store decode: {e}"),
                }
            }
        };
        let mut events = self.take_scratch();
        match reader.read_all_into(policy, &mut events) {
            Ok(stats) => {
                let delta = SessionMeta {
                    records: stats.decoded + stats.skipped,
                    parsed: stats.decoded,
                    skipped: stats.skipped,
                };
                self.apply(sid, events, delta)
            }
            Err(e) => {
                self.put_scratch(events);
                Response::Error {
                    msg: format!("store decode: {e}"),
                }
            }
        }
    }

    fn apply(&self, sid: u64, mut events: Vec<TraceEvent>, delta: SessionMeta) -> Response {
        let resp = match self.table.ingest_drain(sid, &mut events, delta) {
            Ok(events) => Response::Ok { events },
            Err(e) => self.refuse(e),
        };
        self.put_scratch(events);
        resp
    }

    fn report(&self, sid: u64, end: bool) -> Response {
        let report = if end {
            self.table.end_session(sid).map(|f| SessionReport {
                sid,
                events: f.events,
                meta: f.meta,
                analysis: f.analysis,
                predictions: f.predictions,
                ended: true,
            })
        } else {
            self.table
                .query(sid)
                .map(|(analysis, predictions, meta, events)| SessionReport {
                    sid,
                    events,
                    meta,
                    analysis,
                    predictions,
                    ended: false,
                })
        };
        match report {
            Ok(report) => Response::Json {
                payload: serde_json::to_string(&report).expect("report serializes"),
            },
            Err(e) => self.refuse(e),
        }
    }

    fn refuse(&self, e: SessionError) -> Response {
        match e {
            SessionError::Shed { reason } => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
                Response::Shed { reason }
            }
            other => Response::Error {
                msg: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use onoff_detect::analyze_trace;
    use onoff_rrc::trace::Timestamp;

    use super::*;

    fn text_lines(n: usize) -> String {
        (0..n)
            .map(|k| {
                let ms = k as u64 * 500;
                format!(
                    "00:00:{:02}.{:03} Throughput = {:.1} Mbps\n",
                    ms / 1000,
                    ms % 1000,
                    1.0 + k as f64
                )
            })
            .collect()
    }

    #[test]
    fn text_ingest_query_matches_offline_analysis() {
        let engine = ServeEngine::new(ServeConfig::default());
        let text = text_lines(40);
        let resp = engine.handle(Request::TextEvents {
            sid: 1,
            text: text.clone(),
        });
        assert_eq!(resp, Response::Ok { events: 40 });
        let Response::Json { payload } = engine.handle(Request::Query { sid: 1 }) else {
            panic!("expected json");
        };
        let report: SessionReport = serde_json::from_str(&payload).unwrap();
        let (offline, _) = onoff_nsglog::parse_str_lossy(&text, RecoveryPolicy::SkipAndCount);
        assert_eq!(report.analysis, analyze_trace(&offline));
        assert_eq!(report.events, 40);
        assert!(!report.ended);
    }

    #[test]
    fn bin_ingest_accepts_store_blobs() {
        let engine = ServeEngine::new(ServeConfig::default());
        let events: Vec<TraceEvent> = (0..25)
            .map(|k| TraceEvent::Throughput {
                t: Timestamp(k * 400),
                mbps: 2.0,
            })
            .collect();
        let bytes = onoff_store::encode_events(&events);
        let resp = engine.handle(Request::BinEvents { sid: 2, bytes });
        assert_eq!(resp, Response::Ok { events: 25 });
        let Response::Json { payload } = engine.handle(Request::EndSession { sid: 2 }) else {
            panic!("expected json");
        };
        let report: SessionReport = serde_json::from_str(&payload).unwrap();
        assert!(report.ended);
        assert_eq!(report.analysis, analyze_trace(&events));
    }

    #[test]
    fn malformed_text_damages_only_its_own_session() {
        let engine = ServeEngine::new(ServeConfig::default());
        engine.handle(Request::TextEvents {
            sid: 7,
            text: text_lines(10),
        });
        let garbage = "not a record at all\n??!\n".to_string() + &text_lines(4);
        engine.handle(Request::TextEvents {
            sid: 8,
            text: garbage,
        });
        let Response::Json { payload } = engine.handle(Request::Query { sid: 7 }) else {
            panic!("expected json");
        };
        let clean: SessionReport = serde_json::from_str(&payload).unwrap();
        assert_eq!(clean.meta.skipped, 0, "clean session untouched");
        let Response::Json { payload } = engine.handle(Request::Query { sid: 8 }) else {
            panic!("expected json");
        };
        let dirty: SessionReport = serde_json::from_str(&payload).unwrap();
        assert!(dirty.meta.skipped > 0, "damage lands on the offender");
        let metrics = engine.metrics();
        assert_eq!(metrics.parse.skipped, dirty.meta.skipped);
    }

    #[test]
    fn fail_fast_refuses_a_malformed_text_frame_whole() {
        let engine = ServeEngine::new(ServeConfig {
            policy: RecoveryPolicy::FailFast,
            ..ServeConfig::default()
        });
        let dirty = text_lines(2) + "garbage line\n" + &text_lines(3);
        let resp = engine.handle(Request::TextEvents {
            sid: 5,
            text: dirty,
        });
        assert_eq!(
            resp,
            Response::Error {
                msg: "text parse: line 3: malformed HH:MM:SS.mmm timestamp: \"garbage line\""
                    .into()
            }
        );
        // The session was never created, and nothing was counted.
        assert!(matches!(
            engine.handle(Request::Query { sid: 5 }),
            Response::Error { .. }
        ));
        assert_eq!(engine.metrics().parse, SessionMeta::default());

        let resp = engine.handle(Request::TextEvents {
            sid: 6,
            text: text_lines(12),
        });
        assert_eq!(resp, Response::Ok { events: 12 });
        let Response::Json { payload } = engine.handle(Request::Query { sid: 6 }) else {
            panic!("expected json");
        };
        let report: SessionReport = serde_json::from_str(&payload).unwrap();
        assert_eq!(
            report.meta,
            SessionMeta {
                records: 12,
                parsed: 12,
                skipped: 0,
            }
        );
    }

    #[test]
    fn corrupt_store_blob_is_an_error_not_a_panic() {
        let engine = ServeEngine::new(ServeConfig::default());
        let resp = engine.handle(Request::BinEvents {
            sid: 3,
            bytes: vec![0xFF; 64],
        });
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        // The session was never created.
        assert!(matches!(
            engine.handle(Request::Query { sid: 3 }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn fleet_metrics_roundtrip_as_json() {
        let engine = ServeEngine::new(ServeConfig::default());
        engine.handle(Request::TextEvents {
            sid: 4,
            text: text_lines(6),
        });
        let Response::Json { payload } = engine.handle(Request::FleetQuery) else {
            panic!("expected json");
        };
        let metrics: FleetMetrics = serde_json::from_str(&payload).unwrap();
        assert_eq!(metrics.sessions_live, 1);
        assert_eq!(metrics.events_total, 6);
        assert_eq!(metrics.frames, 2);
    }

    #[test]
    fn ping_is_cheap_and_ok() {
        let engine = ServeEngine::new(ServeConfig::default());
        assert_eq!(engine.handle(Request::Ping), Response::Ok { events: 0 });
    }
}
