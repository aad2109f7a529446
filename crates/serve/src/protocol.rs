//! The daemon's length-prefixed framed wire protocol.
//!
//! Every frame is `u32 LE length | u8 kind | payload`, where `length`
//! counts the kind byte plus the payload (so the minimum frame is 5 bytes
//! on the wire encoding `length == 1`). Requests that address a session
//! carry its `u64 LE` session id as the first 8 payload bytes — at byte
//! offset [`SID_OFFSET`] of the frame, which is what the wire chaos
//! harness's sid-rewrite mutator targets.
//!
//! Decoding is **total** per connection: an unknown request kind is a
//! recoverable [`Response::Error`] (the frame boundary is still known, so
//! the stream stays in sync), while an oversized or absurd length prefix
//! means the framing itself can no longer be trusted — the connection is
//! poisoned ([`FrameError::Poisoned`]) and closed, and only that
//! connection suffers.

use std::fmt;

/// Byte offset of the `u64 LE` session id within a sid-bearing frame
/// (4 length bytes + 1 kind byte).
pub const SID_OFFSET: usize = 5;

/// Frames whose declared length exceeds this poison the connection.
pub const MAX_FRAME_LEN: usize = 8 << 20;

/// A client-to-daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append NSG text lines to session `sid` (UTF-8; parsed under the
    /// daemon's lossy recovery policy). Payloads larger than one frame
    /// ([`MAX_FRAME_LEN`]) must be chunked across multiple requests.
    TextEvents {
        /// Target session.
        sid: u64,
        /// Raw NSG log text.
        text: String,
    },
    /// Append an `onoff-store` binary blob to session `sid`. Blobs
    /// larger than one frame ([`MAX_FRAME_LEN`]) must be split into
    /// multiple complete store images sent as separate requests.
    BinEvents {
        /// Target session.
        sid: u64,
        /// A complete store file image.
        bytes: Vec<u8>,
    },
    /// Point-in-time analysis of session `sid` as JSON.
    Query {
        /// Target session.
        sid: u64,
    },
    /// Live fleet metrics as JSON.
    FleetQuery,
    /// Finalize session `sid`: returns its full analysis as JSON and
    /// retires the session.
    EndSession {
        /// Target session.
        sid: u64,
    },
    /// Liveness probe; answered with [`Response::Ok`].
    Ping,
}

const REQ_TEXT: u8 = 0x01;
const REQ_BIN: u8 = 0x02;
const REQ_QUERY: u8 = 0x03;
const REQ_FLEET: u8 = 0x04;
const REQ_END: u8 = 0x05;
const REQ_PING: u8 = 0x06;

/// A daemon-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was applied; `events` is how many events it ingested
    /// (0 for ping).
    Ok {
        /// Events accepted by this request.
        events: u64,
    },
    /// The request failed; the connection remains usable.
    Error {
        /// Human-readable diagnostic.
        msg: String,
    },
    /// Explicit backpressure: the daemon refused the ingest to hold its
    /// memory budget. Nothing was applied; the client should back off,
    /// end idle sessions, or retry later.
    Shed {
        /// Why the ingest was refused.
        reason: String,
    },
    /// A JSON document (query and metrics answers).
    Json {
        /// The serialized payload.
        payload: String,
    },
}

const RESP_OK: u8 = 0x80;
const RESP_ERROR: u8 = 0x81;
const RESP_SHED: u8 = 0x82;
const RESP_JSON: u8 = 0x83;

/// Why a connection's byte stream can no longer be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero): the
    /// framing is desynchronized and the connection must be closed.
    Poisoned {
        /// The offending declared length.
        declared: usize,
    },
    /// The payload is too large to frame at all ([`Request::encode`]
    /// refuses rather than emit a frame the daemon would poison the
    /// connection for): chunk it across multiple requests.
    TooLarge {
        /// The would-be frame body length (kind byte + payload).
        len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Poisoned { declared } => {
                write!(
                    f,
                    "unframeable length prefix {declared} (max {MAX_FRAME_LEN}); closing connection"
                )
            }
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit; \
                     chunk it across multiple requests"
                )
            }
        }
    }
}

/// Why a well-framed payload failed to decode (recoverable per frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The kind byte is not a known request/response.
    UnknownKind(u8),
    /// The payload is too short for its kind's fixed fields.
    Truncated,
    /// A text payload was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            DecodeError::Truncated => write!(f, "payload shorter than its fixed fields"),
            DecodeError::BadUtf8 => write!(f, "text payload is not valid UTF-8"),
        }
    }
}

/// Appends one frame to `out`: the header, then `parts` back to back as
/// the payload.
fn frame_into(out: &mut Vec<u8>, kind: u8, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    // Request::encode rejects oversized payloads before reaching here;
    // responses are bounded by the budgets upstream. The assert guards
    // the u32 cast below from ever silently wrapping at 4 GiB.
    debug_assert!(len < MAX_FRAME_LEN);
    out.reserve(5 + len);
    out.extend_from_slice(&(len as u32 + 1).to_le_bytes());
    out.push(kind);
    for part in parts {
        out.extend_from_slice(part);
    }
}

fn split_sid(payload: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
    if payload.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let sid = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok((sid, &payload[8..]))
}

impl Request {
    /// Encodes the request as one wire frame.
    ///
    /// Fails with [`FrameError::TooLarge`] when the payload cannot fit a
    /// single frame — sending such bytes would make the daemon poison the
    /// connection. Large ingests must be chunked across multiple
    /// `TextEvents`/`BinEvents` requests; analyzer state is cumulative
    /// per session, so chunking does not change the analysis.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let (kind, sid, body): (u8, Option<u64>, &[u8]) = match self {
            Request::TextEvents { sid, text } => (REQ_TEXT, Some(*sid), text.as_bytes()),
            Request::BinEvents { sid, bytes } => (REQ_BIN, Some(*sid), bytes),
            Request::Query { sid } => (REQ_QUERY, Some(*sid), &[]),
            Request::FleetQuery => (REQ_FLEET, None, &[]),
            Request::EndSession { sid } => (REQ_END, Some(*sid), &[]),
            Request::Ping => (REQ_PING, None, &[]),
        };
        let sid = sid.map(u64::to_le_bytes);
        let sid: &[u8] = sid.as_ref().map_or(&[], |s| s);
        let len = 1 + sid.len() + body.len();
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge { len });
        }
        let mut out = Vec::new();
        frame_into(&mut out, kind, &[sid, body]);
        Ok(out)
    }

    /// Decodes one frame body (`kind` byte plus payload) into an owned
    /// request: [`RequestView::decode`], copied out of the frame.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, DecodeError> {
        RequestView::decode(kind, payload).map(Request::from)
    }

    /// The request as the borrowed view the engine dispatches on.
    pub fn view(&self) -> RequestView<'_> {
        match self {
            Request::TextEvents { sid, text } => RequestView::TextEvents { sid: *sid, text },
            Request::BinEvents { sid, bytes } => RequestView::BinEvents { sid: *sid, bytes },
            Request::Query { sid } => RequestView::Query { sid: *sid },
            Request::FleetQuery => RequestView::FleetQuery,
            Request::EndSession { sid } => RequestView::EndSession { sid: *sid },
            Request::Ping => RequestView::Ping,
        }
    }
}

/// A request decoded where its frame lies: the text and store bytes
/// borrow the frame's payload instead of copying it.
///
/// The daemon decodes every frame into a view and hands it to
/// [`ServeEngine::handle_view`](crate::ServeEngine::handle_view), so
/// nothing is copied between the socket read and the parser. The owned
/// [`Request`] clients build converts to and from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestView<'a> {
    /// See [`Request::TextEvents`]; the text is checked UTF-8.
    TextEvents {
        /// Target session.
        sid: u64,
        /// Raw NSG log text.
        text: &'a str,
    },
    /// See [`Request::BinEvents`].
    BinEvents {
        /// Target session.
        sid: u64,
        /// A complete store file image.
        bytes: &'a [u8],
    },
    /// See [`Request::Query`].
    Query {
        /// Target session.
        sid: u64,
    },
    /// See [`Request::FleetQuery`].
    FleetQuery,
    /// See [`Request::EndSession`].
    EndSession {
        /// Target session.
        sid: u64,
    },
    /// See [`Request::Ping`].
    Ping,
}

impl<'a> RequestView<'a> {
    /// Decodes one frame body (`kind` byte plus payload) in place.
    pub fn decode(kind: u8, payload: &'a [u8]) -> Result<RequestView<'a>, DecodeError> {
        match kind {
            REQ_TEXT => {
                let (sid, rest) = split_sid(payload)?;
                let text = std::str::from_utf8(rest).map_err(|_| DecodeError::BadUtf8)?;
                Ok(RequestView::TextEvents { sid, text })
            }
            REQ_BIN => {
                let (sid, bytes) = split_sid(payload)?;
                Ok(RequestView::BinEvents { sid, bytes })
            }
            REQ_QUERY => Ok(RequestView::Query {
                sid: split_sid(payload)?.0,
            }),
            REQ_FLEET => Ok(RequestView::FleetQuery),
            REQ_END => Ok(RequestView::EndSession {
                sid: split_sid(payload)?.0,
            }),
            REQ_PING => Ok(RequestView::Ping),
            k => Err(DecodeError::UnknownKind(k)),
        }
    }
}

impl From<RequestView<'_>> for Request {
    fn from(view: RequestView<'_>) -> Request {
        match view {
            RequestView::TextEvents { sid, text } => Request::TextEvents {
                sid,
                text: text.to_owned(),
            },
            RequestView::BinEvents { sid, bytes } => Request::BinEvents {
                sid,
                bytes: bytes.to_vec(),
            },
            RequestView::Query { sid } => Request::Query { sid },
            RequestView::FleetQuery => Request::FleetQuery,
            RequestView::EndSession { sid } => Request::EndSession { sid },
            RequestView::Ping => Request::Ping,
        }
    }
}

impl Response {
    /// Encodes the response as one wire frame, in a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response to `out` as one wire frame, so a connection
    /// can encode every answer into one reused buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let events;
        let (kind, payload): (u8, &[u8]) = match self {
            Response::Ok { events: n } => {
                events = n.to_le_bytes();
                (RESP_OK, &events)
            }
            Response::Error { msg } => (RESP_ERROR, msg.as_bytes()),
            Response::Shed { reason } => (RESP_SHED, reason.as_bytes()),
            Response::Json { payload } => (RESP_JSON, payload.as_bytes()),
        };
        frame_into(out, kind, &[payload]);
    }

    /// Decodes one frame body (`kind` byte plus payload).
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, DecodeError> {
        let text =
            |payload: &[u8]| String::from_utf8(payload.to_vec()).map_err(|_| DecodeError::BadUtf8);
        match kind {
            RESP_OK => {
                if payload.len() < 8 {
                    return Err(DecodeError::Truncated);
                }
                Ok(Response::Ok {
                    events: u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")),
                })
            }
            RESP_ERROR => Ok(Response::Error {
                msg: text(payload)?,
            }),
            RESP_SHED => Ok(Response::Shed {
                reason: text(payload)?,
            }),
            RESP_JSON => Ok(Response::Json {
                payload: text(payload)?,
            }),
            k => Err(DecodeError::UnknownKind(k)),
        }
    }
}

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// Push whatever the socket produced with [`push`](FrameBuf::push); pop
/// complete `(kind, payload)` frames with [`next_frame`](FrameBuf::next_frame),
/// which lends each payload where the buffer holds it. Popped frames stay
/// in place until the next push drops them all in one compaction, so the
/// buffer never holds more than one maximum frame, a header and one push,
/// and a client cannot balloon daemon memory by writing an endless frame.
/// It grows only as bytes arrive, never from a declared length.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already popped as frames.
    consumed: usize,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw socket bytes, first dropping every frame popped since
    /// the last push.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet popped (incomplete frame
    /// remainder, or whole frames not yet popped).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete frame, if one is buffered, lending its
    /// payload until the next call.
    ///
    /// `Ok(Some((kind, payload)))` — a full frame; `Ok(None)` — need more
    /// bytes; `Err` — the length prefix is unframeable and the connection
    /// must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, FrameError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if declared == 0 || declared > MAX_FRAME_LEN {
            return Err(FrameError::Poisoned { declared });
        }
        if pending.len() < 4 + declared {
            return Ok(None);
        }
        let frame = &self.buf[self.consumed + 4..self.consumed + 4 + declared];
        self.consumed += 4 + declared;
        Ok(Some((frame[0], &frame[1..])))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, kind, &[payload]);
        out
    }

    fn roundtrip_req(req: Request) {
        let wire = req.encode().unwrap();
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        let (kind, payload) = fb.next_frame().unwrap().expect("one frame");
        assert_eq!(Request::decode(kind, payload).unwrap(), req);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::TextEvents {
            sid: 7,
            text: "00:00:01.000 Throughput = 1.0 Mbps\n".into(),
        });
        roundtrip_req(Request::BinEvents {
            sid: u64::MAX,
            bytes: vec![1, 2, 3],
        });
        roundtrip_req(Request::Query { sid: 0 });
        roundtrip_req(Request::FleetQuery);
        roundtrip_req(Request::EndSession { sid: 42 });
        roundtrip_req(Request::Ping);
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ok { events: 99 },
            Response::Error { msg: "nope".into() },
            Response::Shed {
                reason: "budget".into(),
            },
            Response::Json {
                payload: "{}".into(),
            },
        ] {
            let wire = resp.encode();
            let mut fb = FrameBuf::new();
            fb.push(&wire);
            let (kind, payload) = fb.next_frame().unwrap().expect("one frame");
            assert_eq!(Response::decode(kind, payload).unwrap(), resp);
        }
    }

    #[test]
    fn sid_sits_at_the_documented_offset() {
        let wire = Request::Query { sid: 0xDEAD_BEEF }.encode().unwrap();
        let sid = u64::from_le_bytes(wire[SID_OFFSET..SID_OFFSET + 8].try_into().unwrap());
        assert_eq!(sid, 0xDEAD_BEEF);
    }

    #[test]
    fn dribbled_bytes_reassemble() {
        let wire = Request::TextEvents {
            sid: 3,
            text: "line\n".into(),
        }
        .encode()
        .unwrap();
        let mut fb = FrameBuf::new();
        for b in &wire[..wire.len() - 1] {
            fb.push(std::slice::from_ref(b));
            assert_eq!(fb.next_frame().unwrap(), None);
        }
        fb.push(&wire[wire.len() - 1..]);
        assert!(fb.next_frame().unwrap().is_some());
    }

    #[test]
    fn two_frames_in_one_push_both_pop() {
        let mut fb = FrameBuf::new();
        let a = Request::Ping.encode().unwrap();
        let b = Request::Query { sid: 5 }.encode().unwrap();
        fb.push(&[a.as_slice(), b.as_slice()].concat());
        assert_eq!(fb.next_frame().unwrap().unwrap().0, REQ_PING);
        assert_eq!(fb.next_frame().unwrap().unwrap().0, REQ_QUERY);
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_and_zero_lengths_poison() {
        let mut fb = FrameBuf::new();
        fb.push(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            fb.next_frame(),
            Err(FrameError::Poisoned { declared }) if declared == MAX_FRAME_LEN + 1
        ));
        let mut fb = FrameBuf::new();
        fb.push(&0u32.to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn oversized_requests_refuse_to_encode() {
        let req = Request::BinEvents {
            sid: 1,
            bytes: vec![0u8; MAX_FRAME_LEN],
        };
        assert!(
            matches!(req.encode(), Err(FrameError::TooLarge { .. })),
            "an unframeable payload must not encode"
        );
        // One byte under the limit (minus kind + sid) still frames.
        let req = Request::BinEvents {
            sid: 1,
            bytes: vec![0u8; MAX_FRAME_LEN - 9],
        };
        let wire = req.encode().unwrap();
        let mut fb = FrameBuf::new();
        fb.push(&wire);
        assert!(fb.next_frame().unwrap().is_some());
    }

    #[test]
    fn unknown_kind_is_recoverable_not_poisonous() {
        let mut fb = FrameBuf::new();
        fb.push(&frame(0x7F, b"whatever"));
        fb.push(&Request::Ping.encode().unwrap());
        let (kind, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(
            Request::decode(kind, payload),
            Err(DecodeError::UnknownKind(0x7F))
        );
        // The stream is still in sync: the next frame decodes fine.
        let (kind, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(Request::decode(kind, payload), Ok(Request::Ping));
    }

    /// A request or a response, as the property below frames it.
    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Req(Request),
        Resp(Response),
    }

    impl Msg {
        /// A message of kind `which` (one of all ten) whose text or bytes
        /// are `len` long, drawn from `seed`.
        fn new(which: u8, len: usize, seed: u64) -> Msg {
            let text = || {
                let printable = (0..len).map(|i| b' ' + ((seed as usize + i) % 95) as u8);
                String::from_utf8(printable.collect()).expect("ASCII")
            };
            let bytes = (0..len).map(|i| (seed as usize + i * 31) as u8);
            match which {
                0 => Msg::Req(Request::TextEvents {
                    sid: seed,
                    text: text(),
                }),
                1 => Msg::Req(Request::BinEvents {
                    sid: seed,
                    bytes: bytes.collect(),
                }),
                2 => Msg::Req(Request::Query { sid: seed }),
                3 => Msg::Req(Request::FleetQuery),
                4 => Msg::Req(Request::EndSession { sid: seed }),
                5 => Msg::Req(Request::Ping),
                6 => Msg::Resp(Response::Ok { events: seed }),
                7 => Msg::Resp(Response::Error { msg: text() }),
                8 => Msg::Resp(Response::Shed { reason: text() }),
                _ => Msg::Resp(Response::Json { payload: text() }),
            }
        }

        fn encode(&self) -> Vec<u8> {
            match self {
                Msg::Req(req) => req.encode().expect("the payload fits a frame"),
                Msg::Resp(resp) => resp.encode(),
            }
        }

        /// Decodes a popped frame as the same side's message.
        fn decode_as(&self, kind: u8, payload: &[u8]) -> Result<Msg, DecodeError> {
            match self {
                Msg::Req(_) => Request::decode(kind, payload).map(Msg::Req),
                Msg::Resp(_) => Response::decode(kind, payload).map(Msg::Resp),
            }
        }
    }

    /// A length from 0 to `max`, log-uniform, so that single bytes and
    /// hundreds of KiB both turn up.
    fn log_len(max: usize) -> impl Strategy<Value = usize> {
        (0..=usize::BITS - max.leading_zeros())
            .prop_flat_map(move |bits| 0..=(1usize << bits).min(max))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Frames of every kind, with payloads from 0 B to 200 KiB, encoded
        /// back to back and pushed in random splits from 1 B to several
        /// frames: every frame pops out equal and in order, what is pending
        /// is what was pushed and not popped, and no popped byte survives
        /// a push.
        #[test]
        fn frames_pop_whole_from_any_split_of_the_stream(
            specs in prop::collection::vec((0u8..10, log_len(200 << 10), any::<u64>()), 1..8),
            splits in prop::collection::vec(log_len(1 << 20), 1..32),
        ) {
            let msgs: Vec<Msg> = specs
                .iter()
                .map(|&(which, len, seed)| Msg::new(which, len, seed))
                .collect();
            let wire: Vec<u8> = msgs.iter().flat_map(Msg::encode).collect();
            let mut fb = FrameBuf::new();
            let (mut pushed, mut popped, mut next) = (0, 0, 0);
            for &split in splits.iter().cycle() {
                if pushed == wire.len() {
                    break;
                }
                let n = split.clamp(1, wire.len() - pushed);
                fb.push(&wire[pushed..pushed + n]);
                pushed += n;
                prop_assert!(
                    fb.buf.len() == fb.pending_bytes(),
                    "{} popped bytes survived a push",
                    fb.buf.len() - fb.pending_bytes()
                );
                while let Some((kind, payload)) = fb.next_frame().expect("well framed") {
                    prop_assert!(next < msgs.len(), "more frames popped than pushed");
                    prop_assert_eq!(msgs[next].decode_as(kind, payload), Ok(msgs[next].clone()));
                    popped += 5 + payload.len();
                    next += 1;
                }
                prop_assert_eq!(fb.pending_bytes(), pushed - popped);
            }
            prop_assert_eq!(next, msgs.len());
            prop_assert_eq!(fb.pending_bytes(), 0);
        }
    }
}
