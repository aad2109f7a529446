//! The line state machine: the one place NSG text is cut into records.
//!
//! [`RecoveringParser`] is a push parser that takes a capture in pieces of
//! whole lines and applies a [`RecoveryPolicy`]. Malformed records can be
//! skipped (and counted per [`ParseErrorKind`]) or, on top of that,
//! non-monotonic timestamps repaired — so a drive-test log with a few
//! percent of corruption still yields an analyzable trace plus an exact
//! account of what was lost ([`ParseStats`]). Under
//! [`RecoveryPolicy::FailFast`] the first malformed record stops it
//! instead, which is the right default for round-trip guarantees.
//! [`parse_str_lossy`] and [`parse_str_lossy_into`] drive it over a whole
//! text, parsed in place, and [`parse_str`](crate::parse_str) is the
//! fail-fast driver.

use std::collections::BTreeMap;

use onoff_rrc::trace::{Timestamp, TraceEvent};

use crate::error::{ParseError, ParseErrorKind};
use crate::parse::parse_record;

/// What to do when a record fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the first error and stop: input past the error is never
    /// decoded. [`parse_str`](crate::parse_str) parses under this policy.
    FailFast,
    /// Drop malformed records, resynchronize at the next record head, and
    /// keep going; every drop is counted in [`ParseStats`].
    #[default]
    SkipAndCount,
    /// [`Self::SkipAndCount`], plus: events whose timestamp runs backwards
    /// are clamped up to the latest good timestamp (counted in
    /// [`ParseStats::timestamps_repaired`]), so downstream consumers see a
    /// nondecreasing clock.
    RepairTimestamps,
}

/// Exact loss accounting for one recovering parse.
///
/// Conservation invariant (enforced by property tests): for any input,
/// `parsed + skipped == records`, where `records` counts every record
/// attempt the parser saw — each head line, plus one for a leading orphan
/// continuation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParseStats {
    /// Record attempts observed (`parsed + skipped`).
    pub records: usize,
    /// Records decoded into events.
    pub parsed: usize,
    /// Records dropped as malformed.
    pub skipped: usize,
    /// Skip counts per error kind.
    pub skipped_by_kind: BTreeMap<ParseErrorKind, usize>,
    /// Orphan continuation lines discarded while resynchronizing (these
    /// belong to already-counted skipped records, not to new ones).
    pub lines_discarded: usize,
    /// Timestamps clamped forward under [`RecoveryPolicy::RepairTimestamps`].
    pub timestamps_repaired: usize,
    /// The first error encountered, kept for reporting even when skipped.
    pub first_error: Option<ParseError>,
}

impl ParseStats {
    /// Fraction of record attempts lost (0.0 on empty input).
    pub fn loss_ratio(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.skipped as f64 / self.records as f64
        }
    }
}

impl std::fmt::Display for ParseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} records: {} parsed, {} skipped ({:.1}% loss), {} repaired timestamps",
            self.records,
            self.parsed,
            self.skipped,
            self.loss_ratio() * 100.0,
            self.timestamps_repaired,
        )
    }
}

/// The lossy, policy-driven push parser.
///
/// [`push`](Self::push) takes the capture in pieces made of whole lines
/// (every piece but the last ends in a newline) and hands each recovered
/// event to a sink as soon as the next record head shows the record
/// complete; [`finish`](Self::finish) flushes the last record and returns
/// the loss accounting. Line numbers, the accounting, the
/// [`RecoveryPolicy::FailFast`] fuse and the
/// [`RecoveryPolicy::RepairTimestamps`] clock carry from one piece to the
/// next, so any cut into whole-line pieces yields the events and
/// [`ParseStats`] that [`parse_str_lossy`] gives for the whole text.
///
/// Records are decoded in place in the piece that holds them. The one
/// exception is the record still open when a piece ends: its lines are
/// copied into the parser (the only text it keeps) until the record
/// completes in a later piece. A parser is reusable: `finish` leaves it
/// ready for the next text, with its buffers kept.
///
/// Under the recovering policies failures are skipped and counted; under
/// `FailFast` the first one fuses the parser, so later input is ignored.
/// Either way the error is in [`ParseStats::first_error`].
///
/// ```
/// use onoff_nsglog::{RecoveringParser, RecoveryPolicy};
///
/// let mut parser = RecoveringParser::new(RecoveryPolicy::SkipAndCount);
/// let mut events = Vec::new();
/// parser.push(
///     "00:00:01.000 Throughput = 1.5 Mbps\n\
///      <corrupt line the capture tool interleaved>\n\
///      00:00:02.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n",
///     |ev| events.push(ev),
/// );
/// // The MIB record continues in the next piece.
/// parser.push(
///     "  Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n",
///     |ev| events.push(ev),
/// );
/// let stats = parser.finish(|ev| events.push(ev));
/// assert_eq!(events.len(), 2);
/// assert_eq!((stats.records, stats.parsed, stats.skipped), (3, 2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct RecoveringParser {
    policy: RecoveryPolicy,
    stats: ParseStats,
    /// Lines pushed so far, blank ones included (1-based numbering).
    lineno: usize,
    /// Latest good timestamp, for [`RecoveryPolicy::RepairTimestamps`].
    last_t: Timestamp,
    state: State,
    /// Line number of the open record's head.
    head_line: usize,
    /// The open record's lines, head first, each newline-terminated, once
    /// the record has outlived the piece it started in.
    carry: String,
    /// The one buffer every record's continuation lines are gathered in,
    /// kept empty between calls for its capacity (see [`relend`]).
    body: Vec<&'static str>,
}

/// Where a [`RecoveringParser`] stands between two lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No line with content yet.
    Start,
    /// In a leading run of continuation lines, already counted as one
    /// skipped record: the rest of the run is discarded.
    Orphans,
    /// A record's head has been seen; its continuation lines may follow.
    Open,
    /// A [`RecoveryPolicy::FailFast`] error was met: input is ignored.
    Fused,
}

impl RecoveringParser {
    /// A parser at the start of a text, under `policy`.
    pub fn new(policy: RecoveryPolicy) -> RecoveringParser {
        RecoveringParser {
            policy,
            stats: ParseStats::default(),
            lineno: 0,
            last_t: Timestamp(0),
            state: State::Start,
            head_line: 0,
            carry: String::new(),
            body: Vec::new(),
        }
    }

    /// Parses the next piece of the text, a run of whole lines, passing
    /// each recovered event to `sink` in order.
    pub fn push(&mut self, piece: &str, mut sink: impl FnMut(TraceEvent)) {
        self.feed(piece, false, &mut sink);
    }

    /// Ends the text: parses the record still open, passing its event (if
    /// it has one) to `sink`, and returns the text's loss accounting. The
    /// parser is left ready for a new text under the same policy.
    pub fn finish(&mut self, sink: impl FnMut(TraceEvent)) -> ParseStats {
        self.finish_with("", sink)
    }

    /// [`push`](Self::push) of a last piece and [`finish`](Self::finish)
    /// at once: the piece's last record is decoded in place instead of
    /// being carried.
    fn finish_with(&mut self, last: &str, mut sink: impl FnMut(TraceEvent)) -> ParseStats {
        self.feed(last, true, &mut sink);
        let stats = std::mem::take(&mut self.stats);
        self.lineno = 0;
        self.last_t = Timestamp(0);
        self.state = State::Start;
        self.carry.clear();
        stats
    }

    /// Runs `piece` through the line state machine; with `end`, also
    /// closes the record left open, as the end of the text does.
    fn feed(&mut self, piece: &str, end: bool, sink: &mut impl FnMut(TraceEvent)) {
        let mut body = relend(std::mem::take(&mut self.body));
        self.feed_lines(piece, end, &mut body, sink);
        self.body = relend(body);
    }

    /// The body of [`feed`](Self::feed), gathering continuation lines in
    /// `body`.
    fn feed_lines<'p>(
        &mut self,
        piece: &'p str,
        end: bool,
        body: &mut Vec<&'p str>,
        sink: &mut impl FnMut(TraceEvent),
    ) {
        // The open record while its head lies in `piece`; when it does
        // not, the open record is in `carry`.
        let mut head = None;
        for raw in piece.lines() {
            if self.state == State::Fused {
                return;
            }
            self.lineno += 1;
            let Some(line) = content_line(raw) else {
                continue;
            };
            if is_continuation(line) {
                match (self.state, head) {
                    (State::Start, _) => {
                        self.head_line = self.lineno;
                        self.skip(ParseErrorKind::OrphanContinuation, line);
                        if self.state == State::Start {
                            self.state = State::Orphans;
                        }
                    }
                    (State::Orphans, _) => self.stats.lines_discarded += 1,
                    (_, Some(_)) => body.push(line),
                    (_, None) => {
                        self.carry.push_str(line);
                        self.carry.push('\n');
                    }
                }
                continue;
            }
            if self.state == State::Open {
                match head {
                    Some(head) => self.close(head, body, sink),
                    None => self.close_carried(body, sink),
                }
                if self.state == State::Fused {
                    return;
                }
            }
            head = Some(line);
            body.clear();
            self.head_line = self.lineno;
            self.state = State::Open;
        }
        match head {
            Some(head) if end => self.close(head, body, sink),
            Some(head) => {
                for line in std::iter::once(head).chain(body.iter().copied()) {
                    self.carry.push_str(line);
                    self.carry.push('\n');
                }
            }
            None if end && self.state == State::Open => self.close_carried(body, sink),
            None => {}
        }
    }

    /// Decodes the open record from `carry` (stored lines hold no
    /// newline, so splitting on it restores them exactly), gathering its
    /// continuation lines in `spare`'s buffer.
    fn close_carried(&mut self, spare: &mut Vec<&str>, sink: &mut impl FnMut(TraceEvent)) {
        let mut carry = std::mem::take(&mut self.carry);
        let mut lines = carry.split_terminator('\n');
        let head = lines.next().expect("a carried record holds its head");
        let mut body = relend(std::mem::take(spare));
        body.extend(lines);
        self.close(head, &body, sink);
        *spare = relend(body);
        carry.clear();
        self.carry = carry;
    }

    /// Decodes the open record and accounts for it.
    fn close(&mut self, head: &str, body: &[&str], sink: &mut impl FnMut(TraceEvent)) {
        match parse_record(head, body) {
            Ok(mut ev) => {
                self.stats.records += 1;
                self.stats.parsed += 1;
                if self.policy == RecoveryPolicy::RepairTimestamps {
                    let t = ev.t();
                    if t < self.last_t {
                        ev.set_t(self.last_t);
                        self.stats.timestamps_repaired += 1;
                    } else {
                        self.last_t = t;
                    }
                }
                sink(ev);
            }
            Err(kind) => self.skip(kind, head),
        }
    }

    /// Counts a failed record whose first line (numbered `head_line`) is
    /// `text`. The error itself, which copies the line, is built only when
    /// it is the text's first.
    fn skip(&mut self, kind: ParseErrorKind, text: &str) {
        self.stats.records += 1;
        self.stats.skipped += 1;
        if self.stats.first_error.is_none() {
            self.stats.first_error = Some(ParseError::new(self.head_line, kind.clone(), text));
        }
        *self.stats.skipped_by_kind.entry(kind).or_insert(0) += 1;
        if self.policy == RecoveryPolicy::FailFast {
            self.state = State::Fused;
        }
    }
}

/// Empties `lines` and hands its buffer back for slices of another
/// lifetime: collecting the empty vector in place keeps the allocation.
fn relend<'a>(mut lines: Vec<&str>) -> Vec<&'a str> {
    lines.clear();
    lines.into_iter().map(|_| "").collect()
}

/// A raw source line as the parser sees it: `None` for a blank line,
/// otherwise the line with a trailing `\r` (CRLF exports) removed.
fn content_line(raw: &str) -> Option<&str> {
    let line = raw.strip_suffix('\r').unwrap_or(raw);
    (!line.trim().is_empty()).then_some(line)
}

/// Whether a non-blank line continues the current record (is indented)
/// rather than starting one.
fn is_continuation(line: &str) -> bool {
    line.starts_with(char::is_whitespace)
}

/// Batch driver over [`RecoveringParser`]: parses what it can and returns
/// the surviving events with the loss accounting.
///
/// Under [`RecoveryPolicy::FailFast`] this returns the clean prefix (the
/// error is in [`ParseStats::first_error`]); under the recovering policies
/// it consumes the whole input.
pub fn parse_str_lossy(text: &str, policy: RecoveryPolicy) -> (Vec<TraceEvent>, ParseStats) {
    let mut events = Vec::new();
    let stats = parse_str_lossy_into(text, policy, &mut events);
    (events, stats)
}

/// [`parse_str_lossy`] into a caller-owned buffer: `out` is cleared, then
/// filled with the recoverable events, retaining its capacity across calls
/// so a serving loop can recycle one parse buffer per frame. The text is
/// pushed as one last piece, so every record is decoded in place.
pub fn parse_str_lossy_into(
    text: &str,
    policy: RecoveryPolicy,
    out: &mut Vec<TraceEvent>,
) -> ParseStats {
    out.clear();
    RecoveringParser::new(policy).finish_with(text, |ev| out.push(ev))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "00:00:01.000 MM5G State = REGISTERED\n\
                         00:00:02.000 Throughput = 1.5 Mbps\n\
                         00:00:03.000 Throughput = 2.5 Mbps\n";

    #[test]
    fn clean_input_is_lossless_under_every_policy() {
        for policy in [
            RecoveryPolicy::FailFast,
            RecoveryPolicy::SkipAndCount,
            RecoveryPolicy::RepairTimestamps,
        ] {
            let (events, stats) = parse_str_lossy(CLEAN, policy);
            assert_eq!(events, crate::parse_str(CLEAN).unwrap());
            assert_eq!((stats.records, stats.parsed, stats.skipped), (3, 3, 0));
            assert!(stats.first_error.is_none());
        }
    }

    #[test]
    fn skip_and_count_resumes_after_bad_record() {
        let dirty = "00:00:01.000 MM5G State = REGISTERED\n\
                     00:00:01.500 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
                     Physical Cell ID = 393\n\
                     00:00:02.000 Throughput = 1.5 Mbps\n";
        let (events, stats) = parse_str_lossy(dirty, RecoveryPolicy::SkipAndCount);
        assert_eq!(events.len(), 2);
        assert_eq!((stats.records, stats.parsed, stats.skipped), (3, 2, 1));
        assert_eq!(
            stats.skipped_by_kind[&ParseErrorKind::MissingField("Freq")],
            1
        );
        let first = stats.first_error.unwrap();
        assert_eq!(first.line, 2);
    }

    #[test]
    fn fail_fast_stops_at_the_first_error() {
        let dirty = "00:00:01.000 MM5G State = REGISTERED\nnot a record\n\
                     00:00:02.000 Throughput = 1.5 Mbps\n";
        let (events, stats) = parse_str_lossy(dirty, RecoveryPolicy::FailFast);
        assert_eq!(events.len(), 1);
        assert_eq!((stats.records, stats.parsed, stats.skipped), (2, 1, 1));
        let err = crate::parse_str(dirty).unwrap_err();
        assert_eq!((err.line, &err.kind), (2, &ParseErrorKind::BadTimestamp));
        assert_eq!(stats.first_error, Some(err));
    }

    #[test]
    fn leading_orphan_run_counts_once() {
        let dirty = "  orphan one\n  orphan two\n  orphan three\n\
                     00:00:02.000 Throughput = 1.5 Mbps\n";
        let (events, stats) = parse_str_lossy(dirty, RecoveryPolicy::SkipAndCount);
        assert_eq!(events.len(), 1);
        assert_eq!((stats.records, stats.parsed, stats.skipped), (2, 1, 1));
        assert_eq!(stats.lines_discarded, 2);
        assert_eq!(
            stats.skipped_by_kind[&ParseErrorKind::OrphanContinuation],
            1
        );
    }

    #[test]
    fn repair_timestamps_clamps_rollbacks() {
        let dirty = "00:00:05.000 Throughput = 1.0 Mbps\n\
                     00:00:02.000 Throughput = 2.0 Mbps\n\
                     00:00:06.000 Throughput = 3.0 Mbps\n";
        let (events, stats) = parse_str_lossy(dirty, RecoveryPolicy::RepairTimestamps);
        let ts: Vec<u64> = events.iter().map(|e| e.t().millis()).collect();
        assert_eq!(ts, vec![5_000, 5_000, 6_000]);
        assert_eq!(stats.timestamps_repaired, 1);
        // Skip-and-count leaves the rollback in place.
        let (raw, raw_stats) = parse_str_lossy(dirty, RecoveryPolicy::SkipAndCount);
        assert_eq!(raw[1].t().millis(), 2_000);
        assert_eq!(raw_stats.timestamps_repaired, 0);
    }

    #[test]
    fn stats_display_is_compact() {
        let (_, stats) = parse_str_lossy(CLEAN, RecoveryPolicy::SkipAndCount);
        assert_eq!(
            stats.to_string(),
            "3 records: 3 parsed, 0 skipped (0.0% loss), 0 repaired timestamps"
        );
    }
}
