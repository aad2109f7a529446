//! Lossy parse recovery for dirty field captures.
//!
//! [`parse_lines`] is fail-fast: the first malformed record fuses the
//! iterator, which is the right default for round-trip guarantees but
//! discards an entire capture over one truncated line.
//! [`RecoveringParser`] wraps it with a [`RecoveryPolicy`]: malformed
//! records can be skipped (and counted per [`ParseErrorKind`]) or, on top
//! of that, non-monotonic timestamps repaired — so a drive-test log with a
//! few percent of corruption still yields an analyzable trace plus an
//! exact account of what was lost ([`ParseStats`]).

use std::collections::BTreeMap;

use onoff_rrc::trace::{Timestamp, TraceEvent};

use crate::error::{ParseError, ParseErrorKind};
use crate::parse::{parse_lines, ParseLines};

/// What to do when a record fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the first error and stop, exactly like [`parse_lines`].
    /// Input past the error is never examined.
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

/// A lossy, policy-driven wrapper over the streaming parser.
///
/// Yields `Result<TraceEvent, ParseError>` like [`parse_lines`]; under the
/// recovering policies the `Err` arm never surfaces (failures are skipped
/// and counted), so `filter_map(Result::ok)` loses nothing that
/// [`stats`](Self::stats) doesn't report.
///
/// ```
/// use onoff_nsglog::{RecoveringParser, RecoveryPolicy};
///
/// let dirty = "00:00:01.000 Throughput = 1.5 Mbps\n\
///              <corrupt line the capture tool interleaved>\n\
///              00:00:02.000 Throughput = 2.0 Mbps\n";
/// let mut parser = RecoveringParser::new(dirty.lines(), RecoveryPolicy::SkipAndCount);
/// let events: Vec<_> = parser.by_ref().filter_map(Result::ok).collect();
/// let stats = parser.stats();
/// assert_eq!(events.len(), 2);
/// assert_eq!((stats.records, stats.parsed, stats.skipped), (3, 2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct RecoveringParser<'a, I: Iterator<Item = &'a str>> {
    inner: ParseLines<'a, I>,
    policy: RecoveryPolicy,
    stats: ParseStats,
    /// Latest good timestamp, for [`RecoveryPolicy::RepairTimestamps`].
    last_t: Timestamp,
    /// Set once a [`RecoveryPolicy::FailFast`] error has been yielded.
    fused: bool,
}

impl<'a, I: Iterator<Item = &'a str>> RecoveringParser<'a, I> {
    /// Wraps a line source with the given policy.
    pub fn new<S>(lines: S, policy: RecoveryPolicy) -> RecoveringParser<'a, S::IntoIter>
    where
        S: IntoIterator<Item = &'a str, IntoIter = I>,
    {
        RecoveringParser {
            inner: parse_lines(lines),
            policy,
            stats: ParseStats::default(),
            last_t: Timestamp(0),
            fused: false,
        }
    }

    /// Loss accounting so far (final once the iterator returns `None`).
    pub fn stats(&self) -> &ParseStats {
        &self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }
}

impl<'a, I: Iterator<Item = &'a str>> Iterator for RecoveringParser<'a, I> {
    type Item = Result<TraceEvent, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        loop {
            match self.inner.next()? {
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
                    return Some(Ok(ev));
                }
                Err(e) => {
                    self.stats.records += 1;
                    self.stats.skipped += 1;
                    *self
                        .stats
                        .skipped_by_kind
                        .entry(e.kind.clone())
                        .or_insert(0) += 1;
                    if self.stats.first_error.is_none() {
                        self.stats.first_error = Some(e.clone());
                    }
                    if self.policy == RecoveryPolicy::FailFast {
                        self.fused = true;
                        return Some(Err(e));
                    }
                    self.stats.lines_discarded += self.inner.resync();
                }
            }
        }
    }
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
/// so a serving loop can recycle one parse buffer per frame.
pub fn parse_str_lossy_into(
    text: &str,
    policy: RecoveryPolicy,
    out: &mut Vec<TraceEvent>,
) -> ParseStats {
    out.clear();
    let mut parser = RecoveringParser::new(text.lines(), policy);
    out.extend(parser.by_ref().filter_map(Result::ok));
    parser.stats.clone()
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
    fn fail_fast_matches_parse_lines() {
        let dirty = "00:00:01.000 MM5G State = REGISTERED\nnot a record\n\
                     00:00:02.000 Throughput = 1.5 Mbps\n";
        let (events, stats) = parse_str_lossy(dirty, RecoveryPolicy::FailFast);
        assert_eq!(events.len(), 1);
        assert_eq!(stats.skipped, 1);
        let err = crate::parse_str(dirty).unwrap_err();
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
