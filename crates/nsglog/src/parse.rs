//! Text → trace parsing.
//!
//! The parser is line-oriented: a record starts at a non-indented line whose
//! first token is a `HH:MM:SS.mmm` timestamp; indented lines continue the
//! current record. Errors carry 1-based line numbers.
//!
//! Two entry points share one implementation:
//!
//! * [`parse_lines`] — the **incremental core**: a pull parser over any
//!   `Iterator<Item = &str>` that yields one `Result<TraceEvent, ParseError>`
//!   per record without ever materialising the full event vector. Use it to
//!   tail live captures or to fuse parsing into a streaming analyzer.
//! * [`parse_str`] — the **batch driver**: collects the same iterator into a
//!   `Vec`, stopping at the first error. It cannot drift from the streaming
//!   parser because it *is* the streaming parser.
//!
//! RAT inference inside lists: channel numbers below 70 000 are LTE EARFCNs,
//! everything else is an NR-ARFCN. This discriminator is exact for every
//! deployed US channel in the study (4G ≤ 66 936, 5G ≥ 126 270) and is the
//! same convention [`onoff_rrc::ids::CellId`]'s `FromStr` impl uses.

use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
use onoff_rrc::perf::InlineVec;
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};

use crate::error::{ParseError, ParseErrorKind};

/// Parses a complete log text into trace events (batch driver over
/// [`parse_lines`]; stops at the first error).
pub fn parse_str(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out = Vec::new();
    parse_str_into(text, &mut out)?;
    Ok(out)
}

/// [`parse_str`] into a caller-owned buffer: `out` is cleared, then filled
/// with the parsed events, retaining whatever capacity it already has —
/// the serving tier recycles one buffer per frame this way instead of
/// allocating a fresh vector per request.
pub fn parse_str_into(text: &str, out: &mut Vec<TraceEvent>) -> Result<(), ParseError> {
    out.clear();
    // Pre-size from the byte length. Report-heavy captures average >1 KB
    // per record, so dividing by a small figure (the old /64) committed
    // ~18× the needed capacity — at 192 bytes per event that meant
    // megabytes of page faults before parsing began. /512 lands within
    // ~2× on real traces either way; dense short-record logs just take a
    // few amortized regrows.
    let want = text.len() / 512 + 8;
    if out.capacity() < want {
        out.reserve(want);
    }
    for ev in parse_lines(text.lines()) {
        out.push(ev?);
    }
    Ok(())
}

/// Streaming record parser: one `Result<TraceEvent, ParseError>` per record,
/// pulled lazily from the line source.
///
/// Memory use is bounded by one record (its continuation lines), not by the
/// capture: a multi-gigabyte log tail parses in constant space. Line numbers
/// count every line the source yields (blank lines included), so errors
/// carry the same 1-based positions [`parse_str`] reports. After yielding an
/// error the iterator is fused (subsequent `next` returns `None`): a record
/// boundary cannot be trusted past a malformed head.
pub fn parse_lines<'a, I>(lines: I) -> ParseLines<'a, I::IntoIter>
where
    I: IntoIterator<Item = &'a str>,
{
    ParseLines {
        lines: lines.into_iter(),
        lineno: 0,
        lookahead: None,
        done: false,
        scratch: Vec::new(),
    }
}

/// Iterator state of [`parse_lines`].
#[derive(Debug, Clone)]
pub struct ParseLines<'a, I: Iterator<Item = &'a str>> {
    lines: I,
    /// Lines consumed from the source so far (1-based numbering).
    lineno: usize,
    /// A head line pulled while scanning for continuations, waiting to
    /// start the next record. Holding it here (instead of `peek`ing and
    /// re-`next`ing) makes "a pulled line is consumed exactly once" a
    /// property of the type, not a runtime assertion.
    lookahead: Option<(usize, &'a str)>,
    done: bool,
    /// Reusable continuation-line buffer: taken at the start of each
    /// record, restored after parsing, so the per-record body `Vec`
    /// allocates once per parser instead of once per record.
    scratch: Vec<(usize, &'a str)>,
}

impl<'a, I: Iterator<Item = &'a str>> ParseLines<'a, I> {
    /// Next non-blank line with its 1-based number, CRLF-tolerant.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        if let Some(held) = self.lookahead.take() {
            return Some(held);
        }
        loop {
            let raw = self.lines.next()?;
            self.lineno += 1;
            let line = raw.strip_suffix('\r').unwrap_or(raw); // tolerate CRLF exports
            if !line.trim().is_empty() {
                return Some((self.lineno, line));
            }
        }
    }

    /// Re-arms the parser after an error so iteration can resume at the
    /// next record head.
    ///
    /// A failed record's continuation lines were already consumed as its
    /// body (the next head is parked in the lookahead slot), so for field
    /// errors this only clears the fuse. For an
    /// [`ParseErrorKind::OrphanContinuation`] error the rest of the orphan
    /// run is still in the source; those lines are discarded here and
    /// their count returned, so callers can account for every input line.
    ///
    /// Used by [`crate::recover::RecoveringParser`]; harmless to call on a
    /// healthy parser (it re-parks the pending head and skips nothing).
    pub fn resync(&mut self) -> usize {
        self.done = false;
        let mut skipped = 0;
        while let Some((n, line)) = self.next_line() {
            if line.starts_with(char::is_whitespace) {
                skipped += 1;
            } else {
                self.lookahead = Some((n, line));
                break;
            }
        }
        skipped
    }

    /// Pulls the next line if it continues the current record; otherwise
    /// parks it as the next record's head. This is the peek-then-next of
    /// the old batch loop fused into one infallible call.
    fn next_continuation(&mut self) -> Option<(usize, &'a str)> {
        let (n, line) = self.next_line()?;
        if line.starts_with(char::is_whitespace) {
            Some((n, line))
        } else {
            self.lookahead = Some((n, line));
            None
        }
    }
}

impl<'a, I: Iterator<Item = &'a str>> Iterator for ParseLines<'a, I> {
    type Item = Result<TraceEvent, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let (lineno, head) = self.next_line()?;
        if head.starts_with(char::is_whitespace) {
            self.done = true;
            return Some(Err(ParseError::new(
                lineno,
                ParseErrorKind::OrphanContinuation,
                head,
            )));
        }
        let mut body = std::mem::take(&mut self.scratch);
        body.clear();
        while let Some(cont) = self.next_continuation() {
            body.push(cont);
        }
        let parsed = parse_record(lineno, head, &body);
        self.scratch = body;
        if parsed.is_err() {
            self.done = true;
        }
        Some(parsed)
    }
}

fn parse_record(
    lineno: usize,
    head: &str,
    body: &[(usize, &str)],
) -> Result<TraceEvent, ParseError> {
    let (ts_str, rest) = head
        .split_once(' ')
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::BadTimestamp, head))?;
    let t = Timestamp::parse_hms(ts_str)
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::BadTimestamp, head))?;

    if let Some(state) = rest.strip_prefix("MM5G State = ") {
        let state = match state.trim() {
            "REGISTERED" => MmState::Registered,
            "DEREGISTERED" => MmState::DeregisteredNoCellAvailable,
            _ => {
                return Err(ParseError::new(
                    lineno,
                    ParseErrorKind::BadField("MM5G State"),
                    head,
                ))
            }
        };
        return Ok(TraceEvent::Mm { t, state });
    }

    if let Some(rest) = rest.strip_prefix("Throughput = ") {
        let mbps_str = rest
            .strip_suffix(" Mbps")
            .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::BadField("Throughput"), head))?;
        let mbps: f64 = mbps_str
            .parse()
            .map_err(|_| ParseError::new(lineno, ParseErrorKind::BadField("Throughput"), head))?;
        return Ok(TraceEvent::Throughput { t, mbps });
    }

    // `<RAT> RRC OTA Packet -- <CHANNEL> / <NAME>`
    let (rat_str, rest) = rest
        .split_once(' ')
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::UnknownRecordHead, head))?;
    let rat = match rat_str {
        "NR5G" => Rat::Nr,
        "LTE" => Rat::Lte,
        _ => return Err(ParseError::new(lineno, ParseErrorKind::BadRat, head)),
    };
    let rest = rest
        .strip_prefix("RRC OTA Packet -- ")
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::UnknownRecordHead, head))?;
    let (ch_str, name) = rest
        .split_once(" / ")
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::UnknownRecordHead, head))?;
    let channel = LogChannel::from_label(ch_str)
        .ok_or_else(|| ParseError::new(lineno, ParseErrorKind::BadChannel, head))?;

    let fields = Fields { body };
    let (context, msg) = parse_message(rat, name.trim(), &fields)
        .map_err(|kind| ParseError::new(lineno, kind, head))?;

    Ok(TraceEvent::Rrc(LogRecord {
        t,
        rat,
        channel,
        context,
        msg,
    }))
}

/// Access helper over a record's continuation lines.
struct Fields<'a> {
    body: &'a [(usize, &'a str)],
}

impl<'a> Fields<'a> {
    /// First line starting (after trim) with `prefix`; returns the remainder.
    fn get(&self, prefix: &str) -> Option<(usize, &'a str)> {
        self.body.iter().find_map(|(i, l)| {
            let l = l.trim_start();
            l.strip_prefix(prefix).map(|r| (*i, r))
        })
    }

    /// First line starting (after trim) with `prefix`, returned whole
    /// (prefix included) — lets key=value parsers run on the borrowed line
    /// without re-assembling it.
    fn get_line(&self, prefix: &str) -> Option<&'a str> {
        self.body.iter().find_map(|(_, l)| {
            let l = l.trim_start();
            l.starts_with(prefix).then_some(l)
        })
    }

    /// Lines strictly inside a `name {` ... `}` block, as a borrowed
    /// iterator over the body slice (no per-record `Vec`).
    fn block(&self, open: &str) -> Result<impl Iterator<Item = &'a str> + 'a, ParseErrorKind> {
        let range = match self.body.iter().position(|(_, l)| l.trim() == open) {
            Some(start) => {
                let inner = &self.body[start + 1..];
                match inner.iter().position(|(_, l)| l.trim() == "}") {
                    Some(end) => start + 1..start + 1 + end,
                    // `open` is e.g. "measConfig {"; report the bare name.
                    None => {
                        return Err(ParseErrorKind::UnterminatedBlock(match open {
                            "sCellToAddModList {" => "sCellToAddModList",
                            "measConfig {" => "measConfig",
                            "measResults {" => "measResults",
                            _ => "block",
                        }))
                    }
                }
            }
            None => 0..0,
        };
        Ok(self.body[range].iter().map(|(_, l)| l.trim()))
    }
}

/// Parses `Physical Cell ID = P[, (NR )Cell Global ID = G], Freq = F`.
fn parse_context(rat: Rat, line: &str) -> Result<(CellId, Option<GlobalCellId>), ParseErrorKind> {
    let mut pci = None;
    let mut gid = None;
    let mut freq = None;
    for part in line.split(", ") {
        let (key, value) = part
            .split_once(" = ")
            .ok_or(ParseErrorKind::BadField("Physical Cell ID"))?;
        match key.trim() {
            "Physical Cell ID" => {
                pci = Some(
                    value
                        .trim()
                        .parse::<u16>()
                        .map_err(|_| ParseErrorKind::BadField("Physical Cell ID"))?,
                )
            }
            "NR Cell Global ID" | "Cell Global ID" => {
                gid = Some(GlobalCellId(
                    value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| ParseErrorKind::BadField("Cell Global ID"))?,
                ))
            }
            "Freq" => {
                freq = Some(
                    value
                        .trim()
                        .parse::<u32>()
                        .map_err(|_| ParseErrorKind::BadField("Freq"))?,
                )
            }
            _ => {}
        }
    }
    let pci = pci.ok_or(ParseErrorKind::MissingField("Physical Cell ID"))?;
    let freq = freq.ok_or(ParseErrorKind::MissingField("Freq"))?;
    Ok((
        CellId {
            rat,
            pci: Pci(pci),
            arfcn: freq,
        },
        gid,
    ))
}

/// Infers a cell's RAT from its channel number (see module docs).
fn cell_from_parts(pci: u16, arfcn: u32) -> CellId {
    let rat = if arfcn < 70_000 { Rat::Lte } else { Rat::Nr };
    CellId {
        rat,
        pci: Pci(pci),
        arfcn,
    }
}

fn parse_message(
    rat: Rat,
    name: &str,
    fields: &Fields<'_>,
) -> Result<(Option<CellId>, RrcMessage), ParseErrorKind> {
    // Context line, if present — parsed in place on the borrowed line
    // (the key=value grammar includes the leading `Physical Cell ID`
    // pair, so no reconstruction is needed).
    let ctx = fields
        .get_line("Physical Cell ID = ")
        .map(|line| parse_context(rat, line))
        .transpose()?;

    let msg = match name {
        "MIB" => {
            let (cell, gid) = ctx.ok_or(ParseErrorKind::MissingField("Physical Cell ID"))?;
            return Ok((
                Some(cell),
                RrcMessage::Mib {
                    cell,
                    global_id: gid.unwrap_or_default(),
                },
            ));
        }
        "SystemInformationBlockType1" => {
            let (cell, _) = ctx.ok_or(ParseErrorKind::MissingField("Physical Cell ID"))?;
            let (_, v) = fields
                .get("q-RxLevMin = ")
                .ok_or(ParseErrorKind::MissingField("q-RxLevMin"))?;
            let q: i32 = v
                .trim()
                .parse()
                .map_err(|_| ParseErrorKind::BadField("q-RxLevMin"))?;
            return Ok((
                Some(cell),
                RrcMessage::Sib1 {
                    cell,
                    q_rx_lev_min_deci: q,
                },
            ));
        }
        "RRC Setup Req" | "RRC Connection Request" => {
            let (cell, gid) = ctx.ok_or(ParseErrorKind::MissingField("Physical Cell ID"))?;
            return Ok((
                Some(cell),
                RrcMessage::SetupRequest {
                    cell,
                    global_id: gid.unwrap_or_default(),
                },
            ));
        }
        "RRC Setup" | "RRC Connection Setup" => RrcMessage::Setup,
        "RRCSetup Complete" | "RRC Connection Setup Complete" => RrcMessage::SetupComplete,
        "RRCReconfiguration" | "RRCConnectionReconfiguration" => {
            RrcMessage::Reconfiguration(parse_reconfig(fields)?)
        }
        "RRCReconfiguration Complete" | "RRCConnectionReconfiguration Complete" => {
            RrcMessage::ReconfigurationComplete
        }
        "MeasurementReport" => {
            let trigger = fields
                .get("trigger = ")
                .map(|(_, v)| Trigger::from_label(v.trim()));
            let mut results = InlineVec::new();
            for line in fields.block("measResults {")? {
                results.push(match parse_meas_row_fast(line) {
                    Some(r) => r,
                    None => parse_meas_row_general(line)?,
                });
            }
            RrcMessage::MeasurementReport(MeasurementReport { trigger, results })
        }
        "SCGFailureInformation" => {
            let (_, v) = fields
                .get("failureType = ")
                .ok_or(ParseErrorKind::MissingField("failureType"))?;
            let failure = ScgFailureType::from_asn1(v.trim())
                .ok_or(ParseErrorKind::BadField("failureType"))?;
            RrcMessage::ScgFailureInformation { failure }
        }
        "RRC Reestablishment Request" | "RRC Connection Reestablishment Request" => {
            let (_, v) = fields
                .get("reestablishmentCause = ")
                .ok_or(ParseErrorKind::MissingField("reestablishmentCause"))?;
            let cause = ReestablishmentCause::from_asn1(v.trim())
                .ok_or(ParseErrorKind::BadField("reestablishmentCause"))?;
            RrcMessage::ReestablishmentRequest { cause }
        }
        "RRC Reestablishment Complete" | "RRC Connection Reestablishment Complete" => {
            let (_, v) = fields
                .get("reestablishmentCell = ")
                .ok_or(ParseErrorKind::MissingField("reestablishmentCell"))?;
            let cell: CellId = v
                .trim()
                .parse()
                .map_err(|_| ParseErrorKind::BadField("reestablishmentCell"))?;
            RrcMessage::ReestablishmentComplete { cell }
        }
        "RRC Release" | "RRC Connection Release" => RrcMessage::Release,
        _ => return Err(ParseErrorKind::UnknownMessage),
    };

    Ok((ctx.map(|(c, _)| c), msg))
}

/// Single-pass byte-level fast path for the canonical measResults row
/// shape `PCI@ARFCN: [-]R[.r]dBm [-]Q[.q]dB` (exactly what [`crate::emit`]
/// writes, with at most one fraction digit). Anything else — extra
/// whitespace, `+` signs, multi-digit fractions — returns `None` and takes
/// [`parse_meas_row_general`], so accepted grammar and error reporting are
/// unchanged; this path only skips the repeated `split`/`trim`/`FromStr`
/// passes on the ~90% of log bytes that are measurement rows.
fn parse_meas_row_fast(line: &str) -> Option<MeasResult> {
    fn digits(b: &[u8], i: &mut usize) -> Option<u32> {
        let start = *i;
        let mut v: u32 = 0;
        while let Some(d) = b.get(*i).map(|c| c.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            // > 9 digits could overflow; such rows take the general path.
            if *i - start >= 9 {
                return None;
            }
            v = v * 10 + u32::from(d);
            *i += 1;
        }
        (*i > start).then_some(v)
    }
    fn deci(b: &[u8], i: &mut usize) -> Option<i32> {
        let neg = b.get(*i) == Some(&b'-');
        if neg {
            *i += 1;
        }
        let int = i32::try_from(digits(b, i)?).ok()?;
        let frac = if b.get(*i) == Some(&b'.') {
            *i += 1;
            let d = b.get(*i)?.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            *i += 1;
            // Multi-digit fractions exist only off the emit path; defer.
            if b.get(*i).is_some_and(u8::is_ascii_digit) {
                return None;
            }
            i32::from(d)
        } else {
            0
        };
        let v = int.checked_mul(10)?.checked_add(frac)?;
        Some(if neg { -v } else { v })
    }

    let b = line.as_bytes();
    let mut i = 0;
    let pci = digits(b, &mut i)?;
    let pci = u16::try_from(pci).ok()?;
    if b.get(i) != Some(&b'@') {
        return None;
    }
    i += 1;
    let arfcn = digits(b, &mut i)?;
    if b.get(i) != Some(&b':') || b.get(i + 1) != Some(&b' ') {
        return None;
    }
    i += 2;
    let rsrp = deci(b, &mut i)?;
    if !b[i..].starts_with(b"dBm ") {
        return None;
    }
    i += 4;
    let rsrq = deci(b, &mut i)?;
    if &b[i..] != b"dB" {
        return None;
    }
    Some(MeasResult {
        cell: cell_from_parts(pci, arfcn),
        meas: Measurement {
            rsrp: Rsrp::from_deci(rsrp),
            rsrq: Rsrq::from_deci(rsrq),
        },
    })
}

/// The general measResults row parser: full `CellId` grammar and decimal
/// literals with interior whitespace tolerance, plus the row's error.
fn parse_meas_row_general(line: &str) -> Result<MeasResult, ParseErrorKind> {
    const ERR: ParseErrorKind = ParseErrorKind::BadField("measResults");
    let (cell, meas) = line.split_once(": ").ok_or(ERR)?;
    let cell: CellId = cell.trim().parse().map_err(|_| ERR)?;
    let (rsrp, rsrq) = meas.trim().split_once(' ').ok_or(ERR)?;
    let rsrp = parse_deci(rsrp.strip_suffix("dBm").ok_or(ERR)?).ok_or(ERR)?;
    let rsrq = parse_deci(rsrq.strip_suffix("dB").ok_or(ERR)?).ok_or(ERR)?;
    Ok(MeasResult {
        cell,
        meas: Measurement {
            rsrp: Rsrp::from_deci(rsrp),
            rsrq: Rsrq::from_deci(rsrq),
        },
    })
}

fn parse_reconfig(fields: &Fields<'_>) -> Result<ReconfigBody, ParseErrorKind> {
    let mut body = ReconfigBody::default();

    for line in fields.block("sCellToAddModList {")? {
        body.scell_to_add_mod.push(parse_scell_entry(line)?);
    }

    if let Some((_, rest)) = fields.get("sCellToReleaseList {") {
        let inner = rest
            .strip_suffix('}')
            .ok_or(ParseErrorKind::BadField("sCellToReleaseList"))?;
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            body.scell_to_release.push(
                part.parse::<u8>()
                    .map_err(|_| ParseErrorKind::BadField("sCellToReleaseList"))?,
            );
        }
    }

    for line in fields.block("measConfig {")? {
        body.meas_config.push(parse_event_line(line)?);
    }

    if let Some((_, rest)) = fields.get("spCellConfig {") {
        let inner = rest
            .strip_suffix('}')
            .ok_or(ParseErrorKind::BadField("spCellConfig"))?;
        let (pci, arfcn) = parse_pci_freq(inner, "absoluteFrequencySSB")
            .ok_or(ParseErrorKind::BadField("spCellConfig"))?;
        body.sp_cell = Some(cell_from_parts(pci, arfcn));
    }

    if let Some((_, v)) = fields.get("scg-Release = ") {
        body.scg_release = v.trim() == "true";
    }

    if let Some((_, rest)) = fields.get("mobilityControlInfo {") {
        let inner = rest
            .strip_suffix('}')
            .ok_or(ParseErrorKind::BadField("mobilityControlInfo"))?;
        let (pci, arfcn) = parse_pci_freq(inner, "targetFreq")
            .ok_or(ParseErrorKind::BadField("mobilityControlInfo"))?;
        body.mobility_target = Some(cell_from_parts(pci, arfcn));
    }

    Ok(body)
}

/// Parses `{sCellIndex I, physCellId P, absoluteFrequencySSB F}`.
fn parse_scell_entry(line: &str) -> Result<ScellAddMod, ParseErrorKind> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or(ParseErrorKind::BadField("sCellToAddModList"))?;
    let mut index = None;
    let mut pci = None;
    let mut arfcn = None;
    for part in inner.split(", ") {
        let mut words = part.split_whitespace();
        match (words.next(), words.next()) {
            (Some("sCellIndex"), Some(v)) => index = v.parse::<u8>().ok(),
            (Some("physCellId"), Some(v)) => pci = v.parse::<u16>().ok(),
            (Some("absoluteFrequencySSB"), Some(v)) => arfcn = v.parse::<u32>().ok(),
            _ => {}
        }
    }
    match (index, pci, arfcn) {
        (Some(index), Some(pci), Some(arfcn)) => Ok(ScellAddMod {
            index,
            cell: cell_from_parts(pci, arfcn),
        }),
        _ => Err(ParseErrorKind::BadField("sCellToAddModList")),
    }
}

/// Parses `physCellId P, <freq_key> F`.
fn parse_pci_freq(inner: &str, freq_key: &str) -> Option<(u16, u32)> {
    let mut pci = None;
    let mut arfcn = None;
    for part in inner.split(", ") {
        let mut words = part.split_whitespace();
        match (words.next(), words.next()) {
            (Some("physCellId"), Some(v)) => pci = v.parse::<u16>().ok(),
            (Some(k), Some(v)) if k == freq_key => arfcn = v.parse::<u32>().ok(),
            _ => {}
        }
    }
    Some((pci?, arfcn?))
}

/// Parses a decimal dB(m) literal ("-156", "-108.5") into deci fixed point.
pub(crate) fn parse_deci(s: &str) -> Option<i32> {
    let s = s.trim();
    let (sign, rest) = match s.strip_prefix('-') {
        Some(r) => (-1i32, r),
        None => (1i32, s),
    };
    let (int, frac) = match rest.split_once('.') {
        Some((i, f)) => (i, f),
        None => (rest, "0"),
    };
    if frac.len() != 1 {
        return None;
    }
    let int: i32 = int.parse().ok()?;
    let frac: i32 = frac.parse().ok()?;
    Some(sign * (int * 10 + frac))
}

/// Parses one measurement-event config line, the dual of
/// [`crate::emit::render_event`].
pub(crate) fn parse_event_line(line: &str) -> Result<MeasEvent, ParseErrorKind> {
    const ERR: ParseErrorKind = ParseErrorKind::BadField("measConfig");

    let (head, spec) = line.split_once(": ").ok_or(ERR)?;
    // head: `A3 event on 5815`
    let mut hw = head.split_whitespace();
    let label = hw.next().ok_or(ERR)?;
    if hw.next() != Some("event") || hw.next() != Some("on") {
        return Err(ERR);
    }
    let arfcn: u32 = hw.next().ok_or(ERR)?.parse().map_err(|_| ERR)?;

    // Optional hysteresis suffix.
    let (spec, hys_txt) = match spec.split_once(", hys ") {
        Some((s, h)) => (s, Some(h)),
        None => (spec, None),
    };

    // spec: `RSRP < -156dBm` | `RSRQ offset > 6dB` | `RSRP < -118dBm and RSRP > -120dBm`
    let (q_str, cond) = spec.split_once(' ').ok_or(ERR)?;
    let (quantity, unit) = match q_str {
        "RSRP" => (TriggerQuantity::Rsrp, "dBm"),
        "RSRQ" => (TriggerQuantity::Rsrq, "dB"),
        _ => return Err(ERR),
    };
    let strip_val = |s: &str| -> Result<i32, ParseErrorKind> {
        parse_deci(s.trim().strip_suffix(unit).ok_or(ERR)?).ok_or(ERR)
    };

    let kind = if let Some(rest) = cond.strip_prefix("offset > ") {
        if label != "A3" {
            return Err(ERR);
        }
        EventKind::A3 {
            offset: strip_val(rest)?,
        }
    } else if let Some((lt, gt)) = cond.split_once(" and ") {
        let t1 = strip_val(lt.strip_prefix("< ").ok_or(ERR)?)?;
        let gt = gt.strip_prefix(q_str).map(str::trim_start).unwrap_or(gt);
        let t2 = strip_val(gt.strip_prefix("> ").ok_or(ERR)?)?;
        match label {
            "A5" => EventKind::A5 {
                t1: Threshold(t1),
                t2: Threshold(t2),
            },
            "B2" => EventKind::B2 {
                t1: Threshold(t1),
                t2: Threshold(t2),
            },
            _ => return Err(ERR),
        }
    } else if let Some(rest) = cond.strip_prefix("> ") {
        let t = Threshold(strip_val(rest)?);
        match label {
            "A1" => EventKind::A1 { threshold: t },
            "A4" => EventKind::A4 { threshold: t },
            "B1" => EventKind::B1 { threshold: t },
            _ => return Err(ERR),
        }
    } else if let Some(rest) = cond.strip_prefix("< ") {
        if label != "A2" {
            return Err(ERR);
        }
        EventKind::A2 {
            threshold: Threshold(strip_val(rest)?),
        }
    } else {
        return Err(ERR);
    };

    let hysteresis = match hys_txt {
        Some(h) => strip_val(h)?,
        None => 0,
    };

    Ok(MeasEvent {
        kind,
        quantity,
        hysteresis,
        arfcn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{emit, render_event};
    use onoff_rrc::trace::Timestamp;

    #[test]
    fn parses_appendix_mib_fragment() {
        // Adapted from Fig. 24's raw log.
        let text = "19:43:31.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
                    Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n";
        let events = parse_str(text).unwrap();
        assert_eq!(events.len(), 1);
        let rec = events[0].as_rrc().unwrap();
        assert_eq!(rec.t, Timestamp::parse_hms("19:43:31.635").unwrap());
        assert_eq!(rec.rat, Rat::Nr);
        match &rec.msg {
            RrcMessage::Mib { cell, global_id } => {
                assert_eq!(cell.to_string(), "393@521310");
                assert!(!global_id.is_valid());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn parses_scell_modification_from_fig26() {
        let text = "\
19:43:36.976 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {
    {sCellIndex 3, physCellId 371, absoluteFrequencySSB 387410}
  }
  sCellToReleaseList {1}
";
        let events = parse_str(text).unwrap();
        let rec = events[0].as_rrc().unwrap();
        match &rec.msg {
            RrcMessage::Reconfiguration(body) => {
                assert!(body.is_scell_modification());
                assert_eq!(body.scell_to_add_mod[0].cell.to_string(), "371@387410");
                assert_eq!(body.scell_to_release, vec![1]);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn parses_mm_deregistered_pair() {
        let text = "19:43:36.996 MM5G State = DEREGISTERED\n  \
                    Mm5g Deregistered Substate = NO_CELL_AVAILABLE\n";
        let events = parse_str(text).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Mm {
                t: Timestamp::parse_hms("19:43:36.996").unwrap(),
                state: MmState::DeregisteredNoCellAvailable,
            }
        );
    }

    #[test]
    fn parses_throughput() {
        let events = parse_str("00:00:07.000 Throughput = 186.125 Mbps\n").unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Throughput {
                t: Timestamp(7000),
                mbps: 186.125
            }
        );
    }

    #[test]
    fn deci_literals() {
        assert_eq!(parse_deci("-156"), Some(-1560));
        assert_eq!(parse_deci("-108.5"), Some(-1085));
        assert_eq!(parse_deci("6"), Some(60));
        assert_eq!(parse_deci("0.5"), Some(5));
        assert_eq!(parse_deci("-0.5"), Some(-5));
        assert_eq!(parse_deci("1.25"), None); // more than one decimal digit
        assert_eq!(parse_deci("abc"), None);
    }

    #[test]
    fn event_lines_roundtrip() {
        for line in [
            "A2 event on 387410: RSRP < -156dBm",
            "A3 event on 387410: RSRP offset > 6dBm",
            "A3 event on 5815: RSRQ offset > 6dB",
            "A5 event on 5815: RSRP < -118dBm and RSRP > -120dBm",
            "B1 event on 648672: RSRP > -115dBm",
            "A2 event on 648672: RSRP < -116dBm, hys 1.5dBm",
            "B2 event on 850: RSRQ < -19.5dB and RSRQ > -12dB",
            "A1 event on 850: RSRQ > -10dB",
            "A4 event on 850: RSRP > -100dBm",
        ] {
            let ev = parse_event_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(render_event(&ev), line, "roundtrip failed");
        }
    }

    #[test]
    fn bad_event_lines_rejected() {
        for line in [
            "",
            "A9 event on 1: RSRP > -1dBm",
            "A3 event on x: RSRP offset > 6dBm",
            "A2 event on 1: RSRP < -156dB", // wrong unit for RSRP
            "A2 event on 1: SINR < -156dB",
            "A2 event on 1: RSRP > -156dBm", // A2 must be `<`
            "A5 event on 1: RSRP < -1dBm",   // missing second threshold
        ] {
            assert!(parse_event_line(line).is_err(), "should reject {line:?}");
        }
    }

    #[test]
    fn error_line_numbers() {
        let text = "00:00:01.000 MM5G State = REGISTERED\nnot a record\n";
        let err = parse_str(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseErrorKind::BadTimestamp);
    }

    #[test]
    fn orphan_continuation_rejected() {
        let err = parse_str("  indented first line\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::OrphanContinuation);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unknown_message_rejected() {
        let err =
            parse_str("00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / MadeUpMessage\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnknownMessage);
    }

    #[test]
    fn unterminated_block_rejected() {
        let text = "\
00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  sCellToAddModList {
    {sCellIndex 1, physCellId 1, absoluteFrequencySSB 387410}
";
        let err = parse_str(text).unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::UnterminatedBlock("sCellToAddModList")
        );
    }

    #[test]
    fn truncated_context_rejected() {
        let text = "00:00:01.000 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
                    Physical Cell ID = 393\n";
        let err = parse_str(text).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::MissingField("Freq"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text =
            "\n00:00:01.000 MM5G State = REGISTERED\n\n\n00:00:02.000 Throughput = 1.5 Mbps\n\n";
        let events = parse_str(text).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn emit_parse_identity_on_worked_example() {
        // A full S1E3 cycle assembled by hand; round-trip must be exact.
        use onoff_rrc::ids::GlobalCellId;
        use onoff_rrc::messages::ScellAddMod;
        use onoff_rrc::trace::LogChannel;

        let pcell = CellId::nr(Pci(393), 521310);
        let mk = |t: u64, channel, context, msg| {
            TraceEvent::Rrc(LogRecord {
                t: Timestamp(t),
                rat: Rat::Nr,
                channel,
                context,
                msg,
            })
        };
        let events = vec![
            mk(
                0,
                LogChannel::BcchBch,
                Some(pcell),
                RrcMessage::Mib {
                    cell: pcell,
                    global_id: GlobalCellId(0),
                },
            ),
            mk(
                55,
                LogChannel::BcchDlSch,
                Some(pcell),
                RrcMessage::Sib1 {
                    cell: pcell,
                    q_rx_lev_min_deci: -1080,
                },
            ),
            mk(
                73,
                LogChannel::UlCcch,
                Some(pcell),
                RrcMessage::SetupRequest {
                    cell: pcell,
                    global_id: GlobalCellId(42),
                },
            ),
            mk(192, LogChannel::DlCcch, Some(pcell), RrcMessage::Setup),
            mk(
                199,
                LogChannel::UlDcch,
                Some(pcell),
                RrcMessage::SetupComplete,
            ),
            mk(
                3200,
                LogChannel::DlDcch,
                Some(pcell),
                RrcMessage::Reconfiguration(ReconfigBody {
                    scell_to_add_mod: vec![
                        ScellAddMod {
                            index: 1,
                            cell: CellId::nr(Pci(273), 387410),
                        },
                        ScellAddMod {
                            index: 2,
                            cell: CellId::nr(Pci(273), 398410),
                        },
                        ScellAddMod {
                            index: 3,
                            cell: CellId::nr(Pci(393), 501390),
                        },
                    ]
                    .into(),
                    ..Default::default()
                }),
            ),
            mk(
                3215,
                LogChannel::UlDcch,
                Some(pcell),
                RrcMessage::ReconfigurationComplete,
            ),
            TraceEvent::Mm {
                t: Timestamp(5200),
                state: MmState::DeregisteredNoCellAvailable,
            },
            TraceEvent::Throughput {
                t: Timestamp(6000),
                mbps: 0.0,
            },
        ];
        let text = emit(&events);
        let parsed = parse_str(&text).unwrap();
        assert_eq!(parsed, events);
    }
}

#[cfg(test)]
mod crlf_tests {
    use super::*;

    #[test]
    fn crlf_logs_parse_like_lf_logs() {
        let lf = "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRC Setup Req\n  \
                  Physical Cell ID = 393, NR Cell Global ID = 1, Freq = 521310\n\
                  00:00:01.150 NR5G RRC OTA Packet -- UL_DCCH / RRCSetup Complete\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(parse_str(&crlf).unwrap(), parse_str(lf).unwrap());
    }

    #[test]
    fn throughput_with_crlf() {
        assert_eq!(
            parse_str("00:00:01.000 Throughput = 12.5 Mbps\r\n").unwrap(),
            parse_str("00:00:01.000 Throughput = 12.5 Mbps\n").unwrap()
        );
    }
}
