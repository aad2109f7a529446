//! Binary store → event-stream decoding.
//!
//! [`StoreReader`] borrows the file bytes and decodes straight out of
//! them: columns are never copied, text is never materialized, and the
//! only per-event heap traffic is the rare `Trigger::Other` label (cloned
//! from the dictionary) and a `Reconfiguration`'s `meas_config` vector.
//!
//! Trust is layered. `new` verifies the header checksum before believing
//! any count or dictionary entry; each segment's layout is verified
//! against the checksum stored in that (already-verified) directory
//! before its column lengths are believed; each column's payload is
//! verified before a single record is decoded. A failure at any layer is
//! a typed [`StoreError`] — under a lossy [`RecoveryPolicy`] a segment
//! failure becomes a counted skip with the conservation invariant
//! `decoded + skipped == records`, and decoding **never** panics on
//! arbitrary input bytes.

use onoff_nsglog::RecoveryPolicy;
use onoff_rrc::events::{EventKind, MeasEvent, Threshold, TriggerQuantity};
use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
use onoff_rrc::meas::{Measurement, Rsrp, Rsrq};
use onoff_rrc::messages::{
    MeasResult, MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScellAddMod,
    ScgFailureType, Trigger,
};
use onoff_rrc::trace::{LogChannel, LogRecord, MmState, Timestamp, TraceEvent};

use crate::checksum::checksum;
use crate::encode;
use crate::error::{Column, StoreError, StoreStats, COLUMNS};
use crate::varint::Cursor;
use crate::{FORMAT_VERSION, MAGIC};

/// Preamble length: magic + version + reserved.
const PREAMBLE: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Segment {
    records: usize,
    /// Offset of the segment blob in the file.
    start: usize,
    len: usize,
    /// Checksum over the segment's own header, stored in the directory so
    /// the (header-checksummed) file vouches for each segment's layout.
    header_checksum: u64,
}

/// A validated view over a binary store file.
///
/// Construction verifies the header; record data is decoded lazily by
/// [`read_all`](Self::read_all) / [`replay`](Self::replay).
#[derive(Debug)]
pub struct StoreReader<'a> {
    data: &'a [u8],
    records: usize,
    segments: Vec<Segment>,
    cells: Vec<CellId>,
    strings: Vec<Box<str>>,
}

impl<'a> StoreReader<'a> {
    /// Validates the preamble, header checksum, directory and
    /// dictionaries. No segment data is touched yet.
    pub fn new(data: &'a [u8]) -> Result<StoreReader<'a>, StoreError> {
        if data.len() < PREAMBLE {
            return Err(StoreError::TooShort);
        }
        if &data[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        // Version before checksum: a genuinely newer file would fail the
        // checksum too (the version byte is covered), but the actionable
        // report is "your reader is too old", not "corrupt file".
        if data[MAGIC.len()] != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: data[MAGIC.len()],
                supported: FORMAT_VERSION,
            });
        }

        let mut c = Cursor::new(&data[PREAMBLE..]);
        let records = c.u64().ok_or(StoreError::TooShort)? as usize;
        let n_segments = c.u64().ok_or(StoreError::TooShort)? as usize;
        let mut segments = Vec::with_capacity(n_segments.min(data.len() / 10 + 1));
        for _ in 0..n_segments {
            let records = c.u64().ok_or(StoreError::TooShort)? as usize;
            let len = c.u64().ok_or(StoreError::TooShort)? as usize;
            let header_checksum = c.u64_le().ok_or(StoreError::TooShort)?;
            segments.push(Segment {
                records,
                start: 0, // patched below, once the header end is known
                len,
                header_checksum,
            });
        }
        let n_cells = c.u64().ok_or(StoreError::TooShort)? as usize;
        let mut cells = Vec::with_capacity(n_cells.min(data.len() / 3 + 1));
        for _ in 0..n_cells {
            let rat = match c.u8().ok_or(StoreError::TooShort)? {
                0 => Rat::Lte,
                1 => Rat::Nr,
                _ => return Err(StoreError::BadDirectory("cell dictionary RAT byte")),
            };
            let pci = c.u64().ok_or(StoreError::TooShort)?;
            let arfcn = c.u64().ok_or(StoreError::TooShort)?;
            let (Ok(pci), Ok(arfcn)) = (u16::try_from(pci), u32::try_from(arfcn)) else {
                return Err(StoreError::BadDirectory("cell dictionary value range"));
            };
            cells.push(CellId {
                rat,
                pci: Pci(pci),
                arfcn,
            });
        }
        let n_strings = c.u64().ok_or(StoreError::TooShort)? as usize;
        let mut strings = Vec::with_capacity(n_strings.min(data.len() + 1));
        for _ in 0..n_strings {
            let len = c.u64().ok_or(StoreError::TooShort)? as usize;
            let bytes = c.bytes(len).ok_or(StoreError::TooShort)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| StoreError::BadDirectory("string dictionary is not UTF-8"))?;
            strings.push(s.into());
        }
        let header_end = data.len() - c.remaining();
        let stored = c.u64_le().ok_or(StoreError::TooShort)?;
        let computed = checksum(&data[MAGIC.len()..header_end]);
        if stored != computed {
            return Err(StoreError::HeaderChecksum { stored, computed });
        }

        // The checksum vouches for what the *encoder* wrote; these
        // consistency checks are a backstop against encoder bugs and keep
        // later allocations bounded by the file size.
        let mut offset = header_end + 8;
        let mut claimed = 0usize;
        for seg in &mut segments {
            seg.start = offset;
            offset = offset
                .checked_add(seg.len)
                .ok_or(StoreError::BadDirectory("segment spans overflow"))?;
            claimed = claimed
                .checked_add(seg.records)
                .ok_or(StoreError::BadDirectory("record counts overflow"))?;
            if seg.records > seg.len {
                return Err(StoreError::BadDirectory("more records than segment bytes"));
            }
        }
        if offset != data.len() {
            return Err(StoreError::BadDirectory(
                "segment spans do not tile the file",
            ));
        }
        if claimed != records {
            return Err(StoreError::BadDirectory(
                "directory records do not sum to total",
            ));
        }

        Ok(StoreReader {
            data,
            records,
            segments,
            cells,
            strings,
        })
    }

    /// Records the file claims (the conservation total).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The interned cell dictionary, in first-appearance order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Decodes every segment into a vector of events.
    ///
    /// `FailFast` surfaces the first segment error; the lossy policies
    /// skip corrupt segments and account for them in the returned
    /// [`StoreStats`] (`decoded + skipped == records`).
    pub fn read_all(
        &self,
        policy: RecoveryPolicy,
    ) -> Result<(Vec<TraceEvent>, StoreStats), StoreError> {
        let mut out = Vec::new();
        let stats = self.read_all_into(policy, &mut out)?;
        Ok((out, stats))
    }

    /// [`StoreReader::read_all`] into a caller-owned buffer: `out` is
    /// cleared, then filled with the decoded events, retaining its
    /// capacity across calls so a serving loop can recycle one decode
    /// buffer per frame.
    pub fn read_all_into(
        &self,
        policy: RecoveryPolicy,
        out: &mut Vec<TraceEvent>,
    ) -> Result<StoreStats, StoreError> {
        out.clear();
        if out.capacity() < self.records {
            out.reserve(self.records);
        }
        let mut stats = self.fresh_stats();
        for idx in 0..self.segments.len() {
            let before = out.len();
            match self.decode_segment_into(idx, out) {
                Ok(()) => stats.decoded += self.segments[idx].records,
                Err(e) => {
                    out.truncate(before);
                    self.account_skip(&mut stats, idx, e, policy)?;
                }
            }
        }
        Ok(stats)
    }

    /// Decodes every segment and hands its events, in file order, to
    /// `sink` — typically an analysis core's `feed`, which quarantines any
    /// backwards timestamp itself. The sink sees exactly the events
    /// `read_all` would return, in the same order, so replay ≡ batch
    /// analysis over the decoded events by construction.
    pub fn replay(
        &self,
        policy: RecoveryPolicy,
        mut sink: impl FnMut(&TraceEvent),
    ) -> Result<StoreStats, StoreError> {
        let mut stats = self.fresh_stats();
        // Events of one segment are staged here before the sink sees them,
        // so a decode failure skips the whole segment without having
        // leaked a partial prefix. One allocation for the largest segment,
        // reused throughout.
        let mut scratch: Vec<TraceEvent> = Vec::new();
        for idx in 0..self.segments.len() {
            scratch.clear();
            match self.decode_segment_into(idx, &mut scratch) {
                Ok(()) => {
                    stats.decoded += self.segments[idx].records;
                    for ev in &scratch {
                        sink(ev);
                    }
                }
                Err(e) => self.account_skip(&mut stats, idx, e, policy)?,
            }
        }
        Ok(stats)
    }

    fn fresh_stats(&self) -> StoreStats {
        StoreStats {
            records: self.records,
            segments: self.segments.len(),
            ..StoreStats::default()
        }
    }

    fn account_skip(
        &self,
        stats: &mut StoreStats,
        idx: usize,
        e: StoreError,
        policy: RecoveryPolicy,
    ) -> Result<(), StoreError> {
        if matches!(policy, RecoveryPolicy::FailFast) {
            return Err(e);
        }
        stats.skipped += self.segments[idx].records;
        stats.skipped_segments.push(idx);
        if stats.first_error.is_none() {
            stats.first_error = Some(e);
        }
        Ok(())
    }

    /// Verifies and decodes one segment, appending its events to `out`.
    /// On error `out` is left exactly as it was.
    fn decode_segment_into(&self, idx: usize, out: &mut Vec<TraceEvent>) -> Result<(), StoreError> {
        let seg = self.segments[idx];
        let bytes = &self.data[seg.start..seg.start + seg.len];
        let before = out.len();
        let result = self.decode_segment_inner(idx, seg, bytes, out);
        if result.is_err() {
            out.truncate(before);
        }
        result
    }

    fn decode_segment_inner(
        &self,
        idx: usize,
        seg: Segment,
        bytes: &[u8],
        out: &mut Vec<TraceEvent>,
    ) -> Result<(), StoreError> {
        let corrupt_header = StoreError::SegmentHeader { segment: idx };
        // Frame the header. Nothing parsed here is trusted until the
        // checksum (stored in the already-verified directory) matches.
        let mut c = Cursor::new(bytes);
        // The flags byte (the encoder's ordered flag) is framed and
        // checksummed with the header; decoding does not depend on it.
        c.u8().ok_or(corrupt_header.clone())?;
        let base_t = c.u64().ok_or(corrupt_header.clone())?;
        let n_columns = c.u8().ok_or(corrupt_header.clone())?;
        if n_columns != COLUMNS.len() as u8 {
            return Err(corrupt_header);
        }
        let mut lens = [0usize; 7];
        let mut sums = [0u64; 7];
        for i in 0..COLUMNS.len() {
            lens[i] = c.u64().ok_or(corrupt_header.clone())? as usize;
            sums[i] = c.u64_le().ok_or(corrupt_header.clone())?;
        }
        let header_len = bytes.len() - c.remaining();
        if checksum(&bytes[..header_len]) != seg.header_checksum {
            return Err(corrupt_header);
        }

        // Header is genuine: carve and verify the columns.
        let payload: usize = lens.iter().sum();
        if payload != bytes.len() - header_len {
            return Err(StoreError::Malformed {
                segment: idx,
                what: "column lengths do not tile the segment",
            });
        }
        let mut cols: [&[u8]; 7] = [&[]; 7];
        let mut at = header_len;
        for i in 0..COLUMNS.len() {
            cols[i] = &bytes[at..at + lens[i]];
            at += lens[i];
            if checksum(cols[i]) != sums[i] {
                return Err(StoreError::ColumnChecksum {
                    segment: idx,
                    column: COLUMNS[i],
                });
            }
        }

        let mut dec = Decoder {
            ts: Cursor::new(cols[0]),
            tags: Cursor::new(cols[1]),
            meta: Cursor::new(cols[2]),
            cells: Cursor::new(cols[3]),
            meas: Cursor::new(cols[4]),
            nums: Cursor::new(cols[5]),
            floats: Cursor::new(cols[6]),
            cell_dict: &self.cells,
            string_dict: &self.strings,
            prev_t: base_t,
        };
        out.reserve(seg.records);
        for _ in 0..seg.records {
            let ev = dec
                .next_event()
                .map_err(|(_, what)| StoreError::Malformed { segment: idx, what })?;
            out.push(ev);
        }
        if !dec.all_done() {
            return Err(StoreError::Malformed {
                segment: idx,
                what: "trailing bytes after the last record",
            });
        }
        Ok(())
    }
}

/// Decode-failure site: the column it happened in plus a stable label
/// (the `Malformed` backstop; with intact checksums these are unreachable
/// short of an encoder bug).
type DecodeErr = (Column, &'static str);

struct Decoder<'a> {
    ts: Cursor<'a>,
    tags: Cursor<'a>,
    meta: Cursor<'a>,
    cells: Cursor<'a>,
    meas: Cursor<'a>,
    nums: Cursor<'a>,
    floats: Cursor<'a>,
    cell_dict: &'a [CellId],
    string_dict: &'a [Box<str>],
    prev_t: u64,
}

impl Decoder<'_> {
    fn all_done(&self) -> bool {
        self.ts.is_done()
            && self.tags.is_done()
            && self.meta.is_done()
            && self.cells.is_done()
            && self.meas.is_done()
            && self.nums.is_done()
            && self.floats.is_done()
    }

    fn next_event(&mut self) -> Result<TraceEvent, DecodeErr> {
        let delta = self
            .ts
            .i64()
            .ok_or((Column::Timestamps, "timestamp column exhausted"))?;
        self.prev_t = self.prev_t.wrapping_add(delta as u64);
        let t = Timestamp(self.prev_t);
        let tag = self
            .tags
            .u8()
            .ok_or((Column::Tags, "tag column exhausted"))?;
        Ok(match tag {
            encode::TAG_MM_REGISTERED => TraceEvent::Mm {
                t,
                state: MmState::Registered,
            },
            encode::TAG_MM_DEREGISTERED => TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            },
            encode::TAG_THROUGHPUT => TraceEvent::Throughput {
                t,
                mbps: f64::from_bits(
                    self.floats
                        .u64_le()
                        .ok_or((Column::Floats, "float column exhausted"))?,
                ),
            },
            encode::TAG_MIB..=encode::TAG_RELEASE => {
                let head = self
                    .meta
                    .u8()
                    .ok_or((Column::Meta, "meta column exhausted"))?;
                if head & 0b1110_0000 != 0 {
                    return Err((Column::Meta, "unknown meta flag bits"));
                }
                let rat = if head & 1 != 0 { Rat::Nr } else { Rat::Lte };
                let channel = match (head >> 1) & 0b111 {
                    0 => LogChannel::BcchBch,
                    1 => LogChannel::BcchDlSch,
                    2 => LogChannel::UlCcch,
                    3 => LogChannel::DlCcch,
                    4 => LogChannel::UlDcch,
                    5 => LogChannel::DlDcch,
                    _ => return Err((Column::Meta, "channel code out of range")),
                };
                let context = if head & (1 << 4) != 0 {
                    Some(cell_from(&mut self.cells, self.cell_dict, Column::Cells)?)
                } else {
                    None
                };
                let msg = self.decode_message(tag)?;
                TraceEvent::Rrc(LogRecord {
                    t,
                    rat,
                    channel,
                    context,
                    msg,
                })
            }
            _ => return Err((Column::Tags, "unknown event tag")),
        })
    }

    fn decode_message(&mut self, tag: u8) -> Result<RrcMessage, DecodeErr> {
        const NUMS_SHORT: DecodeErr = (Column::Nums, "nums column exhausted");
        Ok(match tag {
            encode::TAG_MIB => RrcMessage::Mib {
                cell: cell_from(&mut self.cells, self.cell_dict, Column::Cells)?,
                global_id: GlobalCellId(self.nums.u64().ok_or(NUMS_SHORT)?),
            },
            encode::TAG_SIB1 => RrcMessage::Sib1 {
                cell: cell_from(&mut self.cells, self.cell_dict, Column::Cells)?,
                q_rx_lev_min_deci: self
                    .nums
                    .i64()
                    .ok_or(NUMS_SHORT)?
                    .try_into()
                    .map_err(|_| (Column::Nums, "q_rx_lev_min out of range"))?,
            },
            encode::TAG_SETUP_REQUEST => RrcMessage::SetupRequest {
                cell: cell_from(&mut self.cells, self.cell_dict, Column::Cells)?,
                global_id: GlobalCellId(self.nums.u64().ok_or(NUMS_SHORT)?),
            },
            encode::TAG_SETUP => RrcMessage::Setup,
            encode::TAG_SETUP_COMPLETE => RrcMessage::SetupComplete,
            encode::TAG_RECONFIGURATION => RrcMessage::Reconfiguration(self.decode_reconfig()?),
            encode::TAG_RECONFIGURATION_COMPLETE => RrcMessage::ReconfigurationComplete,
            encode::TAG_MEASUREMENT_REPORT => RrcMessage::MeasurementReport(self.decode_report()?),
            encode::TAG_SCG_FAILURE => RrcMessage::ScgFailureInformation {
                failure: match self.nums.u8().ok_or(NUMS_SHORT)? {
                    0 => ScgFailureType::RandomAccessProblem,
                    1 => ScgFailureType::RlcMaxNumRetx,
                    2 => ScgFailureType::ScgChangeFailure,
                    3 => ScgFailureType::ScgRadioLinkFailure,
                    _ => return Err((Column::Nums, "SCG failure code out of range")),
                },
            },
            encode::TAG_REESTABLISHMENT_REQUEST => RrcMessage::ReestablishmentRequest {
                cause: match self.nums.u8().ok_or(NUMS_SHORT)? {
                    0 => ReestablishmentCause::ReconfigurationFailure,
                    1 => ReestablishmentCause::HandoverFailure,
                    2 => ReestablishmentCause::OtherFailure,
                    _ => return Err((Column::Nums, "reestablishment cause out of range")),
                },
            },
            encode::TAG_REESTABLISHMENT_COMPLETE => RrcMessage::ReestablishmentComplete {
                cell: cell_from(&mut self.cells, self.cell_dict, Column::Cells)?,
            },
            encode::TAG_RELEASE => RrcMessage::Release,
            _ => unreachable!("caller dispatches only RRC tags"),
        })
    }

    fn decode_reconfig(&mut self) -> Result<ReconfigBody, DecodeErr> {
        const NUMS_SHORT: DecodeErr = (Column::Nums, "nums column exhausted");
        let flags = self.nums.u8().ok_or(NUMS_SHORT)?;
        if flags & !0b111 != 0 {
            return Err((Column::Nums, "unknown reconfiguration flag bits"));
        }
        let mut body = ReconfigBody {
            scg_release: flags & 1 != 0,
            ..ReconfigBody::default()
        };
        let n_add = self.nums.u64().ok_or(NUMS_SHORT)? as usize;
        if n_add > self.nums.remaining() {
            return Err((Column::Nums, "SCell-add count exceeds column"));
        }
        for _ in 0..n_add {
            let index = self.nums.u8().ok_or(NUMS_SHORT)?;
            let cell = cell_from(&mut self.cells, self.cell_dict, Column::Cells)?;
            body.scell_to_add_mod.push(ScellAddMod { index, cell });
        }
        let n_release = self.nums.u64().ok_or(NUMS_SHORT)? as usize;
        if n_release > self.nums.remaining() {
            return Err((Column::Nums, "SCell-release count exceeds column"));
        }
        for _ in 0..n_release {
            body.scell_to_release
                .push(self.nums.u8().ok_or(NUMS_SHORT)?);
        }
        let n_meas = self.nums.u64().ok_or(NUMS_SHORT)? as usize;
        if n_meas > self.nums.remaining() {
            return Err((Column::Nums, "measConfig count exceeds column"));
        }
        body.meas_config.reserve_exact(n_meas);
        for _ in 0..n_meas {
            body.meas_config.push(self.decode_meas_event()?);
        }
        if flags & (1 << 1) != 0 {
            body.sp_cell = Some(cell_from(&mut self.cells, self.cell_dict, Column::Cells)?);
        }
        if flags & (1 << 2) != 0 {
            body.mobility_target = Some(cell_from(&mut self.cells, self.cell_dict, Column::Cells)?);
        }
        Ok(body)
    }

    fn decode_meas_event(&mut self) -> Result<MeasEvent, DecodeErr> {
        const NUMS_SHORT: DecodeErr = (Column::Nums, "nums column exhausted");
        let deci = |c: &mut Cursor<'_>| -> Result<i32, DecodeErr> {
            c.i64()
                .ok_or(NUMS_SHORT)?
                .try_into()
                .map_err(|_| (Column::Nums, "threshold out of range"))
        };
        let kind = match self.nums.u8().ok_or(NUMS_SHORT)? {
            0 => EventKind::A1 {
                threshold: Threshold(deci(&mut self.nums)?),
            },
            1 => EventKind::A2 {
                threshold: Threshold(deci(&mut self.nums)?),
            },
            2 => EventKind::A3 {
                offset: deci(&mut self.nums)?,
            },
            3 => EventKind::A4 {
                threshold: Threshold(deci(&mut self.nums)?),
            },
            4 => EventKind::A5 {
                t1: Threshold(deci(&mut self.nums)?),
                t2: Threshold(deci(&mut self.nums)?),
            },
            5 => EventKind::B1 {
                threshold: Threshold(deci(&mut self.nums)?),
            },
            6 => EventKind::B2 {
                t1: Threshold(deci(&mut self.nums)?),
                t2: Threshold(deci(&mut self.nums)?),
            },
            _ => return Err((Column::Nums, "event kind code out of range")),
        };
        let quantity = match self.nums.u8().ok_or(NUMS_SHORT)? {
            0 => TriggerQuantity::Rsrp,
            1 => TriggerQuantity::Rsrq,
            _ => return Err((Column::Nums, "trigger quantity out of range")),
        };
        let hysteresis = deci(&mut self.nums)?;
        let arfcn = self
            .nums
            .u64()
            .ok_or(NUMS_SHORT)?
            .try_into()
            .map_err(|_| (Column::Nums, "ARFCN out of range"))?;
        Ok(MeasEvent {
            kind,
            quantity,
            hysteresis,
            arfcn,
        })
    }

    fn decode_report(&mut self) -> Result<MeasurementReport, DecodeErr> {
        const MEAS_SHORT: DecodeErr = (Column::Meas, "meas column exhausted");
        let code = self.meas.u64().ok_or(MEAS_SHORT)?;
        let trigger = match code {
            0 => None,
            1 => Some(Trigger::A1),
            2 => Some(Trigger::A2),
            3 => Some(Trigger::A3),
            4 => Some(Trigger::A4),
            5 => Some(Trigger::A5),
            6 => Some(Trigger::B1),
            7 => Some(Trigger::B2),
            n => {
                let sym = (n - 8) as usize;
                let label = self
                    .string_dict
                    .get(sym)
                    .ok_or((Column::Meas, "trigger label out of dictionary"))?;
                Some(Trigger::Other(label.clone()))
            }
        };
        let mut report = MeasurementReport {
            trigger,
            ..MeasurementReport::default()
        };
        let n_results = self.meas.u64().ok_or(MEAS_SHORT)? as usize;
        if n_results > self.meas.remaining() {
            return Err((Column::Meas, "result count exceeds column"));
        }
        // Sim traces carry tens of result rows per report; pre-sizing the
        // spilled vector once beats growing the inline buffer through it.
        if n_results > 8 {
            let mut rows = Vec::with_capacity(n_results);
            for _ in 0..n_results {
                rows.push(self.decode_meas_row()?);
            }
            report.results = rows.into();
        } else {
            for _ in 0..n_results {
                report.results.push(self.decode_meas_row()?);
            }
        }
        Ok(report)
    }

    /// One measurement-result row: interned cell index plus fixed-width
    /// `i16` deci values (with the `i16::MIN` varint escape, see
    /// `encode::put_meas_deci`).
    #[inline(always)]
    fn decode_meas_row(&mut self) -> Result<MeasResult, DecodeErr> {
        const MEAS_SHORT: DecodeErr = (Column::Meas, "meas column exhausted");
        // Fast path behind a single bounds check: a one-byte cell index
        // followed by two unescaped fixed-width deci values — the shape of
        // essentially every row in a real trace (a run rarely interns more
        // than 127 cells, and reportable values always fit an `i16`).
        if let Some(&[b0, b1, b2, b3, b4]) = self.meas.peek::<5>() {
            if b0 & 0x80 == 0 {
                let rsrp = i16::from_le_bytes([b1, b2]);
                let rsrq = i16::from_le_bytes([b3, b4]);
                if rsrp != i16::MIN && rsrq != i16::MIN {
                    let cell = *self
                        .cell_dict
                        .get(usize::from(b0))
                        .ok_or((Column::Meas, "cell index out of dictionary"))?;
                    self.meas.advance(5);
                    return Ok(MeasResult {
                        cell,
                        meas: Measurement {
                            rsrp: Rsrp::from_deci(i32::from(rsrp)),
                            rsrq: Rsrq::from_deci(i32::from(rsrq)),
                        },
                    });
                }
            }
        }
        let cell = cell_from(&mut self.meas, self.cell_dict, Column::Meas)?;
        let rsrp = self.decode_meas_deci().ok_or(MEAS_SHORT)?;
        let rsrq = self.decode_meas_deci().ok_or(MEAS_SHORT)?;
        Ok(MeasResult {
            cell,
            meas: Measurement {
                rsrp: Rsrp::from_deci(rsrp),
                rsrq: Rsrq::from_deci(rsrq),
            },
        })
    }

    /// A fixed-width deci value, or its varint escape. `None` on overrun
    /// or an escaped value that does not fit an `i32`.
    #[inline(always)]
    fn decode_meas_deci(&mut self) -> Option<i32> {
        match self.meas.i16_le()? {
            i16::MIN => i32::try_from(self.meas.i64()?).ok(),
            v => Some(i32::from(v)),
        }
    }
}

fn cell_from(
    cursor: &mut Cursor<'_>,
    dict: &[CellId],
    column: Column,
) -> Result<CellId, DecodeErr> {
    let idx = cursor.u64().ok_or((column, "cell index exhausted"))? as usize;
    dict.get(idx)
        .copied()
        .ok_or((column, "cell index out of dictionary"))
}
