//! Event-stream → binary store encoding.
//!
//! The writer makes two passes: one over the events to build the cell and
//! string dictionaries (first-appearance order, so encoding is a pure
//! function of the event sequence), then one per segment to pack the seven
//! columns. Column buffers are reused across segments, so encoding cost is
//! O(events) time and O(segment) transient space on top of the output.

use onoff_rrc::ids::{CellId, Rat};
use onoff_rrc::messages::{
    MeasurementReport, ReconfigBody, ReestablishmentCause, RrcMessage, ScgFailureType, Trigger,
};
use onoff_rrc::trace::{LogChannel, MmState, TraceEvent};
use onoff_rrc::FxMap;

use crate::checksum::checksum;
use crate::varint::{put_i64, put_u64};
use crate::{FORMAT_VERSION, MAGIC};

/// Records per segment unless overridden — small enough that one corrupt
/// segment loses a bounded slice of the trace, large enough that the
/// per-segment header (≈ 70 bytes) stays under 1% of segment payload.
pub const DEFAULT_SEGMENT_RECORDS: usize = 1024;

/// Encoder knobs.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Maximum records per segment (≥ 1; 0 is treated as 1).
    pub segment_records: usize,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            segment_records: DEFAULT_SEGMENT_RECORDS,
        }
    }
}

/// Encodes a trace with default options.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    encode_events_with(events, &EncodeOptions::default())
}

/// Encodes a trace into the binary store format.
///
/// Deterministic: the output bytes are a pure function of `events` and
/// `opts` (the golden fixtures pin this byte-for-byte).
pub fn encode_events_with(events: &[TraceEvent], opts: &EncodeOptions) -> Vec<u8> {
    let seg_records = opts.segment_records.max(1);
    let dicts = build_dicts(events);

    // Encode every segment first — the header's directory needs their
    // sizes and checksums.
    let mut segments = Vec::new();
    let mut blobs: Vec<u8> = Vec::new();
    let mut cols = Columns::default();
    for chunk in events.chunks(seg_records) {
        let start = blobs.len();
        let header_len = encode_segment(chunk, &dicts, &mut cols, &mut blobs);
        segments.push(SegmentMeta {
            records: chunk.len(),
            len: blobs.len() - start,
            header_checksum: checksum(&blobs[start..start + header_len]),
        });
    }

    // Preamble.
    let mut out = Vec::with_capacity(blobs.len() + 256);
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&[0, 0, 0]); // reserved

    // Header payload: counts, directory, dictionaries.
    put_u64(&mut out, events.len() as u64);
    put_u64(&mut out, segments.len() as u64);
    for seg in &segments {
        put_u64(&mut out, seg.records as u64);
        put_u64(&mut out, seg.len as u64);
        out.extend_from_slice(&seg.header_checksum.to_le_bytes());
    }
    put_u64(&mut out, dicts.cells.len() as u64);
    for cell in &dicts.cells {
        out.push(match cell.rat {
            Rat::Lte => 0,
            Rat::Nr => 1,
        });
        put_u64(&mut out, u64::from(cell.pci.0));
        put_u64(&mut out, u64::from(cell.arfcn));
    }
    put_u64(&mut out, dicts.strings.len() as u64);
    for s in &dicts.strings {
        put_u64(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    // The header checksum covers everything after the magic (version and
    // reserved bytes included), so a flipped version byte is also caught
    // as corruption rather than misread as a real future version — except
    // by design the version check runs first (see `StoreReader::new`).
    let header_checksum = checksum(&out[MAGIC.len()..]);
    out.extend_from_slice(&header_checksum.to_le_bytes());
    out.extend_from_slice(&blobs);
    out
}

struct SegmentMeta {
    records: usize,
    len: usize,
    header_checksum: u64,
}

/// The shared dictionaries, in first-appearance order over the same
/// traversal the column encoders use: each entry's position is its id.
#[derive(Default)]
pub(crate) struct Dicts {
    pub(crate) cells: Vec<CellId>,
    cell_index: FxMap<CellId, u32>,
    /// `Trigger::Other` labels, each kept once.
    pub(crate) strings: Vec<Box<str>>,
    string_index: FxMap<Box<str>, u32>,
}

impl Dicts {
    fn cell(&mut self, cell: CellId) {
        if !self.cell_index.contains_key(&cell) {
            self.cell_index.insert(cell, self.cells.len() as u32);
            self.cells.push(cell);
        }
    }

    fn string(&mut self, label: &str) {
        if !self.string_index.contains_key(label) {
            self.string_index
                .insert(label.into(), self.strings.len() as u32);
            self.strings.push(label.into());
        }
    }
}

fn build_dicts(events: &[TraceEvent]) -> Dicts {
    let mut d = Dicts::default();
    for ev in events {
        let TraceEvent::Rrc(rec) = ev else { continue };
        if let Some(ctx) = rec.context {
            d.cell(ctx);
        }
        match &rec.msg {
            RrcMessage::Mib { cell, .. }
            | RrcMessage::Sib1 { cell, .. }
            | RrcMessage::SetupRequest { cell, .. }
            | RrcMessage::ReestablishmentComplete { cell } => {
                d.cell(*cell);
            }
            RrcMessage::Reconfiguration(body) => {
                for add in body.scell_to_add_mod.iter() {
                    d.cell(add.cell);
                }
                if let Some(sp) = body.sp_cell {
                    d.cell(sp);
                }
                if let Some(target) = body.mobility_target {
                    d.cell(target);
                }
            }
            RrcMessage::MeasurementReport(report) => {
                if let Some(Trigger::Other(label)) = &report.trigger {
                    d.string(label);
                }
                for r in report.results.iter() {
                    d.cell(r.cell);
                }
            }
            _ => {}
        }
    }
    d
}

/// One reusable buffer per column, in on-disk order.
#[derive(Default)]
struct Columns {
    ts: Vec<u8>,
    tags: Vec<u8>,
    meta: Vec<u8>,
    cells: Vec<u8>,
    meas: Vec<u8>,
    nums: Vec<u8>,
    floats: Vec<u8>,
}

impl Columns {
    fn clear(&mut self) {
        self.ts.clear();
        self.tags.clear();
        self.meta.clear();
        self.cells.clear();
        self.meas.clear();
        self.nums.clear();
        self.floats.clear();
    }

    fn in_order(&self) -> [&Vec<u8>; 7] {
        [
            &self.ts,
            &self.tags,
            &self.meta,
            &self.cells,
            &self.meas,
            &self.nums,
            &self.floats,
        ]
    }
}

/// Segment-header flag: timestamps are nondecreasing within the segment.
/// Format v1 records it; the reader checksums it with the header and
/// decodes the same way either way.
const SEG_FLAG_ORDERED: u8 = 1;

/// Encodes one chunk into `out`; returns the segment header's byte length
/// (the span the directory's header checksum covers).
fn encode_segment(
    chunk: &[TraceEvent],
    dicts: &Dicts,
    cols: &mut Columns,
    out: &mut Vec<u8>,
) -> usize {
    cols.clear();
    let base_t = chunk.first().map_or(0, |ev| ev.t().millis());
    let mut prev_t = base_t;
    let mut ordered = true;
    for ev in chunk {
        let t = ev.t().millis();
        // Wrapping delta + zigzag: monotone traces stay 1-byte-per-step,
        // and any u64 sequence (clock jumps included) roundtrips exactly.
        put_i64(&mut cols.ts, t.wrapping_sub(prev_t) as i64);
        ordered &= t >= prev_t;
        prev_t = t;
        encode_event(ev, dicts, cols);
    }

    let start = out.len();
    out.push(if ordered { SEG_FLAG_ORDERED } else { 0 });
    put_u64(out, base_t);
    out.push(7); // column count
    for col in cols.in_order() {
        put_u64(out, col.len() as u64);
        out.extend_from_slice(&checksum(col).to_le_bytes());
    }
    let header_len = out.len() - start;
    for col in cols.in_order() {
        out.extend_from_slice(col);
    }
    header_len
}

// Event/message tag bytes (the `tags` column). Appending a variant means
// appending a tag here AND bumping `FORMAT_VERSION` — old readers must
// refuse the file, not misdecode it.
pub(crate) const TAG_MM_REGISTERED: u8 = 0;
pub(crate) const TAG_MM_DEREGISTERED: u8 = 1;
pub(crate) const TAG_THROUGHPUT: u8 = 2;
pub(crate) const TAG_MIB: u8 = 3;
pub(crate) const TAG_SIB1: u8 = 4;
pub(crate) const TAG_SETUP_REQUEST: u8 = 5;
pub(crate) const TAG_SETUP: u8 = 6;
pub(crate) const TAG_SETUP_COMPLETE: u8 = 7;
pub(crate) const TAG_RECONFIGURATION: u8 = 8;
pub(crate) const TAG_RECONFIGURATION_COMPLETE: u8 = 9;
pub(crate) const TAG_MEASUREMENT_REPORT: u8 = 10;
pub(crate) const TAG_SCG_FAILURE: u8 = 11;
pub(crate) const TAG_REESTABLISHMENT_REQUEST: u8 = 12;
pub(crate) const TAG_REESTABLISHMENT_COMPLETE: u8 = 13;
pub(crate) const TAG_RELEASE: u8 = 14;

pub(crate) fn channel_code(ch: LogChannel) -> u8 {
    match ch {
        LogChannel::BcchBch => 0,
        LogChannel::BcchDlSch => 1,
        LogChannel::UlCcch => 2,
        LogChannel::DlCcch => 3,
        LogChannel::UlDcch => 4,
        LogChannel::DlDcch => 5,
    }
}

fn encode_event(ev: &TraceEvent, dicts: &Dicts, cols: &mut Columns) {
    match ev {
        TraceEvent::Mm { state, .. } => cols.tags.push(match state {
            MmState::Registered => TAG_MM_REGISTERED,
            MmState::DeregisteredNoCellAvailable => TAG_MM_DEREGISTERED,
        }),
        TraceEvent::Throughput { mbps, .. } => {
            cols.tags.push(TAG_THROUGHPUT);
            cols.floats.extend_from_slice(&mbps.to_bits().to_le_bytes());
        }
        TraceEvent::Rrc(rec) => {
            cols.tags.push(message_tag(&rec.msg));
            let mut head = match rec.rat {
                Rat::Lte => 0u8,
                Rat::Nr => 1,
            };
            head |= channel_code(rec.channel) << 1;
            if rec.context.is_some() {
                head |= 1 << 4;
            }
            cols.meta.push(head);
            if let Some(ctx) = rec.context {
                put_cell(&mut cols.cells, dicts, ctx);
            }
            encode_message(&rec.msg, dicts, cols);
        }
    }
}

fn message_tag(msg: &RrcMessage) -> u8 {
    match msg {
        RrcMessage::Mib { .. } => TAG_MIB,
        RrcMessage::Sib1 { .. } => TAG_SIB1,
        RrcMessage::SetupRequest { .. } => TAG_SETUP_REQUEST,
        RrcMessage::Setup => TAG_SETUP,
        RrcMessage::SetupComplete => TAG_SETUP_COMPLETE,
        RrcMessage::Reconfiguration(_) => TAG_RECONFIGURATION,
        RrcMessage::ReconfigurationComplete => TAG_RECONFIGURATION_COMPLETE,
        RrcMessage::MeasurementReport(_) => TAG_MEASUREMENT_REPORT,
        RrcMessage::ScgFailureInformation { .. } => TAG_SCG_FAILURE,
        RrcMessage::ReestablishmentRequest { .. } => TAG_REESTABLISHMENT_REQUEST,
        RrcMessage::ReestablishmentComplete { .. } => TAG_REESTABLISHMENT_COMPLETE,
        RrcMessage::Release => TAG_RELEASE,
    }
}

fn put_cell(col: &mut Vec<u8>, dicts: &Dicts, cell: CellId) {
    let idx = dicts
        .cell_index
        .get(&cell)
        .expect("dictionary pass visits every cell the encoders do");
    put_u64(col, u64::from(*idx));
}

fn encode_message(msg: &RrcMessage, dicts: &Dicts, cols: &mut Columns) {
    match msg {
        RrcMessage::Mib { cell, global_id } => {
            put_cell(&mut cols.cells, dicts, *cell);
            put_u64(&mut cols.nums, global_id.0);
        }
        RrcMessage::Sib1 {
            cell,
            q_rx_lev_min_deci,
        } => {
            put_cell(&mut cols.cells, dicts, *cell);
            put_i64(&mut cols.nums, i64::from(*q_rx_lev_min_deci));
        }
        RrcMessage::SetupRequest { cell, global_id } => {
            put_cell(&mut cols.cells, dicts, *cell);
            put_u64(&mut cols.nums, global_id.0);
        }
        RrcMessage::ReestablishmentComplete { cell } => {
            put_cell(&mut cols.cells, dicts, *cell);
        }
        RrcMessage::Reconfiguration(body) => encode_reconfig(body, dicts, cols),
        RrcMessage::MeasurementReport(report) => encode_report(report, dicts, cols),
        RrcMessage::ScgFailureInformation { failure } => cols.nums.push(match failure {
            ScgFailureType::RandomAccessProblem => 0,
            ScgFailureType::RlcMaxNumRetx => 1,
            ScgFailureType::ScgChangeFailure => 2,
            ScgFailureType::ScgRadioLinkFailure => 3,
        }),
        RrcMessage::ReestablishmentRequest { cause } => cols.nums.push(match cause {
            ReestablishmentCause::ReconfigurationFailure => 0,
            ReestablishmentCause::HandoverFailure => 1,
            ReestablishmentCause::OtherFailure => 2,
        }),
        RrcMessage::Setup
        | RrcMessage::SetupComplete
        | RrcMessage::ReconfigurationComplete
        | RrcMessage::Release => {}
    }
}

fn encode_reconfig(body: &ReconfigBody, dicts: &Dicts, cols: &mut Columns) {
    let mut flags = 0u8;
    if body.scg_release {
        flags |= 1;
    }
    if body.sp_cell.is_some() {
        flags |= 1 << 1;
    }
    if body.mobility_target.is_some() {
        flags |= 1 << 2;
    }
    cols.nums.push(flags);
    put_u64(&mut cols.nums, body.scell_to_add_mod.len() as u64);
    for add in body.scell_to_add_mod.iter() {
        cols.nums.push(add.index);
        put_cell(&mut cols.cells, dicts, add.cell);
    }
    put_u64(&mut cols.nums, body.scell_to_release.len() as u64);
    for &idx in body.scell_to_release.iter() {
        cols.nums.push(idx);
    }
    put_u64(&mut cols.nums, body.meas_config.len() as u64);
    for me in &body.meas_config {
        encode_meas_event(me, &mut cols.nums);
    }
    if let Some(sp) = body.sp_cell {
        put_cell(&mut cols.cells, dicts, sp);
    }
    if let Some(target) = body.mobility_target {
        put_cell(&mut cols.cells, dicts, target);
    }
}

fn encode_meas_event(me: &onoff_rrc::MeasEvent, nums: &mut Vec<u8>) {
    use onoff_rrc::EventKind;
    match me.kind {
        EventKind::A1 { threshold } => {
            nums.push(0);
            put_i64(nums, i64::from(threshold.0));
        }
        EventKind::A2 { threshold } => {
            nums.push(1);
            put_i64(nums, i64::from(threshold.0));
        }
        EventKind::A3 { offset } => {
            nums.push(2);
            put_i64(nums, i64::from(offset));
        }
        EventKind::A4 { threshold } => {
            nums.push(3);
            put_i64(nums, i64::from(threshold.0));
        }
        EventKind::A5 { t1, t2 } => {
            nums.push(4);
            put_i64(nums, i64::from(t1.0));
            put_i64(nums, i64::from(t2.0));
        }
        EventKind::B1 { threshold } => {
            nums.push(5);
            put_i64(nums, i64::from(threshold.0));
        }
        EventKind::B2 { t1, t2 } => {
            nums.push(6);
            put_i64(nums, i64::from(t1.0));
            put_i64(nums, i64::from(t2.0));
        }
    }
    nums.push(match me.quantity {
        onoff_rrc::events::TriggerQuantity::Rsrp => 0,
        onoff_rrc::events::TriggerQuantity::Rsrq => 1,
    });
    put_i64(nums, i64::from(me.hysteresis));
    put_u64(nums, u64::from(me.arfcn));
}

fn encode_report(report: &MeasurementReport, dicts: &Dicts, cols: &mut Columns) {
    // Trigger code: 0 = none, 1..=7 = the standard events, 8+symbol for
    // free-form labels via the string dictionary (preserved verbatim —
    // decode never reparses through `Trigger::from_label`, so an
    // `Other("A3")` oddity survives as-is).
    let code = match &report.trigger {
        None => 0u64,
        Some(Trigger::A1) => 1,
        Some(Trigger::A2) => 2,
        Some(Trigger::A3) => 3,
        Some(Trigger::A4) => 4,
        Some(Trigger::A5) => 5,
        Some(Trigger::B1) => 6,
        Some(Trigger::B2) => 7,
        Some(Trigger::Other(label)) => {
            let idx = dicts
                .string_index
                .get(&**label)
                .expect("dictionary pass keeps every Other label");
            8 + u64::from(*idx)
        }
    };
    put_u64(&mut cols.meas, code);
    put_u64(&mut cols.meas, report.results.len() as u64);
    for r in report.results.iter() {
        put_cell(&mut cols.meas, dicts, r.cell);
        put_meas_deci(&mut cols.meas, r.meas.rsrp.deci());
        put_meas_deci(&mut cols.meas, r.meas.rsrq.deci());
    }
}

/// One measurement value in deci-dB. Every reportable RSRP/RSRQ fits an
/// `i16`, so rows are fixed-width on the hot path — replay decodes tens
/// of result rows per event, and a fixed read beats a varint loop there.
/// `i16::MIN` escapes to a zigzag varint so arbitrary (unclamped) `i32`
/// values still roundtrip bitwise.
pub(crate) fn put_meas_deci(buf: &mut Vec<u8>, deci: i32) {
    match i16::try_from(deci) {
        Ok(v) if v != i16::MIN => buf.extend_from_slice(&v.to_le_bytes()),
        _ => {
            buf.extend_from_slice(&i16::MIN.to_le_bytes());
            put_i64(buf, i64::from(deci));
        }
    }
}
