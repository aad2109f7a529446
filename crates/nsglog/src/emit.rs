//! Trace → text emission.
//!
//! The emitter is the authoritative grammar definition: every construct the
//! parser accepts is produced here, and the round-trip property
//! `parse_str(emit(trace)) == trace` is enforced by tests. Message names and
//! field spellings follow NSG's export conventions as reproduced in the
//! paper's Appendix B (e.g. `sCellToAddModList{{sCellIndex 1, physCellld
//! 273, absoluteFrequencySSB 387410}}` — we normalise NSG's `physCellld`
//! OCR-ism to `physCellId`).

use std::fmt;

use onoff_rrc::events::{EventKind, MeasEvent, TriggerQuantity};
use onoff_rrc::ids::Rat;
use onoff_rrc::messages::{ReconfigBody, RrcMessage};
use onoff_rrc::trace::{LogRecord, MmState, TraceEvent};

/// Emits a whole trace as log text, one [`emit_event`] per event. Events
/// are emitted in the given order (the caller is responsible for
/// time-ordering).
pub fn emit(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        emit_event(ev, &mut out).expect("fmt::Write to a String is infallible");
    }
    out
}

/// Emits one event into any [`fmt::Write`] sink.
pub fn emit_event<W: fmt::Write>(ev: &TraceEvent, out: &mut W) -> fmt::Result {
    match ev {
        TraceEvent::Rrc(rec) => emit_rrc(rec, out),
        TraceEvent::Mm { t, state } => match state {
            MmState::Registered => writeln!(out, "{t} MM5G State = REGISTERED"),
            MmState::DeregisteredNoCellAvailable => {
                writeln!(out, "{t} MM5G State = DEREGISTERED")?;
                writeln!(out, "  Mm5g Deregistered Substate = NO_CELL_AVAILABLE")
            }
        },
        TraceEvent::Throughput { t, mbps } => {
            writeln!(out, "{t} Throughput = {mbps:?} Mbps")
        }
    }
}

/// NSG message name for a message under a given record RAT.
pub(crate) fn message_name(rat: Rat, msg: &RrcMessage) -> &'static str {
    match (rat, msg) {
        (_, RrcMessage::Mib { .. }) => "MIB",
        (_, RrcMessage::Sib1 { .. }) => "SystemInformationBlockType1",
        (Rat::Nr, RrcMessage::SetupRequest { .. }) => "RRC Setup Req",
        (Rat::Lte, RrcMessage::SetupRequest { .. }) => "RRC Connection Request",
        (Rat::Nr, RrcMessage::Setup) => "RRC Setup",
        (Rat::Lte, RrcMessage::Setup) => "RRC Connection Setup",
        (Rat::Nr, RrcMessage::SetupComplete) => "RRCSetup Complete",
        (Rat::Lte, RrcMessage::SetupComplete) => "RRC Connection Setup Complete",
        (Rat::Nr, RrcMessage::Reconfiguration(_)) => "RRCReconfiguration",
        (Rat::Lte, RrcMessage::Reconfiguration(_)) => "RRCConnectionReconfiguration",
        (Rat::Nr, RrcMessage::ReconfigurationComplete) => "RRCReconfiguration Complete",
        (Rat::Lte, RrcMessage::ReconfigurationComplete) => "RRCConnectionReconfiguration Complete",
        (_, RrcMessage::MeasurementReport(_)) => "MeasurementReport",
        (_, RrcMessage::ScgFailureInformation { .. }) => "SCGFailureInformation",
        (Rat::Nr, RrcMessage::ReestablishmentRequest { .. }) => "RRC Reestablishment Request",
        (Rat::Lte, RrcMessage::ReestablishmentRequest { .. }) => {
            "RRC Connection Reestablishment Request"
        }
        (Rat::Nr, RrcMessage::ReestablishmentComplete { .. }) => "RRC Reestablishment Complete",
        (Rat::Lte, RrcMessage::ReestablishmentComplete { .. }) => {
            "RRC Connection Reestablishment Complete"
        }
        (Rat::Nr, RrcMessage::Release) => "RRC Release",
        (Rat::Lte, RrcMessage::Release) => "RRC Connection Release",
    }
}

fn emit_rrc<W: fmt::Write>(rec: &LogRecord, out: &mut W) -> fmt::Result {
    writeln!(
        out,
        "{} {} RRC OTA Packet -- {} / {}",
        rec.t,
        rec.rat.label(),
        rec.channel.label(),
        message_name(rec.rat, &rec.msg),
    )?;

    let gid_label = match rec.rat {
        Rat::Nr => "NR Cell Global ID",
        Rat::Lte => "Cell Global ID",
    };

    // Context line. For MIB / SetupRequest the global identity rides along.
    match &rec.msg {
        RrcMessage::Mib { cell, global_id } | RrcMessage::SetupRequest { cell, global_id } => {
            debug_assert_eq!(
                rec.context,
                Some(*cell),
                "context must mirror the message cell"
            );
            writeln!(
                out,
                "  Physical Cell ID = {}, {gid_label} = {}, Freq = {}",
                cell.pci, global_id, cell.arfcn
            )?;
        }
        _ => {
            if let Some(ctx) = rec.context {
                debug_assert_eq!(ctx.rat, rec.rat, "context cell RAT must match record RAT");
                writeln!(
                    out,
                    "  Physical Cell ID = {}, Freq = {}",
                    ctx.pci, ctx.arfcn
                )?;
            }
        }
    }

    match &rec.msg {
        RrcMessage::Sib1 {
            q_rx_lev_min_deci, ..
        } => {
            writeln!(out, "  q-RxLevMin = {q_rx_lev_min_deci}")?;
        }
        RrcMessage::Reconfiguration(body) => emit_reconfig(body, out)?,
        RrcMessage::MeasurementReport(report) => {
            if let Some(trigger) = &report.trigger {
                writeln!(out, "  trigger = {trigger}")?;
            }
            out.write_str("  measResults {\n")?;
            for r in &report.results {
                // `{cell}: {rsrp} {rsrq}`, formatted by hand: rows are
                // most of a capture's bytes.
                out.write_str("    ")?;
                write_uint(out, u64::from(r.cell.pci.0))?;
                out.write_char('@')?;
                write_uint(out, u64::from(r.cell.arfcn))?;
                out.write_str(": ")?;
                write_tenths(out, r.meas.rsrp.deci())?;
                out.write_str("dBm ")?;
                write_tenths(out, r.meas.rsrq.deci())?;
                out.write_str("dB\n")?;
            }
            out.write_str("  }\n")?;
        }
        RrcMessage::ScgFailureInformation { failure } => {
            writeln!(out, "  failureType = {}", failure.asn1())?;
        }
        RrcMessage::ReestablishmentRequest { cause } => {
            writeln!(out, "  reestablishmentCause = {}", cause.asn1())?;
        }
        RrcMessage::ReestablishmentComplete { cell } => {
            writeln!(out, "  reestablishmentCell = {cell}")?;
        }
        _ => {}
    }
    Ok(())
}

fn emit_reconfig<W: fmt::Write>(body: &ReconfigBody, out: &mut W) -> fmt::Result {
    if !body.scell_to_add_mod.is_empty() {
        writeln!(out, "  sCellToAddModList {{")?;
        for s in &body.scell_to_add_mod {
            writeln!(
                out,
                "    {{sCellIndex {}, physCellId {}, absoluteFrequencySSB {}}}",
                s.index, s.cell.pci, s.cell.arfcn
            )?;
        }
        writeln!(out, "  }}")?;
    }
    if let Some((first, rest)) = body.scell_to_release.split_first() {
        out.write_str("  sCellToReleaseList {")?;
        write_uint(out, u64::from(*first))?;
        for index in rest {
            out.write_str(", ")?;
            write_uint(out, u64::from(*index))?;
        }
        out.write_str("}\n")?;
    }
    if !body.meas_config.is_empty() {
        out.write_str("  measConfig {\n")?;
        for ev in &body.meas_config {
            out.write_str("    ")?;
            write_event(ev, out)?;
            out.write_char('\n')?;
        }
        out.write_str("  }\n")?;
    }
    if let Some(sp) = body.sp_cell {
        writeln!(
            out,
            "  spCellConfig {{physCellId {}, absoluteFrequencySSB {}}}",
            sp.pci, sp.arfcn
        )?;
    }
    if body.scg_release {
        writeln!(out, "  scg-Release = true")?;
    }
    if let Some(target) = body.mobility_target {
        writeln!(
            out,
            "  mobilityControlInfo {{physCellId {}, targetFreq {}}}",
            target.pci, target.arfcn
        )?;
    }
    Ok(())
}

/// Writes one measurement-event config line, the parser's dual of
/// [`crate::parse::parse_event_line`].
fn write_event<W: fmt::Write>(ev: &MeasEvent, out: &mut W) -> fmt::Result {
    let (q, unit) = match ev.quantity {
        TriggerQuantity::Rsrp => ("RSRP", "dBm"),
        TriggerQuantity::Rsrq => ("RSRQ", "dB"),
    };
    // The first inequality, and the second of the two-threshold events.
    let (relation, value, above) = match ev.kind {
        EventKind::A1 { threshold } | EventKind::A4 { threshold } | EventKind::B1 { threshold } => {
            (" > ", threshold.0, None)
        }
        EventKind::A2 { threshold } => (" < ", threshold.0, None),
        EventKind::A3 { offset } => (" offset > ", offset, None),
        EventKind::A5 { t1, t2 } | EventKind::B2 { t1, t2 } => (" < ", t1.0, Some(t2.0)),
    };
    out.write_str(ev.kind.label())?;
    out.write_str(" event on ")?;
    write_uint(out, u64::from(ev.arfcn))?;
    out.write_str(": ")?;
    out.write_str(q)?;
    out.write_str(relation)?;
    write_deci(out, value)?;
    out.write_str(unit)?;
    if let Some(t2) = above {
        out.write_str(" and ")?;
        out.write_str(q)?;
        out.write_str(" > ")?;
        write_deci(out, t2)?;
        out.write_str(unit)?;
    }
    if ev.hysteresis != 0 {
        out.write_str(", hys ")?;
        write_deci(out, ev.hysteresis)?;
        out.write_str(unit)?;
    }
    Ok(())
}

/// [`write_event`] into a fresh `String`.
#[cfg(test)]
pub(crate) fn render_event(ev: &MeasEvent) -> String {
    let mut s = String::new();
    write_event(ev, &mut s).expect("fmt::Write to a String is infallible");
    s
}

/// Writes deci-dB fixed point as its shortest decimal text ("-156",
/// "-108.5").
fn write_deci<W: fmt::Write>(out: &mut W, v: i32) -> fmt::Result {
    if v % 10 == 0 {
        if v < 0 {
            out.write_char('-')?;
        }
        write_uint(out, u64::from(v.unsigned_abs() / 10))
    } else {
        write_tenths(out, v)
    }
}

/// [`write_deci`] into a fresh `String`.
#[cfg(test)]
fn deci(v: i32) -> String {
    let mut s = String::new();
    write_deci(&mut s, v).expect("fmt::Write to a String is infallible");
    s
}

/// Writes deci-units with exactly one decimal ("-80.0", "-0.5"), as the
/// `Rsrp`/`Rsrq` `Display` impls do.
fn write_tenths<W: fmt::Write>(out: &mut W, v: i32) -> fmt::Result {
    let a = v.unsigned_abs();
    if v < 0 {
        out.write_char('-')?;
    }
    write_uint(out, u64::from(a / 10))?;
    out.write_char('.')?;
    out.write_char(char::from(b'0' + (a % 10) as u8))
}

/// Writes `v` in decimal, without going through `fmt::Formatter`.
fn write_uint<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::events::Threshold;
    use onoff_rrc::ids::{CellId, Pci};
    use onoff_rrc::meas::Measurement;
    use onoff_rrc::messages::{MeasResult, MeasurementReport, ScellAddMod};
    use onoff_rrc::trace::{LogChannel, Timestamp};

    #[test]
    fn mib_record_matches_appendix_shape() {
        let cell = CellId::nr(Pci(393), 521310);
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(19 * 3_600_000 + 43 * 60_000 + 31_635),
            rat: Rat::Nr,
            channel: LogChannel::BcchBch,
            context: Some(cell),
            msg: RrcMessage::Mib {
                cell,
                global_id: onoff_rrc::ids::GlobalCellId(0),
            },
        });
        let text = emit(&[ev]);
        assert_eq!(
            text,
            "19:43:31.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB\n  \
             Physical Cell ID = 393, NR Cell Global ID = 0, Freq = 521310\n"
        );
    }

    #[test]
    fn scell_add_mod_list_shape() {
        let body = ReconfigBody {
            scell_to_add_mod: vec![
                ScellAddMod {
                    index: 1,
                    cell: CellId::nr(Pci(273), 387410),
                },
                ScellAddMod {
                    index: 2,
                    cell: CellId::nr(Pci(273), 398410),
                },
            ]
            .into(),
            scell_to_release: vec![1, 3].into(),
            ..Default::default()
        };
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(0),
            rat: Rat::Nr,
            channel: LogChannel::DlDcch,
            context: Some(CellId::nr(Pci(393), 521310)),
            msg: RrcMessage::Reconfiguration(body),
        });
        let text = emit(&[ev]);
        assert!(text.contains("sCellToAddModList {"));
        assert!(text.contains("{sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}"));
        assert!(text.contains("sCellToReleaseList {1, 3}"));
    }

    #[test]
    fn meas_report_shape() {
        let report = MeasurementReport {
            trigger: Some("A3".into()),
            results: vec![MeasResult {
                cell: CellId::nr(Pci(540), 501390),
                meas: Measurement::new(-80.0, -10.5),
            }]
            .into(),
        };
        let ev = TraceEvent::Rrc(LogRecord {
            t: Timestamp(0),
            rat: Rat::Nr,
            channel: LogChannel::UlDcch,
            context: None,
            msg: RrcMessage::MeasurementReport(report),
        });
        let text = emit(&[ev]);
        assert!(text.contains("trigger = A3"));
        assert!(text.contains("540@501390: -80.0dBm -10.5dB"));
    }

    #[test]
    fn mm_and_throughput_records() {
        let mut out = String::new();
        emit_event(
            &TraceEvent::Mm {
                t: Timestamp(1000),
                state: MmState::DeregisteredNoCellAvailable,
            },
            &mut out,
        )
        .unwrap();
        emit_event(
            &TraceEvent::Throughput {
                t: Timestamp(2000),
                mbps: 203.25,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            "00:00:01.000 MM5G State = DEREGISTERED\n  \
             Mm5g Deregistered Substate = NO_CELL_AVAILABLE\n\
             00:00:02.000 Throughput = 203.25 Mbps\n"
        );
    }

    #[test]
    fn deci_rendering() {
        assert_eq!(deci(-1560), "-156");
        assert_eq!(deci(-1085), "-108.5");
        assert_eq!(deci(60), "6");
        assert_eq!(deci(0), "0");
        assert_eq!(deci(5), "0.5");
        assert_eq!(deci(-5), "-0.5");
    }

    #[test]
    fn event_rendering_with_hysteresis() {
        let mut ev = MeasEvent::new(
            EventKind::A2 {
                threshold: Threshold::from_db(-116.0),
            },
            TriggerQuantity::Rsrp,
            648672,
        );
        assert_eq!(render_event(&ev), "A2 event on 648672: RSRP < -116dBm");
        ev.hysteresis = 15;
        assert_eq!(
            render_event(&ev),
            "A2 event on 648672: RSRP < -116dBm, hys 1.5dBm"
        );
    }

    #[test]
    fn lte_message_names() {
        assert_eq!(
            message_name(
                Rat::Lte,
                &RrcMessage::Reconfiguration(ReconfigBody::default())
            ),
            "RRCConnectionReconfiguration"
        );
        assert_eq!(message_name(Rat::Nr, &RrcMessage::Setup), "RRC Setup");
        assert_eq!(
            message_name(Rat::Lte, &RrcMessage::Setup),
            "RRC Connection Setup"
        );
    }
}
