//! Cell-selection helpers shared by the SA and NSA engines.
//!
//! All helpers are generic over [`Sampler`], so the engines run against
//! either the scalar per-call environment path
//! ([`onoff_radio::ScalarSampler`]) or the table-driven memoizing path
//! ([`onoff_radio::UeSampler`]) — both produce bitwise-identical
//! selections.
//!
//! Ties in RSRP are broken by the smaller [`CellId`]: selection depends on
//! signal structure, never on the order cells appear in a config file.

use onoff_radio::environment::CellSite;
use onoff_radio::{Point, Sampler};
use onoff_rrc::ids::{CellId, Rat};
use onoff_rrc::meas::Measurement;

/// Instantaneous measurement of a specific cell, if deployed.
pub fn measure_cell<S: Sampler>(
    s: &mut S,
    cell: CellId,
    p: Point,
    t_ms: u64,
) -> Option<Measurement> {
    let idx = s.find(cell)?;
    Some(s.measure(idx, p, t_ms))
}

/// Strongest cell (by instantaneous RSRP) among those matching `filter`;
/// exact RSRP ties go to the smaller cell id.
pub fn strongest_cell<S, F>(
    s: &mut S,
    p: Point,
    t_ms: u64,
    filter: F,
) -> Option<(CellId, Measurement)>
where
    S: Sampler,
    F: Fn(&CellSite) -> bool,
{
    let mut best: Option<(CellId, Measurement)> = None;
    for idx in 0..s.env().cells.len() {
        let site = s.env().cells[idx];
        if !filter(&site) {
            continue;
        }
        let m = s.measure(idx, p, t_ms);
        let better = match &best {
            None => true,
            Some((bc, bm)) => m.rsrp > bm.rsrp || (m.rsrp == bm.rsrp && site.cell < *bc),
        };
        if better {
            best = Some((site.cell, m));
        }
    }
    best
}

/// Strongest cell by **local mean** RSRP (shadowing included, fading
/// excluded) — deterministic over a run, used for configuration decisions
/// that the network would make from filtered measurements. Exact mean ties
/// go to the smaller cell id.
pub fn strongest_cell_mean<S, F>(s: &mut S, p: Point, filter: F) -> Option<(CellId, f64)>
where
    S: Sampler,
    F: Fn(&CellSite) -> bool,
{
    let mut best: Option<(CellId, f64)> = None;
    for idx in 0..s.env().cells.len() {
        let site = s.env().cells[idx];
        if !filter(&site) {
            continue;
        }
        let mean = s.local_rsrp_dbm(idx, p);
        let better = match &best {
            None => true,
            Some((bc, bm)) => {
                mean.total_cmp(bm).is_gt() || (mean.total_cmp(bm).is_eq() && site.cell < *bc)
            }
        };
        if better {
            best = Some((site.cell, mean));
        }
    }
    best
}

/// Strongest cell on one RAT+channel.
pub fn best_on_channel<S: Sampler>(
    s: &mut S,
    rat: Rat,
    arfcn: u32,
    p: Point,
    t_ms: u64,
) -> Option<(CellId, Measurement)> {
    strongest_cell(s, p, t_ms, |c| c.cell.rat == rat && c.cell.arfcn == arfcn)
}

/// All cells on a RAT+channel except the listed ones, with measurements.
pub fn co_channel_candidates<S: Sampler>(
    s: &mut S,
    rat: Rat,
    arfcn: u32,
    exclude: &[CellId],
    p: Point,
    t_ms: u64,
) -> Vec<(CellId, Measurement)> {
    let mut out = Vec::new();
    co_channel_candidates_into(s, rat, arfcn, exclude, p, t_ms, &mut out);
    out
}

/// [`co_channel_candidates`] appending into a caller-owned buffer, so the
/// per-step measurement sweep can reuse its scratch instead of allocating a
/// fresh vector per serving channel. Delegates to the sampler's channel
/// sweep: table-driven samplers fuse the whole channel into one pass over
/// their member lists (bitwise-identical measurements, no full-environment
/// scan per serving channel).
pub fn co_channel_candidates_into<S: Sampler>(
    s: &mut S,
    rat: Rat,
    arfcn: u32,
    exclude: &[CellId],
    p: Point,
    t_ms: u64,
    out: &mut Vec<(CellId, Measurement)>,
) {
    s.measure_channel_into(rat, arfcn, exclude, p, t_ms, out);
}

/// The co-sited twin of `cell` on another channel: same PCI, given channel.
/// Falls back to the strongest cell on that channel. This models the paper's
/// observation that OP_A's 5815/5145 pair shares cell IDs ("switches to
/// another cell over channel 5145 (with the same cell ID)").
pub fn co_sited_on_channel<S: Sampler>(
    s: &mut S,
    cell: CellId,
    rat: Rat,
    arfcn: u32,
    p: Point,
    t_ms: u64,
) -> Option<(CellId, Measurement)> {
    strongest_cell(s, p, t_ms, |c| {
        c.cell.rat == rat && c.cell.arfcn == arfcn && c.cell.pci == cell.pci
    })
    .or_else(|| best_on_channel(s, rat, arfcn, p, t_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_radio::{CellSite, RadioEnvironment, ScalarSampler};
    use onoff_rrc::ids::Pci;

    fn env() -> RadioEnvironment {
        RadioEnvironment::new(
            9,
            vec![
                CellSite::macro_site(
                    CellId::nr(Pci(393), 521310),
                    Point::new(0.0, 0.0),
                    0.0,
                    90.0,
                ),
                CellSite::macro_site(
                    CellId::nr(Pci(104), 521310),
                    Point::new(900.0, 0.0),
                    std::f64::consts::PI,
                    90.0,
                ),
                CellSite::macro_site(CellId::lte(Pci(380), 5815), Point::new(0.0, 0.0), 0.0, 10.0),
                CellSite::macro_site(CellId::lte(Pci(380), 5145), Point::new(0.0, 0.0), 0.0, 10.0),
            ],
        )
    }

    #[test]
    fn strongest_prefers_nearer_cell() {
        let e = env();
        let mut s = ScalarSampler::new(&e);
        let (c, _) =
            strongest_cell(&mut s, Point::new(100.0, 0.0), 0, |c| c.cell.rat == Rat::Nr).unwrap();
        assert_eq!(c, CellId::nr(Pci(393), 521310));
        let (c, _) =
            strongest_cell(&mut s, Point::new(800.0, 0.0), 0, |c| c.cell.rat == Rat::Nr).unwrap();
        assert_eq!(c, CellId::nr(Pci(104), 521310));
    }

    #[test]
    fn co_channel_excludes_serving() {
        let e = env();
        let mut s = ScalarSampler::new(&e);
        let serving = CellId::nr(Pci(393), 521310);
        let cands = co_channel_candidates(
            &mut s,
            Rat::Nr,
            521310,
            &[serving],
            Point::new(100.0, 0.0),
            0,
        );
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0, CellId::nr(Pci(104), 521310));
    }

    #[test]
    fn co_sited_prefers_same_pci() {
        let e = env();
        let mut s = ScalarSampler::new(&e);
        let from = CellId::lte(Pci(380), 5815);
        let (twin, _) =
            co_sited_on_channel(&mut s, from, Rat::Lte, 5145, Point::new(50.0, 0.0), 0).unwrap();
        assert_eq!(twin, CellId::lte(Pci(380), 5145));
    }

    #[test]
    fn missing_cell_measures_none() {
        let e = env();
        let mut s = ScalarSampler::new(&e);
        assert!(measure_cell(&mut s, CellId::nr(Pci(1), 1), Point::new(0.0, 0.0), 0).is_none());
        assert!(measure_cell(
            &mut s,
            CellId::nr(Pci(393), 521310),
            Point::new(0.0, 0.0),
            0
        )
        .is_some());
    }

    #[test]
    fn best_on_empty_channel_is_none() {
        let e = env();
        let mut s = ScalarSampler::new(&e);
        assert!(best_on_channel(&mut s, Rat::Nr, 999_999, Point::new(0.0, 0.0), 0).is_none());
    }

    /// Two co-sited cells on the same channel with identical geometry share
    /// a shadow field (shadow_key excludes PCI) and, with run bias off, have
    /// exactly equal local means. The tie must go to the smaller cell id —
    /// independent of config order.
    #[test]
    fn mean_ties_break_by_cell_id_not_config_order() {
        let tower = Point::new(0.0, 0.0);
        let a = CellSite::macro_site(CellId::nr(Pci(10), 521310), tower, 0.0, 90.0);
        let b = CellSite::macro_site(CellId::nr(Pci(20), 521310), tower, 0.0, 90.0);
        let winner = CellId::nr(Pci(10), 521310);
        for cells in [vec![a, b], vec![b, a]] {
            let e = RadioEnvironment::new(9, cells);
            let mut s = ScalarSampler::new(&e);
            let (c, _) = strongest_cell_mean(&mut s, Point::new(120.0, 35.0), |_| true).unwrap();
            assert_eq!(c, winner, "mean tie must pick the smaller cell id");
        }
    }
}
