//! NR and LTE operating-band tables.
//!
//! Covers every band the paper observes (Table 3: NR n25/n41/n71 for OP_T,
//! n5/n77 for OP_A, n77 for OP_V; LTE 2/12/66, 2/12/17/30/66, 2/5/13/66) plus
//! the common neighbours needed for round-trip tests. LTE rows carry the
//! `F_DL_low` / `N_Offs-DL` constants that drive EARFCN→frequency conversion
//! (TS 36.101 Table 5.7.3-1); NR rows are downlink frequency ranges
//! (TS 38.104 Table 5.2-1).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arfcn::nr_arfcn_to_freq_mhz;
use crate::ids::Rat;

/// An operating band of either RAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Band {
    /// LTE E-UTRA operating band (e.g. `Band::Lte(17)`).
    Lte(u16),
    /// NR operating band (e.g. `Band::Nr(25)` for n25).
    Nr(u16),
}

impl Band {
    /// The RAT this band belongs to.
    pub fn rat(self) -> Rat {
        match self {
            Band::Lte(_) => Rat::Lte,
            Band::Nr(_) => Rat::Nr,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Lte(n) => write!(f, "{n}"),
            Band::Nr(n) => write!(f, "n{n}"),
        }
    }
}

/// One LTE band row: EARFCN range plus the conversion constants.
#[derive(Debug, Clone, Copy)]
pub struct LteBandRow {
    /// E-UTRA band number.
    pub band: u16,
    /// Lowest downlink carrier frequency of the band, in kHz.
    pub f_dl_low_khz: u64,
    /// N_Offs-DL: the first downlink EARFCN of the band.
    pub n_offs_dl: u32,
    /// Last downlink EARFCN of the band (inclusive).
    pub n_dl_max: u32,
}

/// One NR band row: downlink frequency range in kHz.
#[derive(Debug, Clone, Copy)]
pub struct NrBandRow {
    /// NR band number (without the `n` prefix).
    pub band: u16,
    /// Lowest downlink frequency, kHz (inclusive).
    pub f_dl_low_khz: u64,
    /// Highest downlink frequency, kHz (inclusive).
    pub f_dl_high_khz: u64,
}

/// TS 36.101 Table 5.7.3-1 (subset: US-deployed bands plus neighbours).
const LTE_BANDS: &[LteBandRow] = &[
    LteBandRow {
        band: 1,
        f_dl_low_khz: 2_110_000,
        n_offs_dl: 0,
        n_dl_max: 599,
    },
    LteBandRow {
        band: 2,
        f_dl_low_khz: 1_930_000,
        n_offs_dl: 600,
        n_dl_max: 1199,
    },
    LteBandRow {
        band: 3,
        f_dl_low_khz: 1_805_000,
        n_offs_dl: 1200,
        n_dl_max: 1949,
    },
    LteBandRow {
        band: 4,
        f_dl_low_khz: 2_110_000,
        n_offs_dl: 1950,
        n_dl_max: 2399,
    },
    LteBandRow {
        band: 5,
        f_dl_low_khz: 869_000,
        n_offs_dl: 2400,
        n_dl_max: 2649,
    },
    LteBandRow {
        band: 7,
        f_dl_low_khz: 2_620_000,
        n_offs_dl: 2750,
        n_dl_max: 3449,
    },
    LteBandRow {
        band: 12,
        f_dl_low_khz: 729_000,
        n_offs_dl: 5010,
        n_dl_max: 5179,
    },
    LteBandRow {
        band: 13,
        f_dl_low_khz: 746_000,
        n_offs_dl: 5180,
        n_dl_max: 5279,
    },
    LteBandRow {
        band: 14,
        f_dl_low_khz: 758_000,
        n_offs_dl: 5280,
        n_dl_max: 5379,
    },
    LteBandRow {
        band: 17,
        f_dl_low_khz: 734_000,
        n_offs_dl: 5730,
        n_dl_max: 5849,
    },
    LteBandRow {
        band: 25,
        f_dl_low_khz: 1_930_000,
        n_offs_dl: 8040,
        n_dl_max: 8689,
    },
    LteBandRow {
        band: 26,
        f_dl_low_khz: 859_000,
        n_offs_dl: 8690,
        n_dl_max: 9039,
    },
    LteBandRow {
        band: 29,
        f_dl_low_khz: 717_000,
        n_offs_dl: 9660,
        n_dl_max: 9769,
    },
    LteBandRow {
        band: 30,
        f_dl_low_khz: 2_350_000,
        n_offs_dl: 9770,
        n_dl_max: 9869,
    },
    LteBandRow {
        band: 41,
        f_dl_low_khz: 2_496_000,
        n_offs_dl: 39650,
        n_dl_max: 41589,
    },
    LteBandRow {
        band: 66,
        f_dl_low_khz: 2_110_000,
        n_offs_dl: 66436,
        n_dl_max: 67335,
    },
    LteBandRow {
        band: 71,
        f_dl_low_khz: 617_000,
        n_offs_dl: 68586,
        n_dl_max: 68935,
    },
];

/// TS 38.104 Table 5.2-1 (subset), in **priority order** for lookup:
/// where downlink ranges overlap (n25 ⊃ n2, n77 ⊃ n78) the band the US
/// operators in the paper actually license comes first, so `nr_band_of`
/// reports the band the paper reports.
const NR_BANDS: &[NrBandRow] = &[
    NrBandRow {
        band: 25,
        f_dl_low_khz: 1_930_000,
        f_dl_high_khz: 1_995_000,
    },
    NrBandRow {
        band: 2,
        f_dl_low_khz: 1_930_000,
        f_dl_high_khz: 1_990_000,
    },
    NrBandRow {
        band: 41,
        f_dl_low_khz: 2_496_000,
        f_dl_high_khz: 2_690_000,
    },
    NrBandRow {
        band: 71,
        f_dl_low_khz: 617_000,
        f_dl_high_khz: 652_000,
    },
    NrBandRow {
        band: 5,
        f_dl_low_khz: 869_000,
        f_dl_high_khz: 894_000,
    },
    NrBandRow {
        band: 77,
        f_dl_low_khz: 3_300_000,
        f_dl_high_khz: 4_200_000,
    },
    NrBandRow {
        band: 78,
        f_dl_low_khz: 3_300_000,
        f_dl_high_khz: 3_800_000,
    },
    NrBandRow {
        band: 66,
        f_dl_low_khz: 2_110_000,
        f_dl_high_khz: 2_200_000,
    },
    NrBandRow {
        band: 79,
        f_dl_low_khz: 4_400_000,
        f_dl_high_khz: 5_000_000,
    },
];

/// Static accessors over the band tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandTable;

impl BandTable {
    /// The LTE table accessor.
    pub fn lte() -> Self {
        BandTable
    }

    /// The LTE band row containing a downlink EARFCN, if any.
    pub fn band_of(&self, earfcn: u32) -> Option<&'static LteBandRow> {
        LTE_BANDS
            .iter()
            .find(|b| (b.n_offs_dl..=b.n_dl_max).contains(&earfcn))
    }

    /// The LTE [`Band`] containing a downlink EARFCN.
    pub fn lte_band_of(earfcn: u32) -> Option<Band> {
        BandTable.band_of(earfcn).map(|r| Band::Lte(r.band))
    }

    /// The NR [`Band`] containing an NR-ARFCN (priority order, see the
    /// `NR_BANDS` note on overlaps).
    pub fn nr_band_of(arfcn: u32) -> Option<Band> {
        let khz = (nr_arfcn_to_freq_mhz(arfcn)? * 1000.0).round() as u64;
        NR_BANDS
            .iter()
            .find(|b| (b.f_dl_low_khz..=b.f_dl_high_khz).contains(&khz))
            .map(|r| Band::Nr(r.band))
    }

    /// Band lookup dispatched by RAT.
    pub fn band_for(rat: Rat, arfcn: u32) -> Option<Band> {
        match rat {
            Rat::Lte => Self::lte_band_of(arfcn),
            Rat::Nr => Self::nr_band_of(arfcn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 + §5.3: the paper's band attributions for every 5G channel.
    #[test]
    fn nr_band_lookup_matches_paper() {
        let cases = [
            (521310, 41),
            (501390, 41),
            (398410, 25),
            (387410, 25),
            (126270, 71),
            (632736, 77),
            (658080, 77),
            (648672, 77),
            (653952, 77),
            (174770, 5),
        ];
        for (arfcn, band) in cases {
            assert_eq!(
                BandTable::nr_band_of(arfcn),
                Some(Band::Nr(band)),
                "arfcn {arfcn} should be band n{band}"
            );
        }
    }

    #[test]
    fn lte_band_lookup_matches_paper() {
        let cases = [
            (5815, 17), // OP_A's 5G-disabled channel, band 17 (742 MHz)
            (5230, 13), // OP_V's problematic channel, band 13
            (5145, 12),
            (850, 2),
            (1075, 2),
            (66486, 66),
            (66936, 66),
            (9820, 30),
            (2000, 4),
        ];
        for (earfcn, band) in cases {
            assert_eq!(
                BandTable::lte_band_of(earfcn),
                Some(Band::Lte(band)),
                "earfcn {earfcn} should be band {band}"
            );
        }
    }

    #[test]
    fn unknown_channels_have_no_band() {
        assert_eq!(BandTable::lte_band_of(3850), None); // gap between bands 7 and 12
        assert_eq!(BandTable::nr_band_of(300_000), None); // 1500 MHz, no US band here
    }

    #[test]
    fn band_display_uses_3gpp_notation() {
        assert_eq!(Band::Nr(25).to_string(), "n25");
        assert_eq!(Band::Lte(17).to_string(), "17");
    }

    #[test]
    fn band_for_dispatches_by_rat() {
        assert_eq!(BandTable::band_for(Rat::Nr, 387410), Some(Band::Nr(25)));
        assert_eq!(BandTable::band_for(Rat::Lte, 5815), Some(Band::Lte(17)));
    }

    #[test]
    fn overlapping_ranges_prefer_paper_band() {
        // 1937.05 MHz is inside both n2 and n25; the paper calls it n25.
        assert_eq!(BandTable::nr_band_of(387410), Some(Band::Nr(25)));
        // 3491 MHz is inside both n77 and n78; the paper calls it n77.
        assert_eq!(BandTable::nr_band_of(632736), Some(Band::Nr(77)));
    }

    #[test]
    fn lte_band_edges_are_inclusive() {
        assert_eq!(BandTable::lte_band_of(600), Some(Band::Lte(2)));
        assert_eq!(BandTable::lte_band_of(1199), Some(Band::Lte(2)));
        assert_eq!(BandTable::lte_band_of(5730), Some(Band::Lte(17)));
        assert_eq!(BandTable::lte_band_of(5849), Some(Band::Lte(17)));
        assert_eq!(BandTable::lte_band_of(5850), None);
    }
}
