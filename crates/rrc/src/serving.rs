//! Serving-cell-set bookkeeping.
//!
//! A *serving cell set* (`CS` in the paper) is the set of cells currently
//! providing radio access, organised as a master cell group (MCG) and an
//! optional secondary cell group (SCG), each with one primary cell and
//! optional SCells. The paper's Fig. 23 defines the three update forms:
//! ① PCell change, ② MCG SCell change, ③ SCG change — all realised here as
//! methods on [`ServingCellSet`].
//!
//! [`ServingReplay`] is the one place that replays RRC procedures onto
//! those methods (Appendix B). The detector's timeline, the online scorer
//! and the mitigation transforms all read the set it keeps.
//!
//! **5G ON/OFF** (§2): 5G is ON iff any NR cell is serving — either as the
//! MCG (SA) or as the SCG (NSA). 5G is OFF in 4G-only and IDLE states.

use std::fmt;

use serde::{de, Deserialize, Serialize, Value};

use crate::ids::{CellId, Rat};
use crate::messages::{ReconfigBody, RrcMessage, ScellAddMod};
use crate::perf::InlineVec;
use crate::trace::{MmState, Timestamp, TraceEvent};

/// Role of a cell within the serving set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CellRole {
    /// Primary cell of the MCG — the RRC control point.
    PCell,
    /// Primary cell of the SCG.
    PSCell,
    /// Secondary cell (of either group).
    SCell,
}

/// SCells keyed by `sCellIndex`, kept sorted by index.
///
/// Replaces a `BTreeMap<u8, CellId>`: carrier aggregation tops out at 4
/// SCells in the traces we model, so the entries live inline in an
/// [`InlineVec`] and cell-set replay stops heap-allocating per sample.
/// Sorted storage preserves the map's canonical ordering, so structurally
/// equal groups still compare, hash, and serialize identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ScellMap {
    /// `(index, cell)` entries, strictly ascending by index.
    entries: InlineVec<(u8, CellId), 4>,
}

impl ScellMap {
    /// An empty map (no heap allocation).
    pub fn new() -> ScellMap {
        ScellMap::default()
    }

    /// Number of SCells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no SCells are configured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds or replaces the SCell at `index`; returns the replaced cell.
    pub fn insert(&mut self, index: u8, cell: CellId) -> Option<CellId> {
        match self.entries.binary_search_by_key(&index, |e| e.0) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, cell)),
            Err(i) => {
                self.entries.insert(i, (index, cell));
                None
            }
        }
    }

    /// Removes the SCell at `index`, if present.
    pub fn remove(&mut self, index: &u8) -> Option<CellId> {
        match self.entries.binary_search_by_key(index, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The SCell at `index`, if present.
    pub fn get(&self, index: &u8) -> Option<&CellId> {
        match self.entries.binary_search_by_key(index, |e| e.0) {
            Ok(i) => Some(&self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Iterates `(index, cell)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&u8, &CellId)> {
        self.entries.iter().map(|(i, c)| (i, c))
    }

    /// Iterates indices in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &u8> {
        self.entries.iter().map(|(i, _)| i)
    }

    /// Iterates cells in index order.
    pub fn values(&self) -> impl Iterator<Item = &CellId> {
        self.entries.iter().map(|(_, c)| c)
    }
}

impl<'a> IntoIterator for &'a ScellMap {
    type Item = (&'a u8, &'a CellId);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (u8, CellId)>,
        fn(&'a (u8, CellId)) -> (&'a u8, &'a CellId),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.as_slice().iter().map(|(i, c)| (i, c))
    }
}

/// Serializes as an index-keyed JSON object — byte-identical to the
/// `BTreeMap<u8, CellId>` encoding this type replaced.
impl Serialize for ScellMap {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        for (i, c) in self.iter() {
            m.insert(i.to_string(), c.to_value());
        }
        Value::Object(m)
    }
}

impl Deserialize for ScellMap {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Object(m) => {
                let mut out = ScellMap::new();
                for (k, val) in m.iter() {
                    let index = k
                        .parse::<u8>()
                        .map_err(|_| de::Error::custom("sCellIndex key out of range"))?;
                    out.insert(index, CellId::from_value(val)?);
                }
                Ok(out)
            }
            _ => Err(de::Error::invalid_type("object", v)),
        }
    }
}

/// One cell group: a primary cell plus indexed SCells.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CellGroup {
    /// The group's primary cell (PCell for MCG, PSCell for SCG).
    pub primary: Option<CellId>,
    /// SCells keyed by `sCellIndex`, in canonical (index) order so
    /// structurally equal groups compare and hash equal.
    pub scells: ScellMap,
}

impl CellGroup {
    /// A group with only a primary cell.
    pub fn with_primary(cell: CellId) -> Self {
        CellGroup {
            primary: Some(cell),
            scells: ScellMap::new(),
        }
    }

    /// All cells in the group: primary first, then SCells by index.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.primary
            .into_iter()
            .chain(self.scells.values().copied())
    }

    /// Number of cells in the group.
    pub fn len(&self) -> usize {
        usize::from(self.primary.is_some()) + self.scells.len()
    }

    /// True when the group has no cells at all.
    pub fn is_empty(&self) -> bool {
        self.primary.is_none() && self.scells.is_empty()
    }

    /// Adds or replaces the SCell at `index`.
    pub fn add_scell(&mut self, index: u8, cell: CellId) {
        self.scells.insert(index, cell);
    }

    /// Releases the SCell at `index`; returns the released cell if present.
    pub fn release_scell(&mut self, index: u8) -> Option<CellId> {
        self.scells.remove(&index)
    }
}

/// RRC connectivity state in the paper's FSM vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnState {
    /// No active RRC connection.
    Idle,
    /// 5G SA: NR PCell controls the connection (5G ON).
    Sa,
    /// 4G-only: LTE PCell, no SCG (5G OFF).
    LteOnly,
    /// 5G NSA: LTE MCG plus NR SCG (5G ON).
    Nsa,
}

impl fmt::Display for ConnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnState::Idle => "IDLE",
            ConnState::Sa => "5G SA",
            ConnState::LteOnly => "4G",
            ConnState::Nsa => "5G NSA",
        };
        f.write_str(s)
    }
}

/// The full serving cell set: MCG + optional SCG.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ServingCellSet {
    /// Master cell group (mandatory while connected).
    pub mcg: CellGroup,
    /// Secondary cell group (NSA's 5G leg), if configured.
    pub scg: Option<CellGroup>,
}

impl ServingCellSet {
    /// The empty (IDLE) set.
    pub fn idle() -> Self {
        ServingCellSet::default()
    }

    /// A connected set with the given PCell and nothing else.
    pub fn with_pcell(cell: CellId) -> Self {
        ServingCellSet {
            mcg: CellGroup::with_primary(cell),
            scg: None,
        }
    }

    /// The MCG's primary cell.
    pub fn pcell(&self) -> Option<CellId> {
        self.mcg.primary
    }

    /// The SCG's primary cell.
    pub fn pscell(&self) -> Option<CellId> {
        self.scg.as_ref().and_then(|g| g.primary)
    }

    /// All serving cells, MCG first, without allocating.
    pub fn cells_iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.mcg
            .cells()
            .chain(self.scg.iter().flat_map(CellGroup::cells))
    }

    /// All serving cells, MCG first, as an owned list (cold paths; hot
    /// paths should use [`ServingCellSet::cells_iter`]).
    pub fn cells(&self) -> Vec<CellId> {
        self.cells_iter().collect()
    }

    /// Whether any NR cell is serving — the paper's **5G ON** predicate.
    /// Allocation-free: the streaming analyzer asks this per sample.
    pub fn uses_5g(&self) -> bool {
        self.cells_iter().any(|c| c.rat == Rat::Nr)
    }

    /// The connectivity state implied by the set's structure.
    pub fn state(&self) -> ConnState {
        match self.mcg.primary {
            None => ConnState::Idle,
            Some(p) if p.rat == Rat::Nr => ConnState::Sa,
            Some(_) => {
                if self.scg.as_ref().is_some_and(|g| !g.is_empty()) {
                    ConnState::Nsa
                } else {
                    ConnState::LteOnly
                }
            }
        }
    }

    /// ① PCell change (handover). Per TS 36.331, a handover resets the MCG
    /// SCell configuration; when `keep_scg` is false (no `spCellConfig` in
    /// the command) the SCG is dropped too — the N2E1 mechanism.
    pub fn handover(&mut self, target: CellId, keep_scg: bool) {
        self.mcg = CellGroup::with_primary(target);
        if !keep_scg {
            self.scg = None;
        }
    }

    /// ② MCG SCell add/modify at `index`.
    pub fn add_mcg_scell(&mut self, index: u8, cell: CellId) {
        self.mcg.add_scell(index, cell);
    }

    /// ② MCG SCell release at `index`.
    pub fn release_mcg_scell(&mut self, index: u8) -> Option<CellId> {
        self.mcg.release_scell(index)
    }

    /// ③ SCG establishment / PSCell change.
    pub fn set_pscell(&mut self, cell: CellId) {
        match &mut self.scg {
            Some(g) => g.primary = Some(cell),
            None => self.scg = Some(CellGroup::with_primary(cell)),
        }
    }

    /// ③ SCG SCell add at `index`.
    pub fn add_scg_scell(&mut self, index: u8, cell: CellId) {
        self.scg
            .get_or_insert_with(CellGroup::default)
            .add_scell(index, cell);
    }

    /// ③ SCG release — the "losing 5G only" transition of N2 loops.
    pub fn release_scg(&mut self) -> Option<CellGroup> {
        self.scg.take()
    }

    /// Full release to IDLE — the S1/N1 "all serving cells released".
    pub fn release_all(&mut self) {
        *self = ServingCellSet::idle();
    }

    /// Canonical key for interning: every (role, cell) pair, ordered. Two
    /// sets with identical membership and roles produce identical keys.
    /// Inline up to 8 pairs, so building a key allocates nothing for the
    /// cell sets real traces produce.
    pub fn canonical_key(&self) -> InlineVec<(CellRole, CellId), 8> {
        let mut key = InlineVec::new();
        if let Some(p) = self.mcg.primary {
            key.push((CellRole::PCell, p));
        }
        for cell in self.mcg.scells.values() {
            key.push((CellRole::SCell, *cell));
        }
        if let Some(scg) = &self.scg {
            if let Some(p) = scg.primary {
                key.push((CellRole::PSCell, p));
            }
            for cell in scg.scells.values() {
                key.push((CellRole::SCell, *cell));
            }
        }
        key.sort_unstable();
        key
    }
}

impl fmt::Display for ServingCellSet {
    /// Renders like `{393@521310*, 273@387410, 273@398410 | SCG: 66@632736*}`
    /// where `*` marks group primaries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if let Some(p) = self.mcg.primary {
            put(f, format!("{p}*"))?;
        }
        for c in self.mcg.scells.values() {
            put(f, c.to_string())?;
        }
        if let Some(scg) = &self.scg {
            if !first {
                write!(f, " | SCG: ")?;
            } else {
                write!(f, "SCG: ")?;
            }
            let mut sfirst = true;
            if let Some(p) = scg.primary {
                write!(f, "{p}*")?;
                sfirst = false;
            }
            for c in scg.scells.values() {
                if !sfirst {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
                sfirst = false;
            }
        }
        write!(f, "}}")
    }
}

/// What a reconfiguration does to the serving set, held until its
/// `Complete` arrives. The command's `measConfig` list, the one field of
/// [`ReconfigBody`] on the heap, never touches the set and is left out.
#[derive(Debug)]
struct ReconfigEffect {
    /// RAT of the record that carried the command.
    rat: Rat,
    add: InlineVec<ScellAddMod, 4>,
    release: InlineVec<u8, 4>,
    sp_cell: Option<CellId>,
    scg_release: bool,
    mobility_target: Option<CellId>,
}

impl ReconfigEffect {
    fn capture(rat: Rat, body: &ReconfigBody) -> ReconfigEffect {
        ReconfigEffect {
            rat,
            add: body.scell_to_add_mod.clone(),
            release: body.scell_to_release.clone(),
            sp_cell: body.sp_cell,
            scg_release: body.scg_release,
            mobility_target: body.mobility_target,
        }
    }

    /// Applies the completed command: a handover first (it resets the
    /// SCell configuration), else the SCG release, the PSCell, SCell
    /// releases and then SCell adds.
    fn apply(&self, cs: &mut ServingCellSet) {
        if let Some(target) = self.mobility_target {
            cs.handover(target, self.sp_cell.is_some());
            if let Some(sp) = self.sp_cell {
                cs.set_pscell(sp);
            }
            return;
        }
        if self.scg_release {
            cs.release_scg();
        }
        if let Some(sp) = self.sp_cell {
            cs.set_pscell(sp);
        }
        for rel in &self.release {
            cs.release_mcg_scell(*rel);
        }
        for add in &self.add {
            if self.rat == Rat::Lte && add.cell.rat == Rat::Nr {
                cs.add_scg_scell(add.index, add.cell);
            } else {
                cs.add_mcg_scell(add.index, add.cell);
            }
        }
    }
}

/// The serving-cell-set replay of the paper's Appendix B: advances a
/// [`ServingCellSet`] one [`TraceEvent`] at a time.
///
/// * establishment / re-establishment → a new MCG with the named PCell;
/// * `RRCReconfiguration` → SCell add/release, PSCell change, SCG release,
///   handover — applied when the matching `Complete` arrives (a command the
///   UE never completes, e.g. a failed handover, changes nothing);
/// * `RRCRelease`, re-establishment requests and MM `DEREGISTERED` → IDLE.
///
/// NSA disambiguation: inside an LTE-RAT record, `sCellToAddModList`
/// entries whose cells are NR belong to the SCG (EN-DC's
/// `nr-SecondaryCellGroupConfig` carries them); LTE entries are MCG SCells.
///
/// Timestamps are only handed back. A held command keeps copies of its
/// inline SCell lists, so `feed` allocates nothing while a command adds
/// and releases at most four SCells each.
#[derive(Debug, Default)]
pub struct ServingReplay {
    serving: ServingCellSet,
    /// PCell requested by a `SetupRequest`, not yet set up.
    pending_pcell: Option<CellId>,
    /// Command awaiting its `Complete`.
    pending: Option<ReconfigEffect>,
}

impl ServingReplay {
    /// A replay in the IDLE state.
    pub fn new() -> ServingReplay {
        ServingReplay::default()
    }

    /// The serving set after the last event fed.
    pub fn serving(&self) -> &ServingCellSet {
        &self.serving
    }

    /// Back to IDLE with nothing pending.
    pub fn reset(&mut self) {
        *self = ServingReplay::default();
    }

    /// Applies one event's effect on the serving set. Returns the event's
    /// time when the event (re)set the set, even to the set it already
    /// was; `None` when it left the set alone.
    pub fn feed(&mut self, ev: &TraceEvent) -> Option<Timestamp> {
        match ev {
            TraceEvent::Rrc(rec) => match &rec.msg {
                RrcMessage::SetupRequest { cell, .. } => {
                    self.pending_pcell = Some(*cell);
                    self.pending = None;
                    None
                }
                RrcMessage::SetupComplete => {
                    self.serving = ServingCellSet::with_pcell(self.pending_pcell.take()?);
                    Some(rec.t)
                }
                RrcMessage::Reconfiguration(body) => {
                    self.pending = Some(ReconfigEffect::capture(rec.rat, body));
                    None
                }
                RrcMessage::ReconfigurationComplete => {
                    self.pending.take()?.apply(&mut self.serving);
                    Some(rec.t)
                }
                RrcMessage::ReestablishmentRequest { .. } | RrcMessage::Release => {
                    self.pending = None;
                    self.serving.release_all();
                    Some(rec.t)
                }
                RrcMessage::ReestablishmentComplete { cell } => {
                    self.serving = ServingCellSet::with_pcell(*cell);
                    Some(rec.t)
                }
                _ => None,
            },
            TraceEvent::Mm {
                t,
                state: MmState::DeregisteredNoCellAvailable,
            } => {
                self.pending = None;
                self.pending_pcell = None;
                self.serving.release_all();
                Some(*t)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Pci;

    fn nr(pci: u16, arfcn: u32) -> CellId {
        CellId::nr(Pci(pci), arfcn)
    }
    fn lte(pci: u16, arfcn: u32) -> CellId {
        CellId::lte(Pci(pci), arfcn)
    }

    #[test]
    fn idle_state() {
        let cs = ServingCellSet::idle();
        assert_eq!(cs.state(), ConnState::Idle);
        assert!(!cs.uses_5g());
        assert!(cs.cells().is_empty());
    }

    #[test]
    fn sa_example_from_fig24_to_26() {
        // Fig. 24: establish with 393@521310 as PCell.
        let mut cs = ServingCellSet::with_pcell(nr(393, 521310));
        assert_eq!(cs.state(), ConnState::Sa);
        assert!(cs.uses_5g());

        // Fig. 25: add 273@387410, 273@398410, 393@501390 at indices 1..3.
        cs.add_mcg_scell(1, nr(273, 387410));
        cs.add_mcg_scell(2, nr(273, 398410));
        cs.add_mcg_scell(3, nr(393, 501390));
        assert_eq!(cs.cells().len(), 4);

        // Fig. 26 first reconfiguration: add 104@501390 at 4, release 3.
        cs.add_mcg_scell(4, nr(104, 501390));
        assert_eq!(cs.release_mcg_scell(3), Some(nr(393, 501390)));
        assert_eq!(cs.cells().len(), 4);
        assert!(cs.cells().contains(&nr(104, 501390)));

        // Fig. 26 second (failing) modification leads to full release.
        cs.release_all();
        assert_eq!(cs.state(), ConnState::Idle);
    }

    #[test]
    fn nsa_states() {
        let mut cs = ServingCellSet::with_pcell(lte(238, 5145));
        assert_eq!(cs.state(), ConnState::LteOnly);
        assert!(!cs.uses_5g());

        // Fig. 30: add 5G SCG 66@632736 + 66@658080.
        cs.set_pscell(nr(66, 632736));
        cs.add_scg_scell(1, nr(66, 658080));
        assert_eq!(cs.state(), ConnState::Nsa);
        assert!(cs.uses_5g());
        assert_eq!(cs.pscell(), Some(nr(66, 632736)));

        // Releasing the SCG turns 5G OFF but keeps the connection.
        let released = cs.release_scg().unwrap();
        assert_eq!(released.len(), 2);
        assert_eq!(cs.state(), ConnState::LteOnly);
        assert!(!cs.uses_5g());
    }

    #[test]
    fn handover_drops_scg_without_sp_cell_config() {
        let mut cs = ServingCellSet::with_pcell(lte(380, 5145));
        cs.set_pscell(nr(53, 632736));
        cs.add_scg_scell(1, nr(53, 658080));
        assert_eq!(cs.state(), ConnState::Nsa);

        // N2E1: handover to the 5G-disabled channel drops the SCG.
        cs.handover(lte(380, 5815), false);
        assert_eq!(cs.state(), ConnState::LteOnly);
        assert_eq!(cs.pcell(), Some(lte(380, 5815)));
        assert!(cs.mcg.scells.is_empty());
    }

    #[test]
    fn handover_may_keep_scg() {
        let mut cs = ServingCellSet::with_pcell(lte(1, 850));
        cs.set_pscell(nr(5, 632736));
        cs.handover(lte(2, 850), true);
        assert_eq!(cs.state(), ConnState::Nsa);
    }

    #[test]
    fn canonical_key_is_order_insensitive() {
        let mut a = ServingCellSet::with_pcell(nr(393, 521310));
        a.add_mcg_scell(1, nr(273, 387410));
        a.add_mcg_scell(2, nr(273, 398410));

        let mut b = ServingCellSet::with_pcell(nr(393, 521310));
        b.add_mcg_scell(7, nr(273, 398410));
        b.add_mcg_scell(5, nr(273, 387410));

        // Different indices, same membership+roles ⇒ same canonical key.
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_roles() {
        // Same cells, but one as PCell vs as SCell ⇒ different keys.
        let sa = ServingCellSet::with_pcell(nr(393, 521310));
        let mut nsa = ServingCellSet::with_pcell(lte(1, 850));
        nsa.set_pscell(nr(393, 521310));
        assert_ne!(sa.canonical_key(), nsa.canonical_key());
    }

    #[test]
    fn display_formats() {
        let mut cs = ServingCellSet::with_pcell(nr(393, 521310));
        cs.add_mcg_scell(1, nr(273, 387410));
        assert_eq!(cs.to_string(), "{393@521310*, 273@387410}");

        let mut nsa = ServingCellSet::with_pcell(lte(238, 5145));
        nsa.set_pscell(nr(66, 632736));
        nsa.add_scg_scell(1, nr(66, 658080));
        assert_eq!(nsa.to_string(), "{238@5145* | SCG: 66@632736*, 66@658080}");

        assert_eq!(ServingCellSet::idle().to_string(), "{}");
    }

    #[test]
    fn state_display() {
        assert_eq!(ConnState::Idle.to_string(), "IDLE");
        assert_eq!(ConnState::Sa.to_string(), "5G SA");
        assert_eq!(ConnState::Nsa.to_string(), "5G NSA");
        assert_eq!(ConnState::LteOnly.to_string(), "4G");
    }

    #[test]
    fn scell_release_of_missing_index_is_none() {
        let mut cs = ServingCellSet::with_pcell(nr(393, 521310));
        assert_eq!(cs.release_mcg_scell(9), None);
    }

    fn rrc(t: u64, rat: Rat, msg: RrcMessage) -> TraceEvent {
        use crate::trace::{LogChannel, LogRecord};
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    #[test]
    fn replay_reports_when_the_set_is_reset() {
        use crate::events::{EventKind, MeasEvent, TriggerQuantity};
        use crate::ids::GlobalCellId;
        let mut r = ServingReplay::new();
        let setup = RrcMessage::SetupRequest {
            cell: lte(238, 5145),
            global_id: GlobalCellId(1),
        };
        assert_eq!(r.feed(&rrc(0, Rat::Lte, setup)), None);
        assert_eq!(
            r.feed(&rrc(10, Rat::Lte, RrcMessage::SetupComplete)),
            Some(Timestamp(10))
        );
        // An NR add inside an LTE record joins the SCG, and only once the
        // command completes.
        let add = ReconfigBody {
            sp_cell: Some(nr(66, 632736)),
            scell_to_add_mod: vec![ScellAddMod {
                index: 1,
                cell: nr(66, 658080),
            }]
            .into(),
            meas_config: vec![MeasEvent::new(
                EventKind::A3 { offset: 30 },
                TriggerQuantity::Rsrp,
                632736,
            )],
            ..Default::default()
        };
        assert_eq!(
            r.feed(&rrc(20, Rat::Lte, RrcMessage::Reconfiguration(add))),
            None
        );
        assert_eq!(r.serving().state(), ConnState::LteOnly);
        assert_eq!(
            r.feed(&rrc(30, Rat::Lte, RrcMessage::ReconfigurationComplete)),
            Some(Timestamp(30))
        );
        assert_eq!(
            r.serving().to_string(),
            "{238@5145* | SCG: 66@632736*, 66@658080}"
        );
        // A Complete with nothing pending changes nothing.
        assert_eq!(
            r.feed(&rrc(40, Rat::Lte, RrcMessage::ReconfigurationComplete)),
            None
        );
        let dereg = TraceEvent::Mm {
            t: Timestamp(50),
            state: MmState::DeregisteredNoCellAvailable,
        };
        assert_eq!(r.feed(&dereg), Some(Timestamp(50)));
        assert_eq!(r.serving(), &ServingCellSet::idle());

        r.feed(&rrc(60, Rat::Lte, RrcMessage::SetupComplete));
        assert_eq!(r.serving(), &ServingCellSet::idle(), "no setup pending");
        r.reset();
        assert_eq!(r.serving(), &ServingCellSet::idle());
    }
}
