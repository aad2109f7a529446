//! In-memory spans around the public calls into each layer, and the
//! self-time arithmetic that turns them into per-layer numbers.
//!
//! A span records its kind, the run or session id it worked for, its
//! parent, its start and end, and the allocations counted between the
//! two. Spans stay in a `Vec` until the run ends; nothing is written
//! while a pass is timed. A span's self time is its duration minus the
//! union of its children's intervals, so overlapping children are counted
//! once.

use std::io::Write;
use std::time::Instant;

use crate::alloc;
use crate::report::Report;
use crate::stats::median;

/// What a span timed. Each kind belongs to one layer, named after the
/// crate whose public call it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole traced pass; its self time is the unattributed time.
    Root,
    /// `all_areas`.
    Areas,
    /// `RadioTables::new` for one area.
    Tables,
    /// `UeBatch::run_into` (clean) or `simulate` (chaos).
    Sim,
    /// `ChaosEngine::corrupt_text`.
    Corrupt,
    /// `SimOutput::to_log`.
    Emit,
    /// `parse_str_lossy` / `parse_str_lossy_into`.
    Parse,
    /// `StoreReader::new` + `read_all_into`.
    StoreDecode,
    /// `TraceAnalyzer::feed` + `analysis`/`finish`, scoring off.
    Detect,
    /// A standalone `OnlineScorer::feed` + `report`.
    Predict,
    /// `RunRecord::from_run` + the channel-usage and SCell folds.
    Fold,
    /// Record sort + `location_predictions` + map build.
    Finalize,
    /// Frame reassembly and request/response encode/decode.
    Protocol,
    /// `SessionTable::ingest_drain` creating its session.
    ColdIngest,
    /// `SessionTable::ingest_drain` on a live session.
    WarmIngest,
    /// `SessionTable::query`.
    Query,
    /// Serializing a query's `SessionReport` to JSON.
    ReportJson,
    /// `SessionTable::end_session` + its report JSON.
    End,
    /// The load generator's own bookkeeping and response checks.
    Loadgen,
}

/// Every layer a share is reported for, in report order.
pub const LAYERS: [&str; 11] = [
    "campaign",
    "radio",
    "sim",
    "nsglog",
    "store",
    "detect",
    "predict",
    "serve.protocol",
    "serve.session",
    "serve.engine",
    "loadgen",
];

impl Kind {
    /// Short name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Root => "root",
            Kind::Areas => "campaign.areas",
            Kind::Tables => "radio.tables",
            Kind::Sim => "sim.run",
            Kind::Corrupt => "sim.corrupt",
            Kind::Emit => "nsglog.emit",
            Kind::Parse => "nsglog.parse",
            Kind::StoreDecode => "store.decode",
            Kind::Detect => "detect.feed",
            Kind::Predict => "predict.feed",
            Kind::Fold => "campaign.fold",
            Kind::Finalize => "campaign.finalize",
            Kind::Protocol => "serve.protocol",
            Kind::ColdIngest => "serve.session.cold_ingest",
            Kind::WarmIngest => "serve.session.warm_ingest",
            Kind::Query => "serve.session.query",
            Kind::ReportJson => "serve.engine.report_json",
            Kind::End => "serve.session.end",
            Kind::Loadgen => "loadgen",
        }
    }

    /// The layer this kind's self time counts toward (`None` for root).
    pub fn layer(self) -> Option<&'static str> {
        Some(match self {
            Kind::Root => return None,
            Kind::Areas | Kind::Fold | Kind::Finalize => "campaign",
            Kind::Tables => "radio",
            Kind::Sim | Kind::Corrupt => "sim",
            Kind::Emit | Kind::Parse => "nsglog",
            Kind::StoreDecode => "store",
            Kind::Detect => "detect",
            Kind::Predict => "predict",
            Kind::Protocol => "serve.protocol",
            Kind::ColdIngest | Kind::WarmIngest | Kind::Query | Kind::End => "serve.session",
            Kind::ReportJson => "serve.engine",
            Kind::Loadgen => "loadgen",
        })
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    /// Allocations counted between start and end, children included.
    pub allocs: u64,
}

/// Records spans when on. When off it records only root spans, which
/// give an untraced pass its wall; every other `span` just runs its
/// closure, so the same pass code serves both.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `kind` for run/session `id`.
    #[inline]
    pub fn span<T>(&mut self, kind: Kind, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on && kind != Kind::Root {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            kind,
            id,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: 0,
            allocs: alloc::count(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.allocs = alloc::count() - span.allocs;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\tname\tid\tparent\tstart_ns\tend_ns\tallocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.kind.name(),
                s.id,
                s.start,
                s.end,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// Self time and self allocations of every span, index-aligned.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match &mut cur {
                    Some((_, ce)) if a <= *ce => *ce = (*ce).max(b),
                    _ => {
                        if let Some((cs, ce)) = cur {
                            covered += ce - cs;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            let child_allocs: u64 = kids.iter().map(|&k| spans[k].allocs).sum();
            (
                (s.end - s.start).saturating_sub(covered),
                s.allocs.saturating_sub(child_allocs),
            )
        })
        .collect()
}

/// Per-kind totals over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Duration of the root span, ns.
    pub wall_ns: u64,
    rows: Vec<(Kind, u64, u64, u64)>,
}

impl Summary {
    /// Sums self time, self allocations and span count per kind. The
    /// first root span's duration is the traced wall.
    pub fn of(spans: &[Span]) -> Summary {
        let mut out = Summary {
            wall_ns: spans
                .iter()
                .find(|s| s.kind == Kind::Root)
                .map_or(0, |s| s.end - s.start),
            rows: Vec::new(),
        };
        for (s, (ns, allocs)) in spans.iter().zip(self_costs(spans)) {
            match out.rows.iter_mut().find(|r| r.0 == s.kind) {
                Some(r) => {
                    r.1 += ns;
                    r.2 += allocs;
                    r.3 += 1;
                }
                None => out.rows.push((s.kind, ns, allocs, 1)),
            }
        }
        out
    }

    fn row(&self, kind: Kind) -> (u64, u64, u64) {
        self.rows
            .iter()
            .find(|r| r.0 == kind)
            .map_or((0, 0, 0), |r| (r.1, r.2, r.3))
    }

    /// Self time of every span of `kind`, ns.
    pub fn ns(&self, kind: Kind) -> u64 {
        self.row(kind).0
    }

    /// Self allocations of every span of `kind`.
    pub fn allocs(&self, kind: Kind) -> u64 {
        self.row(kind).1
    }

    /// Number of spans of `kind`.
    pub fn count(&self, kind: Kind) -> u64 {
        self.row(kind).2
    }

    /// Self time of every kind in `layer`, as a share of the wall.
    pub fn share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .rows
            .iter()
            .filter(|r| r.0.layer() == Some(layer))
            .map(|r| r.1)
            .sum();
        ratio(ns as f64, self.wall_ns as f64)
    }

    /// Share of the wall no layer's span covers.
    pub fn unattributed_share(&self) -> f64 {
        ratio(self.ns(Kind::Root) as f64, self.wall_ns as f64)
    }

    /// Allocations of the whole pass.
    pub fn total_allocs(&self) -> u64 {
        self.rows.iter().map(|r| r.2).sum()
    }
}

/// What [`alternate`] measured.
pub struct Passes<C> {
    /// Median wall of the untraced passes, ns.
    pub wall_off_ns: f64,
    /// The median-wall traced pass: its summary, counters and spans.
    pub summary: Summary,
    pub counters: C,
    pub tracer: Tracer,
    /// Traced passes run.
    pub traced: usize,
}

/// Runs `pass` untraced and traced in turn until `seconds` have passed
/// since `started` (at least once each), so the tracing overhead compares
/// passes that ran under the same conditions. `pass` wraps its work in a
/// root span and may check its outputs after it. The allocator counts
/// during traced passes only, and their counts must repeat exactly.
pub fn alternate<C>(
    started: Instant,
    seconds: f64,
    rep: &mut Report,
    mut pass: impl FnMut(&mut Tracer, &mut Report) -> C,
) -> Passes<C> {
    let mut walls_off = Vec::new();
    let mut traced: Vec<(Summary, C, Tracer)> = Vec::new();
    loop {
        let mut off = Tracer::new(false);
        pass(&mut off, rep);
        walls_off.push(Summary::of(off.spans()).wall_ns as f64);

        let mut tracer = Tracer::new(true);
        alloc::set_counting(true);
        let counters = pass(&mut tracer, rep);
        alloc::set_counting(false);
        let summary = Summary::of(tracer.spans());
        if let Some((first, ..)) = traced.first() {
            let (a, b) = (first.total_allocs(), summary.total_allocs());
            rep.check(a == b, || {
                format!("allocation counts differ between traced passes: {a} vs {b}")
            });
        }
        traced.push((summary, counters, tracer));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    traced.sort_by_key(|p| p.0.wall_ns);
    let n = traced.len();
    let (summary, counters, tracer) = traced.swap_remove(n / 2);
    Passes {
        wall_off_ns: median(&walls_off),
        summary,
        counters,
        tracer,
        traced: n,
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the traced wall spent in spans that run before or after the
/// worker pool and so cannot overlap with other workers.
pub fn serial_fraction(serial_ns: u64, wall_ns: u64) -> f64 {
    ratio(serial_ns as f64, wall_ns as f64)
}

/// Parallel efficiency: `runs_per_s / (workers × runs_per_s_1w)`.
pub fn scaling_eff(runs_per_s: f64, workers: usize, runs_per_s_1w: f64) -> f64 {
    ratio(runs_per_s, workers as f64 * runs_per_s_1w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: Option<usize>, start: u64, end: u64, allocs: u64) -> Span {
        Span {
            kind,
            id: 0,
            parent,
            start,
            end,
            allocs,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(Kind::Root, None, 0, 100, 9),
            span(Kind::Sim, Some(0), 10, 40, 2),
            span(Kind::Detect, Some(0), 30, 60, 3),
            // Runs past its parent's end: only [90, 100) is covered.
            span(Kind::Fold, Some(0), 90, 120, 1),
            span(Kind::Emit, Some(1), 15, 25, 1),
        ];
        let costs = self_costs(&spans);
        // Root: covered [10, 60) ∪ [90, 100) = 60 of 100.
        assert_eq!(costs[0], (40, 3));
        // Sim: its child covers 10 of its 30.
        assert_eq!(costs[1], (20, 1));
        assert_eq!(costs[2], (30, 3));
        assert_eq!(costs[4], (10, 1));
    }

    #[test]
    fn summary_shares_and_unattributed_add_up() {
        let spans = [
            span(Kind::Root, None, 0, 200, 0),
            span(Kind::Areas, Some(0), 0, 20, 0),
            span(Kind::Sim, Some(0), 20, 120, 0),
            span(Kind::Detect, Some(0), 120, 170, 0),
            span(Kind::Finalize, Some(0), 170, 190, 0),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.wall_ns, 200);
        assert_eq!(s.share("campaign"), 0.2);
        assert_eq!(s.share("sim"), 0.5);
        assert_eq!(s.unattributed_share(), 0.05);
        let total: f64 = LAYERS.iter().map(|l| s.share(l)).sum::<f64>() + s.unattributed_share();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_skips_when_off() {
        let mut on = Tracer::new(true);
        let v = on.span(Kind::Root, 1, |t| t.span(Kind::Sim, 2, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[1].id, 2);
        // Off, only the root span is kept: it times the untraced pass.
        let mut off = Tracer::new(false);
        assert_eq!(off.span(Kind::Root, 1, |t| t.span(Kind::Sim, 2, |_| 3)), 3);
        assert_eq!(off.spans().len(), 1);
        assert_eq!(off.spans()[0].kind, Kind::Root);
    }

    #[test]
    fn serial_fraction_is_serial_time_over_wall() {
        // 0.2 s of areas + tables + finalize in a 2 s traced pass.
        assert_eq!(serial_fraction(200_000_000, 2_000_000_000), 0.1);
        assert_eq!(serial_fraction(5, 0), 0.0);
    }

    #[test]
    fn scaling_eff_is_speedup_over_workers() {
        // 600 runs/s on 2 workers against 400 runs/s on one: 1.5x of 2.
        assert_eq!(scaling_eff(600.0, 2, 400.0), 0.75);
        assert_eq!(scaling_eff(400.0, 1, 400.0), 1.0);
        assert_eq!(scaling_eff(1.0, 2, 0.0), 0.0);
    }
}
