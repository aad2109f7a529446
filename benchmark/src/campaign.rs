//! The `campaign` and `chaos-campaign` workloads.
//!
//! Untraced runs call `run_campaign` as `repro` does and time it. The
//! traced run rebuilds the same pipeline from the public calls beneath
//! it — same job seeds, same batch grouping, same retry rule — with a
//! span around each call, and must reproduce the untraced dataset byte
//! for byte. The job enumeration below mirrors `run_campaign`'s; the
//! byte-identical check is what keeps the two in step.

use std::collections::BTreeMap;
use std::time::Instant;

use onoff_campaign::{
    all_areas, location_predictions, run_campaign, scoring_config_for, Area, CampaignConfig,
    ChaosOptions, Dataset, ParallelismConfig, QuarantineReport, QuarantinedRun, RunRecord,
};
use onoff_detect::{ChannelUsage, RunAnalysis, ScellModStats, TraceAnalyzer};
use onoff_policy::{policy_for, Operator, OperatorPolicy};
use onoff_predict::OnlineScorer;
use onoff_radio::noise::hash_words;
use onoff_radio::RadioTables;
use onoff_rrc::ids::Rat;
use onoff_sim::{
    simulate, simulate_scalar, ChaosEngine, MovementPath, SimConfig, SimOutput, UeBatch,
};

use crate::report::Report;
use crate::setup::Setup;
use crate::stats::median;
use crate::trace::{alternate, ratio, scaling_eff, serial_fraction, Kind, Passes, Tracer, LAYERS};
use crate::{rss, Opts};

/// Deployments whose set-up is timed, each with a seed derived from the
/// run's, so `setup_s` describes the program rather than one
/// deployment's cell count.
const SETUP_DEPLOYMENTS: usize = 25;

/// Jobs per `UeBatch`, as `run_campaign` groups them.
const BATCH: usize = 8;

/// The chaos workload's options: the defaults with the retry sleep off,
/// so wall time measures work.
fn chaos_options() -> ChaosOptions {
    ChaosOptions {
        backoff_base_ms: 0,
        ..ChaosOptions::default()
    }
}

fn config(seed: u64, workers: usize, chaos: bool) -> CampaignConfig {
    CampaignConfig {
        seed,
        parallelism: ParallelismConfig::with_workers(workers),
        chaos: chaos.then(chaos_options),
        ..CampaignConfig::default()
    }
}

/// One stationary run of the campaign.
#[derive(Debug, Clone, Copy)]
struct Job {
    area: usize,
    location: usize,
    seed: u64,
}

/// Every job in `run_campaign`'s order, with its seed: master seed ×
/// operator × area-name word × location × run index.
fn enumerate_jobs(areas: &[Area], cfg: &CampaignConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (a, area) in areas.iter().enumerate() {
        let runs = if area.name == "A1" {
            cfg.runs_a1
        } else {
            cfg.runs_other
        };
        let name_word = area
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        for location in 0..area.locations.len() {
            for run in 0..runs {
                jobs.push(Job {
                    area: a,
                    location,
                    seed: hash_words(&[
                        cfg.seed,
                        area.operator as u64,
                        name_word,
                        location as u64,
                        run as u64,
                    ]),
                });
            }
        }
    }
    jobs
}

/// Contiguous same-area spans of at most [`BATCH`] jobs.
fn batch_spans(jobs: &[Job]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    while start < jobs.len() {
        let mut end = start + 1;
        while end < jobs.len() && end - start < BATCH && jobs[end].area == jobs[start].area {
            end += 1;
        }
        spans.push((start, end));
        start = end;
    }
    spans
}

fn sim_config(area: &Area, job: &Job, cfg: &CampaignConfig, policy: OperatorPolicy) -> SimConfig {
    let mut sc = SimConfig::stationary(
        policy,
        cfg.device,
        area.env.clone(),
        area.locations[job.location],
        job.seed,
    );
    sc.duration_ms = cfg.duration_ms;
    sc.meas_period_ms = 1000;
    sc
}

/// The campaign set-up: `all_areas`, plus `RadioTables::new` per area on
/// the clean path. The chaos path builds no tables up front: `simulate`
/// builds its own for every attempt.
fn setup_once(seed: u64, chaos: bool) -> f64 {
    let t = Instant::now();
    let areas = all_areas(seed);
    if !chaos {
        let tables: Vec<RadioTables<'_>> = areas.iter().map(|a| RadioTables::new(&a.env)).collect();
        std::hint::black_box(&tables);
    }
    std::hint::black_box(&areas);
    t.elapsed().as_secs_f64()
}

/// One `run_campaign` call: the dataset, its wall seconds and the peak
/// resident set during the call, MB.
fn timed_campaign(cfg: &CampaignConfig, rep: &mut Report) -> (Dataset, f64, f64) {
    if let Err(e) = rss::reset_peak() {
        rep.check(false, || format!("cannot reset the peak resident set: {e}"));
    }
    let t = Instant::now();
    let ds = run_campaign(cfg);
    let wall = t.elapsed().as_secs_f64();
    (ds, wall, rss::peak_mb())
}

fn to_json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("dataset serializes")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the workload; `chaos` selects `chaos-campaign`.
pub fn run(opts: &Opts, chaos: bool) -> Report {
    let name = if chaos { "chaos-campaign" } else { "campaign" };
    let mut rep = Report::new(name);
    let seeds: Vec<u64> = (0..SETUP_DEPLOYMENTS as u64)
        .map(|k| hash_words(&[opts.seed, k, 0x5E7]))
        .collect();
    let mut setup = Setup::start(seeds.len(), opts.seconds, |i| {
        Ok(setup_once(seeds[i], chaos))
    });
    if opts.trace {
        traced(opts, chaos, &mut rep);
    } else {
        untraced(opts, chaos, &mut rep, &mut setup);
    }
    let best = setup
        .finish()
        .expect("timing a campaign set-up cannot fail");
    rep.add("setup_s", "s", best.value(), Some(best.repeats()));
    rep
}

fn untraced(opts: &Opts, chaos: bool, rep: &mut Report, setup: &mut Setup<'_>) {
    let workers = nproc();
    let jobs = enumerate_jobs(&all_areas(opts.seed), &config(opts.seed, 1, chaos)).len();
    let started = Instant::now();
    let (mut walls_n, mut walls_1, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = None;
    let mut quarantined;
    loop {
        // The 1-worker baseline alternates with the nproc run, so slow
        // spells on a shared machine hit both alike.
        if !chaos {
            let (ds, wall, _) = timed_campaign(&config(opts.seed, 1, chaos), rep);
            walls_1.push(wall);
            if reference.is_none() {
                check_scalar_round_trip(opts.seed, &ds, rep);
            }
            account(rep, &ds, jobs);
            same_dataset(rep, &mut reference, &ds, "a 1-worker campaign");
            setup.between();
        }
        let (ds, wall, peak) = timed_campaign(&config(opts.seed, workers, chaos), rep);
        walls_n.push(wall);
        peaks.push(peak);
        account(rep, &ds, jobs);
        same_dataset(
            rep,
            &mut reference,
            &ds,
            &format!("a {workers}-worker campaign"),
        );
        quarantined = ds.quarantine.runs.len();
        drop(ds);
        setup.between();
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let wall_n = median(&walls_n);
    rep.add(
        "runs_per_s",
        "runs/s",
        jobs as f64 / wall_n,
        Some(walls_n.len()),
    );
    if !walls_1.is_empty() {
        let wall_1 = median(&walls_1);
        rep.add(
            "runs_per_s_1w",
            "runs/s",
            jobs as f64 / wall_1,
            Some(walls_1.len()),
        );
        rep.add(
            "campaign.scaling_eff",
            "ratio",
            scaling_eff(jobs as f64 / wall_n, workers, jobs as f64 / wall_1),
            None,
        );
    }
    rep.add(
        "failed_share",
        "ratio",
        quarantined as f64 / jobs as f64,
        Some(jobs),
    );
    rep.add("peak_rss_mb", "MB", median(&peaks), Some(peaks.len()));
    rep.note(format!(
        "{jobs} runs per campaign, {quarantined} quarantined; {workers} workers \
         (available_parallelism)"
    ));
    rep.note(format!(
        "{workers}-worker walls: min {:.3} s, median {wall_n:.3} s, max {:.3} s",
        walls_n.iter().copied().fold(f64::INFINITY, f64::min),
        walls_n.iter().copied().fold(0.0, f64::max)
    ));
}

/// Checks that `ds` serializes exactly like the first dataset of the run.
fn same_dataset(rep: &mut Report, reference: &mut Option<(usize, u64)>, ds: &Dataset, what: &str) {
    let fp = fingerprint(&to_json(ds));
    match reference {
        Some(first) => rep.check(*first == fp, || {
            format!("{what} serialized a different dataset than the first campaign")
        }),
        None => *reference = Some(fp),
    }
}

/// Length and FNV-1a hash of a serialized dataset, so repetitions can be
/// compared without holding a dataset across timed campaigns.
fn fingerprint(json: &str) -> (usize, u64) {
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (json.len(), hash)
}

/// Counts one campaign's runs: each job must land in the records or in
/// the quarantine ledger.
fn account(rep: &mut Report, ds: &Dataset, jobs: usize) {
    let landed = ds.records.len() + ds.quarantine.runs.len();
    rep.attempted += jobs as u64;
    rep.failed += jobs.saturating_sub(landed) as u64;
    rep.check(landed == jobs, || {
        format!(
            "{} records + {} quarantined != {jobs} jobs",
            ds.records.len(),
            ds.quarantine.runs.len()
        )
    });
}

/// For one sampled run per area, rebuilds the record through the scalar
/// text round trip (`simulate_scalar` → `to_log` → `parse_str` → analyzer
/// + scorer → `RunRecord::from_run`) and compares it with the dataset's.
fn check_scalar_round_trip(seed: u64, ds: &Dataset, rep: &mut Report) {
    let cfg = config(seed, 1, false);
    let areas = all_areas(seed);
    let jobs = enumerate_jobs(&areas, &cfg);
    for (a, area) in areas.iter().enumerate() {
        let own: Vec<&Job> = jobs.iter().filter(|j| j.area == a).collect();
        let job = own[(hash_words(&[seed, a as u64, 0x5A3]) % own.len() as u64) as usize];
        let policy = policy_for(area.operator);
        let scoring = scoring_config_for(area.operator, &policy);
        let out = simulate_scalar(&sim_config(area, job, &cfg, policy));
        let events = match onoff_nsglog::parse_str(&out.to_log()) {
            Ok(events) => events,
            Err(e) => {
                rep.check(false, || {
                    format!("{}: emitted log does not parse: {e}", area.name)
                });
                continue;
            }
        };
        let mut core = TraceAnalyzer::new();
        let mut scorer = OnlineScorer::new(scoring);
        for ev in &events {
            core.feed(ev);
            scorer.feed(ev);
        }
        let record = RunRecord::from_run(
            area.operator,
            &area.name,
            job.location,
            cfg.device,
            job.seed,
            &SimOutput {
                events,
                truth: out.truth,
            },
            &core.finish(),
            &scorer.report(),
        );
        let found = ds.records.iter().find(|r| {
            (r.operator, r.area.as_str(), r.location, r.seed)
                == (area.operator, area.name.as_str(), job.location, job.seed)
        });
        rep.check(found.map(to_json) == Some(to_json(&record)), || {
            format!(
                "{} location {} seed {:#x}: scalar text round trip differs from the dataset",
                area.name, job.location, job.seed
            )
        });
    }
}

/// Work counted by a rebuild, for the per-unit rates.
#[derive(Debug, Default, Clone)]
struct Counters {
    jobs: u64,
    attempts: u64,
    sim_calls: u64,
    sim_events: u64,
    emit_events: u64,
    parse_records: u64,
    parse_skipped: u64,
    detect_events: u64,
    predict_events: u64,
}

/// The dataset's aggregates, accumulated in run order. Every fold is a
/// sum, so the order the campaign's worker shards merge in is irrelevant.
#[derive(Default)]
struct Aggregates {
    records: Vec<RunRecord>,
    usage_nr: BTreeMap<Operator, ChannelUsage>,
    usage_lte: BTreeMap<Operator, ChannelUsage>,
    scell_mod: BTreeMap<Operator, ScellModStats>,
    quarantine: QuarantineReport,
}

impl Aggregates {
    fn fold(&mut self, operator: Operator, record: RunRecord, out: &SimOutput, a: &RunAnalysis) {
        self.quarantine.clamped_events += a.degradation.clamped_events;
        for (usage, rat) in [
            (&mut self.usage_nr, Rat::Nr),
            (&mut self.usage_lte, Rat::Lte),
        ] {
            let usage = usage.entry(operator).or_default();
            if record.has_loop {
                usage.add_loop_transitions(&a.off_transitions, rat);
            } else {
                usage.add_no_loop_run(&a.timeline, rat);
            }
        }
        self.scell_mod
            .entry(operator)
            .or_default()
            .add_trace(&out.events);
        self.records.push(record);
    }

    fn finalize(mut self, areas: &[Area]) -> Dataset {
        let key = |r: &RunRecord| (r.operator, r.area.clone(), r.location, r.seed);
        self.records.sort_by_key(key);
        self.quarantine
            .runs
            .sort_by_key(|q| (q.operator, q.area.clone(), q.location, q.seed));
        let mut cell_counts = BTreeMap::new();
        for area in areas {
            let e = cell_counts.entry(area.operator).or_insert((0usize, 0usize));
            e.0 += area
                .env
                .cells
                .iter()
                .filter(|c| c.cell.rat == Rat::Nr)
                .count();
            e.1 += area
                .env
                .cells
                .iter()
                .filter(|c| c.cell.rat == Rat::Lte)
                .count();
        }
        let predictions = location_predictions(&self.records);
        Dataset {
            records: self.records,
            predictions,
            usage_nr: self.usage_nr,
            usage_lte: self.usage_lte,
            scell_mod: self.scell_mod,
            cell_counts,
            areas: areas
                .iter()
                .map(|a| (a.name.clone(), a.operator, a.size_km2()))
                .collect(),
            quarantine: self.quarantine,
            stats: Default::default(),
        }
    }
}

/// Detect (scoring off) then predict (standalone scorer) over one run's
/// events, each in its own span.
fn analyze(
    tr: &mut Tracer,
    id: u64,
    core: &mut TraceAnalyzer,
    scorer: &mut OnlineScorer,
    events: &[onoff_rrc::trace::TraceEvent],
    ctr: &mut Counters,
) -> (RunAnalysis, onoff_detect::PredictionReport) {
    let analysis = tr.span(Kind::Detect, id, |_| {
        for ev in events {
            core.feed(ev);
        }
        core.analysis()
    });
    let predictions = tr.span(Kind::Predict, id, |_| {
        for ev in events {
            scorer.feed(ev);
        }
        scorer.report()
    });
    ctr.detect_events += events.len() as u64;
    ctr.predict_events += events.len() as u64;
    (analysis, predictions)
}

/// The clean pipeline on one thread: per-area tables, batches of
/// [`BATCH`] runs through `UeBatch::run_into`, pooled analyzers reset
/// between runs, as a `run_campaign` worker does.
fn rebuild_clean(cfg: &CampaignConfig, tr: &mut Tracer, ctr: &mut Counters) -> Dataset {
    tr.span(Kind::Root, 0, |tr| {
        let areas = tr.span(Kind::Areas, 0, |_| all_areas(cfg.seed));
        let jobs = enumerate_jobs(&areas, cfg);
        let policies: Vec<OperatorPolicy> = areas.iter().map(|a| policy_for(a.operator)).collect();
        let tables: Vec<RadioTables<'_>> = areas
            .iter()
            .enumerate()
            .map(|(i, a)| tr.span(Kind::Tables, i as u64, |_| RadioTables::new(&a.env)))
            .collect();
        let device = cfg.device.profile();
        let mut agg = Aggregates::default();
        let (mut outs, mut pool) = (Vec::new(), Vec::new());
        let mut cores: BTreeMap<Operator, (TraceAnalyzer, OnlineScorer)> = BTreeMap::new();
        for (start, end) in batch_spans(&jobs) {
            let a = jobs[start].area;
            let area = &areas[a];
            tr.span(Kind::Sim, start as u64, |_| {
                let mut batch =
                    UeBatch::new(&policies[a], &device, &tables[a], cfg.duration_ms, 1000);
                for job in &jobs[start..end] {
                    batch.push_with_recorder(
                        MovementPath::Stationary(area.locations[job.location]),
                        job.seed,
                        pool.pop().unwrap_or_default(),
                    );
                }
                batch.run_into(&mut outs, &mut pool);
            });
            let (core, scorer) = cores.entry(area.operator).or_insert_with(|| {
                let scoring = scoring_config_for(area.operator, &policies[a]);
                (TraceAnalyzer::new(), OnlineScorer::new(scoring))
            });
            for (k, (job, out)) in jobs[start..end].iter().zip(outs.iter()).enumerate() {
                let id = (start + k) as u64;
                ctr.jobs += 1;
                ctr.attempts += 1;
                ctr.sim_calls += 1;
                ctr.sim_events += out.events.len() as u64;
                core.reset();
                scorer.reset_session();
                let (analysis, predictions) = analyze(tr, id, core, scorer, &out.events, ctr);
                tr.span(Kind::Fold, id, |_| {
                    let record = RunRecord::from_run(
                        area.operator,
                        &area.name,
                        job.location,
                        cfg.device,
                        job.seed,
                        out,
                        &analysis,
                        &predictions,
                    );
                    agg.fold(area.operator, record, out, &analysis);
                });
            }
        }
        tr.span(Kind::Finalize, 0, |_| agg.finalize(&areas))
    })
}

/// The dirty-capture pipeline on one thread: per job, up to
/// `max_attempts` rounds of simulate → render → corrupt → lossy re-parse
/// → analyze → record, accepting the first attempt within the loss gate
/// and quarantining the job otherwise, as `run_campaign` does.
fn rebuild_chaos(cfg: &CampaignConfig, tr: &mut Tracer, ctr: &mut Counters) -> Dataset {
    let opts = cfg.chaos.clone().expect("chaos options");
    tr.span(Kind::Root, 0, |tr| {
        let areas = tr.span(Kind::Areas, 0, |_| all_areas(cfg.seed));
        let jobs = enumerate_jobs(&areas, cfg);
        let mut agg = Aggregates::default();
        for (id, job) in jobs.iter().enumerate() {
            let id = id as u64;
            let area = &areas[job.area];
            ctr.jobs += 1;
            let mut last_reason = String::new();
            let mut accepted = false;
            for attempt in 1..=opts.max_attempts.max(1) {
                ctr.attempts += 1;
                let policy = policy_for(area.operator);
                let scoring = scoring_config_for(area.operator, &policy);
                let out = tr.span(Kind::Sim, id, |_| {
                    simulate(&sim_config(area, job, cfg, policy))
                });
                let n = out.events.len() as u64;
                ctr.sim_calls += 1;
                ctr.sim_events += n;
                ctr.emit_events += n;
                let text = tr.span(Kind::Emit, id, |_| out.to_log());
                let chaos_seed = hash_words(&[job.seed, u64::from(attempt), 0xC4A05]);
                let dirty = tr.span(Kind::Corrupt, id, |_| {
                    ChaosEngine::new(opts.chaos.clone(), chaos_seed).corrupt_text(&text)
                });
                let (events, stats) = tr.span(Kind::Parse, id, |_| {
                    onoff_nsglog::parse_str_lossy(&dirty, opts.policy)
                });
                ctr.parse_records += stats.records as u64;
                ctr.parse_skipped += stats.skipped as u64;
                let mut core = TraceAnalyzer::new();
                let mut scorer = OnlineScorer::new(scoring);
                let (analysis, predictions) = analyze(tr, id, &mut core, &mut scorer, &events, ctr);
                let surviving = SimOutput {
                    events,
                    truth: out.truth,
                };
                let ok = stats.loss_ratio() <= opts.max_loss_ratio;
                tr.span(Kind::Fold, id, |_| {
                    let record = RunRecord::from_run(
                        area.operator,
                        &area.name,
                        job.location,
                        cfg.device,
                        job.seed,
                        &surviving,
                        &analysis,
                        &predictions,
                    );
                    if ok {
                        agg.quarantine.records_lost += stats.skipped;
                        agg.quarantine.timestamps_repaired += stats.timestamps_repaired;
                        agg.fold(area.operator, record, &surviving, &analysis);
                    }
                });
                if ok {
                    accepted = true;
                    break;
                }
                last_reason = format!(
                    "loss ratio {:.2} exceeds {:.2}",
                    stats.loss_ratio(),
                    opts.max_loss_ratio
                );
            }
            if !accepted {
                agg.quarantine.runs.push(QuarantinedRun {
                    operator: area.operator,
                    area: area.name.clone(),
                    location: job.location,
                    seed: job.seed,
                    attempts: opts.max_attempts.max(1),
                    reason: last_reason,
                });
            }
        }
        tr.span(Kind::Finalize, 0, |_| agg.finalize(&areas))
    })
}

fn rebuild(cfg: &CampaignConfig, tr: &mut Tracer, ctr: &mut Counters) -> Dataset {
    if cfg.chaos.is_some() {
        rebuild_chaos(cfg, tr, ctr)
    } else {
        rebuild_clean(cfg, tr, ctr)
    }
}

fn traced(opts: &Opts, chaos: bool, rep: &mut Report) {
    let workers = nproc();
    let started = Instant::now();
    // Untraced references: the real entry point at 1 and nproc workers.
    let (ds_1, wall_1, _) = timed_campaign(&config(opts.seed, 1, chaos), rep);
    let (ds_n, wall_n, _) = timed_campaign(&config(opts.seed, workers, chaos), rep);
    let reference = to_json(&ds_1);
    let jobs = (ds_1.records.len() + ds_1.quarantine.runs.len()) as f64;
    rep.check(reference == to_json(&ds_n), || {
        format!("1-worker and {workers}-worker datasets serialize differently")
    });
    drop((ds_1, ds_n));

    let cfg = config(opts.seed, 1, chaos);
    let Passes {
        wall_off_ns: wall_off,
        summary: s,
        counters: ctr,
        tracer,
        traced: n_passes,
    } = alternate(started, opts.seconds, rep, |tr, rep| {
        let mut ctr = Counters::default();
        let ds = rebuild(&cfg, tr, &mut ctr);
        rep.attempted += ctr.jobs;
        rep.check(to_json(&ds) == reference, || {
            "rebuild differs from run_campaign (records or quarantine ledger)".to_string()
        });
        ctr
    });

    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    rep.add(
        "campaign.areas_ms",
        "ms",
        s.ns(Kind::Areas) as f64 / 1e6,
        None,
    );
    rep.add(
        "radio.tables_ms",
        "ms",
        s.ns(Kind::Tables) as f64 / 1e6,
        None,
    );
    let sim_ns = per(s.ns(Kind::Sim), ctr.sim_events);
    rep.add("sim.ns_per_event", "ns/event", sim_ns, None);
    rep.add(
        "sim.allocs_per_event",
        "allocs/event",
        per(s.allocs(Kind::Sim), ctr.sim_events),
        None,
    );
    rep.add(
        "sim.events_per_s_1core",
        "events/s",
        ratio(1e9, sim_ns),
        None,
    );
    rep.add(
        "sim.corrupt_ns_per_event",
        "ns/event",
        per(s.ns(Kind::Corrupt), ctr.emit_events),
        None,
    );
    rep.add(
        "nsglog.emit_ns_per_event",
        "ns/event",
        per(s.ns(Kind::Emit), ctr.emit_events),
        None,
    );
    rep.add(
        "nsglog.parse_ns_per_record",
        "ns/record",
        per(s.ns(Kind::Parse), ctr.parse_records),
        None,
    );
    rep.add(
        "nsglog.allocs_per_record",
        "allocs/record",
        per(s.allocs(Kind::Parse), ctr.parse_records),
        None,
    );
    rep.add(
        "nsglog.loss_ratio",
        "ratio",
        per(ctr.parse_skipped, ctr.parse_records),
        Some(ctr.parse_records as usize),
    );
    rep.add(
        "detect.ns_per_event",
        "ns/event",
        per(s.ns(Kind::Detect), ctr.detect_events),
        None,
    );
    rep.add(
        "detect.allocs_per_event",
        "allocs/event",
        per(s.allocs(Kind::Detect), ctr.detect_events),
        None,
    );
    rep.add(
        "predict.ns_per_event",
        "ns/event",
        per(s.ns(Kind::Predict), ctr.predict_events),
        None,
    );
    rep.add(
        "campaign.fold_ns_per_run",
        "ns/run",
        per(s.ns(Kind::Fold), s.count(Kind::Fold)),
        Some(s.count(Kind::Fold) as usize),
    );
    rep.add(
        "campaign.finalize_ms",
        "ms",
        s.ns(Kind::Finalize) as f64 / 1e6,
        None,
    );
    let serial = s.ns(Kind::Areas) + s.ns(Kind::Tables) + s.ns(Kind::Finalize);
    rep.add(
        "campaign.serial_fraction",
        "ratio",
        serial_fraction(serial, s.wall_ns),
        None,
    );
    rep.add(
        "campaign.scaling_eff",
        "ratio",
        scaling_eff(jobs / wall_n, workers, jobs / wall_1),
        None,
    );
    rep.add(
        "campaign.sim_calls_per_run",
        "calls/run",
        per(ctr.sim_calls, ctr.jobs),
        None,
    );
    rep.add(
        "campaign.attempts_per_run",
        "attempts/run",
        per(ctr.attempts, ctr.jobs),
        None,
    );
    for layer in LAYERS {
        rep.add(&format!("{layer}.share"), "ratio", s.share(layer), None);
    }
    let unattributed = s.unattributed_share();
    rep.add("unattributed.share", "ratio", unattributed, None);
    rep.add(
        "trace.overhead",
        "ratio",
        s.wall_ns as f64 / wall_off - 1.0,
        Some(n_passes),
    );
    rep.check(unattributed <= 0.05, || {
        format!(
            "layer self times cover only {:.1}% of the traced wall",
            (1.0 - unattributed) * 100.0
        )
    });
    rep.note(format!(
        "traced pass {:.3} s (median of {n_passes}), untraced rebuild {:.3} s, \
         run_campaign {:.3} s at 1 worker and {:.3} s at {workers}",
        s.wall_ns as f64 / 1e9,
        wall_off / 1e9,
        wall_1,
        wall_n
    ));
    rep.note(format!(
        "single-core simulator rate: {:.0} events/s (1e9 / sim.ns_per_event)",
        ratio(1e9, sim_ns)
    ));
    crate::write_spans(opts, rep, &tracer);
}
