//! Run orchestration: a flat job list over locations × repeated runs ×
//! areas, drained by a bounded work-stealing worker pool.
//!
//! Every (area, location, run) job is enumerated up front with its seed,
//! and every run — clean, chaos, or a lone [`run_location`] — goes through
//! one pipeline: a [`Stepper`] over its area's shared [`RadioTables`] and
//! [`PolicyTables`], feeding a `RunSlot` (analyzer, record fold and SCell
//! scan). The per-area precomputation (shadowing fields, channel cell
//! lists, compiled path-loss constants, flattened channel rules) is built
//! once per area instead of once per run, and every run memoizes its sweep
//! against the shared tables. Workers claim one job at a time through a
//! shared atomic cursor; in clean mode the stepper streams the run's
//! events into the worker's one slot as soon as they are final, so no
//! whole trace is ever held. Workers accumulate into **private**
//! `Aggregates` shards — no lock is held anywhere on the hot path. Shards
//! are folded together once at the end through commutative [`Merge`]
//! operations and a final deterministic record sort; because every run is
//! fully independent (exact memoization, not approximation), the resulting
//! [`Dataset`] is bitwise-identical for any worker count.
//!
//! With [`CampaignConfig::chaos`] set, chaos is a stage after the stream:
//! the stepper renders the run's events to NSG text, then each attempt
//! corrupts that text with a fresh seeded chaos engine, re-parses it
//! lossily and feeds the survivors to the slot. A run whose loss stays out
//! of bounds is retried with backoff and quarantined into the dataset's
//! [`QuarantineReport`] once every attempt has failed, instead of aborting
//! the campaign. Retries reuse the rendered text, so a chaos run is
//! simulated exactly once. A panic in the stages that see dirty input
//! (corrupt → parse → analyze) fails only its attempt; the simulator sees
//! no dirty input and is deterministic in the job seed, so a retry could
//! never get past a panic there, and it aborts the campaign as it does in
//! clean mode.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use onoff_detect::channel::{ChannelUsage, Merge, ScellModScan, ScellModStats};
use onoff_detect::{RunAnalysis, TraceAnalyzer};
use onoff_nsglog::{emit_event, parse_str_lossy_into, ParseStats};
use onoff_policy::{policy_for, DeviceProfile, Operator, OperatorPolicy, PhoneModel};
use onoff_radio::noise::hash_words;
use onoff_radio::{RadioTables, UeSampler};
use onoff_rrc::ids::Rat;
use onoff_rrc::perf::FxMap;
use onoff_rrc::trace::TraceEvent;
use onoff_sim::recorder::Recorder;
use onoff_sim::{
    ChaosConfig, ChaosEngine, MovementPath, PolicyTables, SimOutput, StepCtx, Stepper,
};

use crate::areas::{all_areas, Area};
use crate::dataset::{location_predictions, CampaignStats, Dataset};
use crate::quarantine::{ChaosOptions, QuarantineReport, QuarantinedRun};
use crate::record::{scoring_config_for, RecordFold, RunRecord};

/// Worker-pool sizing for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct ParallelismConfig {
    /// Worker threads draining the job list. `1` reproduces a sequential
    /// campaign; the default uses every available core.
    pub workers: usize,
}

impl ParallelismConfig {
    /// One worker per available core.
    pub fn all_cores() -> ParallelismConfig {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelismConfig { workers }
    }

    /// Exactly `workers` workers (minimum one).
    pub fn with_workers(workers: usize) -> ParallelismConfig {
        ParallelismConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig::all_cores()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: deployments and every run derive from it.
    pub seed: u64,
    /// Stationary runs per location in the showcase area A1 (paper: ≥10).
    pub runs_a1: usize,
    /// Runs per location elsewhere (paper: ≥5, mostly 10).
    pub runs_other: usize,
    /// The phone model (the basic dataset uses the OnePlus 12R).
    pub device: PhoneModel,
    /// Run duration, ms (paper: 5-minute runs).
    pub duration_ms: u64,
    /// Worker-pool sizing. Affects wall-clock only, never the dataset.
    pub parallelism: ParallelismConfig,
    /// Chaos mode: a stage after each run's simulation renders its events
    /// to NSG text, corrupts the text, re-parses it lossily, retries
    /// attempts whose loss is out of bounds and quarantines runs that keep
    /// failing. `None` (the default) feeds simulator events straight into
    /// the analysis.
    pub chaos: Option<ChaosOptions>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x050FF,
            runs_a1: 10,
            runs_other: 6,
            device: PhoneModel::OnePlus12R,
            duration_ms: 300_000,
            parallelism: ParallelismConfig::default(),
            chaos: None,
        }
    }
}

/// The measurement cadence of every campaign run, ms.
const MEAS_PERIOD_MS: u64 = 1000;

/// Runs one stationary experiment and condenses it to a record.
pub fn run_location(
    area: &Area,
    location: usize,
    device: PhoneModel,
    seed: u64,
    duration_ms: u64,
) -> (RunRecord, SimOutput, RunAnalysis) {
    run_location_with_policy(
        area,
        location,
        device,
        seed,
        duration_ms,
        policy_for(area.operator),
    )
}

/// [`run_location`] with an explicit (possibly modified) policy — the
/// hook for mitigation/what-if experiments.
///
/// One run through the campaign pipeline: the run is simulated over the
/// area's tables, its trace is collected for the caller, and the same
/// `RunSlot` a campaign worker uses analyzes it and builds the record.
/// Agreement with the emit → parse text round-trip is enforced by
/// `tests/fused_roundtrip.rs`.
pub fn run_location_with_policy(
    area: &Area,
    location: usize,
    device: PhoneModel,
    seed: u64,
    duration_ms: u64,
    policy: OperatorPolicy,
) -> (RunRecord, SimOutput, RunAnalysis) {
    let shared = AreaTables::new(area, policy);
    let profile = device.profile();
    let path = MovementPath::Stationary(area.locations[location]);
    let mut out = SimOutput::default();
    shared
        .stepper(&profile, &path, seed, duration_ms)
        .collect_into(Recorder::new(), &mut out);
    let mut slot = RunSlot::new(area.operator, &shared.policy);
    for ev in &out.events {
        slot.feed(ev);
    }
    let (record, analysis) = slot.finish(&area.name, location, device, seed);
    (record, out, analysis)
}

/// An area's shared run inputs, built once and read by every run there
/// (and every worker): the policy, its flattened channel rules and the
/// radio tables. The tables are salt-independent — each run applies its
/// own fading salt inside its sampler — so one unsalted build serves all
/// seeds.
struct AreaTables<'a> {
    area: &'a Area,
    policy: OperatorPolicy,
    ptab: PolicyTables,
    tables: RadioTables<'a>,
}

impl<'a> AreaTables<'a> {
    fn new(area: &'a Area, policy: OperatorPolicy) -> AreaTables<'a> {
        AreaTables {
            area,
            ptab: PolicyTables::new(&policy),
            policy,
            tables: RadioTables::new(&area.env),
        }
    }

    /// A fresh UE for one run of this area along `path`.
    fn stepper<'s>(
        &'s self,
        device: &'s DeviceProfile,
        path: &'s MovementPath,
        seed: u64,
        duration_ms: u64,
    ) -> Stepper<'s, UeSampler<'s>> {
        let cx = StepCtx {
            policy: &self.policy,
            device,
            path,
            ptab: &self.ptab,
            seed,
        };
        let sampler = UeSampler::with_salt(&self.tables, seed);
        Stepper::new(cx, sampler, duration_ms, MEAS_PERIOD_MS)
    }
}

/// Per-worker run scratch: everything the streamed sim→detect pipeline
/// recycles across a worker's runs so the steady state allocates nothing.
///
/// One instance lives for a worker's whole drain: one `RunSlot`, built at
/// the worker's first run and reset for every later one, one recorder,
/// and the chaos stage's parse buffer. The recorder only holds the events
/// of the run's last step or so, and the slot only its analyzer's state,
/// so a clean worker's footprint does not grow with trace length
/// (DESIGN.md §16). In chaos mode the slot also keeps the run's rendered
/// text until the run's attempts finish.
#[derive(Default)]
struct RunScratch {
    slot: Option<RunSlot>,
    rec: Recorder,
    parsed: Vec<TraceEvent>,
}

/// The consumer of a run: the fused analyzer (scoring on) plus the record
/// and SCell-modification folds, all reset per run.
///
/// [`TraceAnalyzer::reset`] is observationally identical to a fresh core
/// (pinned by the `reset_core_equals_fresh_core` proptest in
/// `onoff-detect`), so reuse cannot change the dataset.
struct RunSlot {
    /// Operator whose §6 scoring config the analyzer carries.
    operator: Operator,
    analyzer: TraceAnalyzer,
    record: RecordFold,
    scell: ScellModScan,
    /// The run's SCell-modification counts, merged into the shard only
    /// when the run is accepted.
    scell_mod: ScellModStats,
    /// Chaos mode: the run's rendered clean capture, kept until its
    /// attempts finish.
    text: String,
}

impl RunSlot {
    fn new(operator: Operator, policy: &OperatorPolicy) -> RunSlot {
        RunSlot {
            operator,
            analyzer: TraceAnalyzer::with_scoring(scoring_config_for(operator, policy)),
            record: RecordFold::new(operator),
            scell: ScellModScan::default(),
            scell_mod: ScellModStats::default(),
            text: String::new(),
        }
    }

    /// Readies the slot for a new run (or chaos attempt) of `operator`.
    fn start(&mut self, operator: Operator, policy: &OperatorPolicy) {
        if self.operator != operator {
            self.operator = operator;
            self.analyzer
                .enable_scoring(scoring_config_for(operator, policy));
        }
        self.analyzer.reset();
        self.record.reset(operator);
        self.scell = ScellModScan::default();
        self.scell_mod.per_channel.clear();
    }

    /// Folds the run's next event.
    fn feed(&mut self, ev: &TraceEvent) {
        self.analyzer.feed(ev);
        self.record.feed(ev);
        self.scell.feed(&mut self.scell_mod, ev);
    }

    /// The run's record and analysis, from the events fed so far.
    fn finish(
        &mut self,
        area: &str,
        location: usize,
        device: PhoneModel,
        seed: u64,
    ) -> (RunRecord, RunAnalysis) {
        let predictions = self.analyzer.predictions().expect("scoring enabled");
        let analysis = self.analyzer.analysis();
        let record = self
            .record
            .record(area, location, device, seed, &analysis, &predictions);
        (record, analysis)
    }

    /// The chaos stage over the slot's rendered text. Up to
    /// `max_attempts` times, corrupts the text with the attempt's chaos
    /// seed, re-parses it lossily into `parsed`, and — when the loss stays
    /// in bounds — analyzes the surviving events. Returns the first
    /// accepted attempt's parse stats, record and analysis, or the last
    /// attempt's failure reason (excessive loss, or a panic in these
    /// stages).
    fn run_chaos(
        &mut self,
        area: &Area,
        policy: &OperatorPolicy,
        job: &Job,
        device: PhoneModel,
        opts: &ChaosOptions,
        parsed: &mut Vec<TraceEvent>,
    ) -> Result<(ParseStats, RunRecord, RunAnalysis), String> {
        // Whether the job is poisoned doesn't change between attempts, so
        // the chaos config is picked (and the destroy config materialized)
        // once per job, then borrowed by every attempt.
        let poisoned = opts
            .poison
            .as_ref()
            .is_some_and(|(a, l)| *a == area.name && *l == job.location);
        let destroy;
        let chaos_cfg: &ChaosConfig = if poisoned {
            destroy = ChaosConfig::destroy();
            &destroy
        } else {
            &opts.chaos
        };
        let mut last_reason = String::new();
        for attempt in 1..=opts.max_attempts.max(1) {
            if attempt > 1 && opts.backoff_base_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(
                    opts.backoff_base_ms << (attempt - 2),
                ));
            }
            // Fresh fault pattern per attempt, reproducible from the job.
            let chaos_seed = hash_words(&[job.seed, u64::from(attempt), 0xC4A05]);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let dirty =
                    ChaosEngine::new(chaos_cfg.clone(), chaos_seed).corrupt_text(&self.text);
                let stats = parse_str_lossy_into(&dirty, opts.policy, parsed);
                if stats.loss_ratio() > opts.max_loss_ratio {
                    return Err(format!(
                        "loss ratio {:.2} exceeds {:.2}",
                        stats.loss_ratio(),
                        opts.max_loss_ratio
                    ));
                }
                // Analyze the *surviving* events: the record, like every
                // other counter, reflects what an analyst reading the dirty
                // capture would see.
                self.start(area.operator, policy);
                for ev in parsed.iter() {
                    self.feed(ev);
                }
                let (record, analysis) = self.finish(&area.name, job.location, device, job.seed);
                Ok((stats, record, analysis))
            }))
            .unwrap_or_else(|_| Err("pipeline panicked".to_string()));
            match outcome {
                Ok(accepted) => return Ok(accepted),
                Err(reason) => last_reason = reason,
            }
        }
        Err(last_reason)
    }
}

/// Aggregates accumulated by one worker (and, after merging, the whole
/// campaign).
///
/// Shards accumulate into unordered [`FxMap`]s on the hot path; the sorted
/// `BTreeMap`s the persisted [`Dataset`] carries are built once at the end
/// of [`run_campaign`], so the output stays bitwise-identical at any
/// worker count.
#[derive(Debug, Default)]
struct Aggregates {
    records: Vec<RunRecord>,
    usage_nr: FxMap<Operator, ChannelUsage>,
    usage_lte: FxMap<Operator, ChannelUsage>,
    scell_mod: FxMap<Operator, ScellModStats>,
    quarantine: QuarantineReport,
    events_processed: u64,
    simulated_ms: u64,
}

impl Merge for Aggregates {
    fn merge(&mut self, other: Aggregates) {
        self.records.extend(other.records);
        // Fully qualified: `FxMap` may grow an inherent `merge` one day
        // (unstable_name_collisions).
        Merge::merge(&mut self.usage_nr, other.usage_nr);
        Merge::merge(&mut self.usage_lte, other.usage_lte);
        Merge::merge(&mut self.scell_mod, other.scell_mod);
        Merge::merge(&mut self.quarantine, other.quarantine);
        self.events_processed += other.events_processed;
        self.simulated_ms += other.simulated_ms;
    }
}

impl Aggregates {
    /// Executes one job over its area's shared tables.
    ///
    /// The whole pipeline runs out of the worker's [`RunScratch`]: the
    /// stepper records into the worker's recorder, and the worker's
    /// `RunSlot` — analyzer and scorer included — is reset between runs
    /// instead of rebuilt. In clean mode the stepper streams the run's
    /// events straight into the slot; in chaos mode it streams them into
    /// the slot's text, and the chaos stage then feeds the slot what
    /// survives. Either way the slot sees the events in exactly the order
    /// a collected trace holds them, so the dataset is bitwise-identical at
    /// any worker count.
    fn absorb_run(
        &mut self,
        shared: &AreaTables<'_>,
        device: &DeviceProfile,
        job: &Job,
        cfg: &CampaignConfig,
        scratch: &mut RunScratch,
    ) {
        let (area, policy) = (shared.area, &shared.policy);
        let RunScratch { slot, rec, parsed } = scratch;
        let slot = slot.get_or_insert_with(|| RunSlot::new(area.operator, policy));
        let path = MovementPath::Stationary(area.locations[job.location]);
        let stepper = shared.stepper(device, &path, job.seed, cfg.duration_ms);
        match &cfg.chaos {
            None => {
                slot.start(area.operator, policy);
                *rec = stepper.stream(std::mem::take(rec), |ev| slot.feed(ev));
                let (record, analysis) =
                    slot.finish(&area.name, job.location, cfg.device, job.seed);
                self.fold_run(area.operator, cfg.duration_ms, slot, record, &analysis);
            }
            Some(opts) => {
                slot.text.clear();
                *rec = stepper.stream(std::mem::take(rec), |ev| {
                    emit_event(ev, &mut slot.text).expect("fmt::Write to a String is infallible")
                });
                match slot.run_chaos(area, policy, job, cfg.device, opts, parsed) {
                    Ok((stats, record, analysis)) => {
                        self.quarantine.records_lost += stats.skipped;
                        self.quarantine.timestamps_repaired += stats.timestamps_repaired;
                        self.fold_run(area.operator, cfg.duration_ms, slot, record, &analysis);
                    }
                    // Quarantined: the run is in the ledger, not the
                    // aggregates.
                    Err(reason) => self.quarantine.runs.push(QuarantinedRun {
                        operator: area.operator,
                        area: area.name.clone(),
                        location: job.location,
                        seed: job.seed,
                        attempts: opts.max_attempts.max(1),
                        reason,
                    }),
                }
            }
        }
    }

    /// Folds one accepted run — its record, analysis, event count and
    /// SCell-modification counts — into this shard.
    fn fold_run(
        &mut self,
        operator: Operator,
        duration_ms: u64,
        slot: &mut RunSlot,
        record: RunRecord,
        analysis: &RunAnalysis,
    ) {
        self.quarantine.clamped_events += analysis.degradation.clamped_events;
        let usage_nr = self.usage_nr.entry(operator).or_default();
        if record.has_loop {
            usage_nr.add_loop_transitions(&analysis.off_transitions, Rat::Nr);
        } else {
            usage_nr.add_no_loop_run(&analysis.timeline, Rat::Nr);
        }
        let usage_lte = self.usage_lte.entry(operator).or_default();
        if record.has_loop {
            usage_lte.add_loop_transitions(&analysis.off_transitions, Rat::Lte);
        } else {
            usage_lte.add_no_loop_run(&analysis.timeline, Rat::Lte);
        }
        Merge::merge(
            self.scell_mod.entry(operator).or_default(),
            std::mem::take(&mut slot.scell_mod),
        );
        self.events_processed += slot.analyzer.events_seen() as u64;
        self.simulated_ms += duration_ms;
        self.records.push(record);
    }
}

/// One unit of campaign work: a single stationary run.
#[derive(Debug, Clone, Copy)]
struct Job {
    area_idx: usize,
    location: usize,
    seed: u64,
}

/// Injective encoding of an area name for seed derivation. All bytes of
/// ASCII names are below the base, so names up to nine bytes map to
/// distinct words — unlike hashing only two bytes, which collided for
/// names sharing first-interior and last characters (e.g. "A1" vs "A10"
/// vs a hypothetical "A100").
fn area_name_word(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// The per-run seed: master seed × operator × full area name × location ×
/// run index.
fn job_seed(cfg_seed: u64, area: &Area, location: usize, run: usize) -> u64 {
    hash_words(&[
        cfg_seed,
        area.operator as u64,
        area_name_word(&area.name),
        location as u64,
        run as u64,
    ])
}

/// Enumerates every (area, location, run) job in deterministic order.
fn enumerate_jobs(areas: &[Area], cfg: &CampaignConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (area_idx, area) in areas.iter().enumerate() {
        let runs = if area.name == "A1" {
            cfg.runs_a1
        } else {
            cfg.runs_other
        };
        for location in 0..area.locations.len() {
            for r in 0..runs {
                jobs.push(Job {
                    area_idx,
                    location,
                    seed: job_seed(cfg.seed, area, location, r),
                });
            }
        }
    }
    jobs
}

/// Drains `jobs` with `workers` threads claiming through a shared atomic
/// cursor, folding into per-worker `Aggregates` shards merged at the
/// end. Every [`Merge`] impl is commutative, so the result is independent
/// of both worker count and job interleaving.
///
/// Each worker also owns one [`RunScratch`], threaded through every
/// `absorb` call it makes, so the pipeline reuses its recorder, slot and
/// parse buffer across all jobs a worker drains. Scratch never crosses
/// workers and never outlives the drain, so (given reset-safe reuse, see
/// DESIGN.md §16) it cannot affect the merged result.
fn drain_shards(
    jobs: &[Job],
    workers: usize,
    absorb: impl Fn(&mut Aggregates, &mut RunScratch, &Job) + Sync,
) -> Aggregates {
    if workers <= 1 {
        let mut agg = Aggregates::default();
        let mut scratch = RunScratch::default();
        for job in jobs {
            absorb(&mut agg, &mut scratch, job);
        }
        return agg;
    }
    let cursor = AtomicUsize::new(0);
    let mut shards = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut shard = Aggregates::default();
                    let mut scratch = RunScratch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        absorb(&mut shard, &mut scratch, job);
                    }
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut agg = shards.remove(0);
    for shard in shards {
        agg.merge(shard);
    }
    agg
}

/// Drains the job list, one job per claim, over per-area shared tables.
/// Returns the merged aggregates and the number of workers that drained
/// them, which is never more than the number of jobs.
fn run_jobs(areas: &[Area], jobs: &[Job], cfg: &CampaignConfig) -> (Aggregates, usize) {
    let shared: Vec<AreaTables<'_>> = areas
        .iter()
        .map(|a| AreaTables::new(a, policy_for(a.operator)))
        .collect();
    let device = cfg.device.profile();
    let workers = cfg.parallelism.workers.min(jobs.len()).max(1);
    let agg = drain_shards(jobs, workers, |shard, scratch, job| {
        shard.absorb_run(&shared[job.area_idx], &device, job, cfg, scratch)
    });
    (agg, workers)
}

/// Runs the full eleven-area campaign and assembles the dataset.
pub fn run_campaign(cfg: &CampaignConfig) -> Dataset {
    let started = std::time::Instant::now();
    let areas = all_areas(cfg.seed);
    let jobs = enumerate_jobs(&areas, cfg);
    let (mut agg, workers) = run_jobs(&areas, &jobs, cfg);

    // Deterministic record order regardless of thread interleaving.
    agg.records.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });
    agg.quarantine.runs.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });

    let mut cell_counts = BTreeMap::new();
    for area in &areas {
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

    let wall = started.elapsed();
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let stats = CampaignStats {
        runs: jobs.len(),
        workers,
        events_processed: agg.events_processed,
        simulated_ms: agg.simulated_ms,
        wall_ms: wall.as_millis() as u64,
        runs_per_sec: jobs.len() as f64 / secs,
        simulated_ms_per_sec: agg.simulated_ms as f64 / secs,
    };

    // Built from the already-sorted records, so the predicted-vs-observed
    // table inherits the dataset's worker-count invariance for free.
    let predictions = location_predictions(&agg.records);

    Dataset {
        records: agg.records,
        predictions,
        // Sort-at-finalize: hash-ordered shards become the dataset's
        // deterministic operator-keyed maps here, once.
        usage_nr: agg.usage_nr.into_iter().collect(),
        usage_lte: agg.usage_lte.into_iter().collect(),
        scell_mod: agg.scell_mod.into_iter().collect(),
        cell_counts,
        areas: areas
            .iter()
            .map(|a| (a.name.clone(), a.operator, a.size_km2()))
            .collect(),
        quarantine: agg.quarantine,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areas::area_a1;

    #[test]
    fn run_location_produces_a_record() {
        let a1 = area_a1(42);
        let (record, out, analysis) = run_location(&a1, 0, PhoneModel::OnePlus12R, 7, 120_000);
        assert_eq!(record.area, "A1");
        assert_eq!(record.operator, Operator::OpT);
        assert!((record.minutes - 2.0).abs() < 0.1);
        assert!(record.meas_results > 0);
        assert!(!out.events.is_empty());
        assert!(analysis.timeline.unique_sets() >= 1);
    }

    #[test]
    fn run_location_is_deterministic() {
        let a1 = area_a1(42);
        let (r1, ..) = run_location(&a1, 3, PhoneModel::OnePlus12R, 9, 60_000);
        let (r2, ..) = run_location(&a1, 3, PhoneModel::OnePlus12R, 9, 60_000);
        assert_eq!(r1, r2);
    }

    #[test]
    fn area_name_word_is_injective_over_area_names() {
        let names = [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11",
        ];
        let words: std::collections::BTreeSet<u64> =
            names.iter().map(|n| area_name_word(n)).collect();
        assert_eq!(words.len(), names.len());
    }

    #[test]
    fn job_seeds_are_distinct_across_areas_sharing_name_shape() {
        // The old derivation hashed name bytes [1] and [last] only, making
        // "A1" at (loc, r) collide with "A10"/"A11" patterns under seed
        // reuse; the full-name word keeps every job seed distinct.
        let areas = all_areas(5);
        let cfg = CampaignConfig {
            runs_a1: 2,
            runs_other: 2,
            ..Default::default()
        };
        let jobs = enumerate_jobs(&areas, &cfg);
        let seeds: std::collections::BTreeSet<u64> = jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), jobs.len());
    }
}
