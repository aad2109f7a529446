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
//! whole trace is ever held. Each job carries its rank in the dataset's
//! record order, and the worker that runs it writes its record straight
//! into that rank's place in one array sized to the job list, so records
//! are never merged or sorted. Workers accumulate everything else into
//! **private** `Aggregates` shards — no lock is held anywhere on the hot
//! path — folded together once at the end through commutative [`Merge`]
//! operations. Because every run is fully independent (exact memoization,
//! not approximation), the resulting [`Dataset`] is bitwise-identical for
//! any worker count.
//!
//! With [`CampaignConfig::chaos`] set, chaos is a text stage on the same
//! stream, and every attempt at a run is one pass: the stepper streams the
//! run's events from the job's seed over the area's shared tables, and
//! each event is rendered into one window of NSG text, handed on at the
//! first event boundary past 32 KiB: a fresh seeded chaos engine corrupts
//! each window into the worker's one window-sized dirty buffer, and the
//! worker's pooled lossy parser takes it as the next piece, handing the
//! survivors straight to the slot. Nothing of the run is kept between
//! attempts, and neither the rendered capture, nor a dirty copy of it, nor
//! its parsed trace is ever held. The loss gate reads the parser's
//! accounting once the stream ends: a run whose loss stays out of bounds
//! is retried with backoff, stepped again from its seed (the stepper is
//! deterministic in it, so every attempt renders the same text), and
//! quarantined into the dataset's [`QuarantineReport`] once every attempt
//! has failed, instead of aborting the campaign; a rejected attempt's slot
//! state is discarded by the next attempt's reset. A panic in the stages
//! that see dirty input (corrupt → parse → analyze) fails only its
//! attempt: they run under `catch_unwind` a window at a time, inside the
//! stream's sink, so no such panic unwinds through the stepper. The
//! simulator runs outside every `catch_unwind`; it sees no dirty input and
//! is deterministic in the job seed, so a retry could never get past a
//! panic there, and it aborts the campaign as it does in clean mode.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use onoff_detect::channel::{ChannelUsage, Merge, ScellModScan, ScellModStats};
use onoff_detect::{RunAnalysis, TraceAnalyzer};
use onoff_nsglog::{emit_event, ParseStats, RecoveringParser};
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
    /// Chaos mode: a stage on each run's event stream renders the events
    /// to NSG text, corrupts the text, re-parses it lossily, retries
    /// attempts whose loss is out of bounds (simulating the run again from
    /// its seed) and quarantines runs that keep failing. `None` (the
    /// default) feeds simulator events straight into the analysis.
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
/// and the chaos stage's buffers. The recorder only holds the events of
/// the run's last step or so, and the slot only its analyzer's state, so
/// a worker's footprint does not grow with trace length (DESIGN.md §16).
/// A chaos worker adds a window of text, its dirty copy and a parser's
/// open record, whose sizes do not depend on the run's length either.
#[derive(Default)]
struct RunScratch {
    slot: Option<RunSlot>,
    rec: Recorder,
    chaos: ChaosStage,
}

/// Size of a chaos window: each holds at least this many bytes of the
/// rendered capture, up to the end of the event that reaches it.
const CHAOS_WINDOW_BYTES: usize = 32 << 10;

/// Renders the events `stream` hands its sink to NSG text, the text `emit`
/// gives for them, one `window` at a time: a window goes to `piece` at the
/// first event boundary at or past [`CHAOS_WINDOW_BYTES`], and whatever is
/// left when the stream ends. Every window ends a line.
fn render_windows(
    stream: impl FnOnce(&mut dyn FnMut(&TraceEvent)),
    window: &mut String,
    mut piece: impl FnMut(&str),
) {
    window.clear();
    stream(&mut |ev| {
        emit_event(ev, window).expect("fmt::Write to a String is infallible");
        if window.len() >= CHAOS_WINDOW_BYTES {
            piece(window);
            window.clear();
        }
    });
    if !window.is_empty() {
        piece(window);
    }
}

/// An attempt's outcome: the accepted attempt's parse stats, record and
/// analysis, or why the attempt failed.
type Attempt = Result<(ParseStats, RunRecord, RunAnalysis), String>;

/// A chaos worker's buffers: one window of the streamed run's text and its
/// corruption, and the pooled lossy parser that reads the corrupted
/// windows. None of them holds anything of a run between attempts.
#[derive(Default)]
struct ChaosStage {
    window: String,
    dirty: String,
    /// Built at the worker's first chaos attempt, under the campaign's
    /// recovery policy.
    parser: Option<RecoveringParser>,
}

impl ChaosStage {
    /// The chaos stage over the run `stream` steps. Up to `max_attempts`
    /// times, streams the run from its seed, renders it window by window,
    /// corrupts each window with the attempt's chaos seed, re-parses it
    /// lossily into `slot`, and — when the loss over the whole run stays
    /// in bounds — builds the record. Returns the attempts made, with the
    /// accepted attempt's parse stats, record and analysis or the last
    /// attempt's failure reason (excessive loss, or a panic in these
    /// stages). A panic in `stream` itself propagates.
    fn run(
        &mut self,
        slot: &mut RunSlot,
        shared: &AreaTables<'_>,
        job: &Job,
        device: PhoneModel,
        opts: &ChaosOptions,
        mut stream: impl FnMut(&mut dyn FnMut(&TraceEvent)),
    ) -> (u32, Attempt) {
        let (area, policy) = (shared.area, &shared.policy);
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
        let ChaosStage {
            window,
            dirty,
            parser,
        } = self;
        let parser = parser.get_or_insert_with(|| RecoveringParser::new(opts.policy));
        let attempts = opts.max_attempts.max(1);
        let mut last_reason = String::new();
        for attempt in 1..=attempts {
            if attempt > 1 && opts.backoff_base_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(
                    opts.backoff_base_ms << (attempt - 2),
                ));
            }
            // Fresh fault pattern per attempt, reproducible from the job.
            let chaos_seed = hash_words(&[job.seed, u64::from(attempt), 0xC4A05]);
            let mut engine = ChaosEngine::new(chaos_cfg.clone(), chaos_seed);
            // Analyze the *surviving* events: the record, like every other
            // counter, reflects what an analyst reading the dirty capture
            // would see. After a panic the attempt's later windows are
            // dropped, but the run is still stepped to its end, so a
            // simulator panic anywhere in it still aborts the campaign.
            slot.start(area.operator, policy);
            let mut intact = true;
            render_windows(&mut stream, window, |piece| {
                intact = intact
                    && catch_unwind(AssertUnwindSafe(|| {
                        dirty.clear();
                        engine.corrupt_text_piece(piece, dirty);
                        parser.push(dirty, |ev| slot.feed(&ev));
                    }))
                    .is_ok();
            });
            let finished = if intact {
                catch_unwind(AssertUnwindSafe(|| {
                    let stats = parser.finish(|ev| slot.feed(&ev));
                    if stats.loss_ratio() > opts.max_loss_ratio {
                        return Err(format!(
                            "loss ratio {:.2} exceeds {:.2}",
                            stats.loss_ratio(),
                            opts.max_loss_ratio
                        ));
                    }
                    let (record, analysis) =
                        slot.finish(&area.name, job.location, device, job.seed);
                    Ok((stats, record, analysis))
                }))
                .ok()
            } else {
                None
            };
            match finished {
                Some(Ok(accepted)) => return (attempt, Ok(accepted)),
                Some(Err(reason)) => last_reason = reason,
                None => {
                    // The panic may have left the parser inside a text.
                    *parser = RecoveringParser::new(opts.policy);
                    last_reason = "pipeline panicked".to_string();
                }
            }
        }
        (attempts, Err(last_reason))
    }
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
}

impl RunSlot {
    fn new(operator: Operator, policy: &OperatorPolicy) -> RunSlot {
        RunSlot {
            operator,
            analyzer: TraceAnalyzer::with_scoring(scoring_config_for(operator, policy)),
            record: RecordFold::new(operator),
            scell: ScellModScan::default(),
            scell_mod: ScellModStats::default(),
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
}

/// Aggregates accumulated by one worker (and, after merging, the whole
/// campaign): everything but the run records, which go straight to their
/// places in the campaign's record array.
///
/// Shards accumulate into unordered [`FxMap`]s on the hot path; the sorted
/// `BTreeMap`s the persisted [`Dataset`] carries are built once at the end
/// of [`run_campaign`], so the output stays bitwise-identical at any
/// worker count.
#[derive(Debug, Default)]
struct Aggregates {
    usage_nr: FxMap<Operator, ChannelUsage>,
    usage_lte: FxMap<Operator, ChannelUsage>,
    scell_mod: FxMap<Operator, ScellModStats>,
    quarantine: QuarantineReport,
    attempts: usize,
    events_processed: u64,
    simulated_ms: u64,
}

impl Merge for Aggregates {
    fn merge(&mut self, other: Aggregates) {
        self.usage_nr.merge(other.usage_nr);
        self.usage_lte.merge(other.usage_lte);
        self.scell_mod.merge(other.scell_mod);
        self.quarantine.merge(other.quarantine);
        self.attempts += other.attempts;
        self.events_processed += other.events_processed;
        self.simulated_ms += other.simulated_ms;
    }
}

impl Aggregates {
    /// Executes one job over its area's shared tables, returning its
    /// record unless the job is quarantined.
    ///
    /// The whole pipeline runs out of the worker's [`RunScratch`]: the
    /// stepper records into the worker's recorder, and the worker's
    /// `RunSlot` — analyzer and scorer included — is reset between runs
    /// instead of rebuilt. In clean mode the stepper streams the run's
    /// events straight into the slot; in chaos mode every attempt streams
    /// them from the seed again into the chaos stage, which feeds the slot
    /// what survives. Either way the slot sees the events in exactly the
    /// order a collected trace holds them, so the dataset is
    /// bitwise-identical at any worker count.
    fn absorb_run(
        &mut self,
        shared: &AreaTables<'_>,
        device: &DeviceProfile,
        job: &Job,
        cfg: &CampaignConfig,
        scratch: &mut RunScratch,
    ) -> Option<RunRecord> {
        let (area, policy) = (shared.area, &shared.policy);
        let RunScratch { slot, rec, chaos } = scratch;
        let slot = slot.get_or_insert_with(|| RunSlot::new(area.operator, policy));
        let path = MovementPath::Stationary(area.locations[job.location]);
        // Steps the run from its seed, handing each event to `sink`.
        let mut stream = |sink: &mut dyn FnMut(&TraceEvent)| {
            let stepper = shared.stepper(device, &path, job.seed, cfg.duration_ms);
            *rec = stepper.stream(std::mem::take(rec), sink);
        };
        match &cfg.chaos {
            None => {
                self.attempts += 1;
                slot.start(area.operator, policy);
                stream(&mut |ev| slot.feed(ev));
                let (record, analysis) =
                    slot.finish(&area.name, job.location, cfg.device, job.seed);
                self.fold_run(area.operator, cfg.duration_ms, slot, &analysis);
                Some(record)
            }
            Some(opts) => {
                let (attempts, outcome) = chaos.run(slot, shared, job, cfg.device, opts, stream);
                self.attempts += attempts as usize;
                match outcome {
                    Ok((stats, record, analysis)) => {
                        self.quarantine.records_lost += stats.skipped;
                        self.quarantine.timestamps_repaired += stats.timestamps_repaired;
                        self.fold_run(area.operator, cfg.duration_ms, slot, &analysis);
                        Some(record)
                    }
                    // Quarantined: the run is in the ledger, not the
                    // aggregates or the records.
                    Err(reason) => {
                        self.quarantine.runs.push(QuarantinedRun {
                            operator: area.operator,
                            area: area.name.clone(),
                            location: job.location,
                            seed: job.seed,
                            attempts,
                            reason,
                        });
                        None
                    }
                }
            }
        }
    }

    /// Folds one accepted run — its analysis, event count and
    /// SCell-modification counts — into this shard.
    fn fold_run(
        &mut self,
        operator: Operator,
        duration_ms: u64,
        slot: &mut RunSlot,
        analysis: &RunAnalysis,
    ) {
        self.quarantine.clamped_events += analysis.degradation.clamped_events;
        let usage_nr = self.usage_nr.entry(operator).or_default();
        if analysis.has_loop() {
            usage_nr.add_loop_transitions(&analysis.off_transitions, Rat::Nr);
        } else {
            usage_nr.add_no_loop_run(&analysis.timeline, Rat::Nr);
        }
        let usage_lte = self.usage_lte.entry(operator).or_default();
        if analysis.has_loop() {
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
    }
}

/// One unit of campaign work: a single stationary run.
#[derive(Debug, Clone, Copy)]
struct Job {
    area_idx: usize,
    location: usize,
    seed: u64,
    /// The run's place in the dataset's record order.
    rank: usize,
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

/// Enumerates every (area, location, run) job in deterministic order,
/// ranked by the dataset's record order: (operator, area, location, seed).
/// Job seeds are distinct, so no two jobs share a rank's key.
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
                    rank: 0,
                });
            }
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| {
        let (job, area) = (&jobs[i], &areas[jobs[i].area_idx]);
        (area.operator, area.name.as_str(), job.location, job.seed)
    });
    for (rank, i) in order.into_iter().enumerate() {
        jobs[i].rank = rank;
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
/// chaos buffers across all jobs a worker drains. Scratch never crosses
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
/// Returns the merged aggregates, the accepted runs' records in record
/// order, and the number of workers that drained them, which is never
/// more than the number of jobs.
fn run_jobs(
    areas: &[Area],
    jobs: &[Job],
    cfg: &CampaignConfig,
) -> (Aggregates, Vec<RunRecord>, usize) {
    let shared: Vec<AreaTables<'_>> = areas
        .iter()
        .map(|a| AreaTables::new(a, policy_for(a.operator)))
        .collect();
    let device = cfg.device.profile();
    let workers = cfg.parallelism.workers.min(jobs.len()).max(1);
    // One place per job, at its rank; a quarantined job leaves its empty.
    let ranked: Vec<OnceLock<RunRecord>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let agg = drain_shards(jobs, workers, |shard, scratch, job| {
        if let Some(record) = shard.absorb_run(&shared[job.area_idx], &device, job, cfg, scratch) {
            ranked[job.rank]
                .set(record)
                .expect("each job is claimed once");
        }
    });
    // Collected in place: the records keep the array's allocation.
    let mut records: Vec<RunRecord> = ranked
        .into_iter()
        .filter_map(OnceLock::into_inner)
        .collect();
    records.shrink_to_fit();
    (agg, records, workers)
}

/// Runs the full eleven-area campaign and assembles the dataset.
pub fn run_campaign(cfg: &CampaignConfig) -> Dataset {
    let started = std::time::Instant::now();
    let areas = all_areas(cfg.seed);
    let jobs = enumerate_jobs(&areas, cfg);
    let (mut agg, records, workers) = run_jobs(&areas, &jobs, cfg);

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
        attempts: agg.attempts,
        workers,
        events_processed: agg.events_processed,
        simulated_ms: agg.simulated_ms,
        wall_ms: wall.as_millis() as u64,
        runs_per_sec: jobs.len() as f64 / secs,
        simulated_ms_per_sec: agg.simulated_ms as f64 / secs,
    };

    // Built from the ranked records, so the predicted-vs-observed table
    // inherits the dataset's worker-count invariance for free.
    let predictions = location_predictions(&records);

    Dataset {
        records,
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
    use onoff_policy::FivegMode;

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
    fn streamed_windows_are_the_runs_text() {
        let cfg = CampaignConfig {
            runs_a1: 1,
            runs_other: 1,
            duration_ms: 120_000,
            ..CampaignConfig::default()
        };
        let areas = all_areas(cfg.seed);
        let device = cfg.device.profile();
        let mut modes = Vec::new();
        let mut several_windows = false;
        let mut window = String::new();
        for job in enumerate_jobs(&areas, &cfg)
            .iter()
            .filter(|j| j.location == 0)
        {
            let area = &areas[job.area_idx];
            let shared = AreaTables::new(area, policy_for(area.operator));
            let path = MovementPath::Stationary(area.locations[job.location]);
            let (_, out, _) = run_location(area, 0, cfg.device, job.seed, cfg.duration_ms);

            let mut windows = Vec::new();
            render_windows(
                |sink| {
                    shared
                        .stepper(&device, &path, job.seed, cfg.duration_ms)
                        .stream(Recorder::new(), sink);
                },
                &mut window,
                |w| windows.push(w.to_string()),
            );
            assert_eq!(windows.concat(), out.to_log(), "{}", area.name);
            for (i, w) in windows.iter().enumerate() {
                assert!(w.ends_with('\n'), "{} window {i}", area.name);
                if i + 1 < windows.len() {
                    assert!(w.len() >= CHAOS_WINDOW_BYTES, "{} window {i}", area.name);
                }
            }
            modes.push(shared.policy.mode);
            several_windows |= windows.len() > 1;
        }
        assert_eq!(modes.len(), areas.len());
        assert!(modes.contains(&FivegMode::Sa) && modes.contains(&FivegMode::Nsa));
        assert!(several_windows);
    }

    /// Runs `stage` over a two-minute run of A1's location 0 into a fresh
    /// slot, scored or not, with `tap` seeing the count of events the
    /// simulator has streamed before each reaches the stage.
    fn run_chaos_stage(
        stage: &mut ChaosStage,
        scored: bool,
        mut tap: impl FnMut(usize),
    ) -> (u32, Attempt) {
        let area = area_a1(42);
        let shared = AreaTables::new(&area, policy_for(area.operator));
        let job = Job {
            area_idx: 0,
            location: 0,
            seed: 7,
            rank: 0,
        };
        let device = PhoneModel::OnePlus12R.profile();
        let path = MovementPath::Stationary(area.locations[job.location]);
        let mut slot = RunSlot::new(area.operator, &shared.policy);
        if !scored {
            // Without its scorer the slot's `finish` panics, inside the
            // analyze stage.
            slot.analyzer = TraceAnalyzer::new();
        }
        let opts = ChaosOptions {
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        };
        stage.run(
            &mut slot,
            &shared,
            &job,
            PhoneModel::OnePlus12R,
            &opts,
            |sink| {
                let mut streamed = 0;
                shared
                    .stepper(&device, &path, job.seed, 120_000)
                    .stream(Recorder::new(), |ev| {
                        streamed += 1;
                        tap(streamed);
                        sink(ev);
                    });
            },
        )
    }

    #[test]
    fn a_panic_in_the_text_stage_fails_only_its_attempt() {
        let mut stage = ChaosStage::default();
        let (attempts, outcome) = run_chaos_stage(&mut stage, false, |_| {});
        assert_eq!(attempts, ChaosOptions::default().max_attempts);
        assert_eq!(outcome, Err("pipeline panicked".to_string()));
        // The stage those panics went through reads the next run as a
        // fresh stage does.
        let next = run_chaos_stage(&mut stage, true, |_| {});
        assert!(next.1.is_ok(), "{:?}", next.1.err());
        assert_eq!(
            next,
            run_chaos_stage(&mut ChaosStage::default(), true, |_| {})
        );
    }

    #[test]
    #[should_panic(expected = "simulator fault")]
    fn a_simulator_panic_aborts_the_chaos_stage() {
        // Several windows in, so the text stage has already run.
        let _ = run_chaos_stage(&mut ChaosStage::default(), true, |streamed| {
            assert!(streamed < 200, "simulator fault");
        });
    }

    #[test]
    fn jobs_rank_in_record_order() {
        let areas = all_areas(5);
        let cfg = CampaignConfig {
            runs_a1: 3,
            runs_other: 2,
            ..Default::default()
        };
        let mut jobs = enumerate_jobs(&areas, &cfg);
        jobs.sort_by_key(|j| j.rank);
        assert!(jobs.iter().enumerate().all(|(rank, j)| j.rank == rank));
        let keys: Vec<_> = jobs
            .iter()
            .map(|j| {
                let area = &areas[j.area_idx];
                (area.operator, area.name.as_str(), j.location, j.seed)
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
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
