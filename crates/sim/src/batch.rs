//! Batched, table-driven UE stepping.
//!
//! [`UeBatch`] lays per-UE connection state out struct-of-arrays: one shared
//! [`RadioTables`] + [`PolicyTables`] per environment, and per UE a sampler
//! (its memoization caches), an engine core, an RNG and a recorder. All UEs
//! advance in lockstep through the measurement grid, so a campaign worker
//! steps a whole batch of runs over shared tables instead of rebuilding the
//! radio precomputation per run.
//!
//! Each UE's engine, RNG and sampler are fully independent — a UE's output
//! is bitwise-identical to [`crate::simulate`] on the equivalent
//! single-run config, regardless of how runs are grouped into batches
//! (enforced by `tests/batched_equiv.rs`).
//!
//! One lockstep loop serves two forms. [`UeBatch::stream`] hands each UE's
//! events to a consumer as soon as they are final, so a caller that folds
//! events on the fly never holds a whole trace; [`UeBatch::run`] and
//! [`UeBatch::run_into`] collect each UE's trace into a [`SimOutput`]. Both
//! yield the same per-UE event sequence (`tests/stream_equiv.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use onoff_policy::{DeviceProfile, FivegMode, OperatorPolicy};
use onoff_radio::{RadioTables, UeSampler};
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::trace::TraceEvent;

use crate::config::MovementPath;
use crate::nsa::NsaCore;
use crate::output::SimOutput;
use crate::policy_tables::{PolicyTables, StepCtx};
use crate::recorder::Recorder;
use crate::sa::SaCore;

/// One UE's engine state, dispatched on the operator's deployment mode.
enum Core {
    Sa(SaCore),
    Nsa(NsaCore),
}

/// A batch of UEs stepping in lockstep through one operator's environment.
pub struct UeBatch<'a> {
    policy: &'a OperatorPolicy,
    device: &'a DeviceProfile,
    ptab: PolicyTables,
    duration_ms: u64,
    meas_period_ms: u64,
    // Struct-of-arrays per-UE state, index-aligned.
    seeds: Vec<u64>,
    paths: Vec<MovementPath>,
    cores: Vec<Core>,
    rngs: Vec<StdRng>,
    recs: Vec<Recorder>,
    samplers: Vec<UeSampler<'a>>,
    tables: &'a RadioTables<'a>,
}

impl<'a> UeBatch<'a> {
    /// An empty batch over shared tables.
    pub fn new(
        policy: &'a OperatorPolicy,
        device: &'a DeviceProfile,
        tables: &'a RadioTables<'a>,
        duration_ms: u64,
        meas_period_ms: u64,
    ) -> UeBatch<'a> {
        UeBatch {
            policy,
            device,
            ptab: PolicyTables::new(policy),
            duration_ms,
            meas_period_ms,
            seeds: Vec::new(),
            paths: Vec::new(),
            cores: Vec::new(),
            rngs: Vec::new(),
            recs: Vec::new(),
            samplers: Vec::new(),
            tables,
        }
    }

    /// Adds one UE (one run) to the batch. Seeding matches the single-run
    /// engines exactly: per-run fading salt, SA RNG from `seed`, NSA RNG
    /// from `seed ^ 0x4E5A`.
    pub fn push(&mut self, path: MovementPath, seed: u64) {
        self.push_with_recorder(path, seed, Recorder::new());
    }

    /// [`UeBatch::push`] recording into a caller-supplied (typically pooled)
    /// recorder: the recorder is reset, so a warm one records into its
    /// retained capacity instead of regrowing from empty.
    pub fn push_with_recorder(&mut self, path: MovementPath, seed: u64, mut rec: Recorder) {
        self.samplers.push(UeSampler::with_salt(self.tables, seed));
        self.cores.push(match self.policy.mode {
            FivegMode::Sa => Core::Sa(SaCore::new()),
            FivegMode::Nsa => Core::Nsa(NsaCore::new()),
        });
        self.rngs.push(match self.policy.mode {
            FivegMode::Sa => StdRng::seed_from_u64(seed),
            FivegMode::Nsa => StdRng::seed_from_u64(seed ^ 0x4E5A),
        });
        rec.reset();
        self.recs.push(rec);
        self.seeds.push(seed);
        self.paths.push(path);
    }

    /// Number of UEs in the batch.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Steps every UE through the full run; returns one [`SimOutput`] per
    /// `push`, in push order.
    pub fn run(self) -> Vec<SimOutput> {
        let mut outs = Vec::new();
        let mut pool = Vec::new();
        self.run_into(&mut outs, &mut pool);
        outs
    }

    /// Steps every UE through the full run, writing one [`SimOutput`] per
    /// `push` (in push order) into `outs` and returning the now-empty
    /// recorders to `pool`. Existing `outs` entries are recycled: their
    /// event/truth storage is swapped into the finishing recorders, so a
    /// caller looping batches through the same `outs` + `pool` pair runs the
    /// whole sim pipeline without steady-state allocation. Output is
    /// bitwise-identical to [`UeBatch::run`].
    pub fn run_into(mut self, outs: &mut Vec<SimOutput>, pool: &mut Vec<Recorder>) {
        // Recycle the previous generation's spilled report buffers into
        // this batch's recorders before stepping — `outs` is about to be
        // overwritten anyway, and stealing its heap storage round-robin
        // means every UE starts with spares even when batch sizes shrink
        // or the pooled recorders last served runs that never spilled.
        if !self.recs.is_empty() {
            let n_recs = self.recs.len();
            let mut next = 0usize;
            for out in outs.iter_mut() {
                for ev in &mut out.events {
                    if let TraceEvent::Rrc(lr) = ev {
                        if let RrcMessage::MeasurementReport(r) = &mut lr.msg {
                            if let Some(spare) = r.results.take_spilled() {
                                self.recs[next % n_recs].donate_spare(spare);
                                next += 1;
                            }
                        }
                    }
                }
            }
        }
        // A collected trace is held whole, so size it for the run up front.
        for rec in &mut self.recs {
            rec.reserve_for(self.duration_ms);
        }
        let mut recs = self.step_all(|_, _, _| {});
        outs.truncate(recs.len());
        while outs.len() < recs.len() {
            outs.push(SimOutput::default());
        }
        for (rec, out) in recs.iter_mut().zip(outs.iter_mut()) {
            rec.finish_into(out);
        }
        pool.append(&mut recs);
    }

    /// Steps every UE through the full run, handing each event to
    /// `sink(ue, event)` as soon as it is final (`ue` is the push index),
    /// then returns the recorders to `pool`.
    ///
    /// After a UE's step at `t` no later step can record an event at or
    /// below `t` (see [`Recorder`]), so those events are final and a
    /// recorder only ever holds the events of its last step or so. Each
    /// UE's events arrive in exactly the order [`UeBatch::run`] collects
    /// them; ground truth is not streamed.
    pub fn stream(self, pool: &mut Vec<Recorder>, mut sink: impl FnMut(usize, &TraceEvent)) {
        let mut recs = self.step_all(|i, rec, t| rec.flush(t, |ev| sink(i, ev)));
        for (i, rec) in recs.iter_mut().enumerate() {
            rec.flush(u64::MAX, |ev| sink(i, ev));
            rec.reset();
        }
        pool.append(&mut recs);
    }

    /// The lockstep loop: steps every UE through the measurement grid,
    /// calling `after_step(ue, recorder, t)` after each UE's step at `t`,
    /// and returns the recorders in push order.
    fn step_all(self, mut after_step: impl FnMut(usize, &mut Recorder, u64)) -> Vec<Recorder> {
        let UeBatch {
            policy,
            device,
            ptab,
            duration_ms,
            meas_period_ms,
            seeds,
            paths,
            mut cores,
            mut rngs,
            mut recs,
            mut samplers,
            tables: _,
        } = self;
        let mut t = 0u64;
        while t < duration_ms {
            for i in 0..cores.len() {
                let cx = StepCtx {
                    policy,
                    device,
                    path: &paths[i],
                    ptab: &ptab,
                    seed: seeds[i],
                };
                match &mut cores[i] {
                    Core::Sa(core) => {
                        core.step(&cx, &mut samplers[i], &mut rngs[i], &mut recs[i], t)
                    }
                    Core::Nsa(core) => {
                        core.step(&cx, &mut samplers[i], &mut rngs[i], &mut recs[i], t)
                    }
                }
                after_step(i, &mut recs[i], t);
            }
            t += meas_period_ms;
        }
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::simulate;
    use onoff_policy::{op_a_policy, op_t_policy, PhoneModel};
    use onoff_radio::{CellSite, Point, RadioEnvironment};
    use onoff_rrc::ids::{CellId, Pci};

    fn env() -> RadioEnvironment {
        RadioEnvironment::new(
            7,
            vec![
                CellSite::macro_site(
                    CellId::nr(Pci(393), 521310),
                    Point::new(-200.0, 0.0),
                    0.0,
                    90.0,
                ),
                CellSite::macro_site(
                    CellId::nr(Pci(104), 387410),
                    Point::new(-200.0, 0.0),
                    0.0,
                    10.0,
                ),
                CellSite::macro_site(
                    CellId::lte(Pci(380), 5145),
                    Point::new(-200.0, 0.0),
                    0.0,
                    10.0,
                ),
                CellSite::macro_site(
                    CellId::nr(Pci(53), 632736),
                    Point::new(-200.0, 0.0),
                    0.0,
                    40.0,
                ),
            ],
        )
    }

    /// A batch of N runs equals N independent `simulate` calls, bitwise.
    #[test]
    fn batch_matches_single_runs() {
        for policy in [op_t_policy(), op_a_policy()] {
            let e = env();
            let device = PhoneModel::OnePlus12R.profile();
            let tables = RadioTables::new(&e);
            let mut batch = UeBatch::new(&policy, &device, &tables, 60_000, 1000);
            let jobs: Vec<(Point, u64)> = vec![
                (Point::new(0.0, 0.0), 3),
                (Point::new(-150.0, 40.0), 4),
                (Point::new(80.0, -30.0), 3),
            ];
            for (p, seed) in &jobs {
                batch.push(MovementPath::Stationary(*p), *seed);
            }
            assert_eq!(batch.len(), 3);
            let outs = batch.run();
            for (out, (p, seed)) in outs.iter().zip(&jobs) {
                let mut cfg =
                    SimConfig::stationary(policy.clone(), PhoneModel::OnePlus12R, env(), *p, *seed);
                cfg.duration_ms = 60_000;
                cfg.meas_period_ms = 1000;
                assert_eq!(*out, simulate(&cfg));
            }
        }
    }

    #[test]
    fn empty_batch_runs() {
        let policy = op_t_policy();
        let device = PhoneModel::OnePlus12R.profile();
        let e = env();
        let tables = RadioTables::new(&e);
        let batch = UeBatch::new(&policy, &device, &tables, 10_000, 1000);
        assert!(batch.is_empty());
        assert!(batch.run().is_empty());
    }
}
