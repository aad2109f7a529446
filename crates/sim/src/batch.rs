//! A list of runs over one environment's shared tables, stepped one
//! after another.
//!
//! [`UeBatch`] collects runs that share one operator policy, device and
//! [`RadioTables`], then drives each through its own [`Stepper`] in push
//! order, collecting every trace into a [`SimOutput`]. Each run is
//! independent: its output is bitwise-identical to [`crate::simulate`] on
//! the equivalent single-run config, whatever runs share its batch
//! (`tests/batched_equiv.rs`).
//!
//! New code drives [`Stepper`] directly. `UeBatch` remains for the
//! repository benchmark's traced campaign rebuild and the sim oracles
//! written against it.

use onoff_policy::{DeviceProfile, OperatorPolicy};
use onoff_radio::{RadioTables, UeSampler};

use crate::config::MovementPath;
use crate::output::SimOutput;
use crate::policy_tables::{PolicyTables, StepCtx};
use crate::recorder::Recorder;
use crate::stepper::Stepper;

/// Runs over one operator's environment, stepped in push order.
pub struct UeBatch<'a> {
    policy: &'a OperatorPolicy,
    device: &'a DeviceProfile,
    tables: &'a RadioTables<'a>,
    duration_ms: u64,
    meas_period_ms: u64,
    /// Each run's path, seed and recorder, in push order.
    runs: Vec<(MovementPath, u64, Recorder)>,
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
            tables,
            duration_ms,
            meas_period_ms,
            runs: Vec::new(),
        }
    }

    /// Adds one run to the batch.
    pub fn push(&mut self, path: MovementPath, seed: u64) {
        self.push_with_recorder(path, seed, Recorder::new());
    }

    /// [`UeBatch::push`] recording into a caller-supplied (typically pooled)
    /// recorder, so a warm one records into its retained capacity instead
    /// of regrowing from empty.
    pub fn push_with_recorder(&mut self, path: MovementPath, seed: u64, rec: Recorder) {
        self.runs.push((path, seed, rec));
    }

    /// Number of runs in the batch.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Steps every run; returns one [`SimOutput`] per `push`, in push order.
    pub fn run(self) -> Vec<SimOutput> {
        let mut outs = Vec::new();
        self.run_into(&mut outs, &mut Vec::new());
        outs
    }

    /// Steps every run, writing one [`SimOutput`] per `push` (in push
    /// order) into `outs` and returning the recorders to `pool`. Existing
    /// `outs` entries are recycled through [`Stepper::collect_into`], so a
    /// caller looping batches through the same `outs` + `pool` pair runs
    /// the whole sim pipeline without steady-state allocation. Output is
    /// bitwise-identical to [`UeBatch::run`].
    pub fn run_into(self, outs: &mut Vec<SimOutput>, pool: &mut Vec<Recorder>) {
        let ptab = PolicyTables::new(self.policy);
        outs.truncate(self.runs.len());
        for (i, (path, seed, rec)) in self.runs.into_iter().enumerate() {
            if outs.len() == i {
                outs.push(SimOutput::default());
            }
            let cx = StepCtx {
                policy: self.policy,
                device: self.device,
                path: &path,
                ptab: &ptab,
                seed,
            };
            let sampler = UeSampler::with_salt(self.tables, seed);
            let stepper = Stepper::new(cx, sampler, self.duration_ms, self.meas_period_ms);
            pool.push(stepper.collect_into(rec, &mut outs[i]));
        }
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
