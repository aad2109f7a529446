//! The simulator's one run loop: a single UE stepped through a run.
//!
//! A [`Stepper`] owns one UE's engine core (SA or NSA, by the policy's
//! deployment mode), its RNG and its sampler, and advances them one
//! measurement period at a time until the run's duration. It is generic
//! over [`Sampler`], so the same loop drives the table-driven radio path
//! ([`crate::simulate`], the campaign) and the scalar reference path
//! ([`crate::simulate_scalar`]) with bitwise-identical output.
//!
//! It runs in one of two forms:
//!
//! * [`Stepper::stream`] flushes the recorder into a sink after every
//!   step, handing out each event as soon as it is final, so a caller that
//!   folds events on the fly never holds a whole trace;
//! * [`Stepper::collect_into`] collects the whole trace into a caller's
//!   [`SimOutput`].
//!
//! Both take a recorder and return it, so a caller looping runs through
//! one recorder records into retained capacity. Both yield the same event
//! sequence (`tests/stream_equiv.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use onoff_policy::FivegMode;
use onoff_radio::Sampler;
use onoff_rrc::trace::TraceEvent;

use crate::nsa::NsaCore;
use crate::output::SimOutput;
use crate::policy_tables::StepCtx;
use crate::recorder::Recorder;
use crate::sa::SaCore;

/// One UE's engine state, dispatched on the operator's deployment mode.
enum Core {
    Sa(SaCore),
    Nsa(NsaCore),
}

/// One UE's run, ready to step: engine core, RNG and sampler.
pub struct Stepper<'a, S> {
    cx: StepCtx<'a>,
    sampler: S,
    core: Core,
    rng: StdRng,
    duration_ms: u64,
    meas_period_ms: u64,
}

impl<'a, S: Sampler> Stepper<'a, S> {
    /// A fresh UE at `t = 0` for a run of `duration_ms`, measuring every
    /// `meas_period_ms`. The SA engine seeds its RNG from the run seed,
    /// the NSA engine from `seed ^ 0x4E5A`; the sampler carries the run's
    /// fading salt.
    pub fn new(
        cx: StepCtx<'a>,
        sampler: S,
        duration_ms: u64,
        meas_period_ms: u64,
    ) -> Stepper<'a, S> {
        let (core, rng) = match cx.policy.mode {
            FivegMode::Sa => (Core::Sa(SaCore::new()), StdRng::seed_from_u64(cx.seed)),
            FivegMode::Nsa => (
                Core::Nsa(NsaCore::new()),
                StdRng::seed_from_u64(cx.seed ^ 0x4E5A),
            ),
        };
        Stepper {
            cx,
            sampler,
            core,
            rng,
            duration_ms,
            meas_period_ms,
        }
    }

    /// Steps the whole run, handing each event to `sink` as soon as it is
    /// final, and returns the recorder, reset.
    ///
    /// After the step at `t` no later step can record an event at or
    /// below `t` (see [`Recorder`]), so those events are final and the
    /// recorder only ever holds the events of the last step or so. The
    /// events arrive in exactly the order [`Stepper::collect_into`]
    /// collects them; ground truth is not streamed.
    pub fn stream(self, mut rec: Recorder, mut sink: impl FnMut(&TraceEvent)) -> Recorder {
        rec.reset();
        self.step_all(&mut rec, |rec, t| rec.flush(t, &mut sink));
        rec.flush(u64::MAX, &mut sink);
        rec.reset();
        rec
    }

    /// Steps the whole run and collects its trace and ground truth into
    /// `out`, replacing what `out` held, then returns the recorder.
    ///
    /// `out`'s storage is recycled: the heap rows behind its spilled
    /// measurement reports serve this run's reports, and its buffers are
    /// swapped into the returned recorder. A caller looping runs through
    /// the same `out` and recorder therefore collects without steady-state
    /// allocation. `out` ends up bitwise-identical to a fresh collection.
    pub fn collect_into(self, mut rec: Recorder, out: &mut SimOutput) -> Recorder {
        rec.reset();
        // A collected trace is held whole, so size it for the run up front.
        rec.reserve_for(self.duration_ms);
        rec.recycle_spares(out);
        self.step_all(&mut rec, |_, _| {});
        rec.finish_into(out);
        rec
    }

    /// The run loop: one engine step per measurement period, calling
    /// `after_step(recorder, t)` after the step at `t`.
    fn step_all(mut self, rec: &mut Recorder, mut after_step: impl FnMut(&mut Recorder, u64)) {
        let mut t = 0u64;
        while t < self.duration_ms {
            match &mut self.core {
                Core::Sa(core) => core.step(&self.cx, &mut self.sampler, &mut self.rng, rec, t),
                Core::Nsa(core) => core.step(&self.cx, &mut self.sampler, &mut self.rng, rec, t),
            }
            after_step(rec, t);
            t += self.meas_period_ms;
        }
    }
}
