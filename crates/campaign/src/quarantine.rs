//! Chaos-mode campaign options and the quarantine ledger.
//!
//! A chaos campaign replays every run through the dirty-capture stage:
//! simulator output is rendered to NSG text, corrupted by a seeded
//! [`ChaosConfig`], re-parsed under a lossy [`RecoveryPolicy`], and
//! analyzed. A run whose loss stays within bounds contributes to the
//! dataset like any other; a run that fails (excessive loss, or a panic in the stages that
//! see dirty input: corrupt, parse, analyze) is **retried with backoff and
//! a fresh chaos seed** over the same rendered text, and if it keeps
//! failing it is **quarantined** — recorded in the dataset's
//! [`QuarantineReport`] instead of aborting the whole campaign. The
//! simulator sees no dirty input and is deterministic in the run's seed,
//! so a retry could never get past a panic there: it aborts the campaign,
//! as it does in clean mode.

use serde::{Deserialize, Serialize};

use onoff_detect::channel::Merge;
use onoff_nsglog::RecoveryPolicy;
use onoff_policy::Operator;
use onoff_sim::ChaosConfig;

/// Chaos-mode knobs for [`CampaignConfig`](crate::CampaignConfig).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Fault probabilities/magnitudes applied to every run's rendered log.
    pub chaos: ChaosConfig,
    /// How the lossy re-parse treats malformed records.
    pub policy: RecoveryPolicy,
    /// Attempts per run before quarantining (each with a fresh chaos
    /// seed), minimum 1.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, ms (attempt `n ≥ 2` first
    /// sleeps `base << (n - 2)`; 0 disables sleeping).
    pub backoff_base_ms: u64,
    /// A run whose parse loss ratio exceeds this after every attempt is
    /// quarantined rather than aggregated.
    pub max_loss_ratio: f64,
    /// Test hook: the (area name, location) whose runs are corrupted with
    /// [`ChaosConfig::destroy`] regardless of `chaos` — a deterministic
    /// poisoned run for exercising the quarantine path.
    pub poison: Option<(String, usize)>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            chaos: ChaosConfig::default(),
            policy: RecoveryPolicy::SkipAndCount,
            max_attempts: 3,
            backoff_base_ms: 10,
            max_loss_ratio: 0.5,
            poison: None,
        }
    }
}

/// One run the campaign gave up on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedRun {
    /// Operator of the run.
    pub operator: Operator,
    /// Area name.
    pub area: String,
    /// Location index within the area.
    pub location: usize,
    /// The run's job seed (chaos seeds derive from it per attempt).
    pub seed: u64,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// Why the final attempt failed.
    pub reason: String,
}

/// The campaign's dirty-capture ledger: what was lost, what was repaired,
/// and which runs were abandoned. All counters cover the *accepted* runs;
/// quarantined runs are listed, not aggregated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// Runs that failed every attempt, in deterministic
    /// (operator, area, location, seed) order.
    pub runs: Vec<QuarantinedRun>,
    /// Malformed records skipped across accepted runs.
    pub records_lost: usize,
    /// Timestamps clamped by the parser across accepted runs (only under
    /// [`RecoveryPolicy::RepairTimestamps`]).
    pub timestamps_repaired: usize,
    /// Events quarantined by the analyzers across accepted runs.
    pub clamped_events: usize,
}

impl QuarantineReport {
    /// True when no run was abandoned and nothing was lost or repaired.
    pub fn is_clean(&self) -> bool {
        *self == QuarantineReport::default()
    }
}

impl Merge for QuarantineReport {
    /// Merging is commutative and associative: counters sum, and the run
    /// list is re-canonicalized into (operator, area, location, seed)
    /// order — the campaign's unique run key, extended to a total order
    /// over every field so the law holds even for adversarial inputs —
    /// making the result independent of which shard saw which run first.
    fn merge(&mut self, other: Self) {
        self.runs.extend(other.runs);
        self.runs.sort_by(|a, b| {
            (
                a.operator, &a.area, a.location, a.seed, a.attempts, &a.reason,
            )
                .cmp(&(
                    b.operator, &b.area, b.location, b.seed, b.attempts, &b.reason,
                ))
        });
        self.records_lost += other.records_lost;
        self.timestamps_repaired += other.timestamps_repaired;
        self.clamped_events += other.clamped_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_concatenates_and_sums() {
        let run = QuarantinedRun {
            operator: Operator::OpT,
            area: "A1".into(),
            location: 0,
            seed: 7,
            attempts: 3,
            reason: "loss ratio 1.00 exceeds 0.50".into(),
        };
        let mut a = QuarantineReport {
            runs: vec![run.clone()],
            records_lost: 5,
            timestamps_repaired: 1,
            clamped_events: 2,
        };
        a.merge(QuarantineReport {
            runs: Vec::new(),
            records_lost: 3,
            timestamps_repaired: 0,
            clamped_events: 1,
        });
        assert_eq!(a.runs, vec![run]);
        assert_eq!(a.records_lost, 8);
        assert_eq!(a.timestamps_repaired, 1);
        assert_eq!(a.clamped_events, 3);
        assert!(!a.is_clean());
        assert!(QuarantineReport::default().is_clean());
    }
}
