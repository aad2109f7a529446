//! Flattened per-channel policy lookup tables and the shared step context.
//!
//! The engines consult channel rules (`allow_5g`, failure probabilities, A3
//! bonuses…) on every measurement sweep. [`PolicyTables`] flattens the
//! policy's `BTreeMap<u32, ChannelRule>` plus its defaults into one sorted
//! array of [`ChanFlags`], so a lookup is a binary search over a few cache
//! lines with the default-vs-rule branching resolved at build time. The
//! flattening is exact: `flags(arfcn)` agrees with
//! `OperatorPolicy::{rule, allows_5g_on, scell_mod_failure_prob}` for every
//! channel.

use onoff_policy::{DeviceProfile, OperatorPolicy};

use crate::config::{MovementPath, SimConfig};

/// Per-channel policy knobs with the policy defaults already substituted
/// for rule-less channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChanFlags {
    /// Whether a 4G PCell on this channel may run a 5G SCG.
    pub allow_5g: bool,
    /// Whether entering this channel drops the SCG (OP_V's 5230).
    pub release_scg_on_entry: bool,
    /// Blind switch-away target channel on a 5G report (OP_A's 5815).
    pub switch_away_on_5g_report: Option<u32>,
    /// SCell-modification failure probability for targets on this channel.
    pub scell_mod_failure_prob: f64,
    /// Per-channel candidate bonus for A3 handover scoring, deci-dB.
    pub a3_offset_bonus_deci: i32,
}

/// Sorted flat table of per-channel flags; channels without an explicit
/// rule resolve to the policy defaults.
#[derive(Debug, Clone)]
pub struct PolicyTables {
    entries: Vec<(u32, ChanFlags)>,
    default_flags: ChanFlags,
}

impl PolicyTables {
    /// Flattens a policy's rules. `rules` is a `BTreeMap`, so the entries
    /// come out sorted by ARFCN for binary search.
    pub fn new(policy: &OperatorPolicy) -> PolicyTables {
        PolicyTables {
            entries: policy
                .rules
                .iter()
                .map(|(&arfcn, r)| {
                    (
                        arfcn,
                        ChanFlags {
                            allow_5g: r.allow_5g,
                            release_scg_on_entry: r.release_scg_on_entry,
                            switch_away_on_5g_report: r.switch_away_on_5g_report,
                            scell_mod_failure_prob: r.scell_mod_failure_prob,
                            a3_offset_bonus_deci: r.a3_offset_bonus_deci,
                        },
                    )
                })
                .collect(),
            default_flags: ChanFlags {
                allow_5g: true,
                release_scg_on_entry: false,
                switch_away_on_5g_report: None,
                scell_mod_failure_prob: policy.default_scell_mod_failure,
                a3_offset_bonus_deci: 0,
            },
        }
    }

    /// Flags for a channel (defaults where no rule exists).
    pub fn flags(&self, arfcn: u32) -> ChanFlags {
        match self.entries.binary_search_by_key(&arfcn, |(a, _)| *a) {
            Ok(i) => self.entries[i].1,
            Err(_) => self.default_flags,
        }
    }
}

/// Everything one engine step needs besides the sampler and the RNG.
/// Borrowed, so the runs of one area share one policy/device/tables set
/// while each run has its own path and seed.
pub struct StepCtx<'a> {
    /// The operator's channel plan and thresholds.
    pub policy: &'a OperatorPolicy,
    /// The phone under test.
    pub device: &'a DeviceProfile,
    /// This UE's position over time.
    pub path: &'a MovementPath,
    /// Flattened per-channel rules for `policy`.
    pub ptab: &'a PolicyTables,
    /// This UE's run seed (throughput jitter keying).
    pub seed: u64,
}

impl<'a> StepCtx<'a> {
    /// Step context of a single-run config.
    pub fn of(cfg: &'a SimConfig, ptab: &'a PolicyTables) -> StepCtx<'a> {
        StepCtx {
            policy: &cfg.policy,
            device: &cfg.device,
            path: &cfg.path,
            ptab,
            seed: cfg.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_policy::{op_a_policy, op_t_policy, op_v_policy};

    /// The flattening must agree with the policy's own lookups on every
    /// channel in the plan plus rule-less and unknown channels.
    #[test]
    fn flags_match_policy_lookups() {
        for policy in [op_t_policy(), op_a_policy(), op_v_policy()] {
            let tab = PolicyTables::new(&policy);
            let mut arfcns: Vec<u32> = policy.channels.iter().map(|c| c.arfcn).collect();
            arfcns.extend(policy.rules.keys().copied());
            arfcns.push(999_999);
            for arfcn in arfcns {
                let f = tab.flags(arfcn);
                assert_eq!(f.allow_5g, policy.allows_5g_on(arfcn));
                assert_eq!(
                    f.scell_mod_failure_prob,
                    policy.scell_mod_failure_prob(arfcn)
                );
                assert_eq!(
                    f.release_scg_on_entry,
                    policy.rule(arfcn).is_some_and(|r| r.release_scg_on_entry)
                );
                assert_eq!(
                    f.switch_away_on_5g_report,
                    policy.rule(arfcn).and_then(|r| r.switch_away_on_5g_report)
                );
                assert_eq!(
                    f.a3_offset_bonus_deci,
                    policy.rule(arfcn).map_or(0, |r| r.a3_offset_bonus_deci)
                );
            }
        }
    }
}
