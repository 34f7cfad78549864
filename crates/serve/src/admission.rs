//! Cost-based admission control.
//!
//! §VI of the paper notes that the allocator's cost estimate lets a
//! provider *predict* response cost before running a query. The
//! controller turns that into load shedding: a query whose estimated
//! scatter cost ([`ShardedIndex::estimate_cost`], summed over shards)
//! exceeds the budget is either rejected outright or *degraded* — served
//! at the largest threshold that fits the budget, found by binary search
//! over `tau` (cost is monotone in `tau`).

use crate::shard::ShardedIndex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to do with an over-budget query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OverBudgetPolicy {
    /// Refuse the query, returning the estimate to the client.
    Reject,
    /// Serve at the largest affordable threshold not below `min_tau`;
    /// reject only if even `min_tau` is over budget.
    Degrade {
        /// Floor for the degraded threshold — results below this radius
        /// are considered too incomplete to be useful.
        min_tau: u32,
    },
}

/// Admission knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum estimated cost (the engines' cost-model units — expected
    /// candidate accesses + verifications) a single query may incur.
    /// `f64::INFINITY` (the default) disables admission control: every
    /// read is admitted, and counted, without being priced.
    pub cost_budget: f64,
    /// Policy for queries over budget.
    pub policy: OverBudgetPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { cost_budget: f64::INFINITY, policy: OverBudgetPolicy::Reject }
    }
}

/// Verdict for one query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionDecision {
    /// Run at the requested threshold.
    Admit,
    /// Run at a reduced threshold.
    Degrade {
        /// The threshold to execute.
        tau: u32,
        /// The threshold the client requested.
        original_tau: u32,
        /// Estimated cost at the degraded threshold.
        estimated_cost: f64,
    },
    /// Do not run.
    Reject {
        /// Estimated cost at the requested threshold.
        estimated_cost: f64,
        /// The configured budget it exceeded.
        budget: f64,
    },
}

/// Stateless decision logic plus decision counters.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    admitted: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
}

/// Counter snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted at their requested threshold.
    pub admitted: u64,
    /// Queries served at a reduced threshold.
    pub degraded: u64,
    /// Queries refused.
    pub rejected: u64,
}

impl AdmissionController {
    /// Creates a controller with the given knobs.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            admitted: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Decides (and counts) what to do with `(query, tau)` against
    /// `index`. An unlimited budget admits without pricing the query;
    /// the query is still checked against the index's width and
    /// `tau_max`, so a malformed one panics its caller either way.
    pub fn evaluate(&self, index: &ShardedIndex, query: &[u64], tau: u32) -> AdmissionDecision {
        if self.cfg.cost_budget == f64::INFINITY {
            index.assert_query(query, tau as usize);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return AdmissionDecision::Admit;
        }
        let estimated_cost = index.estimate_cost(query, tau);
        if estimated_cost <= self.cfg.cost_budget {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return AdmissionDecision::Admit;
        }
        if let OverBudgetPolicy::Degrade { min_tau } = self.cfg.policy {
            if min_tau < tau {
                // Cost is monotone in tau, so binary-search the largest
                // affordable threshold in [min_tau, tau).
                let (mut lo, mut hi) = (min_tau, tau - 1);
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if index.estimate_cost(query, mid) <= self.cfg.cost_budget {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                let degraded_cost = index.estimate_cost(query, lo);
                if degraded_cost <= self.cfg.cost_budget {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    return AdmissionDecision::Degrade {
                        tau: lo,
                        original_tau: tau,
                        estimated_cost: degraded_cost,
                    };
                }
            }
        }
        self.rejected.fetch_add(1, Ordering::Relaxed);
        AdmissionDecision::Reject { estimated_cost, budget: self.cfg.cost_budget }
    }

    /// Decides (and counts) whether a mutation priced at
    /// `estimated_cost` fits the budget. Mutations cannot be degraded —
    /// a partial insert has no meaning — so the verdict is admit or
    /// reject regardless of the over-budget policy.
    pub fn evaluate_mutation(&self, estimated_cost: f64) -> AdmissionDecision {
        if estimated_cost <= self.cfg.cost_budget {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            AdmissionDecision::Admit
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            AdmissionDecision::Reject { estimated_cost, budget: self.cfg.cost_budget }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gph::engine::GphConfig;
    use gph::partition_opt::PartitionStrategy;
    use hamming_core::{BitVector, Dataset};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (ShardedIndex, Vec<u64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ds = Dataset::new(64);
        for _ in 0..600 {
            let v = BitVector::from_bits((0..64).map(|_| rng.random_bool(0.4)));
            ds.push(&v).unwrap();
        }
        let mut cfg = GphConfig::new(4, 16);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 2 };
        let q = ds.row(0).to_vec();
        (ShardedIndex::build(&ds, 2, &cfg).unwrap(), q)
    }

    #[test]
    fn unlimited_budget_admits_everything() {
        let (index, q) = fixture();
        let ctl = AdmissionController::new(AdmissionConfig::default());
        assert!(matches!(ctl.evaluate(&index, &q, 16), AdmissionDecision::Admit));
        assert_eq!(ctl.stats(), AdmissionStats { admitted: 1, degraded: 0, rejected: 0 });
    }

    /// The default budget admits and counts a read without pricing it,
    /// yet checks it as pricing would: a query of the wrong width, or
    /// past `tau_max`, panics inside `evaluate` and counts nothing.
    /// Finite budgets still price: the same read is rejected at a zero
    /// budget and degraded at a budget between two radii' costs.
    #[test]
    fn unlimited_budget_admits_unpriced_but_checks_the_query() {
        let (index, q) = fixture();
        let ctl = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(ctl.evaluate(&index, &q, 16), AdmissionDecision::Admit);
        let wide = [q.as_slice(), &[0]].concat();
        for (query, tau) in [(&q[..0], 8), (wide.as_slice(), 8), (q.as_slice(), 17)] {
            let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctl.evaluate(&index, query, tau)
            }));
            assert!(evaluated.is_err(), "{}-word query at tau {tau} must panic", query.len());
        }
        assert_eq!(ctl.stats(), AdmissionStats { admitted: 1, degraded: 0, rejected: 0 });

        let zero = AdmissionController::new(AdmissionConfig {
            cost_budget: 0.0,
            policy: OverBudgetPolicy::Reject,
        });
        assert!(matches!(zero.evaluate(&index, &q, 16), AdmissionDecision::Reject { .. }));
        let (lo_cost, hi_cost) = (index.estimate_cost(&q, 2), index.estimate_cost(&q, 16));
        assert!(hi_cost > lo_cost, "fixture must have cost spread");
        let between = AdmissionController::new(AdmissionConfig {
            cost_budget: (lo_cost + hi_cost) / 2.0,
            policy: OverBudgetPolicy::Degrade { min_tau: 0 },
        });
        assert!(matches!(between.evaluate(&index, &q, 16), AdmissionDecision::Degrade { .. }));
    }

    #[test]
    fn zero_budget_rejects() {
        let (index, q) = fixture();
        let ctl = AdmissionController::new(AdmissionConfig {
            cost_budget: 0.0,
            policy: OverBudgetPolicy::Reject,
        });
        // tau=16 on a 600-row index always estimates positive cost.
        match ctl.evaluate(&index, &q, 16) {
            AdmissionDecision::Reject { estimated_cost, budget } => {
                assert!(estimated_cost > 0.0);
                assert_eq!(budget, 0.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(ctl.stats().rejected, 1);
    }

    #[test]
    fn degrade_picks_largest_affordable_tau() {
        let (index, q) = fixture();
        // Pick a budget strictly between the cost at tau=2 and tau=16 so
        // degradation has room to act.
        let lo_cost = index.estimate_cost(&q, 2);
        let hi_cost = index.estimate_cost(&q, 16);
        assert!(hi_cost > lo_cost, "fixture must have cost spread");
        let budget = (lo_cost + hi_cost) / 2.0;
        let ctl = AdmissionController::new(AdmissionConfig {
            cost_budget: budget,
            policy: OverBudgetPolicy::Degrade { min_tau: 0 },
        });
        match ctl.evaluate(&index, &q, 16) {
            AdmissionDecision::Admit => {
                // Whole request fit after all (cost curve is flat here).
                assert!(index.estimate_cost(&q, 16) <= budget);
            }
            AdmissionDecision::Degrade { tau, original_tau, estimated_cost } => {
                assert_eq!(original_tau, 16);
                assert!(tau < 16);
                assert!(estimated_cost <= budget);
                // Maximality: the next tau up must exceed the budget.
                assert!(index.estimate_cost(&q, tau + 1) > budget);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mutations_admit_or_reject_never_degrade() {
        let ctl = AdmissionController::new(AdmissionConfig {
            cost_budget: 10.0,
            policy: OverBudgetPolicy::Degrade { min_tau: 0 },
        });
        assert!(matches!(ctl.evaluate_mutation(5.0), AdmissionDecision::Admit));
        // Even under a Degrade policy, an over-budget mutation rejects.
        assert!(matches!(ctl.evaluate_mutation(50.0), AdmissionDecision::Reject { .. }));
        assert_eq!(ctl.stats(), AdmissionStats { admitted: 1, degraded: 0, rejected: 1 });
    }

    #[test]
    fn degrade_with_unaffordable_floor_rejects() {
        let (index, q) = fixture();
        let ctl = AdmissionController::new(AdmissionConfig {
            cost_budget: 0.0,
            policy: OverBudgetPolicy::Degrade { min_tau: 3 },
        });
        assert!(matches!(ctl.evaluate(&index, &q, 16), AdmissionDecision::Reject { .. }));
    }
}
