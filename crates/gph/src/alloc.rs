//! Online threshold allocation — Algorithm 1 (§IV-B).
//!
//! Given the per-partition candidate-number table `CN(qᵢ, e)` of a query,
//! compute the threshold vector `T` with `‖T‖₁ = τ − m + 1`, entries in
//! `[−1, τ]`, minimizing `Σᵢ CN(qᵢ, T[i])` — by the dynamic program
//!
//! ```text
//! OPT[i, t] = min_{e = −1..t+i−1} OPT[i−1, t−e] + CN(qᵢ, e)
//! ```
//!
//! in `O(m · (τ+1)²)` time. A round-robin allocator (the paper's **RR**
//! baseline, Fig. 3) and an exhaustive reference (for tests) accompany it.

use crate::cn::CnTable;
use crate::pigeonhole::ThresholdVector;

/// Which allocator the engine runs per query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocatorKind {
    /// The DP of Algorithm 1 (cost-optimal, general budget `τ − m + 1`).
    Dp,
    /// Round-robin spread of the budget (the **RR** baseline of §VII-C).
    RoundRobin,
    /// Ablation: DP over the *flexible* pigeonhole budget `‖T‖₁ = τ`
    /// (Lemma 2, before the ε-transformation tightens it). Quantifies
    /// what the general principle's `−(m−1)` budget reduction buys.
    DpFlexible,
    /// Ablation: DP with thresholds restricted to `≥ 0` (no partition
    /// skipping). Quantifies what negative thresholds buy; falls back to
    /// the general DP when `τ − m + 1 < 0` makes non-negative vectors
    /// infeasible.
    DpNonNegative,
}

/// Runs the configured allocator.
pub fn allocate(kind: AllocatorKind, cn: &CnTable, tau: u32) -> ThresholdVector {
    match kind {
        AllocatorKind::Dp => allocate_dp(cn, tau),
        AllocatorKind::RoundRobin => allocate_round_robin(cn.m(), tau),
        AllocatorKind::DpFlexible => {
            allocate_dp_budget(cn, tau, tau as i64, -1).expect("flexible budget is always feasible")
        }
        AllocatorKind::DpNonNegative => {
            allocate_dp_budget(cn, tau, tau as i64 - cn.m() as i64 + 1, 0)
                .unwrap_or_else(|| allocate_dp(cn, tau))
        }
    }
}

/// Generalized allocation DP: minimizes `Σ CN(qᵢ, T[i])` subject to
/// `‖T‖₁ = budget` and `T[i] ∈ [min_e, τ]`. Returns `None` when the
/// budget is infeasible for the entry range. Used by the ablation
/// experiments; [`allocate_dp`] is the fast path for the paper's
/// general-budget case.
pub fn allocate_dp_budget(
    cn: &CnTable,
    tau: u32,
    budget: i64,
    min_e: i32,
) -> Option<ThresholdVector> {
    let m = cn.m();
    let tau_i = tau as i32;
    assert!(min_e >= -1, "entries below -1 never change the filter");
    if budget < (m as i64) * min_e as i64 || budget > (m as i64) * tau_i as i64 {
        return None;
    }
    if m == 1 {
        let e = budget as i32;
        return ((min_e..=tau_i).contains(&e)).then(|| ThresholdVector(vec![e]));
    }
    // Row i covers partial sums t ∈ [(i+1)·min_e, min(budget_hi, (i+1)·τ)]
    // where only sums that can still reach `budget` matter:
    // t ≥ budget − (m−1−i)·τ and t ≤ budget − (m−1−i)·min_e.
    let lo_of = |i: usize| -> i64 {
        ((i as i64 + 1) * min_e as i64).max(budget - (m - 1 - i) as i64 * tau_i as i64)
    };
    let hi_of = |i: usize| -> i64 {
        ((i as i64 + 1) * tau_i as i64).min(budget - (m - 1 - i) as i64 * min_e as i64)
    };
    let mut rows_opt: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut rows_path: Vec<Vec<i32>> = Vec::with_capacity(m);
    for i in 0..m {
        let (lo, hi) = (lo_of(i), hi_of(i));
        let w = (hi - lo + 1).max(0) as usize;
        rows_opt.push(vec![f64::INFINITY; w]);
        rows_path.push(vec![min_e; w]);
    }
    {
        let (lo, hi) = (lo_of(0), hi_of(0));
        for t in lo..=hi {
            if (min_e as i64..=tau_i as i64).contains(&t) {
                rows_opt[0][(t - lo) as usize] = cn.get(0, t as i32);
                rows_path[0][(t - lo) as usize] = t as i32;
            }
        }
    }
    for i in 1..m {
        let (lo, hi) = (lo_of(i), hi_of(i));
        let (plo, phi) = (lo_of(i - 1), hi_of(i - 1));
        for t in lo..=hi {
            let mut best = f64::INFINITY;
            let mut best_e = min_e;
            for e in min_e..=tau_i {
                let rest = t - e as i64;
                if rest < plo || rest > phi {
                    continue;
                }
                let prior = rows_opt[i - 1][(rest - plo) as usize];
                let c = prior + cn.get(i, e);
                if c < best {
                    best = c;
                    best_e = e;
                }
            }
            rows_opt[i][(t - lo) as usize] = best;
            rows_path[i][(t - lo) as usize] = best_e;
        }
    }
    let (last_lo, last_hi) = (lo_of(m - 1), hi_of(m - 1));
    if budget < last_lo || budget > last_hi {
        return None;
    }
    if !rows_opt[m - 1][(budget - last_lo) as usize].is_finite() {
        return None;
    }
    let mut t = budget;
    let mut out = vec![0i32; m];
    for i in (0..m).rev() {
        let e = rows_path[i][(t - lo_of(i)) as usize];
        out[i] = e;
        t -= e as i64;
    }
    debug_assert_eq!(t, 0);
    Some(ThresholdVector(out))
}

/// Algorithm 1: DP threshold allocation minimizing `Σ CN(qᵢ, τᵢ)`
/// subject to `‖T‖₁ = τ − m + 1`, `T[i] ∈ [−1, τ]`.
///
/// Row `i` of `OPT` covers partial sums `t ∈ [−i, τ − i + 1]`; both
/// bounds are tight (all entries −1, resp. maximal remaining budget), so
/// each row is exactly `τ + 2` wide with offset `i`.
///
/// The paper's Example 5 (four partitions, τ = 7, budget 4):
///
/// ```
/// use gph::alloc::allocate_dp;
/// use gph::cn::{CnEstimator, CnTable};
///
/// struct PaperTable;
/// impl CnEstimator for PaperTable {
///     fn fill(&self, part: usize, _q: &[u64], tau: usize, out: &mut [f64]) {
///         let rows = [
///             [0., 5., 10., 15., 50., 100.],
///             [0., 10., 80., 90., 95., 100.],
///             [0., 5., 15., 20., 70., 100.],
///             [0., 10., 70., 80., 95., 100.],
///         ];
///         for e in 0..=tau + 1 {
///             out[e] = rows[part][e.min(5)];
///         }
///     }
///     fn size_bytes(&self) -> usize { 0 }
/// }
///
/// let q: Vec<Vec<u64>> = vec![vec![0]; 4];
/// let cn = CnTable::compute(&PaperTable, &q, 7);
/// let t = allocate_dp(&cn, 7);
/// assert_eq!(t.0, vec![2, 0, 2, 0]);     // the boldface path
/// assert_eq!(cn.sum_for(&t), 55.0);      // OPT[4, 4] = 55
/// ```
pub fn allocate_dp(cn: &CnTable, tau: u32) -> ThresholdVector {
    assert!(cn.tau() as u32 >= tau, "CN table covers tau <= {}, asked {tau}", cn.tau());
    let m = cn.m();
    let width = tau as usize + 2;
    let mut path = vec![0i32; m * width];
    dp_fill(m, tau, |i| cn.row(i), &mut Vec::new(), Some(&mut path), 0);
    // Trace back from t = τ − m + 1.
    let mut t = tau as i32 - m as i32 + 1;
    let mut out = vec![0i32; m];
    for i in (0..m).rev() {
        let e = path[i * width + (t + i as i32 + 1) as usize];
        out[i] = e;
        t -= e;
    }
    debug_assert_eq!(t, 0);
    let tv = ThresholdVector(out);
    debug_assert!(tv.satisfies_general_budget(tau));
    tv
}

/// Minimum `Σ CN` over all general-budget threshold vectors: the DP of
/// [`allocate_dp`] without its argmin path, over `m` partition CN rows
/// given directly (`row(i)[e + 1] = CN(qᵢ, e)`, `row(i)\[0\]` being the
/// `e = −1` slot, conventionally 0). Rows shorter than `τ + 2` are
/// clamped at their last entry. Used by the offline partitioner, which
/// scores thousands of candidate partitionings and cannot afford
/// materializing a [`CnTable`] per evaluation.
///
/// `opt` is the DP table, `m` rows of `τ + 2`: once it has grown, a call
/// allocates nothing. Rows below `start` are taken as they are, so a
/// caller that changes only rows `start..m` of an earlier call at the
/// same `m` and τ reuses its prefix and gets the same sums.
pub fn dp_min_cost_rows<'r>(
    m: usize,
    tau: u32,
    row: impl Fn(usize) -> &'r [f64],
    opt: &mut Vec<f64>,
    start: usize,
) -> f64 {
    dp_fill(m, tau, row, opt, None, start)
}

/// Row lookup with tail clamping.
#[inline]
fn row_cn(row: &[f64], e: i32) -> f64 {
    debug_assert!(e >= -1);
    let idx = (e + 1) as usize;
    row[idx.min(row.len() - 1)]
}

/// The DP over `m ≥ 1` rows: returns the minimum cost at `t = τ − m + 1`,
/// leaving `opt[i][t + i + 1]` = the minimum cost over partitions
/// `0..=i` with partial sum `t` (rows `τ + 2` wide, every entry written)
/// and, when asked, each entry's argmin in `path`. Rows below `start`
/// are kept as the caller left them. One partition takes the whole
/// budget.
fn dp_fill<'r>(
    m: usize,
    tau: u32,
    row: impl Fn(usize) -> &'r [f64],
    opt: &mut Vec<f64>,
    mut path: Option<&mut [i32]>,
    start: usize,
) -> f64 {
    assert!(m >= 1, "need at least one partition");
    let tau_i = tau as i32;
    let width = tau as usize + 2;
    opt.resize(m * width, f64::INFINITY);
    if start == 0 {
        // Row 0 (paper's i = 1): OPT[0, t] = CN(q_0, t), t ∈ [−1, τ].
        let row0 = row(0);
        for t in -1..=tau_i {
            let idx = (t + 1) as usize;
            opt[idx] = row_cn(row0, t);
            if let Some(path) = path.as_deref_mut() {
                path[idx] = t;
            }
        }
    }
    for i in start.max(1)..m {
        let (prev_opt, cur) = opt.split_at_mut(i * width);
        let prev_opt = &prev_opt[(i - 1) * width..];
        let cur = &mut cur[..width];
        let cn_row = row(i);
        for t in -(i as i32 + 1)..=(tau_i - i as i32) {
            let idx = (t + i as i32 + 1) as usize;
            // e ∈ [e_lo, e_hi]: rest = t − e must lie in [−i, τ − i + 1],
            // e itself in [−1, τ].
            let e_lo = (t - (tau_i - i as i32 + 1)).max(-1);
            let e_hi = (t + i as i32).min(tau_i);
            let mut best = f64::INFINITY;
            let mut best_e = e_lo;
            for e in e_lo..=e_hi {
                // prior index for e: (t − e) + (i−1) + 1 = t − e + i.
                let prior_idx = (t - e + i as i32) as usize;
                let c = prev_opt[prior_idx] + row_cn(cn_row, e);
                if c < best {
                    best = c;
                    best_e = e;
                }
            }
            cur[idx] = best;
            if let Some(path) = path.as_deref_mut() {
                path[i * width + idx] = best_e;
            }
        }
    }
    // The last row at t = τ − m + 1.
    opt[(m - 1) * width + (tau_i + 1) as usize]
}

/// Minimum estimated `Σ CN` achieved by the DP (Fig. 3's "estimated
/// cost" series, up to the constant coefficient of Eq. 1).
pub fn dp_cost(cn: &CnTable, tau: u32) -> f64 {
    let t = allocate_dp(cn, tau);
    cn.sum_for(&t)
}

/// The **RR** baseline: spread the general budget `τ − m + 1` evenly.
/// Every partition starts at −1 and τ + 1 increments are dealt round-
/// robin, so `T[i] ∈ {⌈(τ+1)/m⌉ − 1, ⌊(τ+1)/m⌋ − 1}` and
/// `‖T‖₁ = τ − m + 1`.
pub fn allocate_round_robin(m: usize, tau: u32) -> ThresholdVector {
    assert!(m >= 1);
    let units = tau as usize + 1;
    let base = units / m;
    let extra = units % m;
    let t: Vec<i32> = (0..m).map(|i| base as i32 + i32::from(i < extra) - 1).collect();
    let tv = ThresholdVector(t);
    debug_assert!(tv.satisfies_general_budget(tau));
    tv
}

/// Exhaustive reference allocator: tries **every** vector with the
/// general budget and entries in `[−1, τ]`. Exponential — test use only.
pub fn allocate_exhaustive(cn: &CnTable, tau: u32) -> (ThresholdVector, f64) {
    let m = cn.m();
    let budget = tau as i32 - m as i32 + 1;
    let mut best: Option<(Vec<i32>, f64)> = None;
    let mut cur = vec![0i32; m];
    fn rec(
        cn: &CnTable,
        cur: &mut Vec<i32>,
        i: usize,
        remaining: i32,
        tau: i32,
        best: &mut Option<(Vec<i32>, f64)>,
    ) {
        let m = cn.m();
        if i == m - 1 {
            if !(-1..=tau).contains(&remaining) {
                return;
            }
            cur[i] = remaining;
            let cost: f64 = cur.iter().enumerate().map(|(j, &e)| cn.get(j, e)).sum();
            if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                *best = Some((cur.clone(), cost));
            }
            return;
        }
        for e in -1..=tau {
            // Remaining partitions can sum within [-(m-i-1), (m-i-1)*tau].
            let left = remaining - e;
            let parts_left = (m - i - 1) as i32;
            if left < -parts_left || left > parts_left * tau {
                continue;
            }
            cur[i] = e;
            rec(cn, cur, i + 1, left, tau, best);
        }
    }
    rec(cn, &mut cur, 0, budget, tau as i32, &mut best);
    let (v, c) = best.expect("budget is always feasible");
    (ThresholdVector(v), c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnEstimator, CnTable};

    /// Builds a CnTable directly from explicit per-partition rows
    /// (`rows[i][e+1]`, e from −1).
    fn table_from(rows: &[Vec<f64>], tau: usize) -> CnTable {
        struct Fixed(Vec<Vec<f64>>);
        impl CnEstimator for Fixed {
            fn fill(&self, part: usize, _q: &[u64], tau: usize, out: &mut [f64]) {
                for e in 0..=tau + 1 {
                    let row = &self.0[part];
                    out[e] = row[e.min(row.len() - 1)];
                }
            }
            fn size_bytes(&self) -> usize {
                0
            }
        }
        let est = Fixed(rows.to_vec());
        let q: Vec<Vec<u64>> = rows.iter().map(|_| vec![0u64]).collect();
        CnTable::compute(&est, &q, tau)
    }

    /// Example 5 of the paper: 4 partitions, τ = 7, budget 4.
    fn example5() -> CnTable {
        table_from(
            &[
                vec![0., 5., 10., 15., 50., 100.],
                vec![0., 10., 80., 90., 95., 100.],
                vec![0., 5., 15., 20., 70., 100.],
                vec![0., 10., 70., 80., 95., 100.],
            ],
            7,
        )
    }

    #[test]
    fn paper_example_5() {
        let cn = example5();
        let t = allocate_dp(&cn, 7);
        assert_eq!(t.0, vec![2, 0, 2, 0], "paper's traced path");
        assert_eq!(cn.sum_for(&t), 55.0, "OPT[4, 4] = 55");
        assert!(t.satisfies_general_budget(7));
    }

    #[test]
    fn dp_matches_exhaustive_on_example5() {
        let cn = example5();
        let (_, best) = allocate_exhaustive(&cn, 7);
        assert_eq!(best, 55.0);
        assert_eq!(dp_cost(&cn, 7), best);
    }

    #[test]
    fn dp_matches_exhaustive_randomized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        for trial in 0..60 {
            let m = rng.random_range(1..=4usize);
            let tau = rng.random_range(0..=8u32);
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    let mut row = vec![0.0];
                    let mut acc = 0.0f64;
                    for _ in 0..=tau {
                        acc += rng.random_range(0.0..20.0);
                        row.push(acc.floor());
                    }
                    row
                })
                .collect();
            let cn = table_from(&rows, tau as usize);
            let dp = allocate_dp(&cn, tau);
            let (_, best) = allocate_exhaustive(&cn, tau);
            assert!(
                (cn.sum_for(&dp) - best).abs() < 1e-9,
                "trial {trial}: m={m} tau={tau} dp={} best={best}",
                cn.sum_for(&dp)
            );
            assert!(dp.satisfies_general_budget(tau));
        }
    }

    #[test]
    fn negative_thresholds_skip_expensive_partitions() {
        // Partition 1 is catastrophically unselective; DP should assign
        // it −1 whenever the budget allows.
        let cn = table_from(
            &[vec![0., 1., 2., 3., 4., 5.], vec![0., 1000., 1000., 1000., 1000., 1000.]],
            4,
        );
        let t = allocate_dp(&cn, 4);
        assert_eq!(t.0[1], -1);
        assert_eq!(t.0[0], 4); // budget τ−m+1 = 3 = 4 + (−1)
    }

    #[test]
    fn single_partition_gets_full_tau() {
        let cn = table_from(&[vec![0., 1., 2., 3.]], 2);
        assert_eq!(allocate_dp(&cn, 2).0, vec![2]);
    }

    #[test]
    fn flexible_budget_allocates_tau_total() {
        let cn = example5();
        let tv = allocate_dp_budget(&cn, 7, 7, -1).unwrap();
        assert_eq!(tv.sum(), 7);
        // Flexible cost can never beat the general budget's filter on
        // candidates, but its DP cost is well-defined and >= general's
        // optimum only in candidate terms — here just check feasibility
        // and entry ranges.
        assert!(tv.0.iter().all(|&e| (-1..=7).contains(&e)));
    }

    #[test]
    fn general_dominates_flexible_cost() {
        // With the same CN table, the general budget (smaller sum) can
        // only lower the optimal Σ CN.
        let cn = example5();
        let general = allocate_dp(&cn, 7);
        let flexible = allocate_dp_budget(&cn, 7, 7, -1).unwrap();
        assert!(cn.sum_for(&general) <= cn.sum_for(&flexible));
    }

    #[test]
    fn nonneg_variant_matches_exhaustive_over_nonneg_vectors() {
        let cn = example5();
        // budget = 4, entries >= 0.
        let got = allocate_dp_budget(&cn, 7, 4, 0).unwrap();
        assert_eq!(got.sum(), 4);
        assert!(got.0.iter().all(|&e| e >= 0));
        // Brute force over all non-negative vectors summing to 4.
        let mut best = f64::INFINITY;
        for a in 0..=4i32 {
            for b in 0..=4 - a {
                for c in 0..=4 - a - b {
                    let d = 4 - a - b - c;
                    let t = ThresholdVector(vec![a, b, c, d]);
                    best = best.min(cn.sum_for(&t));
                }
            }
        }
        assert_eq!(cn.sum_for(&got), best);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let cn = example5();
        // 4 partitions, entries >= 0 cannot sum to -1.
        assert!(allocate_dp_budget(&cn, 7, -1, 0).is_none());
        // Entries <= tau cannot sum past m*tau.
        assert!(allocate_dp_budget(&cn, 7, 100, -1).is_none());
    }

    #[test]
    fn allocate_dispatches_ablation_kinds() {
        let cn = example5();
        let flex = allocate(AllocatorKind::DpFlexible, &cn, 7);
        assert_eq!(flex.sum(), 7);
        let nn = allocate(AllocatorKind::DpNonNegative, &cn, 7);
        assert_eq!(nn.sum(), 4);
        assert!(nn.0.iter().all(|&e| e >= 0));
        // m > tau + 1 -> non-negative infeasible -> falls back to general.
        let cn2 = table_from(&vec![vec![0., 1., 2.]; 5], 2);
        let nn2 = allocate(AllocatorKind::DpNonNegative, &cn2, 2);
        assert!(nn2.satisfies_general_budget(2));
    }

    #[test]
    fn round_robin_budget_and_spread() {
        // τ=9, m=3 -> units=10: [4,3,3] − 1 = [3,2,2]; sum = 7 = 9−3+1.
        let t = allocate_round_robin(3, 9);
        assert_eq!(t.0, vec![3, 2, 2]);
        assert!(t.satisfies_general_budget(9));
        // τ=2, m=4 -> units 3: [0,0,0,-1]; sum = -1 = 2-4+1.
        let t2 = allocate_round_robin(4, 2);
        assert_eq!(t2.0, vec![0, 0, 0, -1]);
        assert!(t2.satisfies_general_budget(2));
    }

    #[test]
    fn dp_never_worse_than_round_robin() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for _ in 0..40 {
            let m = rng.random_range(1..=6usize);
            let tau = rng.random_range(0..=10u32);
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    let mut row = vec![0.0];
                    let mut acc = 0.0;
                    for _ in 0..=tau {
                        acc += rng.random_range(0.0..50.0);
                        row.push(acc);
                    }
                    row
                })
                .collect();
            let cn = table_from(&rows, tau as usize);
            let dp = allocate_dp(&cn, tau);
            let rr = allocate_round_robin(m, tau);
            assert!(cn.sum_for(&dp) <= cn.sum_for(&rr) + 1e-9);
        }
    }
}
