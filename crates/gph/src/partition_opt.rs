//! Offline dimension partitioning — §V (Algorithm 2) plus every baseline
//! strategy compared in Fig. 4.
//!
//! The dimension partitioning problem (minimize workload query cost under
//! the general pigeonhole principle) is NP-hard (Lemma 5, by reduction
//! from number partitioning), so GPH uses a heuristic:
//!
//! 1. **Initialization** (§V-C): greedy *entropy minimization* — grow each
//!    partition by repeatedly adding the dimension that keeps the
//!    partition's projected-value entropy lowest. Correlated dimensions
//!    end up together, the *opposite* of prior work, so the online
//!    allocator can exploit per-partition selectivity differences.
//! 2. **Refinement** (Algorithm 2): hill climbing over single-dimension
//!    moves; each candidate partitioning is scored by the summed
//!    DP-allocated cost of a query workload (Equation 2), with candidate
//!    numbers from distance histograms over a data sample.
//!
//! Scoring is incremental. A full evaluation keeps, per (query,
//! partition), the count of sample rows within each distance `e ≤ τ`
//! and one bitset per distance level `a ≤ τ + 1` marking the rows at
//! exactly `a`. Moving dimension `d` touches two partitions, and each of
//! their CN entries changes by one popcount against `d`'s query/sample
//! diff mask: in the source, `within[e] + |level[e + 1] & diff[d]|`; in
//! the target, `within[e] − |level[e] & diff[d]|`. The counts are exact
//! integers and the DP (cost only, no argmin) runs the same `f64`
//! operations in the same order, reusing the rows below the first moved
//! partition, so a move scores bit-identically to a full evaluation of
//! the moved partitioning.

use crate::alloc::dp_min_cost_rows;
use hamming_core::error::{HammingError, Result};
use hamming_core::stats::{ColumnBits, DimStats};
use hamming_core::{Dataset, Partitioning};
use rand::seq::index::sample as rand_sample;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How the engine obtains its partitioning (Fig. 4's strategies).
#[derive(Clone, Debug)]
pub enum PartitionStrategy {
    /// **OR**: equi-width over the original dimension order.
    Original,
    /// **RS**: random shuffle, then equi-width.
    RandomShuffle {
        /// Shuffle seed.
        seed: u64,
    },
    /// **OS**: skew-balancing rearrangement (HmSearch-style).
    Os,
    /// **DD**: correlation-minimizing rearrangement (data-driven MIH).
    Dd,
    /// **GR**: the paper's heuristic (greedy entropy init + cost-driven
    /// hill climbing).
    Heuristic(HeuristicConfig),
    /// A caller-supplied partitioning (bypasses all strategies).
    Fixed(Partitioning),
}

impl Default for PartitionStrategy {
    fn default() -> Self {
        PartitionStrategy::Heuristic(HeuristicConfig::default())
    }
}

/// Initial state for the hill climber (Fig. 4(b)'s comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitKind {
    /// Entropy-minimizing greedy (the paper's **GreedyInit**).
    Greedy,
    /// Equi-width over the original order (**OriginalInit**).
    Original,
    /// Equi-width after a random shuffle (**RandomInit**).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

/// Configuration of the GR heuristic.
#[derive(Clone, Debug)]
pub struct HeuristicConfig {
    /// Initialization strategy.
    pub init: InitKind,
    /// Maximum hill-climbing iterations (each applies one best move; the
    /// paper iterates to a local optimum — cap for laptop-scale runs).
    pub max_iters: usize,
    /// Maximum candidate `(dimension, target)` moves evaluated per
    /// iteration. `None` evaluates all `n·(m−1)` (paper-faithful); large
    /// `n·m` products want a sampled sweep.
    pub move_budget: Option<usize>,
    /// Rows sampled from the data for CN histograms.
    pub sample_rows: usize,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            init: InitKind::Greedy,
            max_iters: 6,
            move_budget: Some(2048),
            sample_rows: 1000,
            seed: 0xF00D,
        }
    }
}

/// A query workload `Q` with per-query thresholds (Equation 2).
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Workload queries (the paper samples 100 data vectors).
    pub queries: Dataset,
    /// Thresholds, cycled over the queries; covering a range of τ values
    /// lets one partitioning serve all runtime thresholds (§V-B).
    pub taus: Vec<u32>,
}

impl WorkloadSpec {
    /// Builds a workload by sampling `count` rows from `data` and cycling
    /// the given thresholds.
    pub fn from_sample(data: &Dataset, count: usize, taus: Vec<u32>, seed: u64) -> Self {
        assert!(!taus.is_empty(), "need at least one threshold");
        let take = count.min(data.len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids: Vec<usize> = rand_sample(&mut rng, data.len(), take).into_iter().collect();
        let mut queries = Dataset::new(data.dim());
        for id in ids {
            queries.push(&data.vector(id)).expect("same dimensionality");
        }
        WorkloadSpec { queries, taus }
    }

    /// Builds a workload from an explicit query set.
    pub fn new(queries: Dataset, taus: Vec<u32>) -> Self {
        assert!(!taus.is_empty(), "need at least one threshold");
        WorkloadSpec { queries, taus }
    }

    /// Threshold for workload query `qi`.
    pub fn tau_of(&self, qi: usize) -> u32 {
        self.taus[qi % self.taus.len()]
    }
}

/// Builds a partitioning for `data` under the chosen strategy.
///
/// `workload` is required by [`PartitionStrategy::Heuristic`]; other
/// strategies ignore it.
pub fn build_partitioning(
    data: &Dataset,
    m: usize,
    strategy: &PartitionStrategy,
    workload: Option<&WorkloadSpec>,
) -> Result<Partitioning> {
    let dim = data.dim();
    match strategy {
        PartitionStrategy::Original => Partitioning::equi_width(dim, m),
        PartitionStrategy::RandomShuffle { seed } => Partitioning::random_shuffle(dim, m, *seed),
        PartitionStrategy::Os => {
            let stats = DimStats::compute(data);
            Partitioning::os_rearrangement(&stats, m)
        }
        PartitionStrategy::Dd => {
            let sample = sample_ids(data.len(), 2000, 0xDD);
            let cols = ColumnBits::from_sample(data, &sample);
            Partitioning::dd_rearrangement(&cols, m)
        }
        PartitionStrategy::Heuristic(cfg) => {
            let wl = workload.ok_or_else(|| {
                HammingError::InvalidParameter(
                    "the GR heuristic needs a query workload (WorkloadSpec)".into(),
                )
            })?;
            heuristic_partition(data, wl, m, cfg)
        }
        PartitionStrategy::Fixed(p) => {
            if p.dim() != dim {
                return Err(HammingError::DimensionMismatch { expected: dim, actual: p.dim() });
            }
            Ok(p.clone())
        }
    }
}

fn sample_ids(n: usize, cap: usize, seed: u64) -> Vec<usize> {
    if n <= cap {
        (0..n).collect()
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids: Vec<usize> = rand_sample(&mut rng, n, cap).into_iter().collect();
        ids.sort_unstable();
        ids
    }
}

/// Packs, per dimension, the sampled rows' bits into `⌈s/64⌉` words.
fn pack_dim_bits(data: &Dataset, ids: &[usize]) -> Vec<Vec<u64>> {
    let s = ids.len();
    let words = s.div_ceil(64);
    let dim = data.dim();
    let mut dim_bits: Vec<Vec<u64>> = vec![vec![0u64; words]; dim];
    for (r, &id) in ids.iter().enumerate() {
        let row = data.row(id);
        for (wi, &w) in row.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                dim_bits[wi * 64 + b][r / 64] |= 1u64 << (r % 64);
                bits &= bits - 1;
            }
        }
    }
    dim_bits
}

// ---------------------------------------------------------------------
// Greedy entropy initialization (§V-C)
// ---------------------------------------------------------------------

/// Greedy equi-width initialization minimizing per-partition entropy.
///
/// Maintains, per sample row, its equivalence class under the partition's
/// current dimensions; adding a candidate dimension refines classes by the
/// row's bit, so each candidate is scored in `O(|S|)` without hashing.
pub fn greedy_entropy_init(
    data: &Dataset,
    m: usize,
    sample_rows: usize,
    seed: u64,
) -> Result<Partitioning> {
    let dim = data.dim();
    if m == 0 || m > dim.max(1) {
        return Err(HammingError::InvalidParameter(format!(
            "partition count m={m} invalid for dim={dim}"
        )));
    }
    let ids = sample_ids(data.len(), sample_rows, seed);
    let s = ids.len();
    let dim_bits = pack_dim_bits(data, &ids);
    let base = dim / m;
    let extra = dim % m;
    let mut unassigned: Vec<usize> = (0..dim).collect();
    let mut parts: Vec<Vec<u32>> = Vec::with_capacity(m);
    for pi in 0..m {
        let target = base + usize::from(pi < extra);
        let mut classes: Vec<u32> = vec![0; s];
        let mut n_classes = 1usize;
        let mut part: Vec<u32> = Vec::with_capacity(target);
        for _ in 0..target {
            // Score each candidate dimension by the refined entropy.
            let mut best_d_pos = 0usize;
            let mut best_h = f64::INFINITY;
            let mut counts = vec![0u32; 2 * n_classes];
            for (pos, &d) in unassigned.iter().enumerate() {
                counts.iter_mut().for_each(|c| *c = 0);
                let bits = &dim_bits[d];
                for (r, &cl) in classes.iter().enumerate() {
                    let b = (bits[r / 64] >> (r % 64)) & 1;
                    counts[cl as usize * 2 + b as usize] += 1;
                }
                let mut h = 0.0f64;
                for &c in &counts {
                    if c > 0 {
                        let p = c as f64 / s.max(1) as f64;
                        h -= p * p.log2();
                    }
                }
                if h < best_h {
                    best_h = h;
                    best_d_pos = pos;
                }
            }
            let d = unassigned.swap_remove(best_d_pos);
            part.push(d as u32);
            // Refine classes with the chosen dimension, renumber densely.
            let bits = &dim_bits[d];
            let mut remap = vec![u32::MAX; 2 * n_classes];
            let mut next = 0u32;
            for (r, cl) in classes.iter_mut().enumerate() {
                let b = (bits[r / 64] >> (r % 64)) & 1;
                let key = (*cl as usize) * 2 + b as usize;
                if remap[key] == u32::MAX {
                    remap[key] = next;
                    next += 1;
                }
                *cl = remap[key];
            }
            n_classes = next as usize;
        }
        parts.push(part);
    }
    debug_assert!(unassigned.is_empty());
    Partitioning::new(dim, parts)
}

// ---------------------------------------------------------------------
// Workload cost evaluation + hill climbing (Algorithm 2)
// ---------------------------------------------------------------------

/// Cached per-(query, dimension) difference masks against the data
/// sample, from which per-partition distance levels, CN rows, and the
/// DP cost are derived.
struct Evaluator {
    /// Sample row count.
    s: usize,
    /// Data cardinality (scale factor numerator).
    n_total: usize,
    /// `diff[q][d]`: packed bitmask over sample rows where query `q` and
    /// the row differ on dimension `d`.
    diff: Vec<Vec<Vec<u64>>>,
    /// Per-query thresholds.
    taus: Vec<u32>,
}

impl Evaluator {
    fn new(data: &Dataset, wl: &WorkloadSpec, sample_rows: usize, seed: u64) -> Self {
        let ids = sample_ids(data.len(), sample_rows, seed);
        let s = ids.len();
        let words = s.div_ceil(64);
        let dim_bits = pack_dim_bits(data, &ids);
        let nq = wl.queries.len();
        let tail_mask = if s.is_multiple_of(64) { u64::MAX } else { (1u64 << (s % 64)) - 1 };
        let mut diff = Vec::with_capacity(nq);
        for qi in 0..nq {
            let qrow = wl.queries.row(qi);
            let mut per_dim = Vec::with_capacity(data.dim());
            for (d, col) in dim_bits.iter().enumerate() {
                let qbit = (qrow[d / 64] >> (d % 64)) & 1 == 1;
                let mut v = col.clone();
                if qbit {
                    for (wi, w) in v.iter_mut().enumerate() {
                        *w = !*w;
                        if wi == words.saturating_sub(1) {
                            *w &= tail_mask;
                        }
                    }
                }
                per_dim.push(v);
            }
            diff.push(per_dim);
        }
        let taus = (0..nq).map(|qi| wl.tau_of(qi)).collect();
        Evaluator { s, n_total: data.len(), diff, taus }
    }

    /// Distance array of query `q` to every sample row over the given
    /// partition dimensions.
    fn distances(&self, q: usize, dims: &[u32], out: &mut [u16]) {
        out.iter_mut().for_each(|d| *d = 0);
        for &d in dims {
            for (wi, &bits0) in self.diff[q][d as usize].iter().enumerate() {
                let mut bits = bits0;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    out[wi * 64 + b] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// `N / |S|`: what one sample row counts for.
    fn scale(&self) -> f64 {
        if self.s == 0 {
            0.0
        } else {
            self.n_total as f64 / self.s as f64
        }
    }

    /// Workload cost (Eq. 2) of a full partitioning: Σ_q DP-min Σ CN.
    /// Leaves in `cache` what [`Evaluator::move_cost`] scores moves from.
    fn full_cost(&self, p: &Partitioning, cache: &mut CostCache) -> f64 {
        let m = p.num_parts();
        let words = self.s.div_ceil(64);
        cache.m = m;
        cache.slots.resize_with(self.diff.len() * m, Slot::default);
        cache.opts.resize_with(self.diff.len(), Vec::new);
        let mut dist = vec![0u16; self.s];
        let mut total = 0.0;
        for q in 0..self.diff.len() {
            let tau = self.taus[q] as usize;
            for i in 0..m {
                self.distances(q, p.part(i), &mut dist);
                let Slot { levels, within, row } = &mut cache.slots[q * m + i];
                levels.clear();
                levels.resize((tau + 2) * words, 0);
                for (r, &d) in dist.iter().enumerate() {
                    if d as usize <= tau + 1 {
                        levels[d as usize * words + r / 64] |= 1 << (r % 64);
                    }
                }
                within.clear();
                let mut acc = 0u32;
                for e in 0..=tau {
                    acc += levels[e * words..][..words].iter().map(|w| w.count_ones()).sum::<u32>();
                    within.push(acc);
                }
                fill_row(row, tau, self.scale(), |e| within[e]);
            }
            let query = &cache.slots[q * m..][..m];
            let opt = &mut cache.opts[q];
            total += dp_min_cost_rows(m, tau as u32, |i| &query[i].row, opt, 0);
        }
        total
    }

    /// Cost after hypothetically moving dimension `d` from partition
    /// `from` to `to`, bit-identical to [`Evaluator::full_cost`] of the
    /// moved partitioning. Only those two partitions' CN rows change,
    /// each entry by one popcount: the sample rows that differ from the
    /// query on `d` drop one level in `from` and climb one in `to`.
    fn move_cost(&self, cache: &mut CostCache, (d, from, to): (u32, usize, usize)) -> f64 {
        let words = self.s.div_ceil(64);
        let CostCache { m, slots, opts, opt, moved } = cache;
        let (from_row, to_row) = moved;
        // The DP rows below the first moved partition are the base's.
        let start = from.min(to);
        let mut total = 0.0;
        for (q, query) in slots.chunks_exact(*m).enumerate() {
            let tau = self.taus[q] as usize;
            let mask = &self.diff[q][d as usize];
            // Sample rows at `level` that differ from the query on `d`.
            let moving = |level: &[u64]| -> u32 {
                level.iter().zip(mask).map(|(l, k)| (l & k).count_ones()).sum()
            };
            let (f, t) = (&query[from], &query[to]);
            // Rows one level above `e` in `from` come down within it.
            fill_row(from_row, tau, self.scale(), |e| {
                f.within[e] + moving(&f.levels[(e + 1) * words..][..words])
            });
            // Rows at level `e` in `to` climb past it.
            fill_row(to_row, tau, self.scale(), |e| {
                t.within[e] - moving(&t.levels[e * words..][..words])
            });
            let (from_row, to_row): (&[f64], &[f64]) = (from_row, to_row);
            let row = |i: usize| {
                if i == from {
                    from_row
                } else if i == to {
                    to_row
                } else {
                    &query[i].row[..]
                }
            };
            let width = tau + 2;
            opt.clear();
            opt.extend_from_slice(&opts[q][..start * width]);
            total += dp_min_cost_rows(*m, tau as u32, row, opt, start);
        }
        total
    }
}

/// A CN row from the counts of sample rows within each distance
/// `e ≤ τ`: `row[0] = 0` (the `e = −1` slot), `row[e + 1] = within(e) ·
/// scale`.
fn fill_row(row: &mut Vec<f64>, tau: usize, scale: f64, within: impl Fn(usize) -> u32) {
    row.clear();
    row.push(0.0);
    row.extend((0..=tau).map(|e| within(e) as f64 * scale));
}

/// What [`Evaluator::full_cost`] leaves for one (query, partition).
#[derive(Default)]
struct Slot {
    /// `τ + 2` bitsets over the sample rows, one per distance `0..=τ + 1`:
    /// the rows at exactly that distance from the query on the
    /// partition's dimensions.
    levels: Vec<u64>,
    /// `within[e]`: sample rows within distance `e ≤ τ`.
    within: Vec<u32>,
    /// The CN row ([`fill_row`] of `within`).
    row: Vec<f64>,
}

/// Per-(query, partition) slots of the current partitioning, plus the
/// scratch a move is scored in.
#[derive(Default)]
struct CostCache {
    m: usize,
    /// `slots[q * m + i]`.
    slots: Vec<Slot>,
    /// Per query, the DP table of the current partitioning.
    opts: Vec<Vec<f64>>,
    /// The DP table of a move.
    opt: Vec<f64>,
    /// The moved `from` and `to` rows.
    moved: (Vec<f64>, Vec<f64>),
}

/// Algorithm 2: hill-climbing partition refinement over a workload.
pub fn heuristic_partition(
    data: &Dataset,
    wl: &WorkloadSpec,
    m: usize,
    cfg: &HeuristicConfig,
) -> Result<Partitioning> {
    if wl.queries.is_empty() {
        return Err(HammingError::InvalidParameter("workload has no queries".into()));
    }
    if wl.queries.dim() != data.dim() {
        return Err(HammingError::DimensionMismatch {
            expected: data.dim(),
            actual: wl.queries.dim(),
        });
    }
    let mut p = match cfg.init {
        InitKind::Greedy => greedy_entropy_init(data, m, cfg.sample_rows, cfg.seed)?,
        InitKind::Original => Partitioning::equi_width(data.dim(), m)?,
        InitKind::Random { seed } => Partitioning::random_shuffle(data.dim(), m, seed)?,
    };
    let eval = Evaluator::new(data, wl, cfg.sample_rows, cfg.seed ^ 0x5151);
    let mut cache = CostCache::default();
    let mut cmin = eval.full_cost(&p, &mut cache);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xC11B);
    for _iter in 0..cfg.max_iters {
        // Enumerate candidate moves: (dim, source, target partition).
        let assignment = p.assignment();
        let mut moves: Vec<(u32, usize, usize)> = Vec::new();
        for (d, &from) in assignment.iter().enumerate() {
            if p.part(from).len() <= 1 {
                continue; // keep partitions nonempty
            }
            for to in 0..m {
                if to != from {
                    moves.push((d as u32, from, to));
                }
            }
        }
        if let Some(budget) = cfg.move_budget {
            if moves.len() > budget {
                // Sampled sweep: uniformly choose `budget` moves.
                for i in 0..budget {
                    let j = rng.random_range(i..moves.len());
                    moves.swap(i, j);
                }
                moves.truncate(budget);
            }
        }
        let mut best: Option<((u32, usize, usize), f64)> = None;
        for &mv in &moves {
            let c = eval.move_cost(&mut cache, mv);
            if c < cmin - 1e-9 && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((mv, c));
            }
        }
        let Some(((d, from, to), _)) = best else {
            break; // local optimum
        };
        p.move_dim(d, from, to).expect("move was derived from assignment");
        // Rebuild the cache for the new base partitioning.
        cmin = eval.full_cost(&p, &mut cache);
    }
    Ok(p)
}

/// Workload cost of an arbitrary partitioning under the evaluator's model
/// (public for the Fig. 3/4 experiments, which report estimated costs).
pub fn workload_cost(
    data: &Dataset,
    wl: &WorkloadSpec,
    p: &Partitioning,
    sample_rows: usize,
    seed: u64,
) -> f64 {
    let eval = Evaluator::new(data, wl, sample_rows, seed);
    eval.full_cost(p, &mut CostCache::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::BitVector;

    /// Dataset with two perfectly correlated halves: dims 0..8 follow a
    /// latent bit, dims 8..16 are independent coin flips.
    fn correlated_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(16);
        for _ in 0..n {
            let latent = rng.random_bool(0.5);
            let v = BitVector::from_bits((0..16).map(|d| {
                if d < 8 {
                    latent
                } else {
                    rng.random_bool(0.5)
                }
            }));
            ds.push(&v).unwrap();
        }
        ds
    }

    #[test]
    fn greedy_init_separates_correlated_blocks() {
        // Two perfectly correlated blocks: dims 0..8 copy latent A, dims
        // 8..16 copy latent B. Once the greedy places any dim, the rest
        // of its block adds zero entropy and is swept up, so each
        // partition must be exactly one block.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut ds = Dataset::new(16);
        for _ in 0..600 {
            let a = rng.random_bool(0.5);
            let b = rng.random_bool(0.5);
            let v = BitVector::from_bits((0..16).map(|d| if d < 8 { a } else { b }));
            ds.push(&v).unwrap();
        }
        let p = greedy_entropy_init(&ds, 2, 600, 2).unwrap();
        let assign = p.assignment();
        for d in 1..8 {
            assert_eq!(assign[d], assign[0], "block A split: {assign:?}");
        }
        for d in 9..16 {
            assert_eq!(assign[d], assign[8], "block B split: {assign:?}");
        }
        assert_ne!(assign[0], assign[8]);
    }

    #[test]
    fn greedy_init_entropy_no_worse_than_random() {
        use hamming_core::stats::entropy_of_dims;
        let ds = correlated_dataset(600, 1);
        let ids: Vec<usize> = (0..ds.len()).collect();
        let entropy_of = |p: &Partitioning| -> f64 {
            p.parts()
                .iter()
                .map(|dims| {
                    let d: Vec<usize> = dims.iter().map(|&x| x as usize).collect();
                    entropy_of_dims(&ds, &d, &ids)
                })
                .sum()
        };
        let greedy = greedy_entropy_init(&ds, 2, 600, 2).unwrap();
        let random = Partitioning::random_shuffle(16, 2, 99).unwrap();
        assert!(
            entropy_of(&greedy) <= entropy_of(&random) + 1e-9,
            "greedy {} vs random {}",
            entropy_of(&greedy),
            entropy_of(&random)
        );
    }

    #[test]
    fn evaluator_full_cost_positive_and_stable() {
        let ds = correlated_dataset(300, 3);
        let wl = WorkloadSpec::from_sample(&ds, 8, vec![2, 4], 4);
        let p = Partitioning::equi_width(16, 2).unwrap();
        let c1 = workload_cost(&ds, &wl, &p, 300, 9);
        let c2 = workload_cost(&ds, &wl, &p, 300, 9);
        assert!(c1 > 0.0);
        assert_eq!(c1, c2, "deterministic");
    }

    #[test]
    fn move_cost_matches_full_recompute() {
        // Every move of a small instance scores bit-identically to a
        // fresh evaluation of the moved partitioning: the counts are
        // exact integers and the DP runs the same f64 operations in the
        // same order, so GR picks the same moves as a full rescoring.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ds = Dataset::new(64);
        for _ in 0..300 {
            let latent: Vec<bool> = (0..4).map(|_| rng.random_bool(0.4)).collect();
            let v = BitVector::from_bits(
                (0..64).map(|d| latent[d / 16] ^ rng.random_bool(0.05 + d as f64 / 200.0)),
            );
            ds.push(&v).unwrap();
        }
        let wl = WorkloadSpec::from_sample(&ds, 6, vec![2, 5, 9], 6);
        let p = Partitioning::random_shuffle(64, 4, 3).unwrap();
        let eval = Evaluator::new(&ds, &wl, 200, 7);
        let mut cache = CostCache::default();
        let _ = eval.full_cost(&p, &mut cache);
        let mut checked = 0;
        for (d, &from) in p.assignment().iter().enumerate() {
            for to in (0..4).filter(|&to| to != from) {
                let inc = eval.move_cost(&mut cache, (d as u32, from, to));
                let mut moved = p.clone();
                moved.move_dim(d as u32, from, to).unwrap();
                let full = eval.full_cost(&moved, &mut CostCache::default());
                assert_eq!(inc.to_bits(), full.to_bits(), "d={d} {from}->{to}: {inc} vs {full}");
                checked += 1;
            }
        }
        assert_eq!(checked, 192);
    }

    #[test]
    fn hill_climbing_never_increases_cost() {
        let ds = correlated_dataset(400, 8);
        let wl = WorkloadSpec::from_sample(&ds, 10, vec![2, 4], 9);
        let cfg = HeuristicConfig {
            init: InitKind::Random { seed: 1 },
            max_iters: 6,
            move_budget: Some(64),
            sample_rows: 400,
            seed: 10,
        };
        let p0 = Partitioning::random_shuffle(16, 2, 1).unwrap();
        let before = workload_cost(&ds, &wl, &p0, 400, cfg.seed ^ 0x5151);
        let p = heuristic_partition(&ds, &wl, 2, &cfg).unwrap();
        let after = workload_cost(&ds, &wl, &p, 400, cfg.seed ^ 0x5151);
        assert!(after <= before + 1e-9, "before={before} after={after}");
    }

    #[test]
    fn build_partitioning_strategies_all_valid() {
        let ds = correlated_dataset(150, 11);
        let wl = WorkloadSpec::from_sample(&ds, 5, vec![2], 12);
        for strat in [
            PartitionStrategy::Original,
            PartitionStrategy::RandomShuffle { seed: 3 },
            PartitionStrategy::Os,
            PartitionStrategy::Dd,
            PartitionStrategy::Heuristic(HeuristicConfig {
                max_iters: 2,
                move_budget: Some(32),
                sample_rows: 150,
                ..Default::default()
            }),
        ] {
            let p = build_partitioning(&ds, 4, &strat, Some(&wl)).unwrap();
            assert_eq!(p.dim(), 16);
            assert_eq!(p.parts().iter().map(|x| x.len()).sum::<usize>(), 16);
        }
    }

    #[test]
    fn heuristic_requires_workload() {
        let ds = correlated_dataset(50, 13);
        let strat = PartitionStrategy::Heuristic(HeuristicConfig::default());
        assert!(build_partitioning(&ds, 2, &strat, None).is_err());
    }

    #[test]
    fn fixed_strategy_checks_dim() {
        let ds = correlated_dataset(50, 14);
        let good = Partitioning::equi_width(16, 4).unwrap();
        let bad = Partitioning::equi_width(8, 2).unwrap();
        assert!(build_partitioning(&ds, 4, &PartitionStrategy::Fixed(good), None).is_ok());
        assert!(build_partitioning(&ds, 4, &PartitionStrategy::Fixed(bad), None).is_err());
    }
}
