//! Seeded inputs. The program under test sees only what is generated
//! here; the same seed gives the same corpus, queries and operation
//! streams, and [`Fingerprint`] condenses them into the
//! `input_fingerprint` a run prints so two runs can prove they measured
//! the same thing.

use datagen::Profile;
use hamming_core::Dataset;

/// The thresholds a read draws from, uniformly: the paper's τ sweep for
/// 128-bit codes (§VII-G), with τ = 12 listed twice. Read latency is
/// four separate clusters, one per τ; with equal weights the median
/// read would sit on the gap between the τ = 8 and τ = 12 clusters and
/// jump between them from seed to seed. Weighted so, the median read is
/// a τ = 12 read and the p99 read a τ = 16 read, on every seed.
pub const TAUS: [u32; 5] = [4, 8, 12, 12, 16];
/// `tau_max` every engine is built with: the largest of [`TAUS`].
pub const TAU_MAX: usize = 16;
/// Bits a query differs from the corpus row it was drawn from: uniform
/// in `0..=MAX_FLIPS`, so most queries have their source row (and its
/// neighbours) as results and a τ = 4 query sometimes has none.
const MAX_FLIPS: u64 = 6;

/// SplitMix64: tiny, seedable, and good enough to pick rows and bits.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `stream` (one per purpose: queries, ops of client 0, …).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The corpus every workload indexes: the paper's own synthetic
/// generator at mean skew γ = 0.25 (128 dimensions), the setting where
/// GPH's cost-aware allocation separates from MIH's equal split.
pub fn corpus(rows: usize, seed: u64) -> Dataset {
    Profile::synthetic_gamma(0.25).generate(rows, seed)
}

/// Rows `lo..hi` of `data` as a dataset of their own.
pub fn slice(data: &Dataset, lo: usize, hi: usize) -> Dataset {
    let mut out = Dataset::with_capacity(data.dim(), hi - lo);
    for id in lo..hi {
        out.push_row_from(data, id).expect("same dimensionality");
    }
    out
}

/// A query: corpus row `row` with up to [`MAX_FLIPS`] bits flipped.
pub fn perturbed(data: &Dataset, row: usize, rng: &mut Rng) -> Vec<u64> {
    let mut q = data.row(row).to_vec();
    for _ in 0..rng.below(MAX_FLIPS + 1) {
        let bit = rng.below(data.dim() as u64) as usize;
        q[bit / 64] ^= 1 << (bit % 64);
    }
    q
}

/// `n` perturbed queries over rows `0..rows` of `data`.
pub fn queries(data: &Dataset, rows: usize, n: usize, rng: &mut Rng) -> Dataset {
    let mut out = Dataset::with_capacity(data.dim(), n);
    for _ in 0..n {
        let row = rng.below(rows as u64) as usize;
        out.push_row(&perturbed(data, row, rng)).expect("same dimensionality");
    }
    out
}

/// Zipf over `0..n` by inverse CDF: rank `k` is drawn with probability
/// ∝ 1/(k+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }

    pub fn dataset(&mut self, d: &Dataset) {
        self.word(d.len() as u64);
        self.words(d.words());
    }

    /// Folds one read's answer: its length, then its ids in order.
    pub fn ids(&mut self, ids: &[u32]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|&id| self.word(id as u64));
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint_of(seed: u64) -> u64 {
        let data = corpus(500, seed);
        let qs = queries(&data, 500, 40, &mut Rng::new(seed, 1));
        let mut f = Fingerprint::default();
        f.dataset(&data);
        f.dataset(&qs);
        f.value()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(fingerprint_of(7), fingerprint_of(7));
        assert_ne!(fingerprint_of(7), fingerprint_of(8));
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(Rng::new(3, 0).next_u64(), Rng::new(3, 1).next_u64());
    }

    #[test]
    fn perturbed_queries_stay_close() {
        let data = corpus(100, 1);
        let mut rng = Rng::new(1, 0);
        for row in 0..100 {
            let q = perturbed(&data, row, &mut rng);
            assert!(hamming_core::hamming(&q, data.row(row)) <= MAX_FLIPS as u32);
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(512, 1.0);
        let mut rng = Rng::new(9, 0);
        let mut counts = [0usize; 512];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[200]);
        // Rank 0 carries 1/H(512) ≈ 14.7% of the mass.
        assert!((2_400..3_500).contains(&counts[0]), "{}", counts[0]);
    }
}
