//! Candidate-number (CN) estimation — §IV-C.
//!
//! The threshold allocator needs `CN(qᵢ, e)`: how many data vectors fall
//! within distance `e` of the query's projection on partition `i`, for
//! every `e ∈ [−1, τ]`. Four estimators are provided:
//!
//! | Kind | Paper name | Notes |
//! |---|---|---|
//! | [`exact::ExactCn`] | "exact solution" | `O(m·2^n')` tables, width-capped |
//! | [`subpart::SubPartitionCn`] | **SP** | exact sub-tables + general-pigeonhole combination |
//! | [`learned::LearnedCn`] | **SVM / RF / DNN** | per-(partition, e) regressors on `ln CN` |
//! | [`sample_scan::SampleScanCn`] | — | scaled sample scan; the oracle used for calibration and by the offline partitioner |
//!
//! All estimates are clamped to `[0, N]` and made monotone in `e` before
//! the DP consumes them.

pub mod exact;
pub mod learned;
pub mod sample_scan;
pub mod subpart;

use bytes::BufMut;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::ByteReader;
use hamming_core::project::ProjectedDataset;

/// A per-query estimator of candidate numbers.
pub trait CnEstimator: Send + Sync {
    /// Fills `out[e + 1] = ĈN(q_part, e)` for `e ∈ −1..=tau`, where
    /// `q_val` is the query's projection on partition `part`
    /// (`out.len() == tau + 2`; `out\[0\]`, the `e = −1` slot, must be 0).
    fn fill(&self, part: usize, q_val: &[u64], tau: usize, out: &mut [f64]);

    /// Heap footprint, charged to the index size in Fig. 6.
    fn size_bytes(&self) -> usize;

    /// Byte snapshot of the built state, for estimators whose
    /// construction is worth persisting (the table-based kinds). `None`
    /// means the engine snapshot stores only the [`EstimatorKind`] and
    /// the estimator is rebuilt deterministically at load time from its
    /// seeds and the restored projections.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Which estimator to build (engine configuration).
#[derive(Clone, Debug)]
pub enum EstimatorKind {
    /// Exact per-partition tables; fails if any partition is wider than
    /// the given cap (default 16) because tables are `O(2^width)`.
    Exact {
        /// Maximum partition width the tables may cover.
        max_width: usize,
    },
    /// The paper's sub-partitioning approximation (**SP**) with `mi`
    /// sub-partitions per partition (the paper evaluates `mi = 2`).
    SubPartition {
        /// Number of sub-partitions per partition.
        sub_count: usize,
        /// Apply the paper's general-pigeonhole budget shift
        /// (`Σ g ≤ τᵢ − mᵢ + 1`). As printed, that formula estimates 0
        /// for every threshold below `mᵢ − 1`, which blinds the DP at
        /// small thresholds; the default (false) uses the unshifted
        /// independence CDF (`Σ g ≤ τᵢ`). See `subpart.rs`.
        paper_shift: bool,
    },
    /// Learned regressors (**SVM**/**RF**/**DNN** of Table III).
    Learned(learned::LearnedParams),
    /// Scaled scan over a row sample (oracle-style; exact when
    /// `sample_cap >= N`).
    SampleScan {
        /// Maximum number of rows scanned per estimate.
        sample_cap: usize,
        /// Sampling seed.
        seed: u64,
    },
}

impl Default for EstimatorKind {
    fn default() -> Self {
        EstimatorKind::SubPartition { sub_count: 2, paper_shift: false }
    }
}

/// Builds the configured estimator over a projected dataset.
///
/// `tau_max` bounds the thresholds the estimator must answer for (larger
/// queries clamp to the table edge, where `CN = N` anyway).
pub fn build_estimator(
    kind: &EstimatorKind,
    pd: &ProjectedDataset,
    tau_max: usize,
) -> Result<Box<dyn CnEstimator>> {
    match kind {
        EstimatorKind::Exact { max_width } => {
            Ok(Box::new(exact::ExactCn::build(pd, tau_max, *max_width)?))
        }
        EstimatorKind::SubPartition { sub_count, paper_shift } => Ok(Box::new(
            subpart::SubPartitionCn::build_with_shift(pd, tau_max, *sub_count, *paper_shift)?,
        )),
        EstimatorKind::Learned(params) => {
            Ok(Box::new(learned::LearnedCn::build(pd, tau_max, params)?))
        }
        EstimatorKind::SampleScan { sample_cap, seed } => {
            Ok(Box::new(sample_scan::SampleScanCn::build(pd, *sample_cap, *seed)))
        }
    }
}

/// Encodes an [`EstimatorKind`] for engine snapshots (tag byte plus the
/// kind's parameters, little-endian).
pub(crate) fn encode_kind(kind: &EstimatorKind) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match kind {
        EstimatorKind::Exact { max_width } => {
            buf.put_u8(0);
            buf.put_u64_le(*max_width as u64);
        }
        EstimatorKind::SubPartition { sub_count, paper_shift } => {
            buf.put_u8(1);
            buf.put_u64_le(*sub_count as u64);
            buf.put_u8(u8::from(*paper_shift));
        }
        EstimatorKind::Learned(p) => {
            buf.put_u8(2);
            buf.put_u8(match p.model {
                learned::ModelKind::Svm => 0,
                learned::ModelKind::Rf => 1,
                learned::ModelKind::Dnn => 2,
            });
            buf.put_u64_le(p.n_train as u64);
            buf.put_u64_le(p.scan_cap as u64);
            buf.put_u64_le(p.seed);
        }
        EstimatorKind::SampleScan { sample_cap, seed } => {
            buf.put_u8(3);
            buf.put_u64_le(*sample_cap as u64);
            buf.put_u64_le(*seed);
        }
    }
    buf
}

/// Decodes an [`EstimatorKind`] written by [`encode_kind`].
pub(crate) fn decode_kind(bytes: &[u8]) -> Result<EstimatorKind> {
    let mut r = ByteReader::new(bytes);
    let kind = match r.u8("estimator kind tag")? {
        0 => EstimatorKind::Exact { max_width: r.u64("exact max_width")? as usize },
        1 => EstimatorKind::SubPartition {
            sub_count: r.u64("SP sub_count")? as usize,
            paper_shift: r.u8("SP shift flag")? != 0,
        },
        2 => {
            let model = match r.u8("learned model tag")? {
                0 => learned::ModelKind::Svm,
                1 => learned::ModelKind::Rf,
                2 => learned::ModelKind::Dnn,
                other => return Err(HammingError::Corrupt(format!("unknown model kind {other}"))),
            };
            EstimatorKind::Learned(learned::LearnedParams {
                model,
                n_train: r.u64("learned n_train")? as usize,
                scan_cap: r.u64("learned scan_cap")? as usize,
                seed: r.u64("learned seed")?,
            })
        }
        3 => EstimatorKind::SampleScan {
            sample_cap: r.u64("sample cap")? as usize,
            seed: r.u64("sample seed")?,
        },
        other => return Err(HammingError::Corrupt(format!("unknown estimator kind {other}"))),
    };
    r.finish("estimator kind")?;
    Ok(kind)
}

/// Restores an estimator for a loaded engine from its persisted state
/// when one was snapshotted (the table-based kinds); otherwise `rebuild`
/// makes it, and is only then called. Both load paths, resident and
/// cold (file-backed), rebuild deterministically over projections of
/// the row slab made for the purpose — seeds live in the kind, so the
/// rebuilt estimator answers exactly as the saved one, and one saved
/// engine plans one way however it is opened.
///
/// `widths` are the partition widths of the snapshot's partitioning;
/// decoded state must match them exactly, so a state section that is
/// internally consistent but belongs to a different partitioning (e.g.
/// spliced from another snapshot, every CRC intact) is rejected here
/// instead of panicking on an out-of-bounds table lookup at query time.
pub(crate) fn restore_estimator(
    kind: &EstimatorKind,
    state: Option<&[u8]>,
    widths: &[usize],
    rebuild: impl FnOnce() -> Result<Box<dyn CnEstimator>>,
) -> Result<Box<dyn CnEstimator>> {
    match (kind, state) {
        (EstimatorKind::Exact { .. }, Some(bytes)) => {
            Ok(Box::new(exact::ExactCn::decode_state(bytes, widths)?))
        }
        (EstimatorKind::SubPartition { .. }, Some(bytes)) => {
            Ok(Box::new(subpart::SubPartitionCn::decode_state(bytes, widths)?))
        }
        _ => rebuild(),
    }
}

/// A query's filled CN table: `m` rows over `e ∈ [−1, τ]`.
#[derive(Clone, Debug)]
pub struct CnTable {
    m: usize,
    tau: usize,
    /// Row-major `m × (tau + 2)`; column `e + 1` holds threshold `e`.
    values: Vec<f64>,
}

impl CnTable {
    /// All-zero table.
    pub fn new(m: usize, tau: usize) -> Self {
        CnTable { m, tau, values: vec![0.0; m * (tau + 2)] }
    }

    /// Fills all rows from an estimator given the query's per-partition
    /// projections, then enforces row monotonicity in `e`.
    pub fn compute(est: &dyn CnEstimator, q_proj: &[Vec<u64>], tau: usize) -> Self {
        let m = q_proj.len();
        let mut t = CnTable::new(m, tau);
        for (i, q) in q_proj.iter().enumerate() {
            let row = t.row_mut(i);
            est.fill(i, q, tau, row);
            row[0] = 0.0; // e = -1 always filters everything
            for e in 1..row.len() {
                if row[e] < row[e - 1] {
                    row[e] = row[e - 1];
                }
            }
        }
        t
    }

    /// Number of partitions.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Largest threshold covered.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// `ĈN(qᵢ, e)`; `e` is clamped to the table range.
    #[inline]
    pub fn get(&self, part: usize, e: i32) -> f64 {
        let e = e.clamp(-1, self.tau as i32);
        self.values[part * (self.tau + 2) + (e + 1) as usize]
    }

    /// Mutable row for partition `part` (`[e=-1, e=0, …, e=τ]`).
    pub fn row_mut(&mut self, part: usize) -> &mut [f64] {
        let w = self.tau + 2;
        &mut self.values[part * w..(part + 1) * w]
    }

    /// Row for partition `part`.
    pub fn row(&self, part: usize) -> &[f64] {
        let w = self.tau + 2;
        &self.values[part * w..(part + 1) * w]
    }

    /// `Σᵢ ĈN(qᵢ, T[i])` — the quantity the allocator minimizes.
    pub fn sum_for(&self, t: &crate::pigeonhole::ThresholdVector) -> f64 {
        t.0.iter().enumerate().map(|(i, &e)| self.get(i, e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pigeonhole::ThresholdVector;

    struct Fake;
    impl CnEstimator for Fake {
        fn fill(&self, part: usize, _q: &[u64], tau: usize, out: &mut [f64]) {
            for e in -1..=(tau as i32) {
                // deliberately non-monotone to exercise the cummax
                out[(e + 1) as usize] =
                    if e == 2 { 0.0 } else { (part + 1) as f64 * (e + 1) as f64 };
            }
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn compute_enforces_monotone_rows() {
        let t = CnTable::compute(&Fake, &[vec![0], vec![0]], 4);
        assert_eq!(t.get(0, -1), 0.0);
        for part in 0..2 {
            for e in 0..4 {
                assert!(t.get(part, e + 1) >= t.get(part, e), "part={part} e={e}");
            }
        }
        // row 0: raw values 0,1,2,0,4,5 -> cummax 0,1,2,2,4,5
        assert_eq!(t.get(0, 2), 2.0);
    }

    #[test]
    fn get_clamps_e() {
        let t = CnTable::compute(&Fake, &[vec![0]], 3);
        assert_eq!(t.get(0, -5), t.get(0, -1));
        assert_eq!(t.get(0, 99), t.get(0, 3));
    }

    #[test]
    fn sum_for_threshold_vector() {
        let t = CnTable::compute(&Fake, &[vec![0], vec![0]], 4);
        let tv = ThresholdVector(vec![-1, 1]);
        assert_eq!(t.sum_for(&tv), 0.0 + 4.0);
    }
}
