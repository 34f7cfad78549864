//! Projections of datasets onto dimension partitionings.
//!
//! Every index in the paper stores, per partition, the projected value of
//! each data vector. [`Projector`] gathers the (word, bit) sources for a
//! partition once; [`ProjectedDataset`] materializes the projection of a
//! whole dataset in partition-major ("column group") layout, which is what
//! candidate-number scans and index builds iterate over.

use crate::dataset::Dataset;
use crate::distance::hamming;
use crate::key::key_of;
use crate::partition::Partitioning;
use crate::words_for;

/// Shape of one partition: its source dimensions and projected width.
#[derive(Clone, Debug)]
pub struct PartitionShape {
    /// Source dimension indices, in projection bit order.
    pub dims: Vec<u32>,
    /// Number of dimensions (`n_i`).
    pub width: usize,
    /// Words needed for the projected value.
    pub words: usize,
}

/// Precomputed gather plan for projecting vectors onto a partitioning.
#[derive(Clone, Debug)]
pub struct Projector {
    dim: usize,
    shapes: Vec<PartitionShape>,
}

impl Projector {
    /// Builds the projector for `p`.
    pub fn new(p: &Partitioning) -> Self {
        let shapes = p
            .parts()
            .iter()
            .map(|dims| PartitionShape {
                dims: dims.clone(),
                width: dims.len(),
                words: words_for(dims.len()),
            })
            .collect();
        Projector { dim: p.dim(), shapes }
    }

    /// Source dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.shapes.len()
    }

    /// Shape of partition `i`.
    pub fn shape(&self, i: usize) -> &PartitionShape {
        &self.shapes[i]
    }

    /// Projects `row` onto partition `part`, writing into `out`
    /// (`out.len() >= shape.words`; bits beyond the width are cleared).
    pub fn project_into(&self, part: usize, row: &[u64], out: &mut [u64]) {
        let shape = &self.shapes[part];
        out[..shape.words].iter_mut().for_each(|w| *w = 0);
        for (out_bit, &d) in shape.dims.iter().enumerate() {
            let d = d as usize;
            let bit = (row[d / 64] >> (d % 64)) & 1;
            out[out_bit / 64] |= bit << (out_bit % 64);
        }
    }

    /// Projects `row` onto partition `part` returning a fresh buffer.
    pub fn project(&self, part: usize, row: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.shapes[part].words.max(1)];
        self.project_into(part, row, &mut out);
        out
    }

    /// Hands `emit` the id of every row of `ds` whose projection onto
    /// partition `part` lies within `radius` of `q_val` (a
    /// [`Projector::project`] buffer), projecting one row at a time: the
    /// scan fallback of a partition too wide for its index keys to be
    /// its values, with no projected copy of `ds` kept anywhere.
    pub fn for_each_row_within(
        &self,
        part: usize,
        ds: &Dataset,
        q_val: &[u64],
        radius: usize,
        mut emit: impl FnMut(u32),
    ) {
        let mut val = vec![0u64; self.shapes[part].words.max(1)];
        for (id, row) in ds.iter_rows().enumerate() {
            self.project_into(part, row, &mut val);
            if hamming(&val, q_val) as usize <= radius {
                emit(id as u32);
            }
        }
    }

    /// Projects `row` onto every partition, returning per-partition buffers.
    pub fn project_all(&self, row: &[u64]) -> Vec<Vec<u64>> {
        (0..self.num_parts()).map(|p| self.project(p, row)).collect()
    }
}

/// A dataset's projections onto every partition, partition-major.
///
/// For partition `i` of width `w_i`, values are stored as consecutive
/// `words_for(w_i)` word groups, one per data vector, in vector-ID order.
#[derive(Clone, Debug)]
pub struct ProjectedDataset {
    len: usize,
    columns: Vec<ProjectedColumn>,
}

/// One partition's projected values for an entire dataset.
#[derive(Clone, Debug)]
pub struct ProjectedColumn {
    width: usize,
    words: usize,
    data: Vec<u64>,
}

impl ProjectedColumn {
    /// Partition width `n_i`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per value.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Projected value of vector `id`.
    #[inline]
    pub fn value(&self, id: usize) -> &[u64] {
        let s = id * self.words;
        &self.data[s..s + self.words]
    }

    /// Signature key of vector `id` (identity when width ≤ 64).
    #[inline]
    pub fn key(&self, id: usize) -> u64 {
        key_of(self.value(id), self.width)
    }

    /// Iterates over projected values in vector-ID order.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.data.chunks_exact(self.words.max(1))
    }

    /// Heap bytes held by this column.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

impl ProjectedDataset {
    /// Projects every row of `ds` onto every partition of `projector`,
    /// equal word for word to [`Projector::project`] per row.
    ///
    /// Each projected word is built through a table made for this one
    /// build: for each source byte that feeds the word and each of the
    /// byte's 256 values, the bits that value sets in the word. A row
    /// then costs one table read and OR per source byte, not one shift
    /// and mask per dimension.
    pub fn build(ds: &Dataset, projector: &Projector) -> Self {
        assert_eq!(ds.dim(), projector.dim(), "projector built for another dim");
        let len = ds.len();
        let columns = projector
            .shapes
            .iter()
            .map(|shape| {
                let words = shape.words.max(1);
                let mut data = vec![0u64; len * words];
                for (w, dims) in shape.dims.chunks(64).enumerate() {
                    // The source bytes that feed word `w`, ascending, and
                    // `table[slot * 256 + v]`: what value `v` of source
                    // byte `bytes[slot]` sets in it.
                    let mut bytes: Vec<usize> = dims.iter().map(|&d| d as usize / 8).collect();
                    bytes.sort_unstable();
                    bytes.dedup();
                    let mut table = vec![0u64; bytes.len() * 256];
                    for (bit, &d) in dims.iter().enumerate() {
                        let slot = bytes.binary_search(&(d as usize / 8)).expect("listed above");
                        for v in (0..256).filter(|v| v >> (d % 8) & 1 == 1) {
                            table[slot * 256 + v] |= 1 << bit;
                        }
                    }
                    let out = data.iter_mut().skip(w).step_by(words);
                    for (row, out) in ds.iter_rows().zip(out) {
                        *out = bytes.iter().enumerate().fold(0, |acc, (slot, &b)| {
                            acc | table[slot * 256 + (row[b / 8] >> (b % 8 * 8)) as u8 as usize]
                        });
                    }
                }
                ProjectedColumn { width: shape.width, words, data }
            })
            .collect();
        ProjectedDataset { len, columns }
    }

    /// Number of projected vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.columns.len()
    }

    /// Column for partition `i`.
    pub fn column(&self, i: usize) -> &ProjectedColumn {
        &self.columns[i]
    }

    /// Total heap bytes across columns.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVector;
    use crate::partition::Partitioning;

    fn table1() -> Dataset {
        let vs = ["00000000", "00000111", "00001111", "10011111"]
            .iter()
            .map(|s| BitVector::parse(s).unwrap());
        Dataset::from_vectors(8, vs).unwrap()
    }

    #[test]
    fn variable_partitioning_of_table1() {
        // The paper's variable partitioning: first six dims | last two.
        let ds = table1();
        let p = Partitioning::new(8, vec![(0..6).collect::<Vec<u32>>(), vec![6, 7]]).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        assert_eq!(pd.num_parts(), 2);
        // x2 = 00000111 -> partition 1 (dims 6,7) = "11" -> bits 0b11.
        assert_eq!(pd.column(1).value(1), &[0b11]);
        // x2 partition 0 (dims 0..6) = 000001 -> only dim 5 set -> bit 5.
        assert_eq!(pd.column(0).value(1), &[1 << 5]);
        // x1 projects to zero everywhere.
        assert_eq!(pd.column(0).value(0), &[0]);
        assert_eq!(pd.column(1).value(0), &[0]);
    }

    #[test]
    fn projector_roundtrip_against_select_dims() {
        let ds = table1();
        let p = Partitioning::random_shuffle(8, 3, 7).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        for part in 0..p.num_parts() {
            let dims: Vec<usize> = p.part(part).iter().map(|&d| d as usize).collect();
            let sub = ds.select_dims(&dims).unwrap();
            for id in 0..ds.len() {
                assert_eq!(pd.column(part).value(id), sub.row(id), "part={part} id={id}");
            }
        }
    }

    #[test]
    fn keys_are_identity_for_narrow_parts() {
        let ds = table1();
        let p = Partitioning::equi_width(8, 2).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        // x4 = 10011111: partition 0 (dims 0..4) = 1001 -> key 0b1001 = 9.
        assert_eq!(pd.column(0).key(3), 0b1001);
    }

    #[test]
    fn row_scan_matches_the_projected_column() {
        let ds = table1();
        let p = Partitioning::new(8, vec![(0..6).collect::<Vec<u32>>(), vec![6, 7]]).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let q = BitVector::parse("10000011").unwrap();
        for part in 0..2 {
            let qv = proj.project(part, q.words());
            for radius in 0..=6 {
                let mut got = Vec::new();
                proj.for_each_row_within(part, &ds, &qv, radius, |id| got.push(id));
                let expect: Vec<u32> = (0..ds.len() as u32)
                    .filter(|&id| {
                        hamming(pd.column(part).value(id as usize), &qv) as usize <= radius
                    })
                    .collect();
                assert_eq!(got, expect, "part={part} radius={radius}");
            }
        }
    }

    #[test]
    fn project_single_query() {
        let _ds = table1();
        let p = Partitioning::equi_width(8, 2).unwrap();
        let proj = Projector::new(&p);
        let q = BitVector::parse("10000011").unwrap();
        let parts = proj.project_all(q.words());
        assert_eq!(parts[0], vec![0b0001]); // dims 0..4: only dim 0 set
        assert_eq!(parts[1], vec![0b1100]); // dims 4..8: dims 6,7 set
    }
}
