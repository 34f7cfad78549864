//! The partition-signature inverted index, and the one reader of its
//! CSR arrays.
//!
//! Like MIH, GPH maps each data vector's projection on each partition to
//! the vector's ID (§II-C, §VI). The index is immutable after build, so
//! each partition's postings are stored in **CSR form**: one sorted
//! `keys` array, one `offsets` prefix-sum array (`keys.len() + 1`
//! entries), and one flat `ids` array — no hash-map pointer chasing on
//! the query hot path, and no per-key `Vec` churn at build time.
//! Signatures are enumerated **on the query side only** — the property
//! that keeps GPH's index smaller than HmSearch's and PartAlloc's in
//! Fig. 6. Sorted keys make the layout a *canonical* function of the
//! data: two builds are identical word for word, and so are their
//! snapshots.
//!
//! **One reader, two sources.** The arrays are read only by this
//! module's [`slot_of`] (the search inside a run of keys), [`ids_of`]
//! (an offsets pair becomes an ids run), [`for_each_posting`] (both),
//! [`for_each_posting_of`] (a list of signatures, the query's probe
//! loop) and [`for_each_posting_within`] (the distinct-key walk of the
//! scan fallback), generic over a [`CsrPart`] source of runs of the arrays:
//! [`InvertedIndex`] lends heap slices, and `gph::coldstore` hands out
//! little-endian runs of cached pages. Each source gets its own
//! monomorphic copy, so the resident probe has no dynamic dispatch, no
//! allocation and, its error type being [`Infallible`], no `Result`.
//!
//! **Keys at 4 bytes where they fit.** A resident partition at most 32
//! bits wide stores its keys as `u32`, a wider one as `u64` (33–64-bit
//! values and the hashes of partitions wider than a word): a rule of
//! the width, not an option. A run of keys reaches the reader as a
//! [`KeyRun`] — narrow, wide or paged — whose kind is matched once per
//! run, so each kind's search and walk is its own loop. Snapshots store
//! every key at 8 bytes: the build emits narrow keys in its one sweep,
//! [`InvertedIndex::from_csr`] narrows what it loads, and the export
//! ([`InvertedIndex::part_keys`]) widens them back.
//!
//! **The lookup is the source's** ([`CsrPart::bucket`]), derived from
//! the keys and never persisted. The resident index keeps a dense
//! *prefix directory* over the top `b = ⌊log₂ n_keys⌋ − 3` bits of a
//! key (clamped to its bits): about eight keys per bucket, half a cache
//! line of 4-byte keys or one line of 8-byte ones, so a probe is a
//! directory load, a search in at most one line of `keys` and an `ids`
//! slice. On the benchmark's 400k-row corpus a
//! finer directory buys little speed for a lot of memory and a coarser
//! one gives the gain back; keys sharing one prefix cost a whole-array
//! search, never more. The paged store keeps *page fences* (the first
//! key of each key page) instead: a directory bucket's size follows the
//! key distribution, so over a page cache a skewed prefix would cost
//! several page reads per probe, where a fence run is one page. Where a
//! run read is a page lookup ([`CsrPart::GROUP_PROBES`]),
//! [`for_each_posting_of`] searches consecutive signatures that share a
//! run inside one read of it; colex enumeration flips the low bits
//! first, so most of a ball lands on few pages.
//!
//! **Trust model.** The reader trusts no byte it reads. A reversed
//! offsets pair, or one ending past the ids array, yields no postings,
//! so an ids run is sized from a checked pair before it is read.
//! Unsorted keys can misdirect a search, but a search reads only the
//! run the lookup gave, so no read leaves the partition's section. Ids
//! go out as stored; callers drop ids `≥ n` (the query pipeline does).
//! `validate_csr_part` still rejects bad arrays entering a resident
//! index, early, at load.

use crate::error::HammingError;
use crate::project::ProjectedDataset;
use std::convert::Infallible;
use std::ops::Range;

/// A run of stored keys, as a source lends it. The reader matches the
/// kind once per run, so each kind's search and walk is its own tight
/// loop: one predictable branch per probe, no dispatch per key.
#[derive(Clone, Copy, Debug)]
pub enum KeyRun<'a> {
    /// Resident keys of a partition at most 32 bits wide.
    Narrow(&'a [u32]),
    /// Resident keys of a wider partition: 33–64-bit values and the
    /// 64-bit hashes of partitions wider than a word.
    Wide(&'a [u64]),
    /// Eight little-endian bytes per key, in a cached page.
    Paged(&'a [[u8; 8]]),
}

impl<'a> KeyRun<'a> {
    /// Number of keys in the run.
    pub fn len(self) -> usize {
        match self {
            KeyRun::Narrow(keys) => keys.len(),
            KeyRun::Wide(keys) => keys.len(),
            KeyRun::Paged(keys) => keys.len(),
        }
    }

    /// True if the run holds no key.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The key at position `j` of the run.
    fn get(self, j: usize) -> u64 {
        match self {
            KeyRun::Narrow(keys) => keys[j].into(),
            KeyRun::Wide(keys) => keys[j],
            KeyRun::Paged(keys) => u64::from_le_bytes(keys[j]),
        }
    }

    /// The run's keys in order, widened to `u64`.
    pub fn iter(self) -> impl ExactSizeIterator<Item = u64> + 'a {
        (0..self.len()).map(move |j| self.get(j))
    }

    /// The position of `key`, by binary search of the (sorted) run. A
    /// key wider than a narrow run's keys is not in it.
    #[inline]
    fn find(self, key: u64) -> Option<usize> {
        match self {
            KeyRun::Narrow(keys) => keys.binary_search(&u32::try_from(key).ok()?).ok(),
            KeyRun::Wide(keys) => keys.binary_search(&key).ok(),
            KeyRun::Paged(keys) => keys.binary_search_by(|k| u64::from_le_bytes(*k).cmp(&key)).ok(),
        }
    }

    /// Calls `f(j, key)` for every key of the run in order, stopping at
    /// the first error.
    fn try_for_each<E>(self, mut f: impl FnMut(usize, u64) -> Result<(), E>) -> Result<(), E> {
        match self {
            KeyRun::Narrow(keys) => keys.iter().enumerate().try_for_each(|(j, &k)| f(j, k.into())),
            KeyRun::Wide(keys) => keys.iter().enumerate().try_for_each(|(j, &k)| f(j, k)),
            KeyRun::Paged(keys) => {
                keys.iter().enumerate().try_for_each(|(j, &k)| f(j, u64::from_le_bytes(k)))
            }
        }
    }
}

/// One partition's CSR arrays, wherever they live. A source only hands
/// out runs; the search, the checks and the walk are the reader's.
pub trait CsrPart: Copy {
    /// What a failed read returns.
    type Error;
    /// True when a read of a run costs more than searching it twice
    /// over, as a page-cache lookup does: [`for_each_posting_of`] then
    /// searches every consecutive key of one bucket inside one
    /// [`CsrPart::with_keys`] read. A heap source leaves it false, and
    /// its probe loop stays one lookup per key.
    const GROUP_PROBES: bool = false;
    /// Length of the ids array.
    fn n_ids(&self) -> usize;
    /// The source's lookup: the slots of the one run of keys that can
    /// hold `key`, empty if none can.
    fn bucket(&self, key: u64) -> Range<usize>;
    /// Runs that tile the keys array in slot order, for the walk.
    fn runs(&self) -> impl Iterator<Item = Range<usize>>;
    /// Hands `f` the keys at `slots`, a run from `bucket` or `runs`.
    fn with_keys<R>(
        &self,
        slots: Range<usize>,
        f: impl FnOnce(KeyRun<'_>) -> R,
    ) -> Result<R, Self::Error>;
    /// `(offsets[slot], offsets[slot + 1])` as stored, for a key slot.
    fn offsets_pair(&self, slot: usize) -> Result<(u32, u32), Self::Error>;
    /// Hands `emit` the ids at `ids`, a range below `n_ids()`.
    fn for_each_id(&self, ids: Range<usize>, emit: impl FnMut(u32)) -> Result<(), Self::Error>;
}

/// The slot of `key`: the source's bucket, then a binary search inside
/// it. `None` when the key is not stored, with no read at all when the
/// bucket is empty.
pub fn slot_of<S: CsrPart>(part: S, key: u64) -> Result<Option<usize>, S::Error> {
    let run = part.bucket(key);
    if run.is_empty() {
        return Ok(None);
    }
    let lo = run.start;
    part.with_keys(run, |keys| keys.find(key).map(|j| lo + j))
}

/// The ids run of key slot `slot`: its offsets pair, checked.
pub fn ids_of<S: CsrPart>(part: S, slot: usize) -> Result<Range<usize>, S::Error> {
    let (start, end) = part.offsets_pair(slot)?;
    let (start, end) = (start as usize, end as usize);
    Ok(if start <= end && end <= part.n_ids() { start..end } else { 0..0 })
}

/// Hands `emit` the postings of key slot `slot` and returns how many.
fn postings_at<S: CsrPart>(part: S, slot: usize, emit: impl FnMut(u32)) -> Result<usize, S::Error> {
    let ids = ids_of(part, slot)?;
    part.for_each_id(ids.clone(), emit)?;
    Ok(ids.len())
}

/// Probes `key`: hands `emit` its postings and returns how many.
pub fn for_each_posting<S: CsrPart>(
    part: S,
    key: u64,
    emit: impl FnMut(u32),
) -> Result<usize, S::Error> {
    match slot_of(part, key)? {
        Some(slot) => postings_at(part, slot, emit),
        None => Ok(0),
    }
}

/// Probes every key of `keys` in order: hands `emit` their postings,
/// key after key exactly as [`for_each_posting`] would, and returns
/// how many. Under [`CsrPart::GROUP_PROBES`], each maximal run of
/// consecutive keys with the same non-empty bucket costs one read of
/// its keys.
pub fn for_each_posting_of<S: CsrPart>(
    part: S,
    keys: &[u64],
    mut emit: impl FnMut(u32),
) -> Result<usize, S::Error> {
    let mut total = 0;
    if !S::GROUP_PROBES {
        for &key in keys {
            total += for_each_posting(part, key, &mut emit)?;
        }
        return Ok(total);
    }
    let mut rest = keys;
    while let Some(&first) = rest.first() {
        let run = part.bucket(first);
        let same = 1 + rest[1..].iter().take_while(|&&k| part.bucket(k) == run).count();
        let (group, tail) = rest.split_at(same);
        rest = tail;
        if run.is_empty() {
            continue;
        }
        let lo = run.start;
        part.with_keys(run, |stored| {
            group.iter().try_for_each(|&key| {
                if let Some(j) = stored.find(key) {
                    total += postings_at(part, lo + j, &mut emit)?;
                }
                Ok(())
            })
        })??;
    }
    Ok(total)
}

/// Hands `emit` every posting whose key lies within Hamming distance
/// `radius` of `qk`, in key order: exactly the rows whose projection is
/// in that ball, found by one walk of the distinct keys instead of an
/// enumeration of the ball — the scan fallback for a ball that
/// outnumbers the rows. Only keys of partitions at most 64 bits wide
/// *are* projected values (wider ones hash); callers check the width.
pub fn for_each_posting_within<S: CsrPart>(
    part: S,
    qk: u64,
    radius: usize,
    mut emit: impl FnMut(u32),
) -> Result<(), S::Error> {
    for run in part.runs() {
        let lo = run.start;
        part.with_keys(run, |keys| {
            keys.try_for_each(|j, k| {
                if (k ^ qk).count_ones() as usize <= radius {
                    postings_at(part, lo + j, &mut emit)?;
                }
                Ok(())
            })
        })??;
    }
    Ok(())
}

/// One partition's postings in CSR form under its prefix directory:
/// the resident [`CsrPart`], lent by [`InvertedIndex::part`].
#[derive(Clone, Debug)]
pub struct PartIndex {
    width: usize,
    /// Distinct signature keys, ascending.
    keys: Keys,
    /// `offsets[s]..offsets[s + 1]` is the `ids` range of `keys[s]`;
    /// `keys.len() + 1` entries, monotone, starting at 0 and ending at
    /// `ids.len()`.
    offsets: Vec<u32>,
    /// Posting IDs, grouped by key slot, ascending within each group.
    ids: Vec<u32>,
    /// Prefix directory: `dir[h]..dir[h + 1]` is the `keys` slot range
    /// whose keys have `key >> shift == h`; `2^b + 1` entries. Derived
    /// from `keys`, never serialized.
    dir: Vec<u32>,
    /// `key_bits(width) − b`: what is left of a key below its prefix.
    shift: u32,
}

/// Bits a key of a `width`-bit partition occupies: keys of partitions
/// wider than a word are 64-bit hashes (see [`crate::key::key_of`]).
fn key_bits(width: usize) -> u32 {
    width.min(64) as u32
}

/// A partition's sorted keys, stored at the narrowest of 4 or 8 bytes
/// that holds `key_bits(width)`: a rule of the width, so two indexes
/// over the same partition always agree on it.
#[derive(Clone, Debug)]
enum Keys {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Keys {
    /// True when keys of a `width`-bit partition fit in 4 bytes.
    fn narrow(width: usize) -> bool {
        key_bits(width) <= 32
    }

    /// `keys` (each within `key_bits(width)` bits) at the width's size.
    fn at_width(width: usize, keys: Vec<u64>) -> Keys {
        if Keys::narrow(width) {
            Keys::Narrow(keys.into_iter().map(|k| k as u32).collect())
        } else {
            Keys::Wide(keys)
        }
    }

    /// The keys at `slots` as the reader's run.
    #[inline]
    fn run(&self, slots: Range<usize>) -> KeyRun<'_> {
        match self {
            Keys::Narrow(keys) => KeyRun::Narrow(&keys[slots]),
            Keys::Wide(keys) => KeyRun::Wide(&keys[slots]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Keys::Narrow(keys) => keys.len(),
            Keys::Wide(keys) => keys.len(),
        }
    }

    /// Every key, as one run.
    fn all(&self) -> KeyRun<'_> {
        self.run(0..self.len())
    }

    fn size_bytes(&self) -> usize {
        match self {
            Keys::Narrow(keys) => size_of_val(&keys[..]),
            Keys::Wide(keys) => size_of_val(&keys[..]),
        }
    }
}

/// `key >> shift`, for a `shift` that reaches 64 when a one-bucket
/// directory sits over full-width keys.
#[inline]
fn prefix(key: u64, shift: u32) -> u64 {
    key.checked_shr(shift).unwrap_or(0)
}

impl PartIndex {
    /// Finishes a partition from its CSR arrays by deriving the prefix
    /// directory from the sorted `keys` in one counting pass. No key
    /// may exceed `key_bits(width)` bits ([`validate_csr_part`] checks
    /// loaded ones; built ones are projections of that width), and the
    /// keys are stored at the width's size ([`Keys::narrow`]).
    fn new(width: usize, keys: Keys, offsets: Vec<u32>, ids: Vec<u32>) -> Self {
        debug_assert_eq!(matches!(keys, Keys::Narrow(_)), Keys::narrow(width));
        let key_bits = key_bits(width);
        // About eight keys — at most one cache line of `keys` — per
        // bucket.
        let b = keys.len().max(1).ilog2().saturating_sub(3).min(key_bits);
        let shift = key_bits - b;
        let mut dir = vec![0u32; (1usize << b) + 1];
        for k in keys.all().iter() {
            dir[prefix(k, shift) as usize + 1] += 1;
        }
        for h in 1..dir.len() {
            dir[h] += dir[h - 1];
        }
        PartIndex { width, keys, offsets, ids, dir, shift }
    }

    /// A partition from `(key, id)` postings in any order: one sort by
    /// the pair, so ids ascend within each key, then the CSR sweep. Keys
    /// take `min(width, 64)` bits: pass `width ≥ 64` for full 64-bit
    /// hashes.
    ///
    /// # Panics
    ///
    /// If the partition is at most 32 bits wide and a key is wider
    /// than 32 bits.
    pub fn from_pairs(width: usize, mut pairs: Vec<(u64, u32)>) -> Self {
        pairs.sort_unstable();
        let n = pairs.len();
        if !Keys::narrow(width) {
            let (keys, offsets, ids) = csr_of_sorted(n, pairs);
            return PartIndex::new(width, Keys::Wide(keys), offsets, ids);
        }
        let narrow = |(k, id): (u64, u32)| (u32::try_from(k).expect("key exceeds width"), id);
        let (keys, offsets, ids) = csr_of_sorted(n, pairs.into_iter().map(narrow));
        PartIndex::new(width, Keys::Narrow(keys), offsets, ids)
    }

    /// The postings of `key`, ids ascending; empty if it is not stored.
    #[inline]
    pub fn postings(&self, key: u64) -> &[u32] {
        let Ok(Some(slot)) = slot_of(self, key) else { return &[] };
        let Ok(ids) = ids_of(self, slot);
        &self.ids[ids]
    }

    /// Heap size in bytes: the flat CSR arrays and the prefix directory.
    pub fn size_bytes(&self) -> usize {
        self.ids.len() * 4 + self.keys.size_bytes() + self.offsets.len() * 4 + self.dir.len() * 4
    }
}

impl CsrPart for &PartIndex {
    type Error = Infallible;

    fn n_ids(&self) -> usize {
        self.ids.len()
    }

    /// The directory bucket of `key`'s prefix; empty for a key that is
    /// not a `width`-bit value, under which nothing is stored.
    fn bucket(&self, key: u64) -> Range<usize> {
        let h = prefix(key, self.shift) as usize;
        if h >= self.dir.len() - 1 {
            return 0..0;
        }
        self.dir[h] as usize..self.dir[h + 1] as usize
    }

    fn runs(&self) -> impl Iterator<Item = Range<usize>> {
        std::iter::once(0..self.keys.len())
    }

    fn with_keys<R>(
        &self,
        slots: Range<usize>,
        f: impl FnOnce(KeyRun<'_>) -> R,
    ) -> Result<R, Infallible> {
        Ok(f(self.keys.run(slots)))
    }

    fn offsets_pair(&self, slot: usize) -> Result<(u32, u32), Infallible> {
        Ok((self.offsets[slot], self.offsets[slot + 1]))
    }

    fn for_each_id(&self, ids: Range<usize>, emit: impl FnMut(u32)) -> Result<(), Infallible> {
        self.ids[ids].iter().copied().for_each(emit);
        Ok(())
    }
}

/// Inverted index over every partition of a projected dataset.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    parts: Vec<PartIndex>,
    len: usize,
}

impl InvertedIndex {
    /// Builds the index from a projected dataset: per partition, one
    /// sort of the `(key, id)` pairs, then one sweep that emits `keys`,
    /// `offsets` and `ids`. Sorting by the pair keeps ids ascending
    /// within each key. Keys of partitions at most 32 bits wide pack
    /// with their id into one `u64` as `key << 32 | id`, and the sweep
    /// emits them as the 4-byte keys they are stored as; wider keys
    /// (hashes, past 64 bits) sort as `(key, id)` pairs
    /// ([`PartIndex::from_pairs`]).
    pub fn build(pd: &ProjectedDataset) -> Self {
        let n = pd.len();
        assert!(u32::try_from(n).is_ok(), "posting ids are u32");
        let parts = (0..pd.num_parts())
            .map(|p| {
                let col = pd.column(p);
                if col.width() > 32 {
                    let pairs = (0..n).map(|id| (col.key(id), id as u32)).collect();
                    return PartIndex::from_pairs(col.width(), pairs);
                }
                let mut packed: Vec<u64> = (0..n).map(|id| col.key(id) << 32 | id as u64).collect();
                packed.sort_unstable();
                let sorted = packed.into_iter().map(|kv| ((kv >> 32) as u32, kv as u32));
                let (keys, offsets, ids) = csr_of_sorted(n, sorted);
                PartIndex::new(col.width(), Keys::Narrow(keys), offsets, ids)
            })
            .collect();
        InvertedIndex { parts, len: n }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Partition `p`, the source the reader functions run over.
    pub fn part(&self, p: usize) -> &PartIndex {
        &self.parts[p]
    }

    /// Width of partition `p`.
    pub fn part_width(&self, p: usize) -> usize {
        self.parts[p].width
    }

    /// Postings list for signature `key` in partition `p` (IDs ascending).
    #[inline]
    pub fn postings(&self, p: usize, key: u64) -> &[u32] {
        self.parts[p].postings(key)
    }

    /// Partition `p`'s sorted distinct signature keys (CSR `keys`
    /// array), one run at the size they are stored at.
    pub fn part_keys(&self, p: usize) -> KeyRun<'_> {
        self.parts[p].keys.all()
    }

    /// Partition `p`'s CSR prefix-sum array (`keys.len() + 1` entries).
    pub fn part_offsets(&self, p: usize) -> &[u32] {
        &self.parts[p].offsets
    }

    /// Partition `p`'s flat postings array, grouped by key slot.
    pub fn part_ids(&self, p: usize) -> &[u32] {
        &self.parts[p].ids
    }

    /// Assembles an index from raw CSR arrays, one `(width, keys,
    /// offsets, ids)` per partition as [`InvertedIndex::part_keys`] and
    /// its siblings export them: how snapshots rebuild the index from
    /// sections read off disk. Each partition is checked by
    /// `validate_csr_part` first, so a corrupt payload is rejected
    /// here rather than answered later; that check proves every key
    /// fits the partition's width, so narrowing the keys of a
    /// partition at most 32 bits wide to 4 bytes loses nothing.
    #[allow(clippy::type_complexity)]
    pub fn from_csr(
        len: usize,
        parts: Vec<(usize, Vec<u64>, Vec<u32>, Vec<u32>)>,
    ) -> Result<InvertedIndex, HammingError> {
        let parts = parts
            .into_iter()
            .enumerate()
            .map(|(p, (width, keys, offsets, ids))| {
                validate_csr_part(p, len, width, &keys, &offsets, &ids)?;
                Ok(PartIndex::new(width, Keys::at_width(width, keys), offsets, ids))
            })
            .collect::<Result<Vec<_>, HammingError>>()?;
        Ok(InvertedIndex { parts, len })
    }

    /// Heap size in bytes (the flat CSR arrays and the prefix
    /// directory), the quantity compared in Fig. 6.
    pub fn size_bytes(&self) -> usize {
        self.parts.iter().map(PartIndex::size_bytes).sum()
    }
}

/// One partition's CSR arrays from its `n` postings sorted by
/// `(key, id)`: a key opens a slot where it differs from the last one.
/// Keys come out as they go in, so narrow ones stay 4 bytes.
fn csr_of_sorted<K: Copy + PartialEq>(
    n: usize,
    sorted: impl IntoIterator<Item = (K, u32)>,
) -> (Vec<K>, Vec<u32>, Vec<u32>) {
    let (mut keys, mut offsets, mut ids) = (Vec::new(), Vec::new(), Vec::with_capacity(n));
    for (key, id) in sorted {
        if keys.last() != Some(&key) {
            keys.push(key);
            offsets.push(ids.len() as u32);
        }
        ids.push(id);
    }
    offsets.push(n as u32);
    (keys, offsets, ids)
}

/// Structural validation of one partition's CSR arrays for
/// [`InvertedIndex::from_csr`]: postings cover exactly `len` ids, keys
/// strictly ascending and within the partition's `width` bits (the
/// prefix directory is indexed by their top bits), offsets a monotone
/// prefix sum spanning `0..n_ids`, every id in range.
fn validate_csr_part(
    p: usize,
    len: usize,
    width: usize,
    keys: &[u64],
    offsets: &[u32],
    ids: &[u32],
) -> Result<(), HammingError> {
    let n_ids = ids.len();
    let corrupt = |what: String| Err(HammingError::Corrupt(format!("part {p} {what}")));
    if n_ids != len {
        return corrupt(format!("holds {n_ids} postings for {len} vectors"));
    }
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return corrupt("keys are not sorted".into());
    }
    // Sorted, so the last key is the largest.
    if keys.last().is_some_and(|&k| prefix(k, key_bits(width)) != 0) {
        return corrupt(format!("key exceeds width {width}"));
    }
    if offsets.len() != keys.len() + 1 {
        return corrupt(format!("has {} offsets for {} keys", offsets.len(), keys.len()));
    }
    if offsets.first() != Some(&0) || offsets.last().copied() != Some(n_ids as u32) {
        return corrupt(format!("offsets do not span 0..{n_ids}"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return corrupt("offsets are not monotone".into());
    }
    match ids.iter().find(|&&id| id as usize >= len) {
        Some(id) => corrupt(format!("posting id {id} out of range for {len} vectors")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVector;
    use crate::dataset::Dataset;
    use crate::partition::Partitioning;
    use crate::project::Projector;

    fn build_table1() -> (Dataset, InvertedIndex, Projector) {
        let ds = Dataset::from_vectors(
            8,
            ["00000000", "00000111", "00001111", "10011111"]
                .iter()
                .map(|s| BitVector::parse(s).unwrap()),
        )
        .unwrap();
        let p = Partitioning::equi_width(8, 2).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        (ds, InvertedIndex::build(&pd), proj)
    }

    #[test]
    fn from_pairs_groups_unordered_full_width_keys() {
        // Hashed keys use all 64 bits, so the directory's prefixes do.
        let keys = [u64::MAX, 0, 1 << 63, 0x9E37_79B9_7F4A_7C15, 7];
        let pairs: Vec<(u64, u32)> =
            (0..40u32).rev().map(|id| (keys[id as usize * 7 % keys.len()], id)).collect();
        let part = PartIndex::from_pairs(64, pairs.clone());
        for key in keys.into_iter().chain([1, u64::MAX - 1]) {
            let expect: Vec<u32> = (0..40).filter(|&id| pairs.contains(&(key, id))).collect();
            assert_eq!(part.postings(key), expect, "key {key:#x}");
        }
        assert_eq!(part.size_bytes(), 40 * 4 + 5 * 8 + 6 * 4 + part.dir.len() * 4);
    }

    #[test]
    fn postings_group_equal_projections() {
        let (_, idx, _) = build_table1();
        // Partition 0 (dims 0..4): values 0000,0000,0000,1001.
        assert_eq!(idx.postings(0, 0b0000), &[0, 1, 2]);
        assert_eq!(idx.postings(0, 0b1001), &[3]);
        assert_eq!(idx.postings(0, 0b1111), &[] as &[u32]);
        assert_eq!(idx.part_keys(0).len(), 2);
        // Partition 1 (dims 4..8): 0000, 0111->bits 1,2,3, 1111, 1111.
        assert_eq!(idx.postings(1, 0b0000), &[0]);
        assert_eq!(idx.postings(1, 0b1110), &[1]); // dims 5,6,7 set
        assert_eq!(idx.postings(1, 0b1111), &[2, 3]);
    }

    #[test]
    fn key_walk_emits_the_rows_of_the_ball() {
        let (ds, idx, proj) = build_table1();
        let pd = ProjectedDataset::build(&ds, &proj);
        for part in 0..2 {
            for qk in 0..16u64 {
                for radius in 0..=4 {
                    let mut got = Vec::new();
                    let Ok(()) =
                        for_each_posting_within(idx.part(part), qk, radius, |id| got.push(id));
                    got.sort_unstable();
                    let col = pd.column(part);
                    let expect: Vec<u32> = (0..ds.len() as u32)
                        .filter(|&id| (col.key(id as usize) ^ qk).count_ones() as usize <= radius)
                        .collect();
                    assert_eq!(got, expect, "part={part} qk={qk} radius={radius}");
                }
            }
        }
    }

    #[test]
    fn postings_are_sorted() {
        let (_, idx, _) = build_table1();
        let l = idx.postings(1, 0b1111);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_dataset_index() {
        let ds = Dataset::new(8);
        let p = Partitioning::equi_width(8, 2).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        let idx = InvertedIndex::build(&pd);
        assert!(idx.is_empty());
        assert_eq!(idx.postings(0, 0), &[] as &[u32]);
    }

    #[test]
    fn size_accounting_positive() {
        let (_, idx, _) = build_table1();
        assert!(idx.size_bytes() > 0);
        // Exactly the four arrays of every partition, directory included.
        let arrays: usize = idx
            .parts
            .iter()
            .map(|pi| {
                pi.keys.len() * if pi.width <= 32 { 4 } else { 8 }
                    + size_of_val(&pi.offsets[..])
                    + size_of_val(&pi.ids[..])
                    + size_of_val(&pi.dir[..])
            })
            .sum();
        assert_eq!(idx.size_bytes(), arrays);
    }

    /// The index's serialized form: per partition `(width, keys,
    /// offsets, ids)`, the arrays snapshots store verbatim.
    type Csr = Vec<(usize, Vec<u64>, Vec<u32>, Vec<u32>)>;

    fn export(idx: &InvertedIndex) -> Csr {
        (0..idx.num_parts())
            .map(|p| {
                (
                    idx.part_width(p),
                    idx.part_keys(p).iter().collect(),
                    idx.part_offsets(p).to_vec(),
                    idx.part_ids(p).to_vec(),
                )
            })
            .collect()
    }

    fn directories(idx: &InvertedIndex) -> Vec<(&[u32], u32)> {
        idx.parts.iter().map(|pi| (&pi.dir[..], pi.shift)).collect()
    }

    #[test]
    fn builds_are_deterministic() {
        // The CSR layout is a canonical function of the data: two
        // independent builds of the same projected dataset must be
        // identical word for word, which is what makes snapshots
        // reproducible.
        let ds = Dataset::from_vectors(
            16,
            (0u32..200).map(|i| {
                BitVector::from_bits((0..16).map(|b| (i.wrapping_mul(2654435761) >> b) & 1 == 1))
            }),
        )
        .unwrap();
        let p = Partitioning::equi_width(16, 4).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        let a = InvertedIndex::build(&pd);
        let b = InvertedIndex::build(&pd);
        assert_eq!(export(&a), export(&b));
        assert_eq!(directories(&a), directories(&b));
        // And a third build over an independently re-projected dataset.
        let pd2 = ProjectedDataset::build(&ds, &Projector::new(&p));
        let c = InvertedIndex::build(&pd2);
        assert_eq!(export(&a), export(&c));
        assert_eq!(directories(&a), directories(&c));
        // The directory is a function of the keys alone: an index
        // reassembled from the exported arrays derives the same one.
        let d = InvertedIndex::from_csr(a.len(), export(&a)).unwrap();
        assert_eq!(directories(&a), directories(&d));
    }

    #[test]
    fn directory_holds_about_a_cache_line_of_keys_per_bucket() {
        // 200 distinct 16-bit keys: b = ⌊log₂ 200⌋ − 3 = 4, so 16
        // buckets over the top four bits, bounded by 17 slots.
        let keys: Vec<u64> = (0..200u64).map(|i| i * 327).collect();
        let offsets: Vec<u32> = (0..=200).collect();
        let ids: Vec<u32> = (0..200).collect();
        let idx = InvertedIndex::from_csr(200, vec![(16, keys.clone(), offsets, ids)]).unwrap();
        let pi = &idx.parts[0];
        assert_eq!((pi.dir.len(), pi.shift), (17, 12));
        assert_eq!((pi.dir[0], pi.dir[16]), (0, 200));
        for (h, w) in pi.dir.windows(2).enumerate() {
            assert!(keys[w[0] as usize..w[1] as usize].iter().all(|k| (k >> 12) as usize == h));
        }
        // Fewer than sixteen keys: one bucket, the whole-array search.
        let (_, small, _) = build_table1();
        assert!(small.parts.iter().all(|pi| pi.dir.len() == 2));
        // `InvertedIndex` is public: a key that is not a `width`-bit
        // value misses instead of indexing past the directory.
        assert_eq!(idx.postings(0, 1 << 16), &[] as &[u32]);
        assert_eq!(small.postings(0, u64::MAX), &[] as &[u32]);
    }

    #[test]
    fn encode_decode_roundtrip_is_byte_stable() {
        let (_, idx, _) = build_table1();
        let csr = export(&idx);
        let decoded = InvertedIndex::from_csr(idx.len(), csr.clone()).unwrap();
        assert_eq!(decoded.len(), idx.len());
        assert_eq!(decoded.num_parts(), idx.num_parts());
        assert_eq!(decoded.postings(0, 0b0000), idx.postings(0, 0b0000));
        assert_eq!(decoded.postings(1, 0b1111), idx.postings(1, 0b1111));
        assert_eq!(decoded.postings(1, 0b0101), &[] as &[u32]);
        // Re-exporting reproduces the exact arrays (sorted-key determinism).
        assert_eq!(export(&decoded), csr);
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let (_, idx, _) = build_table1();
        let good = export(&idx);
        let n = idx.len();
        assert!(InvertedIndex::from_csr(n, good.clone()).is_ok());
        let reject = |what: &str, mutate: &dyn Fn(&mut Csr)| {
            let mut bad = good.clone();
            mutate(&mut bad);
            match InvertedIndex::from_csr(n, bad) {
                Err(HammingError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        };
        reject("id out of range", &|c| *c[1].3.last_mut().unwrap() = 900);
        reject("postings do not cover every row", &|c| {
            c[0].3.pop();
        });
        reject("keys out of order", &|c| c[0].1.swap(0, 1));
        reject("repeated key", &|c| c[0].1[1] = c[0].1[0]);
        // Partitions are 4 bits wide; the directory is indexed by a
        // key's top bits, so a wider key would index past it.
        reject("key exceeds the partition's width", &|c| *c[0].1.last_mut().unwrap() = 1 << 4);
        reject("offset count does not match key count", &|c| {
            c[0].2.pop();
        });
        reject("offsets do not start at 0", &|c| c[0].2[0] = 1);
        reject("offsets do not end at n_ids", &|c| *c[0].2.last_mut().unwrap() -= 1);
        reject("offsets not monotone", &|c| c[1].2[1] = 4);
        // A declared cardinality the arrays do not match is caught too.
        assert!(InvertedIndex::from_csr(n + 1, good.clone()).is_err());
    }

    #[test]
    fn empty_index_roundtrips() {
        let ds = Dataset::new(8);
        let p = Partitioning::equi_width(8, 2).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        let idx = InvertedIndex::build(&pd);
        let decoded = InvertedIndex::from_csr(0, export(&idx)).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.num_parts(), 2);
    }
}
