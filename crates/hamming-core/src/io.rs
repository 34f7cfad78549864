//! Binary serialization: flat formats for datasets and partitionings,
//! plus the **offset-addressed container** ([`OffsetWriter`] writes it,
//! [`Container`] is its one reader) that frames every snapshot artifact
//! in the workspace (`GPHE` engines, `GPHS` segmented engines, `GPHM`
//! shard manifests).
//!
//! Dataset format (little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"HAMD"
//! version u32     = 1
//! dim     u64
//! len     u64
//! words   [u64]   = len * words_for(dim) raw words
//! ```
//!
//! The flat formats are intentionally dumb: datasets here are synthetic
//! and regenerable, so the only goals are speed and exact round-tripping.
//!
//! The container puts positional sections behind a magic + version
//! header and indexes them from a fixed-size footer at EOF; the footer
//! and every section carry a CRC-32, so any single-byte corruption
//! anywhere in the file is detected (CRC-32 catches all burst errors up
//! to 32 bits) and surfaces as [`HammingError::Corrupt`] rather than a
//! panic or silently wrong data.

use crate::dataset::Dataset;
use crate::error::{HammingError, Result};
use crate::partition::Partitioning;
use crate::words_for;
use bytes::{Buf, BufMut};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"HAMD";
const VERSION: u32 = 1;

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

/// Slicing-by-8 lookup tables for the reflected IEEE 802.3 polynomial.
/// `T[0]` is the classic byte-at-a-time table; `T[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes, so one step folds eight
/// input bytes with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3) of `bytes` — the per-section checksum of the
/// container format, also what shard manifests record per shard file.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// Streaming CRC-32 step over the raw (pre-inverted) register, so a
/// checksum can cover several non-contiguous slices. Eight bytes per
/// step (slicing-by-8), then the tail a byte at a time; the value does
/// not depend on how the input is split.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC-32 (IEEE 802.3) hasher for checksums that span
/// non-contiguous slices — e.g. a wire frame whose header and payload
/// are read separately. `Crc32::new().update(a).update(b).finish()`
/// equals [`crc32`] over the concatenation of `a` and `b`.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32(u32::MAX)
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(mut self, bytes: &[u8]) -> Self {
        self.0 = crc32_update(self.0, bytes);
        self
    }

    /// Finalizes and returns the CRC-32 value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Length-validated primitive reads
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a byte slice: every read validates the
/// remaining length and returns [`HammingError::Corrupt`] on underrun
/// instead of panicking. Section payload decoders across the workspace
/// are written against this.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(HammingError::Corrupt(format!(
                "{what}: need {n} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u64` and validates it fits a `usize` **and** that at
    /// least `per_item` bytes per counted item remain — the guard that
    /// stops a corrupt header from driving a huge allocation.
    pub fn len(&mut self, per_item: usize, what: &str) -> Result<usize> {
        let n = self.u64(what)?;
        let n_usize =
            usize::try_from(n).map_err(|_| HammingError::Corrupt(format!("{what}: {n} items")))?;
        if n_usize.checked_mul(per_item).is_none_or(|need| need > self.buf.len()) {
            return Err(HammingError::Corrupt(format!(
                "{what}: {n} items exceed the {} remaining bytes",
                self.buf.len()
            )));
        }
        Ok(n_usize)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        self.take(n, what)
    }

    /// Reads `n` little-endian `u32` values in one bounds check — the
    /// bulk path CSR posting decoders use instead of `n` cursor steps.
    pub fn u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>> {
        let raw = self.take(
            n.checked_mul(4).ok_or_else(|| {
                HammingError::Corrupt(format!("{what}: item count {n} overflows"))
            })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads `n` little-endian `u64` words.
    pub fn u64s(&mut self, n: usize, what: &str) -> Result<Vec<u64>> {
        let raw = self.take(
            n.checked_mul(8).ok_or_else(|| {
                HammingError::Corrupt(format!("{what}: word count {n} overflows"))
            })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Errors unless the reader is fully consumed.
    pub fn finish(self, what: &str) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(HammingError::Corrupt(format!("{what}: {} trailing bytes", self.buf.len())))
        }
    }
}

// ---------------------------------------------------------------------
// The offset-addressed container
// ---------------------------------------------------------------------

/// Alignment of payload sections in an offset-addressed container, and
/// the unit the cold-path page cache reads in. 4 KiB matches the common
/// OS page, and every element size used by the `GPHE` layout (u32 ids,
/// offsets and narrow keys, u64 wide keys) divides it, so scalar
/// element reads never straddle a page boundary.
pub const PAGE_SIZE: usize = 4096;

/// Byte length of an offset-addressed container's header:
/// `magic [u8;4] + version u32 + n_slots u32`.
pub const OFFSET_HEADER_LEN: usize = 12;

/// Trailing magic that terminates an offset-addressed container's
/// footer. A reader seeks to EOF, checks these four bytes, and walks
/// backward — no sequential decode required.
pub const FOOTER_MAGIC: [u8; 4] = *b"GPHF";

/// Bytes each footer slot occupies: `offset u64 + len u64 + crc u32`.
const SLOT_LEN: usize = 20;

/// Bytes of footer trailer after the slot table:
/// `version u32 + n_slots u32 + magic [u8;4] + crc u32 + FOOTER_MAGIC`.
const FOOTER_TRAILER_LEN: usize = 20;

/// One entry in an offset-addressed container's footer: where a section
/// lives in the file and the CRC-32 of its payload bytes. Slots are
/// positional — the format that owns the magic defines what slot `i`
/// holds (see `FORMAT.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionSlot {
    /// Absolute byte offset of the payload from the start of the
    /// container.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 ([`crc32`]) of the payload bytes.
    pub crc: u32,
}

/// Builds an offset-addressed container: a 12-byte header, sections
/// written back to back (payload sections optionally zero-padded to
/// [`PAGE_SIZE`] boundaries), and a fixed-size footer at EOF:
///
/// ```text
/// magic    [u8; 4]      caller-chosen file type
/// version  u32
/// n_slots  u32
/// sections ...           (aligned sections padded with zeros)
/// footer   n_slots × { offset u64, len u64, crc u32 }
///          version u32, n_slots u32, magic [u8; 4]
///          crc u32       CRC-32 of every preceding footer byte
///          magic    [u8; 4] = b"GPHF"
/// ```
///
/// Sections carry no tags: identity is the slot index, fixed per
/// container magic + version. The call order of
/// [`OffsetWriter::section`] / [`OffsetWriter::aligned_section`]
/// assigns slot indices.
pub struct OffsetWriter {
    magic: [u8; 4],
    version: u32,
    buf: Vec<u8>,
    slots: Vec<SectionSlot>,
}

impl OffsetWriter {
    /// Starts a container with the given magic and format version.
    pub fn new(magic: [u8; 4], version: u32) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.put_slice(&magic);
        buf.put_u32_le(version);
        buf.put_u32_le(0); // n_slots, patched by finish()
        OffsetWriter { magic, version, buf, slots: Vec::new() }
    }

    /// The file offset the next unaligned section would start at.
    pub fn pos(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Appends a section at the current offset and returns that offset.
    pub fn section(&mut self, payload: &[u8]) -> u64 {
        let offset = self.buf.len() as u64;
        self.slots.push(SectionSlot { offset, len: payload.len() as u64, crc: crc32(payload) });
        self.buf.put_slice(payload);
        offset
    }

    /// Zero-pads to the next [`PAGE_SIZE`] boundary, then appends a
    /// section there and returns its (page-aligned) offset. Padding is
    /// always zero bytes so containers stay byte-deterministic.
    pub fn aligned_section(&mut self, payload: &[u8]) -> u64 {
        let pos = self.buf.len();
        self.buf.resize(pos.next_multiple_of(PAGE_SIZE), 0);
        self.section(payload)
    }

    /// Finalizes the container: patches the header slot count and
    /// appends the footer.
    pub fn finish(mut self) -> Vec<u8> {
        let n = u32::try_from(self.slots.len()).expect("slot count fits u32");
        self.buf[8..OFFSET_HEADER_LEN].copy_from_slice(&n.to_le_bytes());
        let footer_start = self.buf.len();
        for s in &self.slots {
            self.buf.put_u64_le(s.offset);
            self.buf.put_u64_le(s.len);
            self.buf.put_u32_le(s.crc);
        }
        self.buf.put_u32_le(self.version);
        self.buf.put_u32_le(n);
        self.buf.put_slice(&self.magic);
        let crc = crc32(&self.buf[footer_start..]);
        self.buf.put_u32_le(crc);
        self.buf.put_slice(&FOOTER_MAGIC);
        self.buf
    }
}

/// Footer length in bytes for a container with `n_slots` sections.
pub const fn footer_len(n_slots: usize) -> usize {
    n_slots * SLOT_LEN + FOOTER_TRAILER_LEN
}

/// Where an offset-addressed container's bytes come from. The kind of
/// source decides how much [`Container::open`] validates up front.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// The whole container, in memory.
    Bytes(&'a [u8]),
    /// A `len`-byte container read on demand: `read_at(offset, buf)`
    /// fills `buf` from `offset` bytes past the container's start (a
    /// positional read of a file region).
    Region {
        /// Container length in bytes.
        len: u64,
        /// Positional read relative to the container's first byte.
        read_at: &'a dyn Fn(u64, &mut [u8]) -> Result<()>,
    },
}

impl Source<'_> {
    fn len(&self) -> u64 {
        match self {
            Source::Bytes(bytes) => bytes.len() as u64,
            Source::Region { len, .. } => *len,
        }
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self {
            // Callers read inside `0..len()` only.
            Source::Bytes(bytes) => {
                buf.copy_from_slice(&bytes[offset as usize..offset as usize + buf.len()]);
                Ok(())
            }
            Source::Region { read_at, .. } => read_at(offset, buf),
        }
    }
}

/// An opened offset-addressed container: the one reader of the
/// framing, for every format built on it (`GPHE`, `GPHS`, `GPHM`).
///
/// [`Container::open`] enforces every rule of `FORMAT.md` that does not
/// need the payloads: the header names the expected magic, the one
/// current version (an older or newer one fails as "unsupported version
/// N") and the slot count the format defines; the footer's echo of all
/// three equals the header; the footer CRC holds; every slot lies inside
/// the data region. What else is checked depends on the [`Source`]:
///
/// * [`Source::Bytes`] — every payload CRC, and that every byte between
///   sections is zero padding, up front; so any single-byte corruption
///   anywhere in the buffer is rejected at open.
/// * [`Source::Region`] — nothing more at open; [`Container::section`]
///   CRC-checks a section when it is read, and sections nobody reads
///   (the payload slabs a file-backed segment pages in) stay unread.
pub struct Container<'a> {
    source: Source<'a>,
    slots: Vec<SectionSlot>,
}

impl<'a> Container<'a> {
    /// Opens and validates the container in `source` as a `magic`
    /// container of `version` with exactly `n_slots` sections. Any
    /// violation is [`HammingError::Corrupt`], never a panic or a read
    /// outside the container.
    pub fn open(source: Source<'a>, magic: [u8; 4], version: u32, n_slots: usize) -> Result<Self> {
        let len = source.len();
        if len < OFFSET_HEADER_LEN as u64 {
            return Err(HammingError::Corrupt(format!(
                "{len} bytes cannot hold a container header"
            )));
        }
        let mut header = [0u8; OFFSET_HEADER_LEN];
        source.read(0, &mut header)?;
        let mut h = ByteReader::new(&header);
        let got = h.bytes(4, "container magic")?;
        if got != magic {
            return Err(HammingError::Corrupt(format!("bad magic {got:?}, expected {magic:?}")));
        }
        let got_version = h.u32("container version")?;
        if got_version != version {
            return Err(HammingError::Corrupt(format!(
                "unsupported version {got_version} (this reader loads version {version} only)"
            )));
        }
        let got_slots = h.u32("container slot count")?;
        if got_slots as usize != n_slots {
            return Err(HammingError::Corrupt(format!(
                "header declares {got_slots} sections, expected {n_slots}"
            )));
        }

        let footer_len = footer_len(n_slots);
        let data_end = len
            .checked_sub(footer_len as u64)
            .filter(|&e| e >= OFFSET_HEADER_LEN as u64)
            .ok_or_else(|| {
                HammingError::Corrupt(format!(
                    "footer of {footer_len} bytes does not fit the {len}-byte container"
                ))
            })?;
        let mut footer = vec![0u8; footer_len];
        source.read(data_end, &mut footer)?;
        // The footer CRC covers the slot table and the three echoes.
        let (covered, tail) = footer.split_at(footer_len - 8);
        if tail[4..] != FOOTER_MAGIC {
            return Err(HammingError::Corrupt(format!(
                "bad footer magic {:?}, expected {FOOTER_MAGIC:?}",
                &tail[4..]
            )));
        }
        if crc32(covered) != u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) {
            return Err(HammingError::Corrupt("footer checksum mismatch".into()));
        }
        let (table, echo) = covered.split_at(footer_len - FOOTER_TRAILER_LEN);
        if echo[..8] != header[4..] || echo[8..] != magic {
            return Err(HammingError::Corrupt("footer does not match the header".into()));
        }
        let mut r = ByteReader::new(table);
        let mut slots = Vec::with_capacity(n_slots);
        for i in 0..n_slots {
            let offset = r.u64("slot offset")?;
            let len = r.u64("slot length")?;
            let crc = r.u32("slot crc")?;
            let end = offset.checked_add(len).filter(|&e| e <= data_end);
            if offset < OFFSET_HEADER_LEN as u64 || end.is_none() {
                return Err(HammingError::Corrupt(format!(
                    "slot {i} at {offset}+{len} leaves the data region \
                     {OFFSET_HEADER_LEN}..{data_end}"
                )));
            }
            slots.push(SectionSlot { offset, len, crc });
        }
        let container = Container { source, slots };
        if let Source::Bytes(bytes) = source {
            container.check_payloads(bytes, data_end)?;
        }
        Ok(container)
    }

    /// The in-memory profile: every payload CRC, no overlapping slots,
    /// and zeros in every byte outside the header, the payloads and the
    /// footer — corruption there is invisible to the CRCs.
    fn check_payloads(&self, bytes: &[u8], data_end: u64) -> Result<()> {
        for i in 0..self.slots.len() {
            if crc32(&self.section(i)?) != self.slots[i].crc {
                return Err(HammingError::Corrupt(format!("checksum mismatch in slot {i}")));
            }
        }
        let mut spans: Vec<(u64, u64)> =
            self.slots.iter().map(|s| (s.offset, s.offset + s.len)).collect();
        spans.sort_unstable();
        let mut cursor = OFFSET_HEADER_LEN as u64;
        for (start, end) in spans.into_iter().chain([(data_end, data_end)]) {
            if start < cursor {
                return Err(HammingError::Corrupt(format!(
                    "slots overlap at offset {start} (previous section ends at {cursor})"
                )));
            }
            if bytes[cursor as usize..start as usize].iter().any(|&b| b != 0) {
                return Err(HammingError::Corrupt(format!("nonzero padding in {cursor}..{start}")));
            }
            cursor = cursor.max(end);
        }
        Ok(())
    }

    /// Where section `i` lives. Panics unless `i` is below the slot
    /// count passed to [`Container::open`].
    pub fn slot(&self, i: usize) -> SectionSlot {
        self.slots[i]
    }

    /// Fills `buf` from section `i`'s payload, starting `at` bytes into
    /// it, without reading the rest of the section: a [`Source::Bytes`]
    /// payload was CRC-checked at open, a [`Source::Region`] one is not
    /// checked here. A range that leaves the section is
    /// [`HammingError::Corrupt`]. Panics unless `i` is below the slot
    /// count.
    pub fn read_in(&self, i: usize, at: u64, buf: &mut [u8]) -> Result<()> {
        let s = self.slots[i];
        if at.checked_add(buf.len() as u64).is_none_or(|end| end > s.len) {
            return Err(HammingError::Corrupt(format!(
                "read of {} bytes at {at} leaves slot {i} of {} bytes",
                buf.len(),
                s.len
            )));
        }
        self.source.read(s.offset + at, buf)
    }

    /// The payload of section `i`: borrowed from a [`Source::Bytes`]
    /// buffer (verified at open), or read from a [`Source::Region`] and
    /// CRC-checked now. Panics unless `i` is below the slot count.
    pub fn section(&self, i: usize) -> Result<Cow<'a, [u8]>> {
        let s = self.slots[i];
        match self.source {
            Source::Bytes(bytes) => {
                Ok(Cow::Borrowed(&bytes[s.offset as usize..(s.offset + s.len) as usize]))
            }
            Source::Region { read_at, .. } => {
                let mut buf = vec![0u8; s.len as usize];
                read_at(s.offset, &mut buf)?;
                if crc32(&buf) != s.crc {
                    return Err(HammingError::Corrupt(format!("checksum mismatch in slot {i}")));
                }
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// Encodes `ds` into a byte buffer.
pub fn encode_dataset(ds: &Dataset) -> Vec<u8> {
    let wpv = words_for(ds.dim());
    let mut buf = Vec::with_capacity(24 + ds.len() * wpv * 8);
    buf.put_slice(&MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(ds.dim() as u64);
    buf.put_u64_le(ds.len() as u64);
    for row in ds.iter_rows() {
        for &w in row {
            buf.put_u64_le(w);
        }
    }
    buf
}

/// Decodes a dataset from bytes produced by [`encode_dataset`].
pub fn decode_dataset(mut bytes: &[u8]) -> Result<Dataset> {
    if bytes.len() < 24 {
        return Err(HammingError::Corrupt("header truncated".into()));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(HammingError::Corrupt(format!("bad magic {magic:?}")));
    }
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(HammingError::Corrupt(format!("unsupported version {version}")));
    }
    let dim = bytes.get_u64_le() as usize;
    let len = bytes.get_u64_le() as usize;
    let wpv = words_for(dim);
    let need = len
        .checked_mul(wpv)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| HammingError::Corrupt("size overflow".into()))?;
    if bytes.remaining() != need {
        return Err(HammingError::Corrupt(format!(
            "payload is {} bytes, expected {need}",
            bytes.remaining()
        )));
    }
    let mut ds = Dataset::with_capacity(dim, len);
    let tail_mask = if dim.is_multiple_of(64) { u64::MAX } else { (1u64 << (dim % 64)) - 1 };
    let mut row = vec![0u64; wpv];
    for _ in 0..len {
        for w in row.iter_mut() {
            *w = bytes.get_u64_le();
        }
        if let Some(last) = row.last() {
            if *last & !tail_mask != 0 {
                return Err(HammingError::Corrupt(
                    "trailing bits set beyond dimensionality".into(),
                ));
            }
        }
        ds.push_words(&row);
    }
    Ok(ds)
}

/// Writes `ds` to `path`.
pub fn write_dataset<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&encode_dataset(ds))?;
    w.flush()?;
    Ok(())
}

/// Reads a dataset from `path`.
pub fn read_dataset<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    let mut r = BufReader::new(File::open(path)?);
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_dataset(&bytes)
}

/// Writes `bytes` to `path` so that a crash can never leave a
/// half-written file under the final name: the bytes go to a
/// same-directory temp file, which is synced to disk before it is
/// renamed over `path`; on unix the directory is synced after the
/// rename, so the rename is durable too. `Gph::save`,
/// `SegmentedGph::save` and `ShardedIndex::snapshot` write through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

const PART_MAGIC: [u8; 4] = *b"HAMP";

/// Encodes a partitioning (the expensive offline artifact of GPH's GR
/// strategy, worth persisting across runs and τ settings).
///
/// Format: magic `HAMP`, version u32, dim u64, m u64, then per partition
/// a u32 length and u32 dimension ids.
pub fn encode_partitioning(p: &Partitioning) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + p.dim() * 4);
    buf.put_slice(&PART_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(p.dim() as u64);
    buf.put_u64_le(p.num_parts() as u64);
    for part in p.parts() {
        buf.put_u32_le(part.len() as u32);
        for &d in part {
            buf.put_u32_le(d);
        }
    }
    buf
}

/// Decodes a partitioning written by [`encode_partitioning`], re-running
/// full disjoint-cover validation.
pub fn decode_partitioning(mut bytes: &[u8]) -> Result<Partitioning> {
    if bytes.len() < 24 {
        return Err(HammingError::Corrupt("partitioning header truncated".into()));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if magic != PART_MAGIC {
        return Err(HammingError::Corrupt(format!("bad magic {magic:?}")));
    }
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(HammingError::Corrupt(format!("unsupported version {version}")));
    }
    let dim = bytes.get_u64_le() as usize;
    let m = bytes.get_u64_le() as usize;
    if m > dim.max(1) {
        return Err(HammingError::Corrupt(format!("{m} partitions for {dim} dims")));
    }
    // Validate the declared counts against the actual byte count BEFORE
    // allocating: a corrupt header could otherwise declare ~2^64 dims and
    // drive `Vec::with_capacity` into a huge allocation. Each partition
    // needs at least its 4-byte length, and the dimension ids across all
    // partitions total exactly `dim` u32s.
    if m > bytes.remaining() / 4 {
        return Err(HammingError::Corrupt(format!(
            "{m} partitions exceed the {} remaining bytes",
            bytes.remaining()
        )));
    }
    if dim > bytes.remaining() / 4 {
        return Err(HammingError::Corrupt(format!(
            "{dim} dims exceed the {} remaining bytes",
            bytes.remaining()
        )));
    }
    let mut parts = Vec::with_capacity(m);
    for _ in 0..m {
        if bytes.remaining() < 4 {
            return Err(HammingError::Corrupt("partition length truncated".into()));
        }
        let len = bytes.get_u32_le() as usize;
        if bytes.remaining() < len * 4 {
            return Err(HammingError::Corrupt("partition body truncated".into()));
        }
        let mut part = Vec::with_capacity(len);
        for _ in 0..len {
            part.push(bytes.get_u32_le());
        }
        parts.push(part);
    }
    if bytes.has_remaining() {
        return Err(HammingError::Corrupt("trailing bytes".into()));
    }
    Partitioning::new(dim, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVector;

    fn sample(dim: usize, n: usize) -> Dataset {
        let mut ds = Dataset::new(dim);
        for i in 0..n {
            let mut v = BitVector::zeros(dim);
            for d in 0..dim {
                if (i * 31 + d * 7) % 3 == 0 {
                    v.set(d, true);
                }
            }
            ds.push(&v).unwrap();
        }
        ds
    }

    #[test]
    fn roundtrip_in_memory() {
        for (dim, n) in [(8, 4), (64, 10), (130, 7), (881, 3)] {
            let ds = sample(dim, n);
            let decoded = decode_dataset(&encode_dataset(&ds)).unwrap();
            assert_eq!(decoded.dim(), dim);
            assert_eq!(decoded.len(), n);
            for i in 0..n {
                assert_eq!(decoded.row(i), ds.row(i), "dim={dim} row={i}");
            }
        }
    }

    #[test]
    fn roundtrip_via_file() {
        let ds = sample(100, 20);
        let dir = std::env::temp_dir().join("hamming_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.hamd");
        write_dataset(&ds, &path).unwrap();
        let decoded = read_dataset(&path).unwrap();
        assert_eq!(decoded.len(), 20);
        assert_eq!(decoded.row(19), ds.row(19));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("hamming_core_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gphe");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_corruption() {
        let ds = sample(16, 2);
        let mut bytes = encode_dataset(&ds);
        assert!(decode_dataset(&bytes[..10]).is_err()); // truncated header
        bytes[0] = b'X';
        assert!(decode_dataset(&bytes).is_err()); // bad magic
        let mut bytes2 = encode_dataset(&ds);
        bytes2.truncate(bytes2.len() - 1);
        assert!(decode_dataset(&bytes2).is_err()); // truncated payload
        let mut bytes3 = encode_dataset(&ds);
        let last = bytes3.len() - 1;
        bytes3[last] = 0xFF; // dim=16, so high bytes of the word must be 0
        assert!(decode_dataset(&bytes3).is_err());
    }

    #[test]
    fn partitioning_roundtrip() {
        let p = Partitioning::random_shuffle(100, 7, 3).unwrap();
        let decoded = decode_partitioning(&encode_partitioning(&p)).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn partitioning_rejects_corruption() {
        let p = Partitioning::equi_width(16, 4).unwrap();
        let bytes = encode_partitioning(&p);
        assert!(decode_partitioning(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_partitioning(&bad).is_err());
        // Flip a dimension id so the cover breaks (duplicate dim).
        let mut dup = bytes.clone();
        let last = dup.len() - 4;
        dup[last..].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_partitioning(&dup).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_partitioning(&trailing).is_err());
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new(32);
        let decoded = decode_dataset(&encode_dataset(&ds)).unwrap();
        assert_eq!(decoded.len(), 0);
        assert_eq!(decoded.dim(), 32);
    }

    #[test]
    fn forged_huge_headers_error_before_allocating() {
        // A corrupt header declaring ~2^64 rows/dims must be rejected by
        // byte-count validation, not by attempting the allocation.
        let mut ds_bytes = encode_dataset(&sample(16, 2));
        ds_bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // len
        assert!(decode_dataset(&ds_bytes).is_err());
        let mut ds_bytes2 = encode_dataset(&sample(16, 2));
        ds_bytes2[8..16].copy_from_slice(&u64::MAX.to_le_bytes()); // dim
        assert!(decode_dataset(&ds_bytes2).is_err());

        let p = Partitioning::equi_width(16, 4).unwrap();
        let mut p_bytes = encode_partitioning(&p);
        // dim and m both forged huge (m <= dim keeps the first check quiet).
        p_bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        p_bytes[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(decode_partitioning(&p_bytes).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_crc32_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0usize, 1, 7, data.len() / 2, data.len()] {
            let (a, b) = data.split_at(split);
            assert_eq!(Crc32::new().update(a).update(b).finish(), crc32(data), "split={split}");
        }
        assert_eq!(Crc32::new().finish(), 0);
    }

    /// A positional read over `bytes`, as a file region would serve it.
    fn reader(bytes: &[u8]) -> impl Fn(u64, &mut [u8]) -> Result<()> + '_ {
        move |offset, buf| {
            let start = offset as usize;
            let src = bytes.get(start..start + buf.len()).ok_or_else(|| {
                HammingError::Corrupt(format!("read of {} at {offset} past the end", buf.len()))
            })?;
            buf.copy_from_slice(src);
            Ok(())
        }
    }

    /// Opens `bytes` through both sources.
    fn open_both(bytes: &[u8], magic: [u8; 4], version: u32, n: usize) -> [Result<()>; 2] {
        let read = reader(bytes);
        let region = Source::Region { len: bytes.len() as u64, read_at: &read };
        [Source::Bytes(bytes), region]
            .map(|src| Container::open(src, magic, version, n).map(|_| ()))
    }

    #[test]
    fn offset_container_roundtrip_and_alignment() {
        let mut w = OffsetWriter::new(*b"TSTO", 3);
        w.section(b"meta payload");
        w.section(b"");
        let rows_off = w.aligned_section(&[0xAB; 100]);
        let keys_off = w.aligned_section(&[0xCD; 16]);
        let bytes = w.finish();
        assert_eq!(rows_off % PAGE_SIZE as u64, 0);
        assert_eq!(keys_off % PAGE_SIZE as u64, 0);
        assert!(keys_off > rows_off);
        let read = reader(&bytes);
        let region = Source::Region { len: bytes.len() as u64, read_at: &read };
        for source in [Source::Bytes(&bytes), region] {
            let c = Container::open(source, *b"TSTO", 3, 4).unwrap();
            assert_eq!(&*c.section(0).unwrap(), b"meta payload");
            assert_eq!(&*c.section(1).unwrap(), b"");
            assert_eq!(&*c.section(2).unwrap(), &[0xAB; 100][..]);
            assert_eq!(&*c.section(3).unwrap(), &[0xCD; 16][..]);
            assert_eq!(c.slot(2).offset, rows_off);
        }
    }

    #[test]
    fn offset_container_detects_every_single_byte_corruption() {
        let mut w = OffsetWriter::new(*b"TSTO", 1);
        w.section(b"small meta");
        w.aligned_section(&[7u8; 64]);
        let bytes = w.finish();
        assert!(Container::open(Source::Bytes(&bytes), *b"TSTO", 1, 2).is_ok());
        let flen = footer_len(2);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let [resident, region] = open_both(&bad, *b"TSTO", 1, 2);
            assert!(resident.is_err(), "flip at byte {i} went undetected");
            // A region checks the header and footer at open, payloads
            // when they are read.
            let framing = i < OFFSET_HEADER_LEN || i >= bytes.len() - flen;
            assert_eq!(region.is_err(), framing, "flip at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(open_both(&bytes[..cut], *b"TSTO", 1, 2).iter().all(Result::is_err));
        }
    }

    #[test]
    fn footer_rejects_forged_offsets_without_panicking() {
        let mut w = OffsetWriter::new(*b"TSTO", 1);
        w.section(b"abc");
        w.aligned_section(&[1u8; 32]);
        let bytes = w.finish();
        let footer_start = bytes.len() - footer_len(2);
        // Forge each slot field in turn, re-sealing the footer CRC so
        // only the bounds checks can catch it.
        let forge = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = bytes.clone();
            patch(&mut bad);
            let crc_at = bad.len() - 8;
            let crc = crc32(&bad[footer_start..crc_at]);
            bad[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            bad
        };
        let corrupt = |bad: &[u8]| {
            open_both(bad, *b"TSTO", 1, 2)
                .iter()
                .all(|r| matches!(r, Err(HammingError::Corrupt(_))))
        };
        // Slot 0 offset pushed past EOF.
        assert!(corrupt(&forge(&|b: &mut Vec<u8>| {
            b[footer_start..footer_start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        })));
        // Slot 0 length forged huge (offset+len overflows / exceeds file).
        assert!(corrupt(&forge(&|b: &mut Vec<u8>| {
            b[footer_start + 8..footer_start + 16].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        })));
        // Slot 0 offset inside the header.
        assert!(corrupt(&forge(&|b: &mut Vec<u8>| {
            b[footer_start..footer_start + 8].copy_from_slice(&3u64.to_le_bytes());
        })));
        // The footer's slot-count echo forged huge, CRC re-sealed: it
        // must equal the header's, and nothing is sized from it.
        assert!(corrupt(&forge(&|b: &mut Vec<u8>| {
            let n_at = b.len() - 16;
            b[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        })));
        // A slot overlapping another is caught by full validation.
        let bad = forge(&|b: &mut Vec<u8>| {
            let second = footer_start + SLOT_LEN;
            let first_off =
                u64::from_le_bytes(b[footer_start..footer_start + 8].try_into().unwrap());
            b[second..second + 8].copy_from_slice(&first_off.to_le_bytes());
            b[second + 8..second + 16].copy_from_slice(&3u64.to_le_bytes());
            b[second + 16..second + 20].copy_from_slice(&crc32(b"abc").to_le_bytes());
        });
        assert!(Container::open(Source::Bytes(&bad), *b"TSTO", 1, 2).is_err());
    }

    #[test]
    fn footer_rejects_wrong_magic_and_version() {
        let mut w = OffsetWriter::new(*b"TSTO", 3);
        w.section(b"x");
        let bytes = w.finish();
        assert!(open_both(&bytes, *b"TSTO", 3, 1).iter().all(Result::is_ok));
        assert!(open_both(&bytes, *b"ELSE", 3, 1).iter().all(Result::is_err));
        assert!(open_both(&bytes, *b"TSTO", 3, 2).iter().all(Result::is_err));
        // Older and newer versions alike are named, on both sources.
        for reader_version in [2, 4] {
            for got in open_both(&bytes, *b"TSTO", reader_version, 1) {
                match got {
                    Err(HammingError::Corrupt(msg)) => {
                        assert!(msg.contains("unsupported version 3"), "{msg}")
                    }
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }
        // A region shorter than a header is rejected before any read.
        let read = reader(&bytes);
        let short = Source::Region { len: 4, read_at: &read };
        assert!(Container::open(short, *b"TSTO", 3, 1).is_err());
    }

    #[test]
    fn byte_reader_validates_counts() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert!(r.len(4, "items").is_err(), "huge count must not pass");
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(&2u64.to_le_bytes());
        buf2.extend_from_slice(&[0u8; 8]);
        let mut r2 = ByteReader::new(&buf2);
        assert_eq!(r2.len(4, "items").unwrap(), 2);
        assert_eq!(r2.u64s(1, "words").unwrap(), vec![0]);
        assert!(r2.finish("buf").is_ok());
    }
}
