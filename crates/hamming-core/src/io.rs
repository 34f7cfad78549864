//! Binary serialization: flat formats for datasets and partitionings,
//! plus the **offset-addressed container** ([`OffsetWriter`] /
//! [`Footer`]) that frames every snapshot artifact in the workspace
//! (`GPHE` engines, `GPHS` segmented engines, `GPHM` shard manifests).
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
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"HAMD";
const VERSION: u32 = 1;

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

/// 256-entry lookup table for the reflected IEEE 802.3 polynomial.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of `bytes` — the per-section checksum of the
/// container format, also what shard manifests record per shard file.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// Streaming CRC-32 step over the raw (pre-inverted) register, so a
/// checksum can cover several non-contiguous slices.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
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
/// OS page, and every element size used by the v3 layout (u32 ids and
/// offsets, u64 keys) divides it, so scalar element reads never straddle
/// a page boundary.
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
/// [`PAGE_SIZE`] boundaries), and a fixed-size [`Footer`] at EOF:
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
        assert!(n <= Footer::MAX_SLOTS, "{n} slots exceed Footer::MAX_SLOTS");
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

/// The parsed footer of an offset-addressed container: the format
/// version and the slot table. Obtained via [`Footer::parse`] (from a
/// file tail, without touching payloads — the cold open path) or
/// [`Footer::parse_bytes`] (from a full in-memory container, with every
/// payload CRC and padding byte validated — the resident decode path).
#[derive(Clone, Debug)]
pub struct Footer {
    version: u32,
    slots: Vec<SectionSlot>,
}

impl Footer {
    /// Most slots any container declares. Bounds the footer length a
    /// reader will trust before validating anything else, so a corrupt
    /// slot count cannot drive a huge allocation.
    pub const MAX_SLOTS: u32 = 64;

    /// Largest possible footer length in bytes. Reading this many bytes
    /// from EOF (or the whole file if shorter) always captures the
    /// complete footer of a valid container.
    pub const MAX_LEN: usize = Self::MAX_SLOTS as usize * SLOT_LEN + FOOTER_TRAILER_LEN;

    /// Footer length in bytes for a container with `n_slots` sections.
    pub fn footer_len(n_slots: usize) -> usize {
        n_slots * SLOT_LEN + FOOTER_TRAILER_LEN
    }

    /// Parses a footer from the tail of a file of total length
    /// `file_len`, where `tail` holds the file's **last** `tail.len()`
    /// bytes (at least [`Footer::MAX_LEN`], or the whole file when
    /// shorter). Validates the trailing magic, the magic echo, the
    /// version, the footer CRC, and that every slot lies inside
    /// `[OFFSET_HEADER_LEN, file_len - footer_len)` with checked
    /// arithmetic — a corrupt offset or length yields
    /// [`HammingError::Corrupt`], never a panic or an out-of-file read.
    /// Payload CRCs are **not** checked here; cold readers verify each
    /// section as they first touch it.
    pub fn parse(magic: [u8; 4], max_version: u32, file_len: u64, tail: &[u8]) -> Result<Footer> {
        if (tail.len() as u64) > file_len {
            return Err(HammingError::Corrupt(format!(
                "footer tail of {} bytes exceeds the {file_len}-byte file",
                tail.len()
            )));
        }
        if tail.len() < FOOTER_TRAILER_LEN {
            return Err(HammingError::Corrupt(format!(
                "file tail of {} bytes cannot hold a footer trailer",
                tail.len()
            )));
        }
        let (rest, trailer) = tail.split_at(tail.len() - FOOTER_TRAILER_LEN);
        let mut r = ByteReader::new(trailer);
        let version = r.u32("footer version")?;
        let n_slots = r.u32("footer slot count")?;
        let magic_echo = r.bytes(4, "footer magic echo")?;
        let crc = r.u32("footer crc")?;
        let end_magic = r.bytes(4, "footer magic")?;
        if end_magic != FOOTER_MAGIC {
            return Err(HammingError::Corrupt(format!(
                "bad footer magic {end_magic:?}, expected {FOOTER_MAGIC:?}"
            )));
        }
        if magic_echo != magic {
            return Err(HammingError::Corrupt(format!(
                "footer for a {magic_echo:?} container, expected {magic:?}"
            )));
        }
        if version == 0 || version > max_version {
            return Err(HammingError::Corrupt(format!(
                "unsupported container version {version} (reader supports 1..={max_version})"
            )));
        }
        if n_slots > Self::MAX_SLOTS {
            return Err(HammingError::Corrupt(format!(
                "footer declares {n_slots} slots (supported: 0..={})",
                Self::MAX_SLOTS
            )));
        }
        let footer_len = Self::footer_len(n_slots as usize);
        if footer_len > tail.len() {
            return Err(HammingError::Corrupt(format!(
                "footer of {footer_len} bytes truncated to the {}-byte tail",
                tail.len()
            )));
        }
        let data_end = file_len
            .checked_sub(footer_len as u64)
            .filter(|&e| e >= OFFSET_HEADER_LEN as u64)
            .ok_or_else(|| {
                HammingError::Corrupt(format!(
                    "footer of {footer_len} bytes does not fit the {file_len}-byte file"
                ))
            })?;
        let table = &rest[rest.len() - (footer_len - FOOTER_TRAILER_LEN)..];
        // The footer CRC covers the slot table and the trailer fields
        // before the CRC itself.
        let covered_crc =
            Crc32::new().update(table).update(&trailer[..FOOTER_TRAILER_LEN - 8]).finish();
        if covered_crc != crc {
            return Err(HammingError::Corrupt("footer checksum mismatch".into()));
        }
        let mut tr = ByteReader::new(table);
        let mut slots = Vec::with_capacity(n_slots as usize);
        for i in 0..n_slots {
            let offset = tr.u64("slot offset")?;
            let len = tr.u64("slot length")?;
            let slot_crc = tr.u32("slot crc")?;
            let end = offset.checked_add(len).ok_or_else(|| {
                HammingError::Corrupt(format!("slot {i} offset+len overflows u64"))
            })?;
            if offset < OFFSET_HEADER_LEN as u64 || end > data_end {
                return Err(HammingError::Corrupt(format!(
                    "slot {i} spans {offset}..{end}, outside the data region \
                     {OFFSET_HEADER_LEN}..{data_end}"
                )));
            }
            slots.push(SectionSlot { offset, len, crc: slot_crc });
        }
        tr.finish("footer slot table")?;
        Ok(Footer { version, slots })
    }

    /// Parses and **fully validates** an in-memory container: the
    /// header (magic, version, and slot count must match the footer),
    /// the footer itself, every slot's payload CRC, and that every gap
    /// between sections is zero padding — so any single-byte corruption
    /// anywhere in the container is detected.
    pub fn parse_bytes(magic: [u8; 4], max_version: u32, bytes: &[u8]) -> Result<Footer> {
        let footer = Self::parse(magic, max_version, bytes.len() as u64, bytes)?;
        let mut h = ByteReader::new(bytes);
        let got = h.bytes(4, "container magic")?;
        if got != magic {
            return Err(HammingError::Corrupt(format!("bad magic {got:?}, expected {magic:?}")));
        }
        let h_version = h.u32("container version")?;
        let h_slots = h.u32("container slot count")?;
        if h_version != footer.version || h_slots as usize != footer.slots.len() {
            return Err(HammingError::Corrupt(format!(
                "header declares version {h_version} / {h_slots} slots, footer says {} / {}",
                footer.version,
                footer.slots.len()
            )));
        }
        for (i, slot) in footer.slots.iter().enumerate() {
            let payload = footer.payload(bytes, i)?;
            if crc32(payload) != slot.crc {
                return Err(HammingError::Corrupt(format!("checksum mismatch in slot {i}")));
            }
        }
        // Every byte outside the header, the payloads, and the footer
        // must be zero padding; anything else is corruption the CRCs
        // cannot see.
        let data_end = bytes.len() - Self::footer_len(footer.slots.len());
        let mut spans: Vec<(u64, u64)> =
            footer.slots.iter().map(|s| (s.offset, s.offset + s.len)).collect();
        spans.sort_unstable();
        let mut cursor = OFFSET_HEADER_LEN as u64;
        for (start, end) in spans.into_iter().chain([(data_end as u64, data_end as u64)]) {
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
        Ok(footer)
    }

    /// The container's format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of slots in the footer.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Slot `i`, or [`HammingError::Corrupt`] when the footer has fewer
    /// slots than the format requires.
    pub fn slot(&self, i: usize) -> Result<SectionSlot> {
        self.slots.get(i).copied().ok_or_else(|| {
            HammingError::Corrupt(format!(
                "footer has {} slots, slot {i} required",
                self.slots.len()
            ))
        })
    }

    /// The payload of slot `i` within an in-memory container,
    /// bounds-checked against the buffer (no CRC check — use after
    /// [`Footer::parse_bytes`], which verifies every payload).
    pub fn payload<'a>(&self, bytes: &'a [u8], i: usize) -> Result<&'a [u8]> {
        let slot = self.slot(i)?;
        let start = usize::try_from(slot.offset)
            .ok()
            .filter(|&s| s <= bytes.len())
            .ok_or_else(|| HammingError::Corrupt(format!("slot {i} offset out of range")))?;
        let len = usize::try_from(slot.len)
            .ok()
            .filter(|&l| l <= bytes.len() - start)
            .ok_or_else(|| HammingError::Corrupt(format!("slot {i} length out of range")))?;
        Ok(&bytes[start..start + len])
    }
}

/// Rejects a container whose header carries `magic` but a retired
/// version below `current` (the tagged-section generations of `GPHE`,
/// `GPHS` and `GPHM`). Those files have no footer, so without this check
/// they would surface as a confusing "bad footer magic"; anything else
/// falls through to [`Footer`]'s validation.
pub fn reject_retired_version(magic: [u8; 4], current: u32, header: &[u8]) -> Result<()> {
    if header.len() >= 8 && header[..4] == magic {
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version < current {
            return Err(HammingError::Corrupt(format!(
                "unsupported version {version} (this reader loads version {current} only)"
            )));
        }
    }
    Ok(())
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
        let f = Footer::parse_bytes(*b"TSTO", 3, &bytes).unwrap();
        assert_eq!(f.version(), 3);
        assert_eq!(f.n_slots(), 4);
        assert_eq!(f.payload(&bytes, 0).unwrap(), b"meta payload");
        assert_eq!(f.payload(&bytes, 1).unwrap(), b"");
        assert_eq!(f.payload(&bytes, 2).unwrap(), &[0xAB; 100][..]);
        assert_eq!(f.payload(&bytes, 3).unwrap(), &[0xCD; 16][..]);
        assert!(f.slot(4).is_err());
        // The cold open path: footer parsed from a bounded tail only.
        let tail_start = bytes.len().saturating_sub(Footer::MAX_LEN);
        let cold = Footer::parse(*b"TSTO", 3, bytes.len() as u64, &bytes[tail_start..]).unwrap();
        assert_eq!(cold.n_slots(), 4);
        assert_eq!(cold.slot(2).unwrap(), f.slot(2).unwrap());
    }

    #[test]
    fn offset_container_detects_every_single_byte_corruption() {
        let mut w = OffsetWriter::new(*b"TSTO", 1);
        w.section(b"small meta");
        w.aligned_section(&[7u8; 64]);
        let bytes = w.finish();
        assert!(Footer::parse_bytes(*b"TSTO", 1, &bytes).is_ok());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Footer::parse_bytes(*b"TSTO", 1, &bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(Footer::parse_bytes(*b"TSTO", 1, &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn footer_rejects_forged_offsets_without_panicking() {
        let mut w = OffsetWriter::new(*b"TSTO", 1);
        w.section(b"abc");
        w.aligned_section(&[1u8; 32]);
        let bytes = w.finish();
        let footer_len = Footer::footer_len(2);
        let footer_start = bytes.len() - footer_len;
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
        // Slot 0 offset pushed past EOF.
        let bad = forge(&|b: &mut Vec<u8>| {
            b[footer_start..footer_start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(matches!(
            Footer::parse(*b"TSTO", 1, bad.len() as u64, &bad),
            Err(HammingError::Corrupt(_))
        ));
        // Slot 0 length forged huge (offset+len overflows / exceeds file).
        let bad = forge(&|b: &mut Vec<u8>| {
            b[footer_start + 8..footer_start + 16].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        });
        assert!(matches!(
            Footer::parse(*b"TSTO", 1, bad.len() as u64, &bad),
            Err(HammingError::Corrupt(_))
        ));
        // Slot 0 offset inside the header.
        let bad = forge(&|b: &mut Vec<u8>| {
            b[footer_start..footer_start + 8].copy_from_slice(&3u64.to_le_bytes());
        });
        assert!(matches!(
            Footer::parse(*b"TSTO", 1, bad.len() as u64, &bad),
            Err(HammingError::Corrupt(_))
        ));
        // Slot count forged beyond MAX_SLOTS: rejected before any
        // slot-table allocation.
        let mut bad = bytes.clone();
        let n_at = bad.len() - 16;
        bad[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Footer::parse(*b"TSTO", 1, bad.len() as u64, &bad),
            Err(HammingError::Corrupt(_))
        ));
        // A slot overlapping another is caught by full validation.
        let bad = forge(&|b: &mut Vec<u8>| {
            let second = footer_start + SLOT_LEN;
            let first_off =
                u64::from_le_bytes(b[footer_start..footer_start + 8].try_into().unwrap());
            b[second..second + 8].copy_from_slice(&first_off.to_le_bytes());
            b[second + 8..second + 16].copy_from_slice(&3u64.to_le_bytes());
            b[second + 16..second + 20].copy_from_slice(&crc32(b"abc").to_le_bytes());
        });
        assert!(Footer::parse_bytes(*b"TSTO", 1, &bad).is_err());
    }

    #[test]
    fn footer_rejects_wrong_magic_and_version() {
        let mut w = OffsetWriter::new(*b"TSTO", 3);
        w.section(b"x");
        let bytes = w.finish();
        assert!(Footer::parse(*b"ELSE", 3, bytes.len() as u64, &bytes).is_err());
        assert!(Footer::parse(*b"TSTO", 2, bytes.len() as u64, &bytes).is_err());
        assert!(Footer::parse(*b"TSTO", 3, bytes.len() as u64, &bytes).is_ok());
        // A tail longer than the declared file length is inconsistent.
        assert!(Footer::parse(*b"TSTO", 3, 4, &bytes).is_err());
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
