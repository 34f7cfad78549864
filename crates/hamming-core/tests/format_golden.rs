//! Golden-bytes test for the offset-addressed container framing.
//!
//! Pins the worked example in the workspace-level `FORMAT.md`
//! ("Worked example: a minimal v3 container") byte-for-byte: a
//! two-section `GPHX` container whose exact header, padding, slot
//! table, and trailer hex are printed in the spec. If this test fails,
//! either the framing changed (bump the container versions and update
//! FORMAT.md) or the spec rotted.

use hamming_core::io::{footer_len, Container, OffsetWriter, Source, OFFSET_HEADER_LEN, PAGE_SIZE};

/// Builds the spec's example: magic "GPHX", version 3, section 0 =
/// b"GPH!" (unaligned), section 1 = [1..=8] (page-aligned).
fn example_container() -> Vec<u8> {
    let mut w = OffsetWriter::new(*b"GPHX", 3);
    let off0 = w.section(b"GPH!");
    let off1 = w.aligned_section(&[1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(off0, OFFSET_HEADER_LEN as u64);
    assert_eq!(off1, PAGE_SIZE as u64);
    w.finish()
}

#[test]
fn worked_example_matches_format_md_byte_for_byte() {
    let bytes = example_container();

    // FORMAT.md: "Total file length: 4164 bytes".
    assert_eq!(bytes.len(), 4164);

    // Header hex from the spec.
    assert_eq!(
        &bytes[..OFFSET_HEADER_LEN],
        &[0x47, 0x50, 0x48, 0x58, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00],
    );

    // Section 0 payload at offset 12, then zero padding to 4096.
    assert_eq!(&bytes[12..16], b"GPH!");
    assert!(bytes[16..PAGE_SIZE].iter().all(|&b| b == 0), "inter-section padding must be zero");
    assert_eq!(&bytes[PAGE_SIZE..PAGE_SIZE + 8], &[1, 2, 3, 4, 5, 6, 7, 8]);

    // Slot table hex from the spec (offset 4104, 40 bytes).
    #[rustfmt::skip]
    let slot_table: [u8; 40] = [
        0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // slot 0 offset = 12
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // slot 0 len    = 4
        0x7b, 0x44, 0xf2, 0x3f,                         // slot 0 crc
        0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // slot 1 offset = 4096
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // slot 1 len    = 8
        0xc5, 0x88, 0xca, 0x3f,                         // slot 1 crc
    ];
    assert_eq!(&bytes[4104..4144], &slot_table);

    // Trailer hex from the spec (last 20 bytes).
    #[rustfmt::skip]
    let trailer: [u8; 20] = [
        0x03, 0x00, 0x00, 0x00,                         // version echo
        0x02, 0x00, 0x00, 0x00,                         // n_slots echo
        0x47, 0x50, 0x48, 0x58,                         // magic echo "GPHX"
        0x4e, 0x3d, 0x0f, 0xce,                         // footer crc
        0x47, 0x50, 0x48, 0x46,                         // footer magic "GPHF"
    ];
    assert_eq!(&bytes[4144..], &trailer);
}

#[test]
fn worked_example_round_trips_through_both_open_paths() {
    let bytes = example_container();

    // Resident open: full validation including payload CRCs + padding.
    let c = Container::open(Source::Bytes(&bytes), *b"GPHX", 3, 2).expect("resident open");
    assert_eq!(&*c.section(0).expect("slot 0"), b"GPH!");
    assert_eq!(&*c.section(1).expect("slot 1"), &[1, 2, 3, 4, 5, 6, 7, 8]);

    // Cold open: header and footer validated through positional reads,
    // as the file-backed restore does. footer_len(2) = 2*20 + 20 = 60.
    assert_eq!(footer_len(2), 60);
    let read_at = |offset: u64, buf: &mut [u8]| {
        let at = offset as usize;
        buf.copy_from_slice(&bytes[at..at + buf.len()]);
        Ok(())
    };
    let region = Source::Region { len: bytes.len() as u64, read_at: &read_at };
    let c = Container::open(region, *b"GPHX", 3, 2).expect("cold open");
    assert_eq!(c.slot(1).offset, PAGE_SIZE as u64);
    assert_eq!(&*c.section(0).expect("slot 0"), b"GPH!");
}
