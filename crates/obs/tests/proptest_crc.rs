//! Property tests for the CRC32 kernels: the carry-less-multiply kernel,
//! the slicing-by-8 table kernel and a bit-at-a-time reference compute
//! the same IEEE checksum for every length, alignment, initial state and
//! streaming split, on both sides of the kernel threshold.
//!
//! Where the CPU lacks `pclmulqdq`/`sse4.1` (or off x86-64) the
//! carry-less-multiply kernel reports `None` and only the table kernel is
//! checked against the reference.

use proptest::prelude::*;
use vp_obs::crc::{crc32, update_clmul, update_table, Crc32, CLMUL_MIN_LEN};

/// One reflected IEEE CRC step per bit: the definition the kernels must
/// reproduce.
fn reference(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            state = if state & 1 != 0 { (state >> 1) ^ 0xEDB8_8320 } else { state >> 1 };
        }
    }
    state
}

/// Deterministic bytes (SplitMix64), so a failing case prints its seed
/// rather than kilobytes of input.
fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
    let mut z = seed;
    (0..len)
        .map(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (x ^ (x >> 31)) as u8
        })
        .collect()
}

/// Both kernels on `bytes` from raw state `state`, each checked against
/// the reference.
fn check_kernels(state: u32, bytes: &[u8]) -> Result<(), TestCaseError> {
    let want = reference(state, bytes);
    prop_assert_eq!(update_table(state, bytes), want);
    if let Some(got) = update_clmul(state, bytes) {
        prop_assert_eq!(got, want);
    }
    Ok(())
}

#[test]
fn check_value_and_empty_input() {
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(!update_table(!0, b"123456789"), 0xcbf4_3926);
    if let Some(state) = update_clmul(!0, b"123456789") {
        assert_eq!(!state, 0xcbf4_3926);
    }
}

#[test]
fn every_length_up_to_4096_agrees_with_the_reference() {
    let data = bytes_from(0x5eed, 4096 + 15);
    for offset in [0usize, 5] {
        let mut want = !0u32;
        for len in 0..=4096 {
            let slice = &data[offset..offset + len];
            if len > 0 {
                want = reference(want, &slice[len - 1..]);
            }
            assert_eq!(update_table(!0, slice), want, "table: offset={offset} len={len}");
            if let Some(got) = update_clmul(!0, slice) {
                assert_eq!(got, want, "clmul: offset={offset} len={len}");
            }
            assert_eq!(crc32(slice), !want, "crc32: offset={offset} len={len}");
        }
    }
}

proptest! {
    /// Any length, any start alignment, any raw initial state.
    #[test]
    fn kernels_agree_for_any_length_alignment_and_state(
        len in prop_oneof![1 => 0usize..=4096, 1 => 48usize..=160],
        offset in 0usize..16,
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let data = bytes_from(seed, offset + len);
        check_kernels(state, &data[offset..])?;
    }

    /// Streaming over two slices equals one shot, with the split landing
    /// on either side of the kernel threshold in each half.
    #[test]
    fn streaming_splits_equal_one_shot(
        len in prop_oneof![1 => 0usize..=1024, 1 => 2 * CLMUL_MIN_LEN - 8..=2 * CLMUL_MIN_LEN + 136],
        split in prop_oneof![
            1 => 0usize..=1024,
            1 => CLMUL_MIN_LEN - 4..=CLMUL_MIN_LEN + 4,
            1 => 124usize..=132,
        ],
        seed in any::<u64>(),
    ) {
        let data = bytes_from(seed, len);
        let split = split.min(len);
        let mut crc = Crc32::new();
        crc.update(&data[..split]);
        crc.update(&data[split..]);
        prop_assert_eq!(crc.finish(), !reference(!0, &data));
        prop_assert_eq!(crc32(&data), !reference(!0, &data));
        // The raw kernels compose the same way.
        let mid = update_table(!0, &data[..split]);
        prop_assert_eq!(update_table(mid, &data[split..]), reference(!0, &data));
        if let Some(mid) = update_clmul(!0, &data[..split]) {
            prop_assert_eq!(update_clmul(mid, &data[split..]), Some(reference(!0, &data)));
        }
    }
}
