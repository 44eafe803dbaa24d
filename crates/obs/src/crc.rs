//! CRC32 (IEEE 802.3, reflected) — no dependencies.
//!
//! One checksum implementation serves every integrity footer in the
//! workspace: the durable profile files in `vp-core` and the binary
//! trace chunks and session frames in `vp-instrument` (which sits
//! *below* `vp-core` in the dependency order, so the shared code lives
//! here at the bottom).
//!
//! Two entry points: the one-shot [`crc32`] and the streaming [`Crc32`]
//! hasher, which lets callers checksum several regions (a chunk header
//! followed by its payload, say) without concatenating them first. Both
//! advance the same raw state through one of two kernels, which compute
//! the identical checksum:
//!
//! * **Carry-less multiply** ([`update_clmul`]), on x86-64 CPUs with
//!   `pclmulqdq` and `sse4.1`, for inputs of at least [`CLMUL_MIN_LEN`]
//!   bytes. It folds four 128-bit lanes per 64 input bytes, folds the
//!   lanes into one, and ends in a Barrett reduction to 32 bits: the
//!   scheme of Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction" (Gopal et al., 2009), with that
//!   paper's bit-reflected constants for the IEEE polynomial. The CPU is
//!   probed with `is_x86_feature_detected!`, which caches its answer, so
//!   the check costs a load and a branch per call.
//! * **Slicing-by-8 tables** ([`update_table`]), eight bytes per table
//!   round: every shorter input, every CPU without those features, and
//!   every target other than x86-64.
//!
//! Either way, checksum verification stays off the replay and serve
//! flame graphs.

/// Inputs at least this long take the carry-less-multiply kernel where
/// the CPU has it: four 16-byte lanes, the least its fold loads. It
/// already wins there (64 bytes: about 15 ns against 42 ns by table on a
/// 2-vCPU x86-64 VM; 0.07 against 0.9 ns/B from 4 KiB up).
pub const CLMUL_MIN_LEN: usize = 64;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][i]` extends the remainder of `TABLES[k-1][i]` by one
/// more zero byte, letting eight input bytes fold in one round.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances the raw (pre-inversion) CRC state over `bytes` with the
/// fastest kernel this CPU runs.
fn update_state(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN && clmul::available() {
        // SAFETY: `available` confirmed that the CPU implements
        // `pclmulqdq` and `sse4.1`, the features `clmul::update` enables.
        return unsafe { clmul::update(state, bytes) };
    }
    update_table(state, bytes)
}

/// The slicing-by-8 kernel: advances the raw (pre-inversion) CRC state
/// over `bytes`. Runs on every target; [`crc32`] and [`Crc32`] use it
/// for inputs the carry-less-multiply kernel does not take.
pub fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        crc ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(crc & 0xFF) as usize]
            ^ TABLES[6][((crc >> 8) & 0xFF) as usize]
            ^ TABLES[5][((crc >> 16) & 0xFF) as usize]
            ^ TABLES[4][(crc >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply kernel: advances the raw (pre-inversion) CRC
/// state over `bytes`, or `None` where the CPU lacks `pclmulqdq` and
/// `sse4.1` or the target is not x86-64. An input shorter than
/// [`CLMUL_MIN_LEN`], and the last `len % 16` bytes of a longer one, go
/// through [`update_table`].
pub fn update_clmul(state: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `available` confirmed the features `update` enables.
        return Some(unsafe { clmul::update(state, bytes) });
    }
    let _ = (state, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected constants for P = 0x04C11DB7, each `(x^n mod P)`
    // reflected over 32 bits and shifted left by one.
    /// n = 4·128 + 32: folds a lane across the 512-bit (four-lane) stride.
    const K1: i64 = 0x1_5444_2bd4;
    /// n = 4·128 − 32.
    const K2: i64 = 0x1_c6e4_1596;
    /// n = 128 + 32: folds one lane into the next.
    const K3: i64 = 0x1_7519_97d0;
    /// n = 128 − 32.
    const K4: i64 = 0x0_ccaa_009e;
    /// n = 64: the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself, reflected over 33 bits.
    const P_X: i64 = 0x1_db71_0641;
    /// ⌊x^64 / P⌋, reflected over 33 bits: the Barrett multiplier.
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU runs [`update`].
    pub fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Takes the next 16 bytes of `bytes` as one lane.
    #[inline]
    fn lane(bytes: &mut &[u8]) -> __m128i {
        let (head, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `head` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(head.as_ptr().cast::<__m128i>()) }
    }

    /// `acc · x^n ⊕ next` for the `n` whose constants `keys` holds: each
    /// 64-bit half of `acc` is multiplied by its own constant.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw CRC state over `bytes`: whole 16-byte lanes by
    /// folding, the tail (and any input under [`CLMUL_MIN_LEN`]) by table.
    ///
    /// # Safety
    ///
    /// The CPU must implement `pclmulqdq` and `sse4.1`: call it only
    /// after [`available`] returned true.
    ///
    /// [`CLMUL_MIN_LEN`]: super::CLMUL_MIN_LEN
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub fn update(state: u32, mut bytes: &[u8]) -> u32 {
        if bytes.len() < super::CLMUL_MIN_LEN {
            return super::update_table(state, bytes);
        }
        // Four lanes in flight; the running state enters through the
        // low 32 bits of the first.
        let mut x3 = lane(&mut bytes);
        let mut x2 = lane(&mut bytes);
        let mut x1 = lane(&mut bytes);
        let mut x0 = lane(&mut bytes);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, lane(&mut bytes), k1k2);
            x2 = fold(x2, lane(&mut bytes), k1k2);
            x1 = fold(x1, lane(&mut bytes), k1k2);
            x0 = fold(x0, lane(&mut bytes), k1k2);
        }
        // Four lanes into one, then one lane per remaining 16 bytes.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, lane(&mut bytes), k3k4);
        }
        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_table(crc, bytes)
    }
}

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update_state(!0, bytes)
}

/// Streaming CRC32: `update` over any sequence of slices yields the same
/// checksum as [`crc32`] over their concatenation.
///
/// ```
/// use vp_obs::crc::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"value ");
/// crc.update(b"profiling");
/// assert_eq!(crc.finish(), crc32(b"value profiling"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (empty input hashes to 0).
    pub const fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update_state(self.state, bytes);
    }

    /// The checksum of everything updated so far. Non-destructive: more
    /// `update` calls may follow.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_any_bit() {
        let base = crc32(b"value profiling");
        let mut bytes = b"value profiling".to_vec();
        bytes[3] ^= 0x10;
        assert_ne!(crc32(&bytes), base);
    }

    #[test]
    fn sliced_kernel_matches_byte_at_a_time_reference() {
        // Lengths straddling the 8-byte fold boundary, content chosen so
        // every table index fires.
        let data: Vec<u8> = (0u32..1024).map(|i| (i.wrapping_mul(251) >> 3) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255, 1024] {
            let mut reference = !0u32;
            for &b in &data[..len] {
                reference = (reference >> 8) ^ TABLES[0][((reference ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data[..len]), !reference, "len={len}");
        }
    }

    #[test]
    fn clmul_kernel_matches_table_kernel() {
        let data: Vec<u8> =
            (0u32..2048).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in [0, 63, 64, 65, 127, 128, 129, 191, 192, 255, 1000, 2048] {
            for state in [!0u32, 0, 0x1234_5678] {
                let table = update_table(state, &data[..len]);
                if let Some(clmul) = update_clmul(state, &data[..len]) {
                    assert_eq!(clmul, table, "len={len} state={state:#x}");
                }
                assert_eq!(update_state(state, &data[..len]), table, "len={len}");
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 13) as u8).collect();
        let expect = crc32(&data);
        for split in [0, 1, 3, 8, 9, 150, 299, 300] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), expect, "split={split}");
        }
    }
}
