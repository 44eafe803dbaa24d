//! Differential tests for the payload decoder: the word-at-a-time
//! decoder (`decode_payload`) and the byte-loop reference
//! (`decode_payload_bytewise`) return the same result and append the
//! same events for every payload — canonical varints of every length,
//! every overlong spelling, values at each 7-bit boundary, a tenth byte
//! above 1, pcs above `u32::MAX`, and payloads cut anywhere, including
//! inside and exactly at the end of the 20-byte event window.

use proptest::prelude::*;
use vp_instrument::trace_codec::{
    decode_chunk, decode_payload, decode_payload_bytewise, CodecError,
};
use vp_obs::Crc32;

/// The event window of the word decoder: two varints of up to ten bytes.
const WINDOW: usize = 20;

/// `v` spelled in exactly `len` bytes (at least its canonical length,
/// at most ten): canonical when `len` is minimal, overlong otherwise.
fn spell(v: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut rest = v;
    for i in 0..len {
        let group = (rest & 0x7F) as u8;
        rest >>= 7;
        out.push(if i + 1 < len { group | 0x80 } else { group });
    }
    assert_eq!(rest, 0, "{v:#x} does not fit in {len} bytes");
    out
}

/// Bytes in the canonical spelling of `v`.
fn canonical_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Values on both sides of every 7-bit boundary, plus the extremes.
fn boundary_values() -> Vec<u64> {
    let mut values = vec![0, 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1, 1 << 63, u64::MAX];
    for k in 1..=9u32 {
        let edge = 1u64 << (7 * k);
        values.extend([edge - 1, edge, edge + 1]);
    }
    values
}

/// Runs both decoders on `payload` and checks they agree exactly.
fn assert_agree(payload: &[u8]) -> Result<(), CodecError> {
    let (mut fast, mut slow) = (vec![(7, 7)], vec![(7, 7)]);
    let got = decode_payload(payload, &mut fast);
    let want = decode_payload_bytewise(payload, &mut slow);
    assert_eq!(got, want, "result differs on {payload:02x?}");
    assert_eq!(fast, slow, "events differ on {payload:02x?}");
    want
}

/// One varint as a test token: canonical, overlong, or broken.
#[derive(Debug, Clone)]
enum Token {
    /// `value` in `len` bytes; overlong when `len` exceeds its minimum.
    Spelled { value: u64, extra: usize },
    /// A ten-byte varint whose tenth byte is `last` (valid only at 1).
    Tenth { low: u64, last: u8 },
    /// Eleven or more bytes: every byte continues.
    TooLong { len: usize },
}

impl Token {
    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            Token::Spelled { value, extra } => {
                let len = (canonical_len(value) + extra).min(10);
                out.extend(spell(value, len));
            }
            Token::Tenth { low, last } => {
                let mut bytes = spell(low & ((1 << 63) - 1), 10);
                bytes[9] = last;
                out.extend(bytes);
            }
            Token::TooLong { len } => {
                out.extend(std::iter::repeat_n(0x80, len - 1));
                out.push(0x01);
            }
        }
    }
}

/// Values weighted toward the 7-bit boundaries and each varint length.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..boundary_values().len()).prop_map(|i| boundary_values()[i]),
        (0u32..=64, any::<u64>()).prop_map(|(bits, x)| if bits == 0 {
            0
        } else {
            x >> (64 - bits)
        }),
    ]
}

fn token() -> impl Strategy<Value = Token> {
    prop_oneof![
        12 => (value(), Just(0usize)).prop_map(|(value, extra)| Token::Spelled { value, extra }),
        2 => (value(), 1usize..=9).prop_map(|(value, extra)| Token::Spelled { value, extra }),
        1 => (any::<u64>(), any::<u8>()).prop_map(|(low, last)| Token::Tenth { low, last }),
        1 => (11usize..=13).prop_map(|len| Token::TooLong { len }),
    ]
}

/// A payload of tokens, half the time cut short by up to 29 bytes.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(token(), 0..24), 0usize..60).prop_map(|(tokens, cut)| {
        let mut out = Vec::new();
        for t in &tokens {
            t.write(&mut out);
        }
        let cut = if cut < 30 { cut } else { 0 };
        out.truncate(out.len().saturating_sub(cut));
        out
    })
}

/// `pc`/`value` pairs of canonical varints only: always decodable.
fn valid_payload() -> impl Strategy<Value = (Vec<(u32, u64)>, Vec<u8>)> {
    prop::collection::vec((value(), value()), 0..40).prop_map(|pairs| {
        let mut events = Vec::new();
        let mut out = Vec::new();
        for (pc, v) in pairs {
            let pc = (pc & u64::from(u32::MAX)) as u32;
            out.extend(spell(u64::from(pc), canonical_len(u64::from(pc))));
            out.extend(spell(v, canonical_len(v)));
            events.push((pc, v));
        }
        (events, out)
    })
}

fn crc_of(count: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(&count.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

#[test]
fn every_spelling_of_every_boundary_value_at_every_window_offset() {
    // The varint under test sits after `lead` one-byte filler varints
    // and before `tail` more, so it starts at every offset of the
    // window and the payload ends before, inside and after the window.
    for v in boundary_values() {
        for len in canonical_len(v)..=10 {
            let spelled = spell(v, len);
            for lead in 0..=WINDOW {
                for tail in [0, 1, 2, 9, 10, 11, 19, 20, 21] {
                    let mut payload = vec![0x05; lead];
                    payload.extend(&spelled);
                    payload.extend(std::iter::repeat_n(0x06, tail));
                    let result = assert_agree(&payload);
                    if len > canonical_len(v) {
                        assert!(result.is_err(), "overlong {spelled:02x?} accepted");
                    }
                    // Every prefix of the longest layout: ends inside
                    // the varint, and at and around each window edge.
                    if tail == WINDOW + 1 {
                        for cut in 0..payload.len() {
                            assert_agree(&payload[..cut]).ok();
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn tenth_byte_must_be_exactly_one() {
    for last in 0..=255u8 {
        let mut varint = spell(0x1234_5678_9abc, 10);
        varint[9] = last;
        for lead in [0, 1, 9, 10, 11, 20] {
            let mut payload = vec![0x03; lead];
            payload.extend(&varint);
            payload.extend([0x04; 20]);
            let result = assert_agree(&payload);
            assert_eq!(result.is_ok(), last == 1 && lead % 2 == 1, "tenth byte {last:#x}");
        }
    }
}

#[test]
fn lengths_one_to_ten_decode_their_value() {
    for len in 1..=10 {
        let v = if len == 1 { 0x55 } else { 1u64 << (7 * (len - 1)) | 0x2A };
        let v = if len == 10 { 1 << 63 | 0x2A } else { v };
        assert_eq!(canonical_len(v), len);
        let mut payload = spell(7, 1);
        payload.extend(spell(v, len));
        payload.extend([0x01; 30]);
        let mut out = Vec::new();
        decode_payload(&payload, &mut out).unwrap();
        assert_eq!(out[0], (7, v), "length {len}");
        assert_agree(&payload).unwrap();
    }
}

proptest! {
    #[test]
    fn word_decoder_agrees_with_the_byte_loop(payload in payload()) {
        assert_agree(&payload).ok();
    }

    #[test]
    fn canonical_payloads_decode_exactly((events, payload) in valid_payload()) {
        let mut out = Vec::new();
        decode_payload(&payload, &mut out).unwrap();
        prop_assert_eq!(&out, &events);
        assert_agree(&payload).unwrap();
    }

    #[test]
    fn decode_chunk_accepts_exactly_what_the_byte_loop_accepts(
        payload in payload(),
        count_skew in -1i64..=1,
    ) {
        let mut reference = Vec::new();
        let decoded = decode_payload_bytewise(&payload, &mut reference);
        let count = (reference.len() as i64 + count_skew).max(0) as u32;
        let mut out = vec![(1, 1)];
        let got = decode_chunk(3, count, crc_of(count, &payload), &payload, &mut out);
        if decoded.is_ok() && count as usize == reference.len() {
            prop_assert_eq!(got, Ok(()));
            prop_assert_eq!(&out[1..], &reference[..]);
        } else {
            prop_assert_eq!(got, Err(CodecError::CorruptChunk { index: 3 }));
        }
    }
}
