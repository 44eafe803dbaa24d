//! Compact binary value-trace format: record a workload's `(pc, value)`
//! stream once, replay it many times/ways (ATOM's trace-once,
//! analyze-many methodology, applied to the value profiler's hot path).
//!
//! The codec stores only the destination-value stream the profilers
//! consume — which is all that batched ingestion and intra-workload
//! sharding need — in LEB128 varints.
//!
//! ## Wire format
//!
//! ```text
//! file    := magic chunk* trailer
//! magic   := "VPC1"                          (4 bytes)
//! chunk   := len:u32le count:u32le crc:u32le payload[len]
//!            len   — payload bytes, always > 0
//!            count — events in the payload
//!            crc   — CRC32 of len‖count‖payload
//! payload := count × ( varint(pc) varint(value) )   (LEB128, canonical)
//! trailer := 0:u32le total:u64le crc:u32le
//!            total — events in the whole file
//!            crc   — CRC32 of 0‖total
//! ```
//!
//! A zero `len` field is what distinguishes the trailer from a chunk
//! header, so an empty trace is just `magic + trailer`. Every region of
//! the file is covered by a CRC32 ([`vp_obs::crc32`], the same checksum
//! behind `vp_core::durable`'s profile footers): decoding verifies each
//! chunk's checksum and event count, the trailer's checksum and total,
//! and that the file ends exactly at the trailer — truncated or
//! bit-flipped traces are rejected, never mis-decoded.
//!
//! Varints are **canonical** LEB128: the final byte of a multi-byte
//! encoding must be nonzero, so every `u64` has exactly one wire form
//! and decode∘encode is byte-identity on valid files. Overlong forms
//! (`80 00` for 0, say) are rejected as corruption — without this rule
//! two distinct CRC-valid payloads could decode to identical events.
//!
//! Replay reads the whole file into memory once; [`ChunkReader`]
//! borrows those bytes, and [`ChunkReader::next_chunk_into`] decodes
//! each chunk into a caller-reused scratch buffer — no chunk is ever
//! copied into an intermediate `Vec` on the way to `observe_batch`.
//!
//! ## Decoding varints a word at a time
//!
//! [`decode_payload`] reads each event from a 20-byte window (two
//! varints of at most ten bytes), so one bounds check covers the event.
//! Each varint loads the 8-byte word at its start. The 1- and 2-byte
//! forms are settled by a branch on their continuation bits; for longer
//! ones the terminator is the lowest set bit of `!word &
//! 0x8080_8080_8080_8080`, the canonical last byte is checked once, and
//! three shift/mask steps gather the 7-bit groups. A 9- or 10-byte
//! varint is the word plus a tail byte or two, and the tenth byte must
//! be exactly `1`. Fewer than 20 bytes from the payload end the byte
//! loop takes over; it is also the reference
//! ([`decode_payload_bytewise`]).
//!
//! The two decoders agree exactly: inside the window the byte loop
//! cannot run out of bytes, for lengths 1–9 its only rule is that a
//! multi-byte varint's last byte is nonzero (the word decoder's one
//! test), and at ten bytes its overflow and canonical rules together
//! admit a tenth byte of exactly 1. Both check the pc bound after the
//! value, so on an error they leave the same events behind. DESIGN.md
//! §13 gives the case analysis and the measurements.

use std::fmt;

use vp_obs::{crc32, Crc32};

/// File magic, versioned (`VPC` + format version `1`).
pub const MAGIC: &[u8; 4] = b"VPC1";

/// Default events per chunk — large enough to amortize the per-chunk
/// header, CRC check and profiler dispatch during batched replay, small
/// enough that a buffered reader stays cache-friendly.
pub const DEFAULT_CHUNK_EVENTS: usize = 8192;

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file ends before a complete chunk, trailer, or varint.
    Truncated,
    /// A chunk's checksum or event count does not match its payload.
    CorruptChunk {
        /// Zero-based index of the offending chunk.
        index: usize,
    },
    /// The trailer's checksum or event total does not match the chunks.
    CorruptTrailer,
    /// Bytes follow the trailer.
    TrailingData,
    /// A varint is malformed: more than 10 bytes, overflows u64, or is
    /// a non-canonical overlong encoding.
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a VPC1 value trace (bad magic)"),
            CodecError::Truncated => write!(f, "trace truncated mid-chunk or missing trailer"),
            CodecError::CorruptChunk { index } => {
                write!(f, "trace chunk {index} corrupt (checksum or count mismatch)")
            }
            CodecError::CorruptTrailer => write!(f, "trace trailer corrupt (checksum or total)"),
            CodecError::TrailingData => write!(f, "unexpected data after trace trailer"),
            CodecError::BadVarint => write!(f, "malformed varint in trace payload"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Payload bytes one event can occupy at most: two varints of up to ten
/// bytes each. While at least this many remain, the word decoder reads
/// both of an event's varints from one fixed-size window, checked
/// against the payload once.
const EVENT_WINDOW: usize = 20;

/// The continuation bit of every byte of a little-endian word.
const CONTINUATION: u64 = 0x8080_8080_8080_8080;

/// Packs the seven low bits of each byte of `w` (continuation bits
/// already clear) into one 56-bit value, byte 0 lowest: three shift/mask
/// steps merge 7-bit groups into 14-, 28- and then 56-bit ones.
#[inline(always)]
fn gather7(w: u64) -> u64 {
    let w = (w & 0x007F_007F_007F_007F) | ((w & 0x7F00_7F00_7F00_7F00) >> 1);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x3FFF_0000_3FFF_0000) >> 2);
    (w & 0x0000_0000_0FFF_FFFF) | ((w & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Decodes the canonical varint at `window[at..]` a word at a time and
/// returns it with its length; `at` is at most ten, so the varint cannot
/// run off the window. Accepts exactly the byte strings [`read_varint`]
/// accepts (DESIGN.md §13).
///
/// The one- and two-byte forms (most pcs and small values) are settled
/// by a branch on their first continuation bits before the terminator
/// search: the branch predictor then runs ahead to the next varint
/// instead of waiting on the `trailing_zeros` chain.
#[inline(always)]
fn word_varint(window: &[u8; EVENT_WINDOW], at: usize) -> Result<(u64, usize), CodecError> {
    let word = u64::from_le_bytes(window[at..at + 8].try_into().expect("8-byte window"));
    if word & 0x80 == 0 {
        return Ok((word & 0x7F, 1));
    }
    if word & 0x8000 == 0 {
        let hi = (word >> 8) & 0x7F;
        if hi == 0 {
            return Err(CodecError::BadVarint);
        }
        return Ok((word & 0x7F | hi << 7, 2));
    }
    let stops = !word & CONTINUATION;
    if stops != 0 {
        // Three to eight bytes: the lowest clear continuation bit ends the
        // varint, and `stops ^ (stops - 1)` keeps bytes 0..=last.
        let last = stops.trailing_zeros() as usize / 8;
        let bits = word & (stops ^ (stops - 1));
        // Canonical form: a multi-byte varint never ends in a zero byte.
        if bits >> (8 * last) == 0 {
            return Err(CodecError::BadVarint);
        }
        return Ok((gather7(bits & !CONTINUATION), last + 1));
    }
    // Nine or ten bytes: the word holds the low 56 bits.
    let low = gather7(word & !CONTINUATION);
    let ninth = u64::from(window[at + 8]);
    if ninth & 0x80 == 0 {
        if ninth == 0 {
            return Err(CodecError::BadVarint);
        }
        return Ok((low | ninth << 56, 9));
    }
    // The tenth byte carries only bit 63: it must be exactly 1 (0 is
    // overlong, more overflows or continues past ten bytes).
    if window[at + 9] != 1 {
        return Err(CodecError::BadVarint);
    }
    Ok((low | (ninth & 0x7F) << 56 | 1 << 63, 10))
}

/// Decodes one canonical varint a byte at a time: the reference decoder,
/// and the one the payload tail uses.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        // The tenth byte of a u64 varint may only carry the top bit of
        // the value; anything more would overflow.
        if shift == 63 && byte > 1 {
            return Err(CodecError::BadVarint);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            // Canonical form: a multi-byte encoding never ends in a zero
            // byte — that value already fit in fewer bytes.
            if byte == 0 && shift > 0 {
                return Err(CodecError::BadVarint);
            }
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::BadVarint);
        }
    }
}

/// Decodes one `(pc, value)` pair a byte at a time from `bytes[*pos..]`.
#[inline]
fn read_event(bytes: &[u8], pos: &mut usize) -> Result<(u32, u64), CodecError> {
    let pc = read_varint(bytes, pos)?;
    let value = read_varint(bytes, pos)?;
    let pc = u32::try_from(pc).map_err(|_| CodecError::BadVarint)?;
    Ok((pc, value))
}

/// Decodes a whole chunk payload — `(pc, value)` varint pairs — appending
/// the events to `out`. While 20 bytes (two ten-byte varints) remain,
/// each event takes one bounds check and two word decodes; the last few
/// events go through the byte loop.
///
/// Fails with `BadVarint` on an overlong, over-long or overflowing
/// varint or a pc above `u32::MAX`, and with `Truncated` when the
/// payload ends inside a varint; `out` then holds the events before the
/// bad one. Agrees with [`decode_payload_bytewise`] on every input,
/// result and appended events alike.
pub fn decode_payload(payload: &[u8], out: &mut Vec<(u32, u64)>) -> Result<(), CodecError> {
    let mut pos = 0;
    while payload.len() - pos >= EVENT_WINDOW {
        let window = payload[pos..pos + EVENT_WINDOW].try_into().expect("event window");
        let (pc, pc_len) = word_varint(window, 0)?;
        let (value, value_len) = word_varint(window, pc_len)?;
        let pc = u32::try_from(pc).map_err(|_| CodecError::BadVarint)?;
        out.push((pc, value));
        pos += pc_len + value_len;
    }
    while pos < payload.len() {
        out.push(read_event(payload, &mut pos)?);
    }
    Ok(())
}

/// The reference for [`decode_payload`]: the same contract, decoded one
/// byte at a time.
pub fn decode_payload_bytewise(
    payload: &[u8],
    out: &mut Vec<(u32, u64)>,
) -> Result<(), CodecError> {
    let mut pos = 0;
    while pos < payload.len() {
        out.push(read_event(payload, &mut pos)?);
    }
    Ok(())
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len()).ok_or(CodecError::Truncated)?;
    let v = u32::from_le_bytes(bytes[*pos..end].try_into().expect("4-byte slice"));
    *pos = end;
    Ok(v)
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let end = pos.checked_add(8).filter(|&e| e <= bytes.len()).ok_or(CodecError::Truncated)?;
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().expect("8-byte slice"));
    *pos = end;
    Ok(v)
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Streaming trace encoder: push events as the simulator produces them;
/// each full chunk is sealed (header + checksum) and appended to the
/// output buffer immediately, so peak transient state is one chunk.
#[derive(Debug)]
pub struct TraceEncoder {
    out: Vec<u8>,
    payload: Vec<u8>,
    chunk_events: u32,
    max_chunk_events: usize,
    chunks: u64,
    total: u64,
}

impl TraceEncoder {
    /// Encoder with the default chunk size.
    pub fn new() -> TraceEncoder {
        TraceEncoder::with_chunk_events(DEFAULT_CHUNK_EVENTS)
    }

    /// Encoder sealing a chunk every `chunk_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_events` is zero.
    pub fn with_chunk_events(chunk_events: usize) -> TraceEncoder {
        assert!(chunk_events > 0, "chunk size must be at least one event");
        TraceEncoder {
            out: MAGIC.to_vec(),
            payload: Vec::new(),
            chunk_events: 0,
            max_chunk_events: chunk_events,
            chunks: 0,
            total: 0,
        }
    }

    /// Appends one `(pc, value)` event.
    pub fn push(&mut self, pc: u32, value: u64) {
        push_varint(&mut self.payload, u64::from(pc));
        push_varint(&mut self.payload, value);
        self.chunk_events += 1;
        self.total += 1;
        if self.chunk_events as usize >= self.max_chunk_events {
            self.seal_chunk();
        }
    }

    /// Appends a batch of events.
    pub fn push_all(&mut self, events: &[(u32, u64)]) {
        for &(pc, value) in events {
            self.push(pc, value);
        }
    }

    /// Events encoded so far.
    pub fn events(&self) -> u64 {
        self.total
    }

    /// Chunks sealed so far (the partial chunk, if any, not included).
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    fn seal_chunk(&mut self) {
        debug_assert!(!self.payload.is_empty());
        let len = (self.payload.len() as u32).to_le_bytes();
        let count = self.chunk_events.to_le_bytes();
        // Streaming CRC over header + payload, no scratch concatenation.
        let mut crc = Crc32::new();
        crc.update(&len);
        crc.update(&count);
        crc.update(&self.payload);
        self.out.extend_from_slice(&len);
        self.out.extend_from_slice(&count);
        self.out.extend_from_slice(&crc.finish().to_le_bytes());
        self.out.extend_from_slice(&self.payload);
        self.payload.clear();
        self.chunk_events = 0;
        self.chunks += 1;
    }

    /// Seals the final partial chunk, appends the trailer, and returns
    /// the complete file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if !self.payload.is_empty() {
            self.seal_chunk();
        }
        let mut trailer = Vec::with_capacity(12);
        trailer.extend_from_slice(&0u32.to_le_bytes());
        trailer.extend_from_slice(&self.total.to_le_bytes());
        let crc = crc32(&trailer);
        self.out.extend_from_slice(&trailer);
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.out
    }
}

impl Default for TraceEncoder {
    fn default() -> TraceEncoder {
        TraceEncoder::new()
    }
}

/// One-shot convenience: encodes `events` with the given chunk size.
pub fn encode(events: &[(u32, u64)], chunk_events: usize) -> Vec<u8> {
    let mut enc = TraceEncoder::with_chunk_events(chunk_events);
    enc.push_all(events);
    enc.finish()
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Buffered chunk reader: verifies the magic up front, then yields one
/// decoded chunk at a time so replay never materializes more than one
/// chunk beyond what the caller keeps.
#[derive(Debug)]
pub struct ChunkReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    chunk_index: usize,
    decoded: u64,
    done: bool,
}

impl<'a> ChunkReader<'a> {
    /// Starts reading `bytes`; fails immediately on a bad magic.
    pub fn new(bytes: &'a [u8]) -> Result<ChunkReader<'a>, CodecError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        Ok(ChunkReader { bytes, pos: MAGIC.len(), chunk_index: 0, decoded: 0, done: false })
    }

    /// The replay primitive: decodes the next chunk into `events`
    /// (cleared first), so a caller looping over chunks reuses one
    /// scratch allocation for the whole trace. Returns `Ok(true)` when a
    /// chunk was decoded and `Ok(false)` once the trailer has been
    /// reached and verified; after that, further calls keep returning
    /// `Ok(false)`.
    pub fn next_chunk_into(&mut self, events: &mut Vec<(u32, u64)>) -> Result<bool, CodecError> {
        events.clear();
        self.decode_chunk_append(events)
    }

    /// Decodes every remaining chunk, appending the events to `out` —
    /// the whole-stream analogue of [`ChunkReader::next_chunk_into`],
    /// with no per-chunk intermediate `Vec`.
    pub fn read_to_end_into(&mut self, out: &mut Vec<(u32, u64)>) -> Result<(), CodecError> {
        while self.decode_chunk_append(out)? {}
        Ok(())
    }

    fn decode_chunk_append(&mut self, out: &mut Vec<(u32, u64)>) -> Result<bool, CodecError> {
        if self.done {
            return Ok(false);
        }
        let header_start = self.pos;
        let len = read_u32(self.bytes, &mut self.pos)? as usize;
        if len == 0 {
            // Trailer: verify the total and checksum, require exact EOF.
            let total = read_u64(self.bytes, &mut self.pos)?;
            let stored_crc = read_u32(self.bytes, &mut self.pos)?;
            if crc32(&self.bytes[header_start..header_start + 12]) != stored_crc
                || total != self.decoded
            {
                return Err(CodecError::CorruptTrailer);
            }
            if self.pos != self.bytes.len() {
                return Err(CodecError::TrailingData);
            }
            self.done = true;
            return Ok(false);
        }
        let count = read_u32(self.bytes, &mut self.pos)?;
        let stored_crc = read_u32(self.bytes, &mut self.pos)?;
        let payload_end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Truncated)?;
        // The header's len‖count bytes are exactly what `decode_chunk`
        // checksums, so a file chunk and a framed one verify alike.
        let payload = &self.bytes[self.pos..payload_end];
        decode_chunk(self.chunk_index, count, stored_crc, payload, out)?;
        self.pos = payload_end;
        self.decoded += u64::from(count);
        self.chunk_index += 1;
        Ok(true)
    }

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> usize {
        self.chunk_index
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.decoded
    }
}

/// Decodes a whole trace, verifying every chunk and the trailer.
pub fn decode(bytes: &[u8]) -> Result<Vec<(u32, u64)>, CodecError> {
    let mut reader = ChunkReader::new(bytes)?;
    let mut events = Vec::new();
    reader.read_to_end_into(&mut events)?;
    Ok(events)
}

// ---------------------------------------------------------------------
// Raw (still-encoded) chunk access — the serve wire primitives
// ---------------------------------------------------------------------

/// One chunk exactly as it sits in a VPC1 file: header fields plus the
/// undecoded varint payload. `vprof client` frames these over the wire
/// so the daemon verifies the very CRC the recorded file carried —
/// end-to-end integrity, not hop-by-hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawChunk<'a> {
    /// Events the payload claims to encode.
    pub count: u32,
    /// Stored CRC32 over the chunk's len/count header and payload.
    pub crc: u32,
    /// The varint-encoded `(pc, value)` pairs, unverified.
    pub payload: &'a [u8],
}

/// Splits a VPC1 byte stream into its raw chunks without decoding any
/// payload. The magic, every chunk CRC, and the trailer are still fully
/// verified — a corrupt or truncated file is rejected here, never
/// streamed.
pub fn raw_chunks(bytes: &[u8]) -> Result<Vec<RawChunk<'_>>, CodecError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let mut chunks = Vec::new();
    let mut total = 0u64;
    loop {
        let header_start = pos;
        let len = read_u32(bytes, &mut pos)? as usize;
        if len == 0 {
            let trailer_total = read_u64(bytes, &mut pos)?;
            let stored_crc = read_u32(bytes, &mut pos)?;
            if crc32(&bytes[header_start..header_start + 12]) != stored_crc
                || trailer_total != total
            {
                return Err(CodecError::CorruptTrailer);
            }
            if pos != bytes.len() {
                return Err(CodecError::TrailingData);
            }
            return Ok(chunks);
        }
        let count = read_u32(bytes, &mut pos)?;
        let stored_crc = read_u32(bytes, &mut pos)?;
        let payload_end =
            pos.checked_add(len).filter(|&e| e <= bytes.len()).ok_or(CodecError::Truncated)?;
        let payload = &bytes[pos..payload_end];
        if !chunk_is_intact(count, stored_crc, payload) {
            return Err(CodecError::CorruptChunk { index: chunks.len() });
        }
        chunks.push(RawChunk { count, crc: stored_crc, payload });
        total += u64::from(count);
        pos = payload_end;
    }
}

/// Whether a chunk's header fits its payload and its stored CRC matches
/// the len/count header plus payload.
///
/// Every event is at least two payload bytes (pc varint + value varint),
/// so a count above the payload length is corrupt no matter what the
/// payload holds. That screen runs first, before anything trusts `count`
/// with an allocation: the header is length-prefixed, not authenticated,
/// so an adversarial file can pair a CRC-valid `count` of `u32::MAX`
/// with a tiny payload.
fn chunk_is_intact(count: u32, stored_crc: u32, payload: &[u8]) -> bool {
    if count as usize > payload.len() {
        return false;
    }
    let mut crc = Crc32::new();
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(&count.to_le_bytes());
    crc.update(payload);
    crc.finish() == stored_crc
}

/// Verifies and decodes one chunk — the one decoder behind
/// [`ChunkReader`] and the daemon's ingest of a chunk that arrived
/// framed. The stored CRC must match the len/count header plus payload,
/// the payload must parse as exactly `count` canonical varint pairs, and
/// nothing may remain; any failure is `CorruptChunk { index }`. Decoded
/// events are *appended* to `out`.
pub fn decode_chunk(
    index: usize,
    count: u32,
    stored_crc: u32,
    payload: &[u8],
    out: &mut Vec<(u32, u64)>,
) -> Result<(), CodecError> {
    let corrupt = CodecError::CorruptChunk { index };
    if !chunk_is_intact(count, stored_crc, payload) {
        return Err(corrupt);
    }
    // The two-bytes-per-event floor also bounds the preallocation.
    out.reserve((count as usize).min(payload.len() / 2));
    let before = out.len();
    // Any malformed varint here is chunk corruption: the bytes passed
    // the checksum but do not parse as `count` pairs.
    if decode_payload(payload, out).is_err() || out.len() - before != count as usize {
        return Err(corrupt);
    }
    Ok(())
}

/// Shape of a decoded trace, for `vprof record`/`replay` reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in the trace.
    pub events: u64,
    /// Number of chunks.
    pub chunks: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
}

/// Verifies a trace end-to-end and reports its shape without keeping
/// the decoded events.
pub fn stats(bytes: &[u8]) -> Result<TraceStats, CodecError> {
    let mut reader = ChunkReader::new(bytes)?;
    let mut scratch = Vec::new();
    while reader.next_chunk_into(&mut scratch)? {}
    Ok(TraceStats {
        events: reader.events_read(),
        chunks: reader.chunks_read() as u64,
        bytes: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(u32, u64)> {
        (0..1000u32)
            .map(|i| (i % 17, if i % 5 == 0 { 0 } else { u64::from(i) * 0x0123_4567_89AB }))
            .collect()
    }

    #[test]
    fn round_trip_and_chunk_invariance() {
        let events = sample();
        let reference = encode(&events, DEFAULT_CHUNK_EVENTS);
        assert_eq!(decode(&reference).unwrap(), events);
        for chunk in [1, 3, 7, 1000, 5000] {
            assert_eq!(decode(&encode(&events, chunk)).unwrap(), events, "chunk={chunk}");
        }
    }

    #[test]
    fn empty_trace_is_magic_plus_trailer() {
        let bytes = encode(&[], 64);
        assert_eq!(bytes.len(), MAGIC.len() + 16);
        assert_eq!(decode(&bytes).unwrap(), Vec::new());
        let s = stats(&bytes).unwrap();
        assert_eq!((s.events, s.chunks), (0, 0));
    }

    #[test]
    fn streaming_encoder_matches_one_shot() {
        let events = sample();
        let mut enc = TraceEncoder::with_chunk_events(100);
        for &(pc, v) in &events {
            enc.push(pc, v);
        }
        assert_eq!(enc.finish(), encode(&events, 100));
    }

    #[test]
    fn stats_report_shape() {
        let events = sample();
        let bytes = encode(&events, 100);
        let s = stats(&bytes).unwrap();
        assert_eq!(s.events, 1000);
        assert_eq!(s.chunks, 10);
        assert_eq!(s.bytes, bytes.len() as u64);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&sample(), 100);
        for cut in [0, 2, MAGIC.len(), MAGIC.len() + 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = encode(&sample(), 100);
        for pos in [0, 4, 5, 9, 13, 40, bytes.len() - 10, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn trailing_data_is_rejected() {
        let mut bytes = encode(&sample(), 100);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingData));
    }

    #[test]
    fn extreme_values_round_trip() {
        let events =
            vec![(0, 0), (u32::MAX, u64::MAX), (1, 1 << 63), (42, 0x7F), (42, 0x80), (42, 0x3FFF)];
        assert_eq!(decode(&encode(&events, 2)).unwrap(), events);
    }

    /// A single-chunk file with a *valid* CRC over an arbitrary header
    /// `count` and payload — the shape an adversarial writer controls.
    fn craft_chunk(count: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        let len = (payload.len() as u32).to_le_bytes();
        let count_bytes = count.to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&len);
        crc.update(&count_bytes);
        crc.update(payload);
        out.extend_from_slice(&len);
        out.extend_from_slice(&count_bytes);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(payload);
        let mut trailer = Vec::new();
        trailer.extend_from_slice(&0u32.to_le_bytes());
        trailer.extend_from_slice(&u64::from(count).to_le_bytes());
        let trailer_crc = crc32(&trailer);
        out.extend_from_slice(&trailer);
        out.extend_from_slice(&trailer_crc.to_le_bytes());
        out
    }

    #[test]
    fn adversarial_count_is_rejected_before_allocation() {
        // CRC-valid header claiming u32::MAX events over a 4-byte
        // payload. Pre-fix, this asked `Vec::with_capacity` for ~64 GiB
        // before the post-decode count check could fire.
        let bomb = craft_chunk(u32::MAX, &[0x00, 0x01, 0x00, 0x02]);
        assert_eq!(decode(&bomb), Err(CodecError::CorruptChunk { index: 0 }));
    }

    #[test]
    fn count_mismatch_within_bounds_is_still_rejected() {
        // Two events in the payload, three claimed: passes the count
        // ≤ len screen, so only the decoded-count check catches it.
        let bad = craft_chunk(3, &[0x00, 0x01, 0x00, 0x02]);
        assert_eq!(decode(&bad), Err(CodecError::CorruptChunk { index: 0 }));
    }

    #[test]
    fn overlong_varints_are_rejected_as_corruption() {
        // `80 00` is an overlong encoding of pc 0. The CRC is valid, so
        // only the canonical-varint rule distinguishes this payload from
        // `00 07` — without it, two distinct CRC-valid files would
        // decode to the same events.
        let bad = craft_chunk(1, &[0x80, 0x00, 0x07]);
        assert_eq!(decode(&bad), Err(CodecError::CorruptChunk { index: 0 }));
        let good = craft_chunk(1, &[0x00, 0x07]);
        assert_eq!(decode(&good).unwrap(), vec![(0, 7)]);

        // Same overlong form with ≥ 20 payload bytes remaining, so the
        // word decoder (not the byte loop at the tail) must reject it.
        let mut payload = vec![0x80, 0x00, 0x07];
        payload.extend([0x01; 20]);
        let bad = craft_chunk(11, &payload);
        assert_eq!(decode(&bad), Err(CodecError::CorruptChunk { index: 0 }));

        // Ten-byte zero-extension: the maximal-length overlong form.
        let bad =
            craft_chunk(1, &[0x01, 0xFF, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00]);
        assert_eq!(decode(&bad), Err(CodecError::CorruptChunk { index: 0 }));
    }

    #[test]
    fn next_chunk_into_reuses_one_scratch_buffer() {
        let events = sample();
        let bytes = encode(&events, 64);
        let mut reader = ChunkReader::new(&bytes).unwrap();
        let mut scratch = Vec::new();
        let mut all = Vec::new();
        while reader.next_chunk_into(&mut scratch).unwrap() {
            assert!(scratch.len() <= 64, "scratch holds exactly one chunk");
            all.extend_from_slice(&scratch);
        }
        assert_eq!(all, events);
        assert!(!reader.next_chunk_into(&mut scratch).unwrap(), "stays done");
    }
}
