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
//! Replay reads the file *in place*: [`TraceFile`] owns the bytes (an
//! `mmap` on Linux, an owned read elsewhere), [`ChunkReader`] borrows
//! them, and [`ChunkReader::next_chunk_into`] decodes each chunk into a
//! caller-reused scratch buffer — no chunk is ever copied into an
//! intermediate `Vec` on the way to `observe_batch`. The varint decoder
//! takes a SWAR (word-at-a-time) fast path for the 1- and 2-byte
//! encodings that dominate real traces; see DESIGN.md §13 for the
//! exactness argument.

use std::fmt;
use std::io;
use std::path::Path;

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

/// Decodes one canonical varint. The SWAR fast path loads eight bytes at
/// once and settles the 1- and 2-byte encodings (pcs and small values —
/// the overwhelming majority of a real trace) branch-lean; anything
/// longer, or too close to the end of `bytes` for a full word, takes the
/// scalar loop. Both paths reject overlong encodings, so they accept
/// exactly the same byte strings.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let p = *pos;
    if let Some(window) = bytes.get(p..p.saturating_add(8)) {
        let word = u64::from_le_bytes(window.try_into().expect("8-byte window"));
        if word & 0x80 == 0 {
            *pos = p + 1;
            return Ok(word & 0x7F);
        }
        if word & 0x8000 == 0 {
            // Two bytes: the terminating byte must be nonzero, or the
            // value fit in one byte and the encoding is overlong.
            let hi = (word >> 8) & 0x7F;
            if hi == 0 {
                return Err(CodecError::BadVarint);
            }
            *pos = p + 2;
            return Ok((word & 0x7F) | (hi << 7));
        }
    }
    read_varint_slow(bytes, pos)
}

fn read_varint_slow(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
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

    /// Decodes the next chunk, or returns `None` once the trailer has
    /// been reached and verified. After `None`, further calls keep
    /// returning `None`.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<(u32, u64)>>, CodecError> {
        let mut events = Vec::new();
        Ok(if self.decode_chunk_append(&mut events)? { Some(events) } else { None })
    }

    /// Zero-copy replay primitive: decodes the next chunk into `events`
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
        let count = read_u32(self.bytes, &mut self.pos)? as usize;
        let stored_crc = read_u32(self.bytes, &mut self.pos)?;
        let payload_end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Truncated)?;
        let corrupt = CodecError::CorruptChunk { index: self.chunk_index };
        // Every event is at least two payload bytes (pc varint + value
        // varint), so a count above `len` is corrupt no matter what the
        // payload holds. Reject it *before* trusting it with an
        // allocation: the header is length-prefixed, not authenticated,
        // so an adversarial file can pair a CRC-valid `count` of
        // u32::MAX with a tiny payload.
        if count > len {
            return Err(corrupt);
        }
        let mut crc = Crc32::new();
        crc.update(&self.bytes[header_start..header_start + 8]);
        crc.update(&self.bytes[self.pos..payload_end]);
        if crc.finish() != stored_crc {
            return Err(corrupt);
        }
        // The two-bytes-per-event floor also bounds the preallocation.
        out.reserve(count.min(len / 2));
        let before = out.len();
        let payload = &self.bytes[..payload_end];
        while self.pos < payload_end {
            // Any malformed varint here is chunk corruption: the bytes
            // passed the checksum but do not parse as `count` pairs.
            let pc = read_varint(payload, &mut self.pos).map_err(|_| corrupt.clone())?;
            let value = read_varint(payload, &mut self.pos).map_err(|_| corrupt.clone())?;
            if pc > u64::from(u32::MAX) {
                return Err(corrupt);
            }
            out.push((pc as u32, value));
        }
        if out.len() - before != count {
            return Err(corrupt);
        }
        self.decoded += count as u64;
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
        let corrupt = CodecError::CorruptChunk { index: chunks.len() };
        if count as usize > len {
            return Err(corrupt);
        }
        let mut crc = Crc32::new();
        crc.update(&bytes[header_start..header_start + 8]);
        crc.update(&bytes[pos..payload_end]);
        if crc.finish() != stored_crc {
            return Err(corrupt);
        }
        chunks.push(RawChunk { count, crc: stored_crc, payload: &bytes[pos..payload_end] });
        total += u64::from(count);
        pos = payload_end;
    }
}

/// Verifies and decodes one standalone chunk — the daemon's ingest path
/// for a chunk that arrived framed rather than in a file. Identical
/// verification to [`ChunkReader`]: the stored CRC must match the
/// len/count header plus payload, the payload must parse as exactly
/// `count` canonical varint pairs, and nothing may remain. Decoded
/// events are *appended* to `out`; `index` only labels the error.
pub fn decode_chunk(
    index: usize,
    count: u32,
    stored_crc: u32,
    payload: &[u8],
    out: &mut Vec<(u32, u64)>,
) -> Result<(), CodecError> {
    let corrupt = CodecError::CorruptChunk { index };
    if count as usize > payload.len() {
        return Err(corrupt);
    }
    let mut crc = Crc32::new();
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(&count.to_le_bytes());
    crc.update(payload);
    if crc.finish() != stored_crc {
        return Err(corrupt);
    }
    out.reserve((count as usize).min(payload.len() / 2));
    let before = out.len();
    let mut pos = 0usize;
    while pos < payload.len() {
        let pc = read_varint(payload, &mut pos).map_err(|_| corrupt.clone())?;
        let value = read_varint(payload, &mut pos).map_err(|_| corrupt.clone())?;
        if pc > u64::from(u32::MAX) {
            return Err(corrupt);
        }
        out.push((pc as u32, value));
    }
    if out.len() - before != count as usize {
        return Err(corrupt);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Zero-copy trace input
// ---------------------------------------------------------------------

/// Read-only file mapping via raw syscalls, on the supported mmap
/// targets: Linux on the two architectures whose syscall ABI the stub
/// below encodes (everything else takes the owned-buffer fallback). The
/// workspace carries no libc binding, and the two kernel calls a
/// read-only mapping needs (`mmap`, `munmap`) are stable ABI, so they
/// are inlined here rather than pulling in a dependency.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod mmap {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An owned read-only, private mapping; unmapped on drop.
    #[derive(Debug)]
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is immutable for its whole lifetime and owned by
    // exactly one `Mapping`, so sharing it across threads is sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the first `len` bytes of `file`. `len` must be nonzero
        /// (the kernel rejects zero-length mappings).
        pub fn new(file: &File, len: usize) -> io::Result<Mapping> {
            let ret = unsafe { sys_mmap(len, file.as_raw_fd()) };
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Mapping { ptr: ret as *const u8, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // Safety: `ptr` is a live PROT_READ mapping of `len` bytes
            // until drop. MAP_PRIVATE means later writers of the file
            // can at worst change the observed bytes, never the
            // mapping's validity — and changed bytes fail the chunk
            // CRCs.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe { sys_munmap(self.ptr, self.len) };
        }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // SYS_mmap
            in("rdi") 0usize,               // addr: kernel chooses
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,                // offset
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => ret, // SYS_munmap
            in("rdi") ptr as usize,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_mmap(len: usize, fd: i32) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") 0isize => ret, // addr in, result out
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize, // offset
            in("x8") 222usize, // SYS_mmap
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_munmap(ptr: *const u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") ptr as usize as isize => ret,
            in("x1") len,
            in("x8") 215usize, // SYS_munmap
            options(nostack)
        );
        ret
    }
}

/// Owner of a trace's bytes with zero-copy intent: on Linux the file is
/// `mmap`'d read-only, so chunk decoding borrows straight out of the
/// page cache and the trace is never copied onto the heap at all. The
/// fallback — non-Linux platforms, empty files, a failed mapping
/// syscall, or `VP_NO_MMAP=1` in the environment — reads the file into
/// an owned buffer instead. Either way [`TraceFile::reader`] hands out
/// the same borrowing [`ChunkReader`], so the two paths are
/// bit-identical by construction (and checked differentially by
/// `tests/zerocopy_replay.rs`).
#[derive(Debug)]
pub struct TraceFile {
    data: TraceData,
}

#[derive(Debug)]
enum TraceData {
    Owned(Vec<u8>),
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Mapped(mmap::Mapping),
}

impl TraceFile {
    /// Opens `path`, mapping it when the platform supports it and
    /// falling back to a full read otherwise. Set `VP_NO_MMAP=1` to
    /// force the fallback (differential testing, filesystems that
    /// refuse mappings).
    pub fn open(path: &Path) -> io::Result<TraceFile> {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if std::env::var_os("VP_NO_MMAP").is_none_or(|v| v != "1") {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && len <= usize::MAX as u64 {
                if let Ok(map) = mmap::Mapping::new(&file, len as usize) {
                    return Ok(TraceFile { data: TraceData::Mapped(map) });
                }
            }
            // Zero-length or unmappable: fall through to the read below.
        }
        Ok(TraceFile { data: TraceData::Owned(std::fs::read(path)?) })
    }

    /// Wraps bytes already in memory (a trace recorded this run rather
    /// than loaded from disk) behind the same interface.
    pub fn from_bytes(bytes: Vec<u8>) -> TraceFile {
        TraceFile { data: TraceData::Owned(bytes) }
    }

    /// The raw encoded bytes, wherever they live.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            TraceData::Owned(bytes) => bytes,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            TraceData::Mapped(map) => map.bytes(),
        }
    }

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the trace is empty (zero bytes — not even a magic).
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// True when the bytes are a kernel mapping rather than a heap copy.
    pub fn is_mapped(&self) -> bool {
        match &self.data {
            TraceData::Owned(_) => false,
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            TraceData::Mapped(_) => true,
        }
    }

    /// Starts decoding; fails immediately on a bad magic.
    pub fn reader(&self) -> Result<ChunkReader<'_>, CodecError> {
        ChunkReader::new(self.bytes())
    }
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

        // Same overlong form with ≥ 8 payload bytes remaining, so the
        // SWAR fast path (not the scalar tail loop) must reject it.
        let bad = craft_chunk(4, &[0x80, 0x00, 0x07, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03]);
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

    #[test]
    fn trace_file_round_trips_from_disk_and_memory() {
        let events = sample();
        let bytes = encode(&events, 128);

        let mem = TraceFile::from_bytes(bytes.clone());
        assert!(!mem.is_mapped());
        let mut out = Vec::new();
        mem.reader().unwrap().read_to_end_into(&mut out).unwrap();
        assert_eq!(out, events);

        let path = std::env::temp_dir().join(format!("vp-trace-file-{}.vpc", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = TraceFile::open(&path).unwrap();
        assert_eq!(file.len(), bytes.len());
        assert_eq!(decode(file.bytes()).unwrap(), events);
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert!(
            file.is_mapped() || std::env::var_os("VP_NO_MMAP").is_some(),
            "linux opens traces as mappings"
        );
        drop(file);
        std::fs::remove_file(&path).ok();
    }
}
