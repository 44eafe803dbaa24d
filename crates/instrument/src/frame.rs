//! Length-prefixed, CRC-verified message frames: the transport of the
//! `vprof serve` session protocol ([`crate::net`]).
//!
//! Frames echo the VPC1 chunk shape ([`trace_codec`]) so a torn or
//! corrupted message is *detected*, never silently consumed:
//!
//! ```text
//! stream  := magic frame*
//! magic   := "VPW1"
//! frame   := len:u32le kind:u32le crc:u32le payload[len]
//!            crc — CRC32 of kind‖payload (vp_obs::crc32)
//! ```
//!
//! The magic is part of the wire format: serve's durable session state
//! and the benchmark's clients speak it, so it stays `VPW1`.
//!
//! The error taxonomy matters more than the bytes: a peer killed
//! mid-write leaves a *prefix* of a frame behind, so EOF anywhere
//! *inside* a frame is [`FrameError::Torn`]. EOF exactly *at* a frame
//! boundary (zero bytes of the next header arrived) is
//! [`FrameError::PeerClosed`]: the stream ended where a frame could have
//! cleanly ended, which is how an orderly disconnect looks — the daemon
//! uses the distinction to tell a client that hung up from one that
//! crashed mid-send. Bytes that are all present but wrong (bad magic,
//! CRC mismatch, absurd length) are [`FrameError::Corrupt`].
//!
//! [`trace_codec`]: crate::trace_codec

use std::fmt;
use std::io::{self, Read, Write};

use vp_obs::Crc32;

/// Stream magic, written once before the first frame.
pub const FRAME_MAGIC: [u8; 4] = *b"VPW1";

/// Upper bound on a frame payload — far above any real message, low
/// enough that a corrupted length field fails fast instead of allocating
/// gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes in a frame header: `len`, `kind` and `crc`, each a `u32le`.
const HEADER_LEN: usize = 12;

/// Payload capacity a reused frame buffer keeps between frames
/// ([`FrameReader::read_frame_into`]): one left larger by an unusually
/// long frame is shrunk back to this at the next read.
const FRAME_BUF_KEEP: usize = 1 << 20;

/// Payload bytes a read reserves before any of them arrive. Beyond this
/// the buffer grows only as bytes come in, so a header that claims a
/// long frame and then stops costs what was actually sent.
const FIRST_RESERVE: usize = 64 * 1024;

/// A frame header as it crossed the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length in bytes.
    pub len: u32,
    /// Message discriminant, protocol-defined.
    pub kind: u32,
    /// CRC32 of `kind‖payload`.
    pub crc: u32,
}

impl FrameHeader {
    fn parse(bytes: &[u8; HEADER_LEN]) -> FrameHeader {
        let word =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        FrameHeader { len: word(0), kind: word(4), crc: word(8) }
    }

    /// The header's wire bytes: for a header that was read, exactly the
    /// bytes it was read from.
    pub fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&self.len.to_le_bytes());
        out[4..8].copy_from_slice(&self.kind.to_le_bytes());
        out[8..12].copy_from_slice(&self.crc.to_le_bytes());
        out
    }
}

/// One decoded frame: a small `kind` discriminant and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant, protocol-defined.
    pub kind: u32,
    /// Message body (JSON for control messages, raw bytes otherwise).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly at a frame boundary: zero bytes of the
    /// next header had arrived. The signature of an orderly disconnect —
    /// the peer finished a frame (or never sent one) and closed.
    PeerClosed,
    /// The stream ended mid-frame: the signature of a peer that died
    /// mid-write. Retryable — the bytes that did arrive are a clean
    /// prefix, nothing was misinterpreted.
    Torn(String),
    /// The bytes are all present but wrong: bad magic, CRC mismatch, or
    /// an implausible length. Not a death signature — something wrote
    /// garbage into the stream.
    Corrupt(String),
    /// The underlying read failed outright.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::PeerClosed => f.write_str("peer closed the stream at a frame boundary"),
            FrameError::Torn(detail) => write!(f, "torn frame: {detail}"),
            FrameError::Corrupt(detail) => write!(f, "corrupt frame: {detail}"),
            FrameError::Io(e) => write!(f, "frame io: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

fn frame_crc(kind: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&kind.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Encodes one frame in a single buffer: the header's bytes are reserved
/// first, `body` appends the payload after them and returns the frame
/// kind, and the header is then filled in place.
fn encode_frame_with(body: impl FnOnce(&mut Vec<u8>) -> u32) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    let kind = body(&mut out);
    let payload = &out[HEADER_LEN..];
    let header = FrameHeader { len: payload.len() as u32, kind, crc: frame_crc(kind, payload) };
    out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
    out
}

/// Encodes one frame (header + payload) into a byte vector.
pub fn encode_frame(kind: u32, payload: &[u8]) -> Vec<u8> {
    encode_frame_with(|out| {
        out.extend_from_slice(payload);
        kind
    })
}

/// Writes the stream magic.
pub fn write_magic<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&FRAME_MAGIC)
}

/// Writes one frame and flushes, so a crash *after* this call never
/// tears it.
pub fn write_frame<W: Write>(w: &mut W, kind: u32, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()
}

/// [`write_frame`] of a frame built by [`encode_frame_with`]: the payload
/// is written into the frame buffer once, with no staging copy.
pub(crate) fn write_frame_with<W: Write>(
    w: &mut W,
    body: impl FnOnce(&mut Vec<u8>) -> u32,
) -> io::Result<()> {
    w.write_all(&encode_frame_with(body))?;
    w.flush()
}

/// Reads frames off a byte stream, distinguishing torn tails from
/// corruption.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream. Call [`expect_magic`](Self::expect_magic)
    /// before the first [`read_frame`](Self::read_frame).
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner }
    }

    // Reads exactly `buf.len()` bytes at a frame boundary: the magic or a
    // header. EOF before the first byte is PeerClosed, a clean close
    // being a legal end of stream there; EOF after it is Torn. (Zero
    // bytes of a *payload* after a complete header is still mid-frame,
    // still Torn: `read_frame_into` checks that itself.)
    fn read_boundary(&mut self, buf: &mut [u8], what: &str) -> Result<(), FrameError> {
        let mut have = 0;
        while have < buf.len() {
            match self.inner.read(&mut buf[have..]) {
                Ok(0) if have == 0 => return Err(FrameError::PeerClosed),
                Ok(0) => {
                    return Err(FrameError::Torn(format!(
                        "eof after {have} of {} {what} bytes",
                        buf.len()
                    )));
                }
                Ok(n) => have += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(())
    }

    /// Consumes and verifies the stream magic. A peer that connected and
    /// closed without sending a byte is [`FrameError::PeerClosed`]; EOF
    /// mid-magic is [`FrameError::Torn`].
    pub fn expect_magic(&mut self) -> Result<(), FrameError> {
        let mut magic = [0u8; 4];
        self.read_boundary(&mut magic, "magic")?;
        if magic != FRAME_MAGIC {
            return Err(FrameError::Corrupt(format!(
                "bad magic {magic:02x?}, want {FRAME_MAGIC:02x?}"
            )));
        }
        Ok(())
    }

    /// Reads the next frame. EOF *at* a frame boundary (zero header
    /// bytes arrived) is [`FrameError::PeerClosed`] — an orderly
    /// disconnect; EOF anywhere inside the header or payload is
    /// [`FrameError::Torn`] — a peer that died mid-write.
    pub fn read_frame(&mut self) -> Result<Frame, FrameError> {
        let mut payload = Vec::new();
        let header = self.read_frame_into(&mut payload)?;
        Ok(Frame { kind: header.kind, payload })
    }

    /// [`read_frame`](Self::read_frame) into a caller-owned buffer, which
    /// holds exactly the verified payload on success; the header comes
    /// back as read. A buffer reused across frames allocates once per
    /// high-water mark, and one left above 1 MiB by an earlier frame is
    /// shrunk back first. Past its first 64 KiB the
    /// buffer grows only as payload bytes arrive, so a header claiming
    /// up to [`MAX_FRAME_LEN`] that is followed by a few bytes and EOF
    /// leaves a small buffer and a [`FrameError::Torn`].
    pub fn read_frame_into(&mut self, payload: &mut Vec<u8>) -> Result<FrameHeader, FrameError> {
        payload.clear();
        payload.shrink_to(FRAME_BUF_KEEP);
        let mut bytes = [0u8; HEADER_LEN];
        self.read_boundary(&mut bytes, "header")?;
        let header = FrameHeader::parse(&bytes);
        let FrameHeader { len, kind, crc } = header;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Corrupt(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        let len = len as usize;
        payload.reserve(len.min(FIRST_RESERVE));
        // `read_to_end` retries interrupted reads and, past the first
        // reserve, grows the buffer as bytes come in.
        let have = (&mut self.inner).take(len as u64).read_to_end(payload)?;
        if have < len {
            return Err(FrameError::Torn(format!("eof after {have} of {len} payload bytes")));
        }
        let want = frame_crc(kind, payload);
        if crc != want {
            return Err(FrameError::Corrupt(format!(
                "crc mismatch: stored {crc:#010x}, computed {want:#010x}"
            )));
        }
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(frames: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = FRAME_MAGIC.to_vec();
        for &(kind, payload) in frames {
            out.extend_from_slice(&encode_frame(kind, payload));
        }
        out
    }

    #[test]
    fn round_trips_frames_in_order() {
        let bytes = stream(&[(1, b"hello"), (2, b""), (7, &[0u8; 1000])]);
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        assert_eq!(r.read_frame().unwrap(), Frame { kind: 1, payload: b"hello".to_vec() });
        assert_eq!(r.read_frame().unwrap(), Frame { kind: 2, payload: Vec::new() });
        assert_eq!(r.read_frame().unwrap().payload.len(), 1000);
        // The stream is drained: the next read is a clean close, not a
        // tear — nothing of the next frame ever arrived.
        assert!(matches!(r.read_frame(), Err(FrameError::PeerClosed)));
    }

    #[test]
    fn every_proper_prefix_is_torn_not_corrupt() {
        // A killed writer leaves an arbitrary prefix. A cut *inside* the
        // magic, header, or payload must read as Torn — never Corrupt,
        // never Ok. The two cuts that land exactly on a frame boundary
        // (nothing sent; magic only) are indistinguishable from an
        // orderly hang-up and read as PeerClosed instead.
        let bytes = stream(&[(3, b"payload bytes")]);
        for cut in 0..bytes.len() {
            let mut r = FrameReader::new(&bytes[..cut]);
            let outcome = r.expect_magic().and_then(|()| r.read_frame());
            let at_boundary = cut == 0 || cut == FRAME_MAGIC.len();
            match outcome {
                Err(FrameError::PeerClosed) if at_boundary => {}
                Err(FrameError::Torn(_)) if !at_boundary => {}
                other => panic!("prefix of {cut} bytes: got {other:?}"),
            }
        }
        // The full stream parses.
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        assert_eq!(r.read_frame().unwrap().payload, b"payload bytes");
    }

    #[test]
    fn clean_eof_at_boundary_is_peer_closed_not_torn() {
        // Orderly disconnect: the peer finished its last frame and
        // closed. Every subsequent read says PeerClosed, repeatably.
        let bytes = stream(&[(9, b"last")]);
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        assert_eq!(r.read_frame().unwrap().payload, b"last");
        assert!(matches!(r.read_frame(), Err(FrameError::PeerClosed)));
        assert!(matches!(r.read_frame(), Err(FrameError::PeerClosed)));
        // An empty stream is also a clean close, even before the magic.
        let mut r = FrameReader::new(&b""[..]);
        assert!(matches!(r.expect_magic(), Err(FrameError::PeerClosed)));
    }

    #[test]
    fn eof_mid_frame_is_torn_not_peer_closed() {
        // Crash signature: a complete header whose payload never
        // arrived — even zero payload bytes in is *mid-frame*.
        let full = stream(&[(3, b"payload bytes")]);
        let header_only = &full[..FRAME_MAGIC.len() + 12];
        let mut r = FrameReader::new(header_only);
        r.expect_magic().unwrap();
        match r.read_frame() {
            Err(FrameError::Torn(msg)) => assert!(msg.contains("payload"), "{msg}"),
            other => panic!("want Torn, got {other:?}"),
        }
        // And a half-written header is likewise torn.
        let mut r = FrameReader::new(&full[..FRAME_MAGIC.len() + 5]);
        r.expect_magic().unwrap();
        match r.read_frame() {
            Err(FrameError::Torn(msg)) => assert!(msg.contains("header"), "{msg}"),
            other => panic!("want Torn, got {other:?}"),
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let good = stream(&[(5, b"value profile")]);
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let mut r = FrameReader::new(bad.as_slice());
                let outcome = r.expect_magic().and_then(|()| r.read_frame());
                match outcome {
                    Err(FrameError::Corrupt(_)) => {}
                    // A flip in the length field can also make the frame
                    // *longer* than the stream — a tear, still rejected.
                    Err(FrameError::Torn(_)) => {}
                    other => {
                        panic!("bit {bit} of byte {byte} flipped: want rejection, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_corrupt_without_allocating() {
        let mut bytes = FRAME_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        match r.read_frame() {
            Err(FrameError::Corrupt(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_and_returns_the_wire_header() {
        let big = [9u8; 3000];
        let frames: [(u32, &[u8]); 3] = [(1, b"hello"), (2, &big), (3, b"")];
        let bytes = stream(&frames);
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        let mut buf = Vec::new();
        let mut at = FRAME_MAGIC.len();
        for (kind, payload) in frames {
            let header = r.read_frame_into(&mut buf).unwrap();
            assert_eq!((header.kind, buf.as_slice()), (kind, payload));
            // Header and payload are the frame's bytes as they were sent.
            let end = at + HEADER_LEN + payload.len();
            assert_eq!([&header.to_bytes()[..], &buf].concat(), &bytes[at..end]);
            at = end;
        }
        assert!(matches!(r.read_frame_into(&mut buf), Err(FrameError::PeerClosed)));
    }

    #[test]
    fn a_header_claiming_the_cap_then_eof_is_torn_and_allocates_little() {
        let mut bytes = FRAME_MAGIC.to_vec();
        bytes.extend_from_slice(&FrameHeader { len: MAX_FRAME_LEN, kind: 21, crc: 0 }.to_bytes());
        bytes.extend_from_slice(&[7u8; 16]);
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        let mut buf = Vec::new();
        match r.read_frame_into(&mut buf) {
            Err(FrameError::Torn(msg)) => assert!(msg.contains("eof after 16 of"), "{msg}"),
            other => panic!("want Torn, got {other:?}"),
        }
        assert!(buf.capacity() <= 64 * 1024, "capacity {}", buf.capacity());
    }

    #[test]
    fn a_buffer_grown_past_the_keep_size_is_shrunk_at_the_next_read() {
        let big = vec![1u8; 2 * FRAME_BUF_KEEP];
        let bytes = stream(&[(1, &big), (2, b"small")]);
        let mut r = FrameReader::new(bytes.as_slice());
        r.expect_magic().unwrap();
        let mut buf = Vec::new();
        r.read_frame_into(&mut buf).unwrap();
        assert!(buf.capacity() >= 2 * FRAME_BUF_KEEP);
        r.read_frame_into(&mut buf).unwrap();
        assert_eq!(buf, b"small");
        assert!(buf.capacity() <= FRAME_BUF_KEEP, "capacity {}", buf.capacity());
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let mut r = FrameReader::new(&b"VPC1rest"[..]);
        assert!(matches!(r.expect_magic(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn errors_render_their_taxonomy() {
        assert!(FrameError::PeerClosed.to_string().starts_with("peer closed"));
        assert!(FrameError::Torn("eof".into()).to_string().starts_with("torn frame"));
        assert!(FrameError::Corrupt("crc".into()).to_string().starts_with("corrupt frame"));
        let io_err: FrameError = io::Error::other("pipe").into();
        assert!(io_err.to_string().starts_with("frame io"));
    }
}
