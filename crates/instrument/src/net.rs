//! Session wire protocol and Unix-socket plumbing for `vprof serve`.
//!
//! The ingestion daemon speaks a small session protocol over a Unix-domain
//! socket, framed with the [`crate::frame`] codec (`VPW1` magic +
//! length/kind/CRC frames). This module owns the *wire* layer: the typed
//! message set ([`SessionMsg`]), its encode/decode, the listener, and the
//! SIGTERM drain signal. Session *semantics* — admission, checkpointing,
//! fault domains — live in `vp_bench::serve`.
//!
//! ## Protocol
//!
//! Both directions start with the `VPW1` magic. The client then drives:
//!
//! ```text
//! C→S  HELLO{tenant, workload}          S→C  HELLO_OK{acked} | BUSY{reason}
//! C→S  CHUNK{seq, count, crc, payload}  S→C  ACK{acked}    (cumulative, durable)
//! C→S  QUERY                            S→C  STATS{json}
//! C→S  END                              S→C  END_OK{acked, profile}
//! C→S  SHUTDOWN                         (admin: begin graceful drain)
//!      any protocol violation           S→C  ERR{reason}, connection closed
//! ```
//!
//! `ACK{n}` means *chunks with `seq < n` are durable on the server* — the
//! client may forget them. `HELLO_OK{n}` carries the same cursor, so a
//! client reconnecting after a server crash resumes streaming from the
//! last durable chunk, re-sending anything unacknowledged. Chunk sequence
//! numbers make retransmits idempotent: a chunk below the server's cursor
//! is a duplicate (dropped without re-observing), a chunk above it is a
//! gap (protocol violation).
//!
//! `CHUNK` payloads carry one `VPC1` trace chunk verbatim: the canonical
//! varint event payload plus its event count and payload CRC, verified
//! again on ingest by `trace_codec::decode_chunk`. [`ChunkView`] reads
//! and writes them without copying the payload: the daemon parses each
//! one in place in its frame buffer, and `vprof client` frames each one
//! straight from the trace bytes.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{self, Frame, FrameError, FrameReader};

/// Client → server frame kinds.
pub const K_HELLO: u32 = 20;
pub const K_CHUNK: u32 = 21;
pub const K_QUERY: u32 = 22;
pub const K_END: u32 = 23;
pub const K_SHUTDOWN: u32 = 24;

/// Server → client frame kinds.
pub const K_HELLO_OK: u32 = 30;
pub const K_ACK: u32 = 31;
pub const K_BUSY: u32 = 32;
/// The kind of [`SessionMsg::Throttle`]. No daemon here sends it; it
/// stays a wire kind while the benchmark's serve client matches it.
pub const K_THROTTLE: u32 = 33;
pub const K_STATS: u32 = 34;
pub const K_END_OK: u32 = 35;
pub const K_ERR: u32 = 36;

/// One typed session-protocol message, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionMsg {
    /// Opens a session for `tenant`'s `workload`.
    Hello { tenant: String, workload: String },
    /// One `VPC1` trace chunk: `seq` is the cumulative chunk index,
    /// `count`/`crc` are the chunk's event count and payload CRC from
    /// the trace codec, `payload` the canonical varint event bytes.
    Chunk { seq: u64, count: u32, crc: u32, payload: Vec<u8> },
    /// Requests a `Stats` reply for the current session.
    Query,
    /// Ends the session: the server checkpoints, replies `EndOk`.
    End,
    /// Admin: asks the daemon to drain gracefully and exit.
    Shutdown,
    /// Session admitted; `acked` chunks are already durable server-side.
    HelloOk { acked: u64 },
    /// Chunks with `seq < acked` are durable; the client may drop them.
    Ack { acked: u64 },
    /// Session refused by admission control.
    Busy { reason: String },
    /// Wait for `acked` to advance before sending more. No daemon here
    /// sends it: `vp_bench::serve` acks at a fixed cadence that the
    /// client's window covers. It stays decodable while the benchmark's
    /// serve client matches it.
    Throttle { acked: u64 },
    /// Deterministic per-session statistics as a JSON object.
    Stats { json: String },
    /// Session complete: every chunk durable, rendered profile attached.
    EndOk { acked: u64, profile: String },
    /// The session was killed; `reason` is the typed cause.
    Err { reason: String },
}

/// Reading a session message can fail below the protocol (the frame
/// layer: torn stream, bad CRC, clean EOF) or at it (a well-formed frame
/// whose payload violates the message grammar).
#[derive(Debug)]
pub enum MsgError {
    /// Frame-layer failure; `FrameError::PeerClosed` is the clean
    /// end-of-conversation case.
    Frame(FrameError),
    /// The frame decoded but its kind or payload is not a valid session
    /// message — a protocol violation that kills only this session.
    Malformed(String),
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Frame(e) => write!(f, "{e}"),
            MsgError::Malformed(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for MsgError {}

impl From<FrameError> for MsgError {
    fn from(e: FrameError) -> MsgError {
        MsgError::Frame(e)
    }
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], MsgError> {
        if self.bytes.len() - self.pos < n {
            return Err(MsgError::Malformed(format!("truncated {what}")));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self, what: &str) -> Result<u32, MsgError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, MsgError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<String, MsgError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| MsgError::Malformed(format!("{what} is not UTF-8")))
    }

    fn rest_str(&mut self, what: &str) -> Result<String, MsgError> {
        let bytes = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        String::from_utf8(bytes.to_vec())
            .map_err(|_| MsgError::Malformed(format!("{what} is not UTF-8")))
    }

    fn finish(&self, kind: &str) -> Result<(), MsgError> {
        if self.pos != self.bytes.len() {
            return Err(MsgError::Malformed(format!(
                "{} trailing byte(s) after {kind} payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// A `CHUNK` message that borrows its event payload: from the frame
/// buffer it was decoded in ([`MsgView::decode`]) or from the trace
/// bytes it is sent from ([`ChunkView::write`]). The daemon checks,
/// observes and logs chunks through it without copying them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkView<'a> {
    /// Cumulative chunk index.
    pub seq: u64,
    /// The chunk's event count, from the trace codec.
    pub count: u32,
    /// The chunk's payload CRC, from the trace codec.
    pub crc: u32,
    /// The canonical varint event bytes.
    pub payload: &'a [u8],
}

impl<'a> ChunkView<'a> {
    /// Parses a `CHUNK` frame payload in place.
    fn parse(body: &'a [u8]) -> Result<ChunkView<'a>, MsgError> {
        let mut c = Cursor { bytes: body, pos: 0 };
        let seq = c.u64("CHUNK seq")?;
        let count = c.u32("CHUNK count")?;
        let crc = c.u32("CHUNK crc")?;
        Ok(ChunkView { seq, count, crc, payload: &body[c.pos..] })
    }

    fn encode_into(&self, buf: &mut Vec<u8>) -> u32 {
        buf.reserve(16 + self.payload.len());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.crc.to_le_bytes());
        buf.extend_from_slice(self.payload);
        K_CHUNK
    }

    /// Writes the chunk as one `CHUNK` frame, built in one buffer with
    /// one copy of the payload: the same bytes as [`write_msg`] of the
    /// owned [`SessionMsg::Chunk`].
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        frame::write_frame_with(w, |buf| self.encode_into(buf))
    }

    fn to_msg(self) -> SessionMsg {
        let ChunkView { seq, count, crc, payload } = self;
        SessionMsg::Chunk { seq, count, crc, payload: payload.to_vec() }
    }
}

/// A session message decoded from a frame payload in place: a `CHUNK`
/// borrows the payload, every other kind is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgView<'a> {
    /// A `CHUNK`, borrowing its payload.
    Chunk(ChunkView<'a>),
    /// Any message but `CHUNK`.
    Msg(SessionMsg),
}

impl<'a> MsgView<'a> {
    /// Decodes a frame's `kind` and payload. A well-formed frame with an
    /// unknown kind or a payload that does not parse is `Malformed`.
    pub fn decode(kind: u32, body: &'a [u8]) -> Result<MsgView<'a>, MsgError> {
        if kind == K_CHUNK {
            return ChunkView::parse(body).map(MsgView::Chunk);
        }
        let mut c = Cursor { bytes: body, pos: 0 };
        let msg = match kind {
            K_HELLO => SessionMsg::Hello {
                tenant: c.str("HELLO tenant")?,
                workload: c.str("HELLO workload")?,
            },
            K_QUERY => SessionMsg::Query,
            K_END => SessionMsg::End,
            K_SHUTDOWN => SessionMsg::Shutdown,
            K_HELLO_OK => SessionMsg::HelloOk { acked: c.u64("HELLO_OK cursor")? },
            K_ACK => SessionMsg::Ack { acked: c.u64("ACK cursor")? },
            K_BUSY => SessionMsg::Busy { reason: c.rest_str("BUSY reason")? },
            K_THROTTLE => SessionMsg::Throttle { acked: c.u64("THROTTLE cursor")? },
            K_STATS => SessionMsg::Stats { json: c.rest_str("STATS body")? },
            K_END_OK => SessionMsg::EndOk {
                acked: c.u64("END_OK cursor")?,
                profile: c.rest_str("END_OK profile")?,
            },
            K_ERR => SessionMsg::Err { reason: c.rest_str("ERR reason")? },
            other => {
                return Err(MsgError::Malformed(format!("unknown session frame kind {other}")))
            }
        };
        c.finish(kind_name(kind))?;
        Ok(MsgView::Msg(msg))
    }
}

impl SessionMsg {
    /// Appends the frame payload to `buf` and returns the frame kind.
    fn encode_into(&self, buf: &mut Vec<u8>) -> u32 {
        match self {
            SessionMsg::Hello { tenant, workload } => {
                push_str(buf, tenant);
                push_str(buf, workload);
                K_HELLO
            }
            SessionMsg::Chunk { seq, count, crc, payload } => {
                ChunkView { seq: *seq, count: *count, crc: *crc, payload }.encode_into(buf)
            }
            SessionMsg::Query => K_QUERY,
            SessionMsg::End => K_END,
            SessionMsg::Shutdown => K_SHUTDOWN,
            SessionMsg::HelloOk { acked } => {
                buf.extend_from_slice(&acked.to_le_bytes());
                K_HELLO_OK
            }
            SessionMsg::Ack { acked } => {
                buf.extend_from_slice(&acked.to_le_bytes());
                K_ACK
            }
            SessionMsg::Busy { reason } => {
                buf.extend_from_slice(reason.as_bytes());
                K_BUSY
            }
            SessionMsg::Throttle { acked } => {
                buf.extend_from_slice(&acked.to_le_bytes());
                K_THROTTLE
            }
            SessionMsg::Stats { json } => {
                buf.extend_from_slice(json.as_bytes());
                K_STATS
            }
            SessionMsg::EndOk { acked, profile } => {
                buf.reserve(8 + profile.len());
                buf.extend_from_slice(&acked.to_le_bytes());
                buf.extend_from_slice(profile.as_bytes());
                K_END_OK
            }
            SessionMsg::Err { reason } => {
                buf.extend_from_slice(reason.as_bytes());
                K_ERR
            }
        }
    }

    /// Encodes into `(frame kind, frame payload)`.
    pub fn encode(&self) -> (u32, Vec<u8>) {
        let mut buf = Vec::new();
        let kind = self.encode_into(&mut buf);
        (kind, buf)
    }

    /// Decodes a frame into a message. A well-formed frame with an
    /// unknown kind or a payload that does not parse is `Malformed`.
    pub fn decode(frame: &Frame) -> Result<SessionMsg, MsgError> {
        Ok(match MsgView::decode(frame.kind, &frame.payload)? {
            MsgView::Chunk(chunk) => chunk.to_msg(),
            MsgView::Msg(msg) => msg,
        })
    }
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        K_HELLO => "HELLO",
        K_CHUNK => "CHUNK",
        K_QUERY => "QUERY",
        K_END => "END",
        K_SHUTDOWN => "SHUTDOWN",
        K_HELLO_OK => "HELLO_OK",
        K_ACK => "ACK",
        K_BUSY => "BUSY",
        K_THROTTLE => "THROTTLE",
        K_STATS => "STATS",
        K_END_OK => "END_OK",
        K_ERR => "ERR",
        _ => "?",
    }
}

/// Writes one session message as a frame (no magic; send
/// [`frame::write_magic`] once per direction first). The frame is built
/// in one buffer: one copy of the payload, one CRC pass.
pub fn write_msg<W: Write>(w: &mut W, msg: &SessionMsg) -> io::Result<()> {
    frame::write_frame_with(w, |buf| msg.encode_into(buf))
}

/// Reads and decodes one session message.
pub fn read_msg<R: Read>(r: &mut FrameReader<R>) -> Result<SessionMsg, MsgError> {
    let frame = r.read_frame()?;
    SessionMsg::decode(&frame)
}

/// What to do with an arriving chunk, given the cumulative-acknowledgment
/// cursor: `next` chunks (`seq` 0..next) have already been accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDisposition {
    /// `seq == next`: the next expected chunk — ingest it.
    Accept,
    /// `seq < next`: a retransmit of a durable chunk — drop it without
    /// re-observing (retransmits after a lost ACK must be idempotent).
    Duplicate,
    /// `seq > next`: the client skipped chunks — protocol violation.
    Gap,
}

/// Classifies chunk `seq` against the accepted-chunk cursor `next`.
pub fn classify_chunk(seq: u64, next: u64) -> ChunkDisposition {
    match seq.cmp(&next) {
        std::cmp::Ordering::Equal => ChunkDisposition::Accept,
        std::cmp::Ordering::Less => ChunkDisposition::Duplicate,
        std::cmp::Ordering::Greater => ChunkDisposition::Gap,
    }
}

/// The well-formed prefix of an append-only frame log.
#[derive(Debug)]
pub struct LogScan {
    /// Every complete, CRC-verified frame in the prefix.
    pub frames: Vec<Frame>,
    /// Byte length of the prefix (magic + whole frames). Truncating the
    /// log here leaves the next append on a frame boundary.
    pub good_len: usize,
    /// Whether a torn tail (a crash mid-append) was dropped.
    pub torn: bool,
}

/// Scans an append-only frame log (`VPW1` magic + frames), as written by
/// a session's durable chunk log. A torn tail — the expected artifact of
/// `kill -9` mid-append — is dropped and reported, exploiting the
/// [`FrameError::PeerClosed`]/[`FrameError::Torn`] distinction: clean
/// EOF at a frame boundary ends the scan, EOF mid-frame marks the torn
/// tail. Interior corruption (a full frame whose CRC fails) is *not* a
/// crash artifact and surfaces as an error.
pub fn scan_log(bytes: &[u8]) -> Result<LogScan, FrameError> {
    use std::cell::Cell;

    struct PosReader<'a> {
        bytes: &'a [u8],
        pos: &'a Cell<usize>,
    }
    impl Read for PosReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let at = self.pos.get();
            let n = (self.bytes.len() - at).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[at..at + n]);
            self.pos.set(at + n);
            Ok(n)
        }
    }

    if bytes.is_empty() {
        return Ok(LogScan { frames: Vec::new(), good_len: 0, torn: false });
    }
    let pos = Cell::new(0usize);
    let mut reader = FrameReader::new(PosReader { bytes, pos: &pos });
    match reader.expect_magic() {
        Ok(()) => {}
        // A crash can even tear the magic of a brand-new log.
        Err(FrameError::Torn(_)) => {
            return Ok(LogScan { frames: Vec::new(), good_len: 0, torn: true })
        }
        Err(e) => return Err(e),
    }
    let mut frames = Vec::new();
    let mut good_len = pos.get();
    loop {
        match reader.read_frame() {
            Ok(frame) => {
                frames.push(frame);
                good_len = pos.get();
            }
            Err(FrameError::PeerClosed) => return Ok(LogScan { frames, good_len, torn: false }),
            Err(FrameError::Torn(_)) => return Ok(LogScan { frames, good_len, torn: true }),
            Err(e) => return Err(e),
        }
    }
}

/// A Unix-domain listener that owns its socket path: binding removes a
/// stale socket file left by a killed daemon, dropping removes the live
/// one.
#[derive(Debug)]
pub struct NetListener {
    inner: UnixListener,
    path: PathBuf,
}

impl NetListener {
    /// Binds `path`, replacing any stale socket file at that path (a
    /// `kill -9`'d daemon cannot unlink its own socket). The listener is
    /// non-blocking: [`NetListener::accept_timeout`] does the waiting.
    pub fn bind(path: &Path) -> io::Result<NetListener> {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let inner = UnixListener::bind(path)?;
        inner.set_nonblocking(true)?;
        Ok(NetListener { inner, path: path.to_path_buf() })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts one connection, waiting at most `timeout`. `Ok(None)` on
    /// timeout — the accept loop uses short slices so it can notice the
    /// drain flag between them without a dedicated wakeup connection.
    ///
    /// On Linux x86_64/aarch64 the wait is a `ppoll` on the listener, so
    /// a connect wakes it at once. Elsewhere it sleeps 2 ms between
    /// accept attempts.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<UnixStream>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.inner.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Some(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    #[cfg(all(
                        target_os = "linux",
                        any(target_arch = "x86_64", target_arch = "aarch64")
                    ))]
                    {
                        use std::os::fd::AsRawFd;
                        poll::readable(self.inner.as_raw_fd(), left)?;
                    }
                    #[cfg(not(all(
                        target_os = "linux",
                        any(target_arch = "x86_64", target_arch = "aarch64")
                    )))]
                    std::thread::sleep(left.min(Duration::from_millis(2)));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Blocks until a read on `stream` would return immediately — bytes (or
/// EOF) are waiting — or `timeout` passes: `Ok(true)` when readable,
/// `Ok(false)` on timeout or when a signal cut the wait short. Nothing
/// is consumed, so the daemon waits here between frames and still
/// notices the drain flag and the idle budget once per `timeout`,
/// without ever reading mid-frame bytes. (A read timeout on a cloned
/// probe would not do: clones share one socket, so its `SO_RCVTIMEO`
/// would override the read side's idle bound.)
///
/// On Linux x86_64/aarch64 this is a raw `ppoll` for `POLLIN` (`std`
/// has no poll). Elsewhere it reports `Ok(true)` at once, degrading the
/// daemon to blocking reads — drain then only lands between client
/// frames.
pub fn wait_readable(stream: &UnixStream, timeout: Duration) -> io::Result<bool> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::os::fd::AsRawFd;
        poll::readable(stream.as_raw_fd(), timeout)
    }
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        let _ = (stream, timeout);
        Ok(true)
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod poll {
    use std::io;
    use std::time::Duration;

    /// Data to read (EOF, hang-up and errors are reported regardless).
    const POLLIN: i16 = 0x1;
    /// Kernel sigset size; the mask itself is null (keep the thread's).
    const SIGSET_SIZE: usize = 8;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` on 64-bit targets.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// Waits until `fd` is readable — for a listener, until a connection
    /// is pending — or `timeout` passes: `Ok(true)` when readable,
    /// `Ok(false)` on timeout or when a signal cut the wait short.
    pub fn readable(fd: i32, timeout: Duration) -> io::Result<bool> {
        const EINTR: isize = -4;
        let mut pollfd = PollFd { fd, events: POLLIN, revents: 0 };
        let mut ts =
            Timespec { sec: timeout.as_secs() as i64, nsec: i64::from(timeout.subsec_nanos()) };
        // SAFETY: both pointers are to live locals with the kernel's
        // `pollfd` and `timespec` layouts, and `nfds` is 1.
        match unsafe { sys_ppoll(&mut pollfd, &mut ts) } {
            EINTR | 0 => Ok(false),
            n if n > 0 => Ok(true),
            e => Err(io::Error::from_raw_os_error(-e as i32)),
        }
    }

    /// Raw `ppoll` on one descriptor with no signal mask.
    ///
    /// # Safety
    ///
    /// `fd` and `timeout` must point to a live `PollFd` and `Timespec`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_ppoll(fd: *mut PollFd, timeout: *mut Timespec) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 271isize => ret, // SYS_ppoll
            in("rdi") fd,
            in("rsi") 1usize, // nfds
            in("rdx") timeout,
            in("r10") 0usize, // sigmask
            in("r8") SIGSET_SIZE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// Raw `ppoll` on one descriptor with no signal mask.
    ///
    /// # Safety
    ///
    /// `fd` and `timeout` must point to a live `PollFd` and `Timespec`.
    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_ppoll(fd: *mut PollFd, timeout: *mut Timespec) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") fd as isize => ret,
            in("x1") 1usize, // nfds
            in("x2") timeout,
            in("x3") 0usize, // sigmask
            in("x4") SIGSET_SIZE,
            in("x8") 73usize, // SYS_ppoll
            options(nostack)
        );
        ret
    }
}

/// Arms a process-wide SIGTERM watcher and returns the drain flag it
/// sets. Call once, early, before spawning worker threads (the signal
/// mask is inherited at `thread::spawn`).
///
/// On Linux x86_64/aarch64 this blocks SIGTERM with `rt_sigprocmask` and
/// reads it from a `signalfd4` descriptor on a watcher thread — no
/// signal handler, so nothing async-signal-unsafe ever runs and there is
/// no `sa_restorer` to hand-roll. Elsewhere (and if the syscalls fail)
/// the flag simply never fires and SIGTERM keeps its default
/// disposition; the daemon still drains on a `SHUTDOWN` frame.
pub fn watch_sigterm() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        if let Ok(fd) = sigterm::arm() {
            let flag = Arc::clone(&flag);
            std::thread::Builder::new()
                .name("vp-sigterm".to_string())
                .spawn(move || {
                    sigterm::wait(fd);
                    flag.store(true, Ordering::SeqCst);
                })
                .ok();
        }
    }
    flag
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sigterm {
    use std::io;

    const SIG_BLOCK: usize = 0;
    const SIGTERM: u64 = 15;
    /// Kernel sigset: one u64, bit `sig - 1`.
    const TERM_MASK: u64 = 1 << (SIGTERM - 1);
    const SIGSET_SIZE: usize = 8;
    const SFD_CLOEXEC: usize = 0o2000000;
    /// `sizeof(struct signalfd_siginfo)` — reads must be exactly this.
    const SIGINFO_SIZE: usize = 128;

    /// Blocks SIGTERM for the calling thread (and all threads it spawns
    /// afterwards) and returns a signalfd that receives it instead.
    pub fn arm() -> io::Result<i32> {
        let mask = TERM_MASK;
        let ret = unsafe { sys_rt_sigprocmask(SIG_BLOCK, &mask) };
        if ret < 0 {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        let fd = unsafe { sys_signalfd4(&mask) };
        if fd < 0 {
            return Err(io::Error::from_raw_os_error(-fd as i32));
        }
        Ok(fd as i32)
    }

    /// Blocks until SIGTERM is delivered to the process.
    pub fn wait(fd: i32) {
        let mut info = [0u8; SIGINFO_SIZE];
        loop {
            let n = unsafe { sys_read(fd, info.as_mut_ptr(), info.len()) };
            // EINTR (-4) retries; any other result means either a
            // delivered signal or an unusable fd — stop waiting.
            if n != -4 {
                return;
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_rt_sigprocmask(how: usize, set: *const u64) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 14isize => ret, // SYS_rt_sigprocmask
            in("rdi") how,
            in("rsi") set,
            in("rdx") 0usize, // oldset: not wanted
            in("r10") SIGSET_SIZE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_signalfd4(mask: *const u64) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 289isize => ret, // SYS_signalfd4
            in("rdi") -1isize,                // new fd
            in("rsi") mask,
            in("rdx") SIGSET_SIZE,
            in("r10") SFD_CLOEXEC,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_read(fd: i32, buf: *mut u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 0isize => ret, // SYS_read
            in("rdi") fd as isize,
            in("rsi") buf,
            in("rdx") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_rt_sigprocmask(how: usize, set: *const u64) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") how as isize => ret,
            in("x1") set,
            in("x2") 0usize, // oldset: not wanted
            in("x3") SIGSET_SIZE,
            in("x8") 135usize, // SYS_rt_sigprocmask
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_signalfd4(mask: *const u64) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") -1isize => ret, // new fd
            in("x1") mask,
            in("x2") SIGSET_SIZE,
            in("x3") SFD_CLOEXEC,
            in("x8") 74usize, // SYS_signalfd4
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_read(fd: i32, buf: *mut u8, len: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") fd as isize => ret,
            in("x1") buf,
            in("x2") len,
            in("x8") 63usize, // SYS_read
            options(nostack)
        );
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_MAGIC;

    fn all_msgs() -> Vec<SessionMsg> {
        vec![
            SessionMsg::Hello { tenant: "acme".to_string(), workload: "li".to_string() },
            SessionMsg::Chunk { seq: 7, count: 3, crc: 0xdead_beef, payload: vec![1, 2, 3] },
            SessionMsg::Chunk { seq: 0, count: 0, crc: 0, payload: Vec::new() },
            SessionMsg::Query,
            SessionMsg::End,
            SessionMsg::Shutdown,
            SessionMsg::HelloOk { acked: 12 },
            SessionMsg::Ack { acked: u64::MAX },
            SessionMsg::Busy { reason: "max sessions (2) reached".to_string() },
            SessionMsg::Throttle { acked: 5 },
            SessionMsg::Stats { json: "{\"chunks\":4}".to_string() },
            SessionMsg::EndOk { acked: 9, profile: "pc\tinv\n".to_string() },
            SessionMsg::Err { reason: "chunk 4: crc mismatch".to_string() },
        ]
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn wait_readable_wakes_on_data_and_times_out_when_idle() {
        let (probe, mut peer) = UnixStream::pair().unwrap();
        let slice = Duration::from_millis(10);
        let t = Instant::now();
        assert!(!wait_readable(&probe, slice).unwrap(), "idle socket is not readable");
        assert!(t.elapsed() >= slice, "returned before the timeout: {:?}", t.elapsed());

        // A queued byte wakes the wait at once (not after the timeout),
        // and stays queued for the reader.
        peer.write_all(&[7]).unwrap();
        let t = Instant::now();
        assert!(wait_readable(&probe, Duration::from_secs(5)).unwrap());
        assert!(t.elapsed() < Duration::from_secs(1), "waited {:?}", t.elapsed());
        let mut byte = [0u8; 1];
        (&probe).read_exact(&mut byte).unwrap();
        assert_eq!(byte, [7]);

        // A byte that arrives mid-wait wakes it too.
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            peer.write_all(&[8]).unwrap();
            peer
        });
        let t = Instant::now();
        assert!(wait_readable(&probe, Duration::from_secs(5)).unwrap());
        assert!(t.elapsed() < Duration::from_secs(1), "waited {:?}", t.elapsed());
        (&probe).read_exact(&mut byte).unwrap();

        // EOF counts as readable: the frame reader must run and see it.
        drop(writer.join().unwrap());
        assert!(wait_readable(&probe, Duration::from_secs(5)).unwrap());
    }

    #[test]
    fn every_message_round_trips_through_the_frame_codec() {
        let mut wire = Vec::new();
        frame::write_magic(&mut wire).unwrap();
        let msgs = all_msgs();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        let mut r = FrameReader::new(&wire[..]);
        r.expect_magic().unwrap();
        for want in &msgs {
            let got = read_msg(&mut r).unwrap();
            assert_eq!(&got, want);
        }
        assert!(matches!(read_msg(&mut r), Err(MsgError::Frame(FrameError::PeerClosed))));
    }

    #[test]
    fn chunk_view_writes_and_parses_the_owned_chunk_bytes() {
        let payload = [5u8, 0x81, 0x01, 9];
        let view = ChunkView { seq: 3, count: 2, crc: 0xfeed_f00d, payload: &payload };
        let (mut borrowed, mut owned) = (Vec::new(), Vec::new());
        view.write(&mut borrowed).unwrap();
        write_msg(&mut owned, &view.to_msg()).unwrap();
        assert_eq!(borrowed, owned);
        let mut r = FrameReader::new(&borrowed[..]);
        let frame = r.read_frame().unwrap();
        assert_eq!(frame.kind, K_CHUNK);
        assert_eq!(ChunkView::parse(&frame.payload).unwrap(), view);
        assert_eq!(MsgView::decode(K_CHUNK, &frame.payload).unwrap(), MsgView::Chunk(view));
        // A body too short for the three fixed fields is malformed.
        match ChunkView::parse(&frame.payload[..15]) {
            Err(MsgError::Malformed(m)) => assert!(m.contains("truncated CHUNK crc"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_and_truncated_payloads_are_malformed_not_torn() {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, 99, b"x").unwrap();
        // ACK payload must be exactly 8 bytes.
        frame::write_frame(&mut wire, K_ACK, &[1, 2, 3]).unwrap();
        // HELLO with a length prefix pointing past the payload.
        frame::write_frame(&mut wire, K_HELLO, &200u32.to_le_bytes()).unwrap();
        // ACK with trailing garbage after a valid cursor.
        let mut long = 4u64.to_le_bytes().to_vec();
        long.push(0xff);
        frame::write_frame(&mut wire, K_ACK, &long).unwrap();
        let mut r = FrameReader::new(&wire[..]);
        for want in [
            "unknown session frame kind 99",
            "truncated ACK cursor",
            "truncated HELLO tenant",
            "trailing byte(s) after ACK payload",
        ] {
            match read_msg(&mut r) {
                Err(MsgError::Malformed(m)) => {
                    assert!(m.contains(want), "`{m}` should contain `{want}`")
                }
                other => panic!("expected Malformed for {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn hello_rejects_non_utf8_names() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        payload.extend_from_slice(&0u32.to_le_bytes());
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, K_HELLO, &payload).unwrap();
        let mut r = FrameReader::new(&wire[..]);
        match read_msg(&mut r) {
            Err(MsgError::Malformed(m)) => assert!(m.contains("not UTF-8")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn classify_chunk_orders_accept_duplicate_gap() {
        assert_eq!(classify_chunk(3, 3), ChunkDisposition::Accept);
        assert_eq!(classify_chunk(0, 3), ChunkDisposition::Duplicate);
        assert_eq!(classify_chunk(2, 3), ChunkDisposition::Duplicate);
        assert_eq!(classify_chunk(4, 3), ChunkDisposition::Gap);
        assert_eq!(classify_chunk(0, 0), ChunkDisposition::Accept);
    }

    #[test]
    fn scan_log_keeps_the_prefix_and_drops_a_torn_tail() {
        let mut log = Vec::new();
        frame::write_magic(&mut log).unwrap();
        write_msg(&mut log, &SessionMsg::Chunk { seq: 0, count: 2, crc: 9, payload: vec![1, 2] })
            .unwrap();
        write_msg(&mut log, &SessionMsg::Chunk { seq: 1, count: 1, crc: 7, payload: vec![3] })
            .unwrap();
        let clean = scan_log(&log).unwrap();
        assert_eq!(clean.frames.len(), 2);
        assert_eq!(clean.good_len, log.len());
        assert!(!clean.torn);
        // Tear the second frame at every possible byte boundary: the
        // first frame always survives, the tail is always dropped.
        let first_end = {
            let mut one = Vec::new();
            frame::write_magic(&mut one).unwrap();
            write_msg(
                &mut one,
                &SessionMsg::Chunk { seq: 0, count: 2, crc: 9, payload: vec![1, 2] },
            )
            .unwrap();
            one.len()
        };
        for cut in first_end + 1..log.len() {
            let scan = scan_log(&log[..cut]).unwrap();
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert_eq!(scan.good_len, first_end);
            assert!(scan.torn);
        }
        // Empty and magic-torn logs are fresh starts, not errors.
        let empty = scan_log(&[]).unwrap();
        assert_eq!((empty.frames.len(), empty.good_len, empty.torn), (0, 0, false));
        let torn_magic = scan_log(&log[..2]).unwrap();
        assert_eq!((torn_magic.frames.len(), torn_magic.good_len, torn_magic.torn), (0, 0, true));
        // Interior corruption is an error, not a torn tail.
        let mut corrupt = log.clone();
        corrupt[first_end - 1] ^= 0xff;
        assert!(matches!(scan_log(&corrupt), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn listener_replaces_stale_socket_and_cleans_up_on_drop() {
        let dir = std::env::temp_dir().join(format!("vp-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        // A stale socket file from a killed daemon must not block bind.
        drop(NetListener::bind(&sock).unwrap());
        assert!(!sock.exists(), "drop should remove the socket file");
        let listener = NetListener::bind(&sock).unwrap();
        assert!(sock.exists());
        let listener2 = NetListener::bind(&sock).unwrap();
        assert!(sock.exists(), "rebinding replaces the stale socket");
        drop(listener2);
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_timeout_returns_none_then_a_connection() {
        let dir = std::env::temp_dir().join(format!("vp-net-accept-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let listener = NetListener::bind(&sock).unwrap();
        assert!(listener.accept_timeout(Duration::from_millis(20)).unwrap().is_none());
        let client = UnixStream::connect(&sock).unwrap();
        let mut server_side =
            listener.accept_timeout(Duration::from_secs(5)).unwrap().expect("pending connection");
        // Prove the pair is wired up and back in blocking mode.
        let mut c = client;
        c.write_all(&FRAME_MAGIC).unwrap();
        let mut buf = [0u8; 4];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(buf, FRAME_MAGIC);
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accept_timeout_wakes_on_a_connect_mid_wait() {
        let dir = std::env::temp_dir().join(format!("vp-net-wake-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let listener = NetListener::bind(&sock).unwrap();
        let path = sock.clone();
        let connector = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            UnixStream::connect(&path).unwrap()
        });
        // The connect lands 20 ms into a 5 s wait and must end it then,
        // not at the timeout. The bound is loose: the machine is shared.
        let t = Instant::now();
        let accepted = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let waited = t.elapsed();
        assert!(accepted.is_some(), "no connection after {waited:?}");
        assert!(waited < Duration::from_secs(1), "accept waited {waited:?}");
        drop(connector.join().unwrap());
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_sigterm_returns_an_unset_flag() {
        // Arming must be safe in a test process; the flag only fires on
        // a real SIGTERM, which we do not send here.
        let flag = watch_sigterm();
        assert!(!flag.load(Ordering::SeqCst));
    }
}
