//! `vprof serve` — crash-tolerant multi-tenant profile ingestion.
//!
//! A std-only daemon on a Unix-domain socket. Each client speaks the
//! session protocol from [`vp_instrument::net`]: `HELLO` opens a
//! per-tenant session, `CHUNK` frames stream `VPC1` trace chunks into a
//! live profiler, `QUERY` returns deterministic session statistics,
//! `END` closes the session and returns the rendered profile.
//!
//! ## Durability and recovery
//!
//! Every accepted chunk is appended verbatim to a per-session chunk log
//! (`VPW1` magic + `CHUNK` frames): the frame's header and payload go
//! in exactly as they arrived, with no re-encode. A *checkpoint* —
//! every [`CHECKPOINT_EVERY`] chunks and on `END` — flushes the log,
//! syncs it with one `sync_data`, passes the `session/checkpoint` fault
//! point, and only then acknowledges: `ACK{n}` promises chunks `0..n`
//! survive `kill -9`. The log is the session's only durable state;
//! there is no separate meta record. On restart with `--resume`,
//! `HELLO` finds the log, drops a torn tail (a crash mid-append),
//! replays the durable chunks through a fresh profiler, and answers
//! `HELLO_OK{n}` so the client retransmits from the last acknowledged
//! chunk. The profiler is a pure function of the chunk stream, so a
//! killed-and-resumed session produces the same profile, byte for byte,
//! as an undisturbed one; duplicate retransmits are dropped by sequence
//! number, never observed twice.
//!
//! ## Fault domains
//!
//! A malformed frame, CRC mismatch, protocol violation, injected fault,
//! or panic kills *only its own session*: the handler thread catches the
//! unwind, answers a typed `ERR`, releases the admission slot, and bumps
//! `session_killed`. Admission control (`max_sessions`, `max_tenants`,
//! per-tenant caps) answers a typed `BUSY` instead of hanging. Graceful
//! drain — SIGTERM (via a signalfd watcher) or a `SHUTDOWN` frame —
//! stops accepting, checkpoints every live session, and exits cleanly.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vp_core::fault::{
    FaultAction, FaultPlan, SERVE_ACCEPT_POINT, SESSION_CHECKPOINT_POINT, SESSION_FRAME_POINT,
};
use vp_core::{durable, MemBudget, ProfileMode, Profiler};
use vp_instrument::frame::{self, FrameError, FrameHeader, FrameReader};
use vp_instrument::net::{
    self, classify_chunk, ChunkDisposition, ChunkView, MsgError, MsgView, NetListener, SessionMsg,
};
use vp_instrument::{cancel, trace_codec};
use vp_obs::{CounterId, Counts, Json};

/// Which profiler each session runs: any engine mode, built by
/// [`ProfileMode::build`].
pub type SessionMode = ProfileMode;

/// Chunks between durable checkpoints; each checkpoint acknowledges.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Most chunks a client keeps unacknowledged before it waits for an
/// `ACK`, as `vprof client` streams.
pub const WINDOW: u64 = 16;

// A window smaller than the ack cadence would wait for an `ACK` the
// daemon only sends after more chunks than the window lets through.
const _: () = assert!(WINDOW >= CHECKPOINT_EVERY);

/// Daemon configuration. `new` fills the defaults the CLI documents.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Directory for per-session chunk logs.
    pub state_dir: PathBuf,
    /// Concurrent-session ceiling; further `HELLO`s get a typed `BUSY`.
    pub max_sessions: usize,
    /// Concurrent-distinct-tenant ceiling.
    pub max_tenants: usize,
    /// Concurrent-session ceiling per tenant.
    pub tenant_sessions: usize,
    /// Reap a session after this long without a frame.
    pub idle: Option<Duration>,
    /// Whole-session deadline, enforced by the cancellation watchdog.
    pub deadline: Option<Duration>,
    /// Global memory budget, split evenly across `max_sessions`.
    pub mem_budget: Option<MemBudget>,
    pub mode: SessionMode,
    /// Recover sessions from existing chunk logs instead of truncating
    /// them.
    pub resume: bool,
    /// Where to write the telemetry ledger on exit, if anywhere.
    pub telemetry: Option<PathBuf>,
}

impl ServeConfig {
    pub fn new(socket: PathBuf, state_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            socket,
            state_dir,
            max_sessions: 8,
            max_tenants: 8,
            tenant_sessions: 4,
            idle: None,
            deadline: None,
            mem_budget: None,
            mode: SessionMode::Full,
            resume: false,
            telemetry: None,
        }
    }
}

/// How one session ended; drives its telemetry record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    pub tenant: String,
    pub workload: String,
    /// `completed`, `killed`, or `drained`. Rejected `HELLO`s and clean
    /// mid-stream disconnects (the client will retransmit later) leave
    /// no record.
    pub outcome: String,
    /// Durably acknowledged chunks at session end.
    pub chunks: u64,
    /// Trace events observed across the session's whole life, resumed
    /// chunks included.
    pub trace_events: u64,
    pub error: Option<String>,
}

/// What the daemon did over its whole life.
#[derive(Debug, Default)]
pub struct ServeReport {
    pub counts: Counts,
    pub sessions: Vec<SessionSummary>,
}

impl ServeReport {
    /// Telemetry records: one `serve` ledger plus one record per ended
    /// session, sorted by name so concurrent completions render
    /// identically across runs.
    pub fn records(&self) -> Vec<Json> {
        let mut records = vec![vp_obs::telemetry::record(
            "serve",
            "serve",
            vec![("events", self.counts.to_json())],
        )];
        let mut sessions = self.sessions.clone();
        sessions.sort_by(|a, b| {
            (&a.tenant, &a.workload, &a.outcome).cmp(&(&b.tenant, &b.workload, &b.outcome))
        });
        for s in &sessions {
            let mut fields = vec![
                ("tenant", Json::Str(s.tenant.clone())),
                ("outcome", Json::Str(s.outcome.clone())),
                ("chunks", Json::U64(s.chunks)),
                ("trace_events", Json::U64(s.trace_events)),
            ];
            if let Some(e) = &s.error {
                fields.push(("error", Json::Str(e.clone())));
            }
            records.push(vp_obs::telemetry::record(
                "session",
                &format!("{}/{}", s.tenant, s.workload),
                fields,
            ));
        }
        records
    }
}

/// Tenant and workload names become file names and fault points; keep
/// them to a safe alphabet.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// Live daemon bookkeeping shared by the accept loop and every session
/// thread.
#[derive(Default)]
struct DaemonState {
    /// Live sessions per tenant.
    tenants: HashMap<String, usize>,
    /// Live `tenant/workload` keys — one writer per session stream.
    live: Vec<String>,
    counts: Counts,
    sessions: Vec<SessionSummary>,
}

impl DaemonState {
    fn total_live(&self) -> usize {
        self.live.len()
    }
}

/// Shared handles a connection handler needs.
struct Daemon {
    cfg: ServeConfig,
    plan: Arc<FaultPlan>,
    state: Mutex<DaemonState>,
    drain: AtomicBool,
}

/// Admission verdict for a `HELLO`.
enum Admit {
    Ok,
    Busy(String),
}

impl Daemon {
    fn new(cfg: ServeConfig, plan: Arc<FaultPlan>) -> Daemon {
        Daemon {
            cfg,
            plan,
            state: Mutex::new(DaemonState::default()),
            drain: AtomicBool::new(false),
        }
    }

    fn admit(&self, tenant: &str, workload: &str) -> Admit {
        let key = format!("{tenant}/{workload}");
        let mut st = self.state.lock().unwrap();
        if st.live.iter().any(|k| k == &key) {
            return Admit::Busy(format!("session `{key}` already active"));
        }
        if st.total_live() >= self.cfg.max_sessions {
            return Admit::Busy(format!("max sessions ({}) reached", self.cfg.max_sessions));
        }
        let tenant_live = st.tenants.get(tenant).copied().unwrap_or(0);
        if tenant_live == 0
            && st.tenants.values().filter(|&&n| n > 0).count() >= self.cfg.max_tenants
        {
            return Admit::Busy(format!("max tenants ({}) reached", self.cfg.max_tenants));
        }
        if tenant_live >= self.cfg.tenant_sessions {
            return Admit::Busy(format!(
                "tenant `{tenant}` session cap ({}) reached",
                self.cfg.tenant_sessions
            ));
        }
        *st.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        st.live.push(key);
        Admit::Ok
    }

    fn release(&self, tenant: &str, workload: &str) {
        let key = format!("{tenant}/{workload}");
        let mut st = self.state.lock().unwrap();
        if let Some(pos) = st.live.iter().position(|k| k == &key) {
            st.live.remove(pos);
        }
        if let Some(n) = st.tenants.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }

    fn count(&self, id: CounterId, n: u64) {
        self.state.lock().unwrap().counts.add(id, n);
    }

    fn record(&self, summary: SessionSummary) {
        self.state.lock().unwrap().sessions.push(summary);
    }
}

/// The per-session durable state: a live profiler plus the chunk log
/// backing it.
struct Session {
    tenant: String,
    workload: String,
    profiler: Profiler,
    /// Decode buffer reused by every chunk the session ingests.
    scratch: Vec<(u32, u64)>,
    log: BufWriter<std::fs::File>,
    /// Chunks appended to the log (possibly still buffered).
    logged: u64,
    /// Chunks durably checkpointed and acknowledged.
    acked: u64,
    /// Trace events observed, resumed chunks included.
    events: u64,
}

/// Why a session stopped, before it is turned into frames + records.
enum SessionEnd {
    Completed,
    /// Typed kill: `ERR{reason}` goes out, `session_killed` goes up.
    Killed(String),
    /// The peer vanished between (or mid-) frames; durable progress is
    /// kept for a later reconnect, nothing is recorded.
    Disconnected,
    /// The daemon is draining; the session checkpoints and closes.
    Drained,
}

/// The session's chunk log.
fn log_path(cfg: &ServeConfig, tenant: &str, workload: &str) -> PathBuf {
    cfg.state_dir.join("sessions").join(format!("{tenant}__{workload}.log"))
}

impl Session {
    /// Opens (or resumes) the durable state for one session. With
    /// `resume` unset any prior state is discarded; with it set, the
    /// chunk log's well-formed prefix is replayed through a fresh
    /// profiler and a torn tail from a mid-append crash is dropped.
    fn open(cfg: &ServeConfig, tenant: &str, workload: &str) -> io::Result<Session> {
        let log_path = log_path(cfg, tenant, workload);
        std::fs::create_dir_all(log_path.parent().unwrap())?;
        let budget = cfg.mem_budget.map(|b| b.split(cfg.max_sessions));
        let mut profiler = cfg.mode.build(budget);
        let mut logged = 0u64;
        let mut events = 0u64;
        if !cfg.resume {
            let _ = std::fs::remove_file(&log_path);
            // Older builds also kept a write-only `.ckpt` meta log.
            let _ = std::fs::remove_file(log_path.with_extension("ckpt"));
        }
        let existing = if cfg.resume {
            match std::fs::read(&log_path) {
                Ok(bytes) => Some(bytes),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            }
        } else {
            None
        };
        let mut scratch: Vec<(u32, u64)> = Vec::new();
        let good_len = match existing {
            None => None,
            Some(bytes) => {
                let scan = net::scan_log(&bytes).map_err(|e| {
                    io::Error::other(format!("session log {}: {e}", log_path.display()))
                })?;
                for f in &scan.frames {
                    let msg = MsgView::decode(f.kind, &f.payload)
                        .map_err(|e| io::Error::other(format!("session log: {e}")))?;
                    let MsgView::Chunk(ChunkView { seq, count, crc, payload }) = msg else {
                        return Err(io::Error::other(format!(
                            "session log: unexpected {} frame",
                            f.kind
                        )));
                    };
                    if seq != logged {
                        return Err(io::Error::other(format!(
                            "session log: chunk {seq} where {logged} expected"
                        )));
                    }
                    scratch.clear();
                    trace_codec::decode_chunk(seq as usize, count, crc, payload, &mut scratch)
                        .map_err(|e| io::Error::other(format!("session log: {e}")))?;
                    profiler.observe_batch(&scratch);
                    logged += 1;
                    events += u64::from(count);
                }
                Some(scan.good_len)
            }
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&log_path)?;
        match good_len {
            Some(good) => {
                // Drop a torn tail so the next append starts at a frame
                // boundary.
                if file.metadata()?.len() > good as u64 {
                    file.set_len(good as u64)?;
                }
                if good == 0 {
                    frame::write_magic(&mut file)?;
                }
            }
            None => frame::write_magic(&mut file)?,
        }
        Ok(Session {
            tenant: tenant.to_string(),
            workload: workload.to_string(),
            profiler,
            scratch,
            log: BufWriter::new(file),
            logged,
            acked: logged,
            events,
        })
    }

    /// Ingests one accepted chunk: verify, observe, then append its frame
    /// to the log as it arrived. `header` and `body` are the frame that
    /// carried `chunk`, so the log holds the client's bytes, and their
    /// frame CRC, unchanged.
    fn ingest(
        &mut self,
        chunk: ChunkView<'_>,
        header: FrameHeader,
        body: &[u8],
    ) -> Result<(), SessionEnd> {
        let ChunkView { seq, count, crc, payload } = chunk;
        self.scratch.clear();
        trace_codec::decode_chunk(seq as usize, count, crc, payload, &mut self.scratch)
            .map_err(|e| SessionEnd::Killed(format!("chunk {seq}: {e}")))?;
        self.profiler.observe_batch(&self.scratch);
        self.log
            .write_all(&header.to_bytes())
            .and_then(|()| self.log.write_all(body))
            .map_err(|e| SessionEnd::Killed(format!("chunk {seq}: log append failed: {e}")))?;
        self.logged += 1;
        self.events += u64::from(count);
        Ok(())
    }

    /// Makes every logged chunk durable and advances the ack cursor:
    /// flush the log, sync it (the checkpoint's one fsync), then fire
    /// the checkpoint fault point. A fault or a kill there leaves the
    /// chunks durable but unacknowledged, which `--resume` recovers.
    fn checkpoint(&mut self, plan: &FaultPlan) -> io::Result<()> {
        self.log.flush()?;
        self.log.get_ref().sync_data()?;
        plan.fire(SESSION_CHECKPOINT_POINT)?;
        self.acked = self.logged;
        Ok(())
    }

    fn stats_json(&self) -> String {
        Json::obj(vec![
            ("tenant", Json::Str(self.tenant.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("logged", Json::U64(self.logged)),
            ("acked", Json::U64(self.acked)),
            ("events", Json::U64(self.events)),
        ])
        .render()
    }
}

/// Between-frames wait verdicts from the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Bytes are available; read the next frame.
    Ready,
    /// The daemon is draining.
    Drain,
    /// The idle budget elapsed with no frame.
    Idle,
}

/// Applies a checked fault action inside a session, mirroring
/// [`FaultPlan::fire`] but giving `disconnect` its real meaning: drop
/// this connection without a word.
fn apply_fault(action: FaultAction, point: &str) -> Result<(), SessionEnd> {
    match action {
        FaultAction::Panic => panic!("fault injected: {point}"),
        FaultAction::Err => Err(SessionEnd::Killed(format!("fault injected: {point}"))),
        FaultAction::Kill => std::process::abort(),
        FaultAction::Disconnect => Err(SessionEnd::Disconnected),
        FaultAction::Slow => {
            let mut acc = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..100_000_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            std::hint::black_box(acc);
            Ok(())
        }
        FaultAction::Hang => loop {
            if cancel::cancelled() {
                cancel::unwind();
            }
            std::thread::sleep(Duration::from_millis(1));
        },
    }
}

/// Runs one admitted session to its end. Pure with respect to the
/// transport: reads typed messages, writes typed replies, so unit tests
/// drive it over in-memory pipes.
fn session_loop<R: Read, W: Write>(
    daemon: &Daemon,
    session: &mut Session,
    reader: &mut FrameReader<R>,
    w: &mut W,
    wait: &mut dyn FnMut() -> Wait,
) -> SessionEnd {
    let tenant_point = format!("session/{}/frame", session.tenant);
    // One frame buffer for the whole session: CHUNKs are parsed, checked
    // and logged in place.
    let mut body = Vec::new();
    loop {
        cancel::checkpoint();
        match wait() {
            Wait::Ready => {}
            Wait::Drain => return SessionEnd::Drained,
            Wait::Idle => return SessionEnd::Killed("session idle".to_string()),
        }
        let header = match reader.read_frame_into(&mut body) {
            Ok(header) => header,
            Err(FrameError::PeerClosed) => return SessionEnd::Disconnected,
            Err(FrameError::Torn(_)) => return SessionEnd::Disconnected,
            Err(FrameError::Corrupt(m)) => {
                return SessionEnd::Killed(format!("corrupt frame: {m}"))
            }
            Err(FrameError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return SessionEnd::Killed("session idle mid-frame".to_string())
            }
            Err(FrameError::Io(_)) => return SessionEnd::Disconnected,
        };
        let msg = match MsgView::decode(header.kind, &body) {
            Ok(msg) => msg,
            Err(MsgError::Malformed(m)) => return SessionEnd::Killed(m),
            Err(e @ MsgError::Frame(_)) => return SessionEnd::Killed(e.to_string()),
        };
        // Every frame inside a session crosses the generic fault point
        // and a tenant-qualified one, so tests can fault exactly one
        // tenant's session and watch its neighbours stay unharmed.
        for point in [SESSION_FRAME_POINT, tenant_point.as_str()] {
            if let Some(action) = daemon.plan.check(point) {
                if let Err(end) = apply_fault(action, point) {
                    return end;
                }
            }
        }
        match msg {
            MsgView::Chunk(chunk) => {
                match classify_chunk(chunk.seq, session.logged) {
                    // A retransmit of a durable chunk after a lost ACK:
                    // drop it, never observe it twice.
                    ChunkDisposition::Duplicate => continue,
                    ChunkDisposition::Gap => {
                        return SessionEnd::Killed(format!(
                            "chunk {} skips ahead of {}",
                            chunk.seq, session.logged
                        ))
                    }
                    ChunkDisposition::Accept => {}
                }
                if let Err(end) = session.ingest(chunk, header, &body) {
                    return end;
                }
                if session.logged - session.acked >= CHECKPOINT_EVERY {
                    if let Err(e) = session.checkpoint(&daemon.plan) {
                        return SessionEnd::Killed(format!("checkpoint failed: {e}"));
                    }
                    if net::write_msg(w, &SessionMsg::Ack { acked: session.acked }).is_err() {
                        return SessionEnd::Disconnected;
                    }
                }
            }
            MsgView::Msg(SessionMsg::Query) => {
                let reply = SessionMsg::Stats { json: session.stats_json() };
                if net::write_msg(w, &reply).is_err() {
                    return SessionEnd::Disconnected;
                }
            }
            MsgView::Msg(SessionMsg::End) => {
                if let Err(e) = session.checkpoint(&daemon.plan) {
                    return SessionEnd::Killed(format!("checkpoint failed: {e}"));
                }
                let profile = durable::render_profile_durable(&session.profiler.metrics());
                let reply = SessionMsg::EndOk { acked: session.acked, profile };
                if net::write_msg(w, &reply).is_err() {
                    return SessionEnd::Disconnected;
                }
                return SessionEnd::Completed;
            }
            MsgView::Msg(other) => {
                return SessionEnd::Killed(format!(
                    "unexpected {} frame inside a session",
                    match other {
                        SessionMsg::Hello { .. } => "HELLO",
                        SessionMsg::Shutdown => "SHUTDOWN",
                        _ => "server-to-client",
                    }
                ))
            }
        }
    }
}

/// Handles one connection end to end: magic, `HELLO` (or `SHUTDOWN`),
/// admission, the session loop under panic containment and the optional
/// deadline, and the closing bookkeeping. Generic over the transport so
/// unit tests can run it on in-memory pipes.
fn serve_conn_on<R: Read, W: Write>(
    daemon: &Daemon,
    r: R,
    mut w: W,
    wait: &mut dyn FnMut() -> Wait,
) {
    let mut reader = FrameReader::new(r);
    // The greeting is read only once its bytes (or EOF) arrive, so a peer
    // that connects and stays silent cannot hold the daemon past a drain
    // or the idle budget: either ends the connection without a word.
    if wait() != Wait::Ready || reader.expect_magic().is_err() || wait() != Wait::Ready {
        return;
    }
    let first = net::read_msg(&mut reader);
    if matches!(first, Ok(SessionMsg::Shutdown)) {
        // A SHUTDOWN peer is fire-and-forget and may already be gone;
        // setting the drain flag must not depend on writing anything
        // back, so the greeting below is skipped entirely.
        daemon.drain.store(true, Ordering::SeqCst);
        return;
    }
    if frame::write_magic(&mut w).is_err() {
        return;
    }
    let (tenant, workload) = match first {
        Ok(SessionMsg::Hello { tenant, workload }) => (tenant, workload),
        Ok(_) => {
            daemon.count(CounterId::SessionKilled, 1);
            let _ =
                net::write_msg(&mut w, &SessionMsg::Err { reason: "expected HELLO".to_string() });
            return;
        }
        Err(MsgError::Malformed(m)) => {
            daemon.count(CounterId::SessionKilled, 1);
            let _ = net::write_msg(&mut w, &SessionMsg::Err { reason: m });
            return;
        }
        Err(MsgError::Frame(_)) => return,
    };
    if !valid_name(&tenant) || !valid_name(&workload) {
        daemon.count(CounterId::SessionKilled, 1);
        let _ = net::write_msg(
            &mut w,
            &SessionMsg::Err {
                reason: "tenant and workload names must be [A-Za-z0-9_.-]{1,64}".to_string(),
            },
        );
        return;
    }
    match daemon.admit(&tenant, &workload) {
        Admit::Busy(reason) => {
            daemon.count(CounterId::SessionRejected, 1);
            let _ = net::write_msg(&mut w, &SessionMsg::Busy { reason });
            return;
        }
        Admit::Ok => {}
    }
    let mut session = match Session::open(&daemon.cfg, &tenant, &workload) {
        Ok(s) => s,
        Err(e) => {
            daemon.release(&tenant, &workload);
            daemon.count(CounterId::SessionKilled, 1);
            daemon.record(SessionSummary {
                tenant: tenant.clone(),
                workload: workload.clone(),
                outcome: "killed".to_string(),
                chunks: 0,
                trace_events: 0,
                error: Some(e.to_string()),
            });
            let _ = net::write_msg(
                &mut w,
                &SessionMsg::Err { reason: format!("cannot open session state: {e}") },
            );
            return;
        }
    };
    if net::write_msg(&mut w, &SessionMsg::HelloOk { acked: session.acked }).is_err() {
        daemon.release(&tenant, &workload);
        return;
    }
    // The session body is one fault domain: a panic (injected or
    // genuine) unwinds to here and kills only this session; the
    // deadline watchdog cancels it the same way.
    let body = || match daemon.cfg.deadline {
        Some(d) => match cancel::run_with_deadline(d, || {
            session_loop(daemon, &mut session, &mut reader, &mut w, wait)
        }) {
            Ok(end) => end,
            Err(_) => SessionEnd::Killed("session deadline exceeded".to_string()),
        },
        None => session_loop(daemon, &mut session, &mut reader, &mut w, wait),
    };
    let end = match std::panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(end) => end,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic".to_string()
            };
            SessionEnd::Killed(format!("session panicked: {msg}"))
        }
    };
    daemon.release(&tenant, &workload);
    match end {
        SessionEnd::Completed => {
            daemon.count(CounterId::SessionCompleted, 1);
            daemon.count(CounterId::ChunksAcked, session.acked);
            daemon.record(SessionSummary {
                tenant,
                workload,
                outcome: "completed".to_string(),
                chunks: session.acked,
                trace_events: session.events,
                error: None,
            });
        }
        SessionEnd::Killed(reason) => {
            daemon.count(CounterId::SessionKilled, 1);
            daemon.count(CounterId::ChunksAcked, session.acked);
            let _ = net::write_msg(&mut w, &SessionMsg::Err { reason: reason.clone() });
            daemon.record(SessionSummary {
                tenant,
                workload,
                outcome: "killed".to_string(),
                chunks: session.acked,
                trace_events: session.events,
                error: Some(reason),
            });
        }
        SessionEnd::Drained => {
            // Keep the tail durable so the client can resume after the
            // daemon restarts; best effort, the daemon is going away.
            let reason = match session.checkpoint(&daemon.plan) {
                Ok(()) => "server draining".to_string(),
                Err(e) => format!("server draining (checkpoint failed: {e})"),
            };
            daemon.count(CounterId::ChunksAcked, session.acked);
            let _ = net::write_msg(&mut w, &SessionMsg::Err { reason });
            daemon.record(SessionSummary {
                tenant,
                workload,
                outcome: "drained".to_string(),
                chunks: session.acked,
                trace_events: session.events,
                error: None,
            });
        }
        SessionEnd::Disconnected => {
            // The peer may reconnect and resume; checkpoint what we
            // have and file no record — the completed record, when it
            // comes, covers the whole session.
            let _ = session.checkpoint(&daemon.plan);
            daemon.count(CounterId::ChunksAcked, session.acked);
        }
    }
}

/// Runs the daemon until it drains (SIGTERM or a `SHUTDOWN` frame),
/// then reports everything it did. Blocking; `vprof serve` calls this.
pub fn serve(cfg: ServeConfig) -> Result<ServeReport, String> {
    serve_with(cfg, Arc::new(FaultPlan::from_env()?))
}

/// [`serve`] under an explicit fault plan.
fn serve_with(cfg: ServeConfig, plan: Arc<FaultPlan>) -> Result<ServeReport, String> {
    // A zero budget would cut every session loose at once (and a zero
    // read timeout is an error on a socket): refuse it before binding.
    for (name, budget) in [("idle", cfg.idle), ("deadline", cfg.deadline)] {
        if budget == Some(Duration::ZERO) {
            return Err(format!("the {name} budget must be above zero"));
        }
    }
    let listener = NetListener::bind(&cfg.socket)
        .map_err(|e| format!("cannot bind `{}`: {e}", cfg.socket.display()))?;
    let sigterm = net::watch_sigterm();
    let daemon = Arc::new(Daemon::new(cfg, plan));
    let pool = Arc::new(Pool::default());
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut failure = None;
    while !daemon.drain.load(Ordering::SeqCst) && !sigterm.load(Ordering::SeqCst) {
        let stream = match listener.accept_timeout(Duration::from_millis(50)) {
            Ok(None) => {
                handles.retain(|h| !h.is_finished());
                continue;
            }
            Ok(Some(stream)) => stream,
            Err(e) => {
                failure = Some(format!("accept failed: {e}"));
                break;
            }
        };
        if daemon.plan.fire(SERVE_ACCEPT_POINT).is_err() {
            // An injected accept failure refuses this connection; the
            // daemon itself stays up.
            continue;
        }
        // A parked thread takes the connection; only when none is parked
        // does a new one start, so every connection is served at once.
        let stream = match pool.parked.lock().expect(POOL_LOCK).pop() {
            Some(thread) => match thread.send(stream) {
                Ok(()) => continue,
                Err(mpsc::SendError(stream)) => stream,
            },
            None => stream,
        };
        let (daemon, pool) = (Arc::clone(&daemon), Arc::clone(&pool));
        match std::thread::Builder::new()
            .name("vp-session".to_string())
            .spawn(move || session_thread(&daemon, &pool, stream))
        {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                failure = Some(format!("cannot spawn session thread: {e}"));
                break;
            }
        }
    }
    daemon.drain.store(true, Ordering::SeqCst);
    // Dropping the parked threads' senders ends their wait; the drain
    // flag, set first, stops any thread from parking again.
    pool.parked.lock().expect(POOL_LOCK).clear();
    for h in handles {
        let _ = h.join();
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    let mut st = daemon.state.lock().unwrap();
    let report = ServeReport {
        counts: std::mem::take(&mut st.counts),
        sessions: std::mem::take(&mut st.sessions),
    };
    drop(st);
    if let Some(path) = &daemon.cfg.telemetry {
        crate::telemetry::write_jsonl(path, &report.records())
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    Ok(report)
}

/// Session threads parked between connections, each waiting on its own
/// channel for the next one. Reusing them keeps the daemon's thread
/// count, and the allocator arenas each thread holds, at its peak
/// concurrency instead of growing with the number of connections.
#[derive(Default)]
struct Pool {
    parked: Mutex<Vec<mpsc::Sender<UnixStream>>>,
}

/// Only `Vec` push, pop and clear run under the pool lock, and none of
/// them panics, so the lock is never poisoned.
const POOL_LOCK: &str = "session pool lock poisoned";

/// A session thread: serves `stream`, then parks for the next
/// connection. It exits when the daemon drains, or when `max_sessions`
/// threads are already parked.
fn session_thread(daemon: &Daemon, pool: &Pool, mut stream: UnixStream) {
    loop {
        handle_stream(daemon, &stream);
        let (tx, rx) = mpsc::channel();
        {
            let mut parked = pool.parked.lock().expect(POOL_LOCK);
            if daemon.drain.load(Ordering::SeqCst) || parked.len() >= daemon.cfg.max_sessions {
                return;
            }
            parked.push(tx);
        }
        // The connection closes only once this thread is parked, so a
        // client that waits for EOF before reconnecting finds it there.
        drop(stream);
        match rx.recv() {
            Ok(next) => stream = next,
            Err(_) => return,
        }
    }
}

/// Longest a session blocks waiting for its next frame before it
/// re-checks the drain flag and the idle budget.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// Wires a real socket into the generic handler: the one socket reads
/// and writes, and a readiness wait returns as soon as a frame arrives
/// and re-checks the drain flag and the idle budget every
/// [`WAIT_SLICE`] between frames, without ever consuming mid-frame bytes.
fn handle_stream(daemon: &Daemon, stream: &UnixStream) {
    let idle = daemon.cfg.idle;
    // Bound any mid-frame stall by the idle budget. A connection whose
    // stall cannot be bounded ends as a killed session.
    if stream.set_read_timeout(idle).is_err() {
        daemon.count(CounterId::SessionKilled, 1);
        return;
    }
    let mut last_frame = Instant::now();
    let mut wait = move || loop {
        if daemon.drain.load(Ordering::SeqCst) {
            return Wait::Drain;
        }
        match net::wait_readable(stream, WAIT_SLICE) {
            // Bytes or EOF: either way the frame reader should run and
            // classify what it finds.
            Ok(true) => {
                last_frame = Instant::now();
                return Wait::Ready;
            }
            Ok(false) => {
                if let Some(budget) = idle {
                    if last_frame.elapsed() >= budget {
                        return Wait::Idle;
                    }
                }
                cancel::checkpoint();
            }
            Err(_) => return Wait::Ready,
        }
    };
    serve_conn_on(daemon, stream, stream, &mut wait);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use vp_core::{InstructionProfiler, TrackerConfig};
    use vp_instrument::TraceEncoder;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vp-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_daemon(dir: &Path, plan: FaultPlan) -> Daemon {
        let cfg = ServeConfig::new(dir.join("serve.sock"), dir.to_path_buf());
        Daemon::new(cfg, Arc::new(plan))
    }

    /// Encodes `events` into VPC1 chunks of `per_chunk` events.
    fn chunks_of(events: &[(u32, u64)], per_chunk: usize) -> Vec<(u32, u32, Vec<u8>)> {
        let mut enc = TraceEncoder::with_chunk_events(per_chunk);
        for &(pc, v) in events {
            enc.push(pc, v);
        }
        let bytes = enc.finish();
        trace_codec::raw_chunks(&bytes)
            .unwrap()
            .into_iter()
            .map(|c| (c.count, c.crc, c.payload.to_vec()))
            .collect()
    }

    fn sample_events(n: u64) -> Vec<(u32, u64)> {
        (0..n).map(|i| ((i % 7) as u32, i * 3 % 11)).collect()
    }

    /// Runs one full client conversation against `serve_conn_on` over
    /// in-memory pipes and returns every reply frame.
    fn converse(daemon: &Daemon, msgs: &[SessionMsg]) -> Vec<SessionMsg> {
        let mut input = Vec::new();
        frame::write_magic(&mut input).unwrap();
        for m in msgs {
            net::write_msg(&mut input, m).unwrap();
        }
        let mut output = Vec::new();
        let mut wait = || Wait::Ready;
        serve_conn_on(daemon, &input[..], &mut output, &mut wait);
        if output.is_empty() {
            // SHUTDOWN is fire-and-forget: the server replies nothing.
            return Vec::new();
        }
        let mut reader = FrameReader::new(&output[..]);
        reader.expect_magic().unwrap();
        let mut replies = Vec::new();
        while let Ok(msg) = net::read_msg(&mut reader) {
            replies.push(msg);
        }
        replies
    }

    fn hello(tenant: &str, workload: &str) -> SessionMsg {
        SessionMsg::Hello { tenant: tenant.to_string(), workload: workload.to_string() }
    }

    fn chunk_msgs(events: &[(u32, u64)], per_chunk: usize) -> Vec<SessionMsg> {
        chunks_of(events, per_chunk)
            .into_iter()
            .enumerate()
            .map(|(seq, (count, crc, payload))| SessionMsg::Chunk {
                seq: seq as u64,
                count,
                crc,
                payload,
            })
            .collect()
    }

    #[test]
    fn full_session_matches_a_direct_replay() {
        let dir = tmp_dir("roundtrip");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let events = sample_events(1000);
        let mut msgs = vec![hello("acme", "li")];
        msgs.extend(chunk_msgs(&events, 64));
        msgs.push(SessionMsg::End);
        let replies = converse(&daemon, &msgs);
        assert!(matches!(replies[0], SessionMsg::HelloOk { acked: 0 }));
        let Some(SessionMsg::EndOk { acked, profile }) = replies.last() else {
            panic!("expected END_OK, got {replies:?}");
        };
        assert_eq!(*acked, 16, "1000 events in 64-event chunks");
        let mut reference = InstructionProfiler::new(TrackerConfig::with_full());
        reference.observe_batch(&events);
        assert_eq!(profile, &durable::render_profile_durable(&reference.metrics()));
        let st = daemon.state.lock().unwrap();
        assert_eq!(st.counts.get(CounterId::SessionCompleted), 1);
        assert_eq!(st.counts.get(CounterId::ChunksAcked), 16);
        assert_eq!(st.sessions.len(), 1);
        assert_eq!(st.sessions[0].outcome, "completed");
        assert_eq!(st.sessions[0].trace_events, 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_log_holds_the_client_chunk_frames_verbatim_and_no_meta_file() {
        let dir = tmp_dir("verbatim");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let sessions = dir.join("sessions");
        // A stale meta log from an older build is removed by a fresh open.
        std::fs::create_dir_all(&sessions).unwrap();
        std::fs::write(sessions.join("acme__li.ckpt"), "{}\n").unwrap();
        let chunks = chunk_msgs(&sample_events(300), 32); // 10 chunks
        let mut msgs = vec![hello("acme", "li")];
        msgs.extend(chunks.clone());
        msgs.push(SessionMsg::End);
        let replies = converse(&daemon, &msgs);
        assert!(matches!(replies.last(), Some(SessionMsg::EndOk { acked: 10, .. })), "{replies:?}");
        let mut expect = frame::FRAME_MAGIC.to_vec();
        for m in &chunks {
            net::write_msg(&mut expect, m).unwrap();
        }
        let log = std::fs::read(log_path(&daemon.cfg, "acme", "li")).unwrap();
        assert!(log == expect, "the log is not magic ‖ the client's CHUNK frames");
        let mut files: Vec<_> = std::fs::read_dir(&sessions)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["acme__li.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acks_are_cumulative_and_checkpoint_gated() {
        let dir = tmp_dir("acks");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let events = sample_events(100);
        let mut msgs = vec![hello("acme", "li")];
        let chunk_frames = chunk_msgs(&events, 4); // 25 chunks
        msgs.extend(chunk_frames.clone());
        msgs.push(SessionMsg::End);
        let replies = converse(&daemon, &msgs);
        // CHECKPOINT_EVERY = 8: ACK{8}, ACK{16}, ACK{24}, then END_OK{25}.
        let acks: Vec<u64> = replies
            .iter()
            .filter_map(|m| match m {
                SessionMsg::Ack { acked } => Some(*acked),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![8, 16, 24]);
        assert!(matches!(replies.last(), Some(SessionMsg::EndOk { acked: 25, .. })));
        // The burst ignored any window, and still no reply throttles it.
        assert!(!replies.iter().any(|m| matches!(m, SessionMsg::Throttle { .. })), "{replies:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_retransmits_are_dropped_not_reobserved() {
        let dir = tmp_dir("dup");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let events = sample_events(200);
        let chunk_frames = chunk_msgs(&events, 16);
        let mut msgs = vec![hello("acme", "li")];
        // Send everything, then re-send the first three chunks (a
        // retransmit after a lost ACK), then END.
        msgs.extend(chunk_frames.clone());
        msgs.extend(chunk_frames[..3].to_vec());
        msgs.push(SessionMsg::End);
        let replies = converse(&daemon, &msgs);
        let Some(SessionMsg::EndOk { profile, .. }) = replies.last() else {
            panic!("expected END_OK, got {replies:?}");
        };
        let mut reference = InstructionProfiler::new(TrackerConfig::with_full());
        reference.observe_batch(&events);
        assert_eq!(profile, &durable::render_profile_durable(&reference.metrics()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_corrupt_chunk_and_bad_first_frame_are_typed_kills() {
        let dir = tmp_dir("kills");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let events = sample_events(50);
        let frames = chunk_msgs(&events, 10);
        // Gap: first chunk claims seq 3.
        let replies = converse(&daemon, &[hello("a", "gap"), frames[3].clone()]);
        assert!(
            matches!(&replies[1], SessionMsg::Err { reason } if reason.contains("skips ahead")),
            "{replies:?}"
        );
        // Corrupt: valid framing, wrong chunk CRC.
        let SessionMsg::Chunk { seq, count, crc, payload } = frames[0].clone() else {
            unreachable!()
        };
        let bad = SessionMsg::Chunk { seq, count, crc: crc ^ 1, payload };
        let replies = converse(&daemon, &[hello("a", "crc"), bad]);
        assert!(
            matches!(&replies[1], SessionMsg::Err { reason } if reason.contains("chunk 0")),
            "{replies:?}"
        );
        // Protocol violation: a session frame before HELLO.
        let replies = converse(&daemon, &[SessionMsg::Query]);
        assert!(
            matches!(&replies[0], SessionMsg::Err { reason } if reason.contains("expected HELLO")),
            "{replies:?}"
        );
        // Bad tenant name.
        let replies = converse(&daemon, &[hello("a/../b", "x")]);
        assert!(
            matches!(&replies[0], SessionMsg::Err { reason } if reason.contains("names")),
            "{replies:?}"
        );
        let st = daemon.state.lock().unwrap();
        assert_eq!(st.counts.get(CounterId::SessionKilled), 4);
        assert_eq!(st.counts.get(CounterId::SessionCompleted), 0);
        // The two admitted-then-killed sessions leave typed records.
        assert!(st.sessions.iter().all(|s| s.outcome == "killed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_answers_typed_busy() {
        let dir = tmp_dir("admission");
        let mut daemon = test_daemon(&dir, FaultPlan::empty());
        daemon.cfg.max_sessions = 2;
        daemon.cfg.max_tenants = 2;
        daemon.cfg.tenant_sessions = 1;
        // Occupy both slots.
        assert!(matches!(daemon.admit("t1", "w1"), Admit::Ok));
        assert!(matches!(daemon.admit("t2", "w1"), Admit::Ok));
        let replies = converse(&daemon, &[hello("t3", "w1")]);
        assert!(
            matches!(&replies[0], SessionMsg::Busy { reason } if reason.contains("max sessions (2)")),
            "{replies:?}"
        );
        daemon.release("t2", "w1");
        // Same tenant again: per-tenant cap.
        let replies = converse(&daemon, &[hello("t1", "w2")]);
        assert!(
            matches!(&replies[0], SessionMsg::Busy { reason } if reason.contains("session cap (1)")),
            "{replies:?}"
        );
        // Duplicate session key.
        let replies = converse(&daemon, &[hello("t1", "w1")]);
        assert!(
            matches!(&replies[0], SessionMsg::Busy { reason } if reason.contains("already active")),
            "{replies:?}"
        );
        daemon.cfg.max_sessions = 8;
        daemon.cfg.max_tenants = 1;
        let replies = converse(&daemon, &[hello("t9", "w1")]);
        assert!(
            matches!(&replies[0], SessionMsg::Busy { reason } if reason.contains("max tenants (1)")),
            "{replies:?}"
        );
        assert_eq!(daemon.state.lock().unwrap().counts.get(CounterId::SessionRejected), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_the_log_drops_torn_tail_and_dedups_retransmits() {
        let dir = tmp_dir("resume");
        let events = sample_events(400);
        let frames = chunk_msgs(&events, 16); // 25 chunks
        let (first, rest) = frames.split_at(10);
        // Life 1: stream 10 chunks, checkpoint at 8, then vanish
        // (disconnect checkpoints the tail at 10).
        {
            let daemon = test_daemon(&dir, FaultPlan::empty());
            let mut msgs = vec![hello("acme", "li")];
            msgs.extend(first.to_vec());
            let replies = converse(&daemon, &msgs);
            assert!(replies.iter().any(|m| matches!(m, SessionMsg::Ack { acked: 8 })));
        }
        // Simulate a torn append from a crash mid-chunk: garbage tail.
        let log_path = log_path(&test_daemon(&dir, FaultPlan::empty()).cfg, "acme", "li");
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&log_path).unwrap();
            f.write_all(&[0x55, 0x00, 0x00, 0x00, 0x15]).unwrap();
        }
        // Life 2: resume; HELLO_OK carries the durable cursor, the
        // client re-sends from there (plus a duplicate), session ends.
        {
            let mut daemon = test_daemon(&dir, FaultPlan::empty());
            daemon.cfg.resume = true;
            let mut msgs = vec![hello("acme", "li")];
            msgs.push(first[9].clone()); // duplicate retransmit
            msgs.extend(rest.to_vec());
            msgs.push(SessionMsg::End);
            let replies = converse(&daemon, &msgs);
            assert!(matches!(replies[0], SessionMsg::HelloOk { acked: 10 }), "{:?}", replies[0]);
            let Some(SessionMsg::EndOk { acked, profile }) = replies.last() else {
                panic!("expected END_OK, got {replies:?}");
            };
            assert_eq!(*acked, 25);
            let mut reference = InstructionProfiler::new(TrackerConfig::with_full());
            reference.observe_batch(&events);
            assert_eq!(profile, &durable::render_profile_durable(&reference.metrics()));
            let st = daemon.state.lock().unwrap();
            assert_eq!(st.sessions[0].trace_events, 400);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_a_fresh_session_truncates_old_state() {
        let dir = tmp_dir("fresh");
        let events = sample_events(64);
        let frames = chunk_msgs(&events, 16);
        for _ in 0..2 {
            let daemon = test_daemon(&dir, FaultPlan::empty());
            let mut msgs = vec![hello("acme", "li")];
            msgs.extend(frames.clone());
            msgs.push(SessionMsg::End);
            let replies = converse(&daemon, &msgs);
            // Same cursor both times: the second run started fresh.
            assert!(matches!(replies[0], SessionMsg::HelloOk { acked: 0 }));
            assert!(matches!(replies.last(), Some(SessionMsg::EndOk { acked: 4, .. })));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_kill_only_the_targeted_tenant() {
        let dir = tmp_dir("fault-domain");
        let events = sample_events(160);
        let frames = chunk_msgs(&events, 16);
        let mut healthy_solo = None;
        // Run the healthy tenant alone, then next to a panicking and a
        // disconnected tenant; its replies must not change at all.
        for plan_spec in
            [None, Some("panic:session/evil/frame@3"), Some("disconnect:session/odd/frame@2")]
        {
            let plan = plan_spec.map_or_else(FaultPlan::empty, |s| FaultPlan::parse(s).unwrap());
            let daemon = test_daemon(&dir, plan);
            if let Some(spec) = plan_spec {
                let tenant = if spec.contains("evil") { "evil" } else { "odd" };
                let mut msgs = vec![hello(tenant, "w")];
                msgs.extend(frames.clone());
                msgs.push(SessionMsg::End);
                let replies = converse(&daemon, &msgs);
                if tenant == "evil" {
                    assert!(
                        matches!(replies.last(), Some(SessionMsg::Err { reason })
                            if reason.contains("session panicked")),
                        "{replies:?}"
                    );
                } else {
                    // Disconnect drops the conversation silently.
                    assert!(
                        !replies.iter().any(|m| matches!(m, SessionMsg::EndOk { .. })),
                        "{replies:?}"
                    );
                }
            }
            let mut msgs = vec![hello("healthy", "w")];
            msgs.extend(frames.clone());
            msgs.push(SessionMsg::End);
            let replies = converse(&daemon, &msgs);
            let st = daemon.state.lock().unwrap();
            assert_eq!(st.counts.get(CounterId::SessionCompleted), 1, "{plan_spec:?}");
            drop(st);
            match &healthy_solo {
                None => healthy_solo = Some(replies),
                Some(solo) => assert_eq!(solo, &replies, "fault leaked across sessions"),
            }
            // Fresh state dir per iteration: healthy tenant state must
            // not carry over.
            let _ = std::fs::remove_dir_all(dir.join("sessions"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn err_fault_on_checkpoint_is_a_typed_session_kill() {
        let dir = tmp_dir("ckpt-err");
        let daemon = test_daemon(&dir, FaultPlan::parse("err:session/checkpoint").unwrap());
        let events = sample_events(160);
        let mut msgs = vec![hello("acme", "li")];
        msgs.extend(chunk_msgs(&events, 16));
        msgs.push(SessionMsg::End);
        let replies = converse(&daemon, &msgs);
        assert!(
            matches!(replies.last(), Some(SessionMsg::Err { reason })
                if reason.contains("checkpoint failed")),
            "{replies:?}"
        );
        let st = daemon.state.lock().unwrap();
        assert_eq!(st.counts.get(CounterId::SessionKilled), 1);
        assert_eq!(st.sessions[0].outcome, "killed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_checkpoints_and_reports_the_session() {
        let dir = tmp_dir("drain");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let events = sample_events(64);
        let mut msgs = vec![hello("acme", "li")];
        msgs.extend(chunk_msgs(&events, 16));
        let mut input = Vec::new();
        frame::write_magic(&mut input).unwrap();
        for m in &msgs {
            net::write_msg(&mut input, m).unwrap();
        }
        let mut output = Vec::new();
        // The magic and HELLO each wait once before the session loop
        // starts, and the loop waits once per frame, so the seventh wait
        // lands after the four chunks.
        let mut seen = 0;
        let mut wait = || {
            seen += 1;
            if seen > 6 {
                Wait::Drain
            } else {
                Wait::Ready
            }
        };
        serve_conn_on(&daemon, &input[..], &mut output, &mut wait);
        let mut reader = FrameReader::new(&output[..]);
        reader.expect_magic().unwrap();
        let mut replies = Vec::new();
        while let Ok(msg) = net::read_msg(&mut reader) {
            replies.push(msg);
        }
        assert!(
            matches!(replies.last(), Some(SessionMsg::Err { reason }) if reason.contains("draining")),
            "{replies:?}"
        );
        let st = daemon.state.lock().unwrap();
        assert_eq!(st.sessions[0].outcome, "drained");
        assert_eq!(st.sessions[0].chunks, 4, "drain checkpointed the tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_frame_sets_the_drain_flag() {
        let dir = tmp_dir("shutdown");
        let daemon = test_daemon(&dir, FaultPlan::empty());
        let replies = converse(&daemon, &[SessionMsg::Shutdown]);
        assert!(replies.is_empty());
        assert!(daemon.drain.load(Ordering::SeqCst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_records_are_sorted_and_schema_tagged() {
        let report = ServeReport {
            counts: {
                let mut c = Counts::new();
                c.add(CounterId::SessionCompleted, 2);
                c
            },
            sessions: vec![
                SessionSummary {
                    tenant: "zeta".into(),
                    workload: "w".into(),
                    outcome: "completed".into(),
                    chunks: 5,
                    trace_events: 80,
                    error: None,
                },
                SessionSummary {
                    tenant: "acme".into(),
                    workload: "w".into(),
                    outcome: "killed".into(),
                    chunks: 1,
                    trace_events: 16,
                    error: Some("boom".into()),
                },
            ],
        };
        let records = report.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].get("kind").unwrap().as_str(), Some("serve"));
        assert_eq!(records[1].get("name").unwrap().as_str(), Some("acme/w"));
        assert_eq!(records[1].get("error").unwrap().as_str(), Some("boom"));
        assert_eq!(records[2].get("name").unwrap().as_str(), Some("zeta/w"));
        assert!(records[2].get("error").is_none());
    }

    /// Tests that run a real daemon through [`serve_with`]. They hold
    /// this lock because they count the process's `vp-session` threads.
    #[cfg(target_os = "linux")]
    mod threads {
        use super::*;

        static DAEMONS: Mutex<()> = Mutex::new(());

        /// Live `vp-session` threads in this process.
        fn session_threads() -> usize {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(Result::ok)
                .filter(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|comm| comm.trim_end() == "vp-session")
                })
                .count()
        }

        /// Polls until `want` session threads are live, or 10 s pass.
        fn await_session_threads(want: usize) -> usize {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let live = session_threads();
                if live == want || Instant::now() > deadline {
                    return live;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        type Handle = std::thread::JoinHandle<Result<ServeReport, String>>;

        fn start(cfg: ServeConfig, plan: FaultPlan) -> Handle {
            let socket = cfg.socket.clone();
            let handle = std::thread::spawn(move || serve_with(cfg, Arc::new(plan)));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !socket.exists() {
                assert!(Instant::now() < deadline && !handle.is_finished(), "daemon did not start");
                std::thread::sleep(Duration::from_millis(1));
            }
            handle
        }

        /// A client connection with its greeting sent and read.
        struct Client {
            stream: UnixStream,
            reader: FrameReader<UnixStream>,
        }

        impl Client {
            /// Connects and sends the magic, then `first` if given.
            fn connect(socket: &Path, first: Option<&SessionMsg>) -> Client {
                let mut stream = UnixStream::connect(socket).unwrap();
                frame::write_magic(&mut stream).unwrap();
                if let Some(msg) = first {
                    net::write_msg(&mut stream, msg).unwrap();
                }
                let reader = FrameReader::new(stream.try_clone().unwrap());
                Client { stream, reader }
            }

            /// Opens a session and returns the daemon's first reply.
            fn hello(socket: &Path, tenant: &str) -> (Client, SessionMsg) {
                let mut client = Client::connect(socket, Some(&hello(tenant, "li")));
                client.reader.expect_magic().unwrap();
                let reply = net::read_msg(&mut client.reader).unwrap();
                (client, reply)
            }

            /// Sends `msgs`, then reads every reply until the daemon
            /// closes the connection — which it does only once the
            /// session's thread is parked again.
            fn finish(mut self, msgs: &[SessionMsg]) -> Vec<SessionMsg> {
                for m in msgs {
                    net::write_msg(&mut self.stream, m).unwrap();
                }
                let mut replies = Vec::new();
                loop {
                    match net::read_msg(&mut self.reader) {
                        Ok(msg) => replies.push(msg),
                        Err(MsgError::Frame(FrameError::PeerClosed)) => return replies,
                        Err(e) => panic!("after {replies:?}: {e}"),
                    }
                }
            }
        }

        /// Runs a whole session and returns the END_OK profile.
        fn profile_of(socket: &Path, tenant: &str, chunks: &[SessionMsg]) -> String {
            let (client, reply) = Client::hello(socket, tenant);
            assert_eq!(reply, SessionMsg::HelloOk { acked: 0 });
            let mut msgs = chunks.to_vec();
            msgs.push(SessionMsg::End);
            match client.finish(&msgs).pop() {
                Some(SessionMsg::EndOk { profile, .. }) => profile,
                other => panic!("expected END_OK, got {other:?}"),
            }
        }

        fn shutdown(socket: &Path, daemon: Handle) -> ServeReport {
            drop(Client::connect(socket, Some(&SessionMsg::Shutdown)));
            daemon.join().unwrap().unwrap()
        }

        #[test]
        fn zero_budgets_are_refused_before_binding() {
            let _serial = DAEMONS.lock().unwrap_or_else(|e| e.into_inner());
            for name in ["idle", "deadline"] {
                let dir = tmp_dir(&format!("zero-{name}"));
                let mut cfg = ServeConfig::new(dir.join("serve.sock"), dir.clone());
                match name {
                    "idle" => cfg.idle = Some(Duration::ZERO),
                    _ => cfg.deadline = Some(Duration::ZERO),
                }
                let socket = cfg.socket.clone();
                let daemon =
                    std::thread::spawn(move || serve_with(cfg, Arc::new(FaultPlan::empty())));
                let deadline = Instant::now() + Duration::from_secs(2);
                while !daemon.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // A daemon that did start serves until it drains, and a
                // zero idle budget can cut even a SHUTDOWN loose: it is
                // left running, so the failure reports instead of hanging.
                assert!(daemon.is_finished(), "a zero {name} budget was served");
                match daemon.join().unwrap() {
                    Err(e) => assert!(e.contains(name), "{name}: {e}"),
                    Ok(_) => panic!("a zero {name} budget was served"),
                }
                assert!(!socket.exists(), "{name}: the socket was bound");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }

        #[test]
        fn silent_connections_do_not_hold_the_daemon_past_a_shutdown() {
            let _serial = DAEMONS.lock().unwrap_or_else(|e| e.into_inner());
            let dir = tmp_dir("silent");
            let cfg = ServeConfig::new(dir.join("serve.sock"), dir.clone());
            let daemon = start(cfg.clone(), FaultPlan::empty());
            // One peer sends nothing at all, one only the magic; the
            // default config has no idle budget to cut either loose.
            let silent = UnixStream::connect(&cfg.socket).unwrap();
            let mut magic_only = UnixStream::connect(&cfg.socket).unwrap();
            frame::write_magic(&mut magic_only).unwrap();
            assert_eq!(await_session_threads(2), 2);
            drop(Client::connect(&cfg.socket, Some(&SessionMsg::Shutdown)));
            let deadline = Instant::now() + Duration::from_secs(1);
            while !daemon.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let stopped = daemon.is_finished();
            // Closing the peers frees a daemon that did not stop, so a
            // failure reports instead of hanging.
            drop((silent, magic_only));
            let report = daemon.join().unwrap().unwrap();
            assert!(stopped, "the daemon outlived the shutdown by over 1 s");
            assert_eq!(report.counts.get(CounterId::SessionKilled), 0);
            assert_eq!(session_threads(), 0);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_reused_thread_serves_clean_sessions_after_a_panic_and_a_deadline_kill() {
            let _serial = DAEMONS.lock().unwrap_or_else(|e| e.into_inner());
            let dir = tmp_dir("reuse-faults");
            let mut cfg = ServeConfig::new(dir.join("serve.sock"), dir.clone());
            cfg.deadline = Some(Duration::from_secs(1));
            let plan = FaultPlan::parse("panic:session/boom/frame").unwrap();
            let daemon = start(cfg.clone(), plan);
            let chunks = chunk_msgs(&sample_events(200), 16);
            let before = profile_of(&cfg.socket, "fresh", &chunks);

            // A panicking session: the injected fault fires on its first
            // CHUNK, inside the deadline's token scope.
            let (client, reply) = Client::hello(&cfg.socket, "boom");
            assert_eq!(reply, SessionMsg::HelloOk { acked: 0 });
            let replies = client.finish(&chunks[..1]);
            assert!(
                matches!(replies.last(), Some(SessionMsg::Err { reason })
                    if reason.contains("session panicked")),
                "{replies:?}"
            );
            // A session that sends nothing after HELLO until its
            // deadline cancels it.
            let (client, _) = Client::hello(&cfg.socket, "slow");
            let replies = client.finish(&[]);
            assert!(
                matches!(replies.last(), Some(SessionMsg::Err { reason })
                    if reason.contains("deadline exceeded")),
                "{replies:?}"
            );
            // Every session ran on one thread, so the clean one after
            // the kills saw the thread's cancel token restored.
            let after = profile_of(&cfg.socket, "later", &chunks);
            assert_eq!(after, before, "a reused thread changed the profile");
            assert_eq!(session_threads(), 1, "every session should reuse the first thread");
            let report = shutdown(&cfg.socket, daemon);
            assert_eq!(report.counts.get(CounterId::SessionCompleted), 2);
            assert_eq!(report.counts.get(CounterId::SessionKilled), 2);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn sequential_sessions_reuse_threads_and_drain_joins_them() {
            let _serial = DAEMONS.lock().unwrap_or_else(|e| e.into_inner());
            let dir = tmp_dir("reuse-seq");
            let cfg = ServeConfig::new(dir.join("serve.sock"), dir.clone());
            let daemon = start(cfg.clone(), FaultPlan::empty());
            let chunks = chunk_msgs(&sample_events(64), 16);
            let first = profile_of(&cfg.socket, "t0", &chunks);
            for i in 1..20 {
                assert_eq!(profile_of(&cfg.socket, &format!("t{i}"), &chunks), first);
            }
            let live = session_threads();
            assert!(live <= 2, "20 sequential sessions left {live} session threads");
            let report = shutdown(&cfg.socket, daemon);
            assert_eq!(report.counts.get(CounterId::SessionCompleted), 20);
            assert_eq!(session_threads(), 0, "drain must join the parked threads");
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn busy_cap_holds_and_at_most_max_sessions_threads_park() {
            let _serial = DAEMONS.lock().unwrap_or_else(|e| e.into_inner());
            let dir = tmp_dir("reuse-busy");
            let mut cfg = ServeConfig::new(dir.join("serve.sock"), dir.clone());
            cfg.max_sessions = 2;
            let daemon = start(cfg.clone(), FaultPlan::empty());
            let socket = cfg.socket.as_path();
            // Five threads at once: two silent connections, two live
            // sessions, and a third session the cap turns away.
            let silent: Vec<UnixStream> =
                (0..2).map(|_| UnixStream::connect(socket).unwrap()).collect();
            let (a, reply_a) = Client::hello(socket, "a");
            let (b, reply_b) = Client::hello(socket, "b");
            assert_eq!(
                (reply_a, reply_b),
                (SessionMsg::HelloOk { acked: 0 }, SessionMsg::HelloOk { acked: 0 })
            );
            let (c, reply_c) = Client::hello(socket, "c");
            assert!(matches!(reply_c, SessionMsg::Busy { .. }), "{reply_c:?}");
            assert!(c.finish(&[]).is_empty());
            assert_eq!(await_session_threads(5), 5);
            // All five finish; only `max_sessions` of them may park.
            drop(silent);
            a.finish(&[SessionMsg::End]);
            b.finish(&[SessionMsg::End]);
            assert_eq!(await_session_threads(2), 2, "extra threads must exit");
            // The parked threads take the next sessions, and the cap
            // still answers BUSY beyond them.
            let (a, reply_a) = Client::hello(socket, "a");
            let (b, reply_b) = Client::hello(socket, "b");
            assert_eq!(
                (reply_a, reply_b),
                (SessionMsg::HelloOk { acked: 0 }, SessionMsg::HelloOk { acked: 0 })
            );
            let (c, reply_c) = Client::hello(socket, "c");
            assert!(matches!(reply_c, SessionMsg::Busy { .. }), "{reply_c:?}");
            c.finish(&[]);
            a.finish(&[SessionMsg::End]);
            b.finish(&[SessionMsg::End]);
            let report = shutdown(socket, daemon);
            assert_eq!(report.counts.get(CounterId::SessionCompleted), 4);
            assert_eq!(report.counts.get(CounterId::SessionRejected), 2);
            assert_eq!(session_threads(), 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
