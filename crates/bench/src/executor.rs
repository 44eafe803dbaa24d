//! Process-level suite execution: a pool of `vprof worker` subprocesses,
//! each a crash domain of its own.
//!
//! The in-process suite runner fans workloads out across *threads*; this
//! module fans them out across *processes*, talking to each worker over a
//! length-prefixed, CRC-verified frame protocol ([`vp_instrument::frame`])
//! on its stdin/stdout:
//!
//! ```text
//! parent → worker   VPW1  run(name) …  exit
//! worker → parent   VPW1  ready  (result(record) | failure(json))* bye
//! ```
//!
//! A result frame's payload is exactly one checkpoint record (bit-exact
//! `f64::to_bits` floats — see `crate::checkpoint`), so a profile that
//! crossed a process boundary is indistinguishable from one computed in
//! process, and `--workers N` output is byte-identical to the in-process
//! path by construction.
//!
//! # Failure domains
//!
//! Anything that goes wrong with the *process* — SIGKILL, panic-abort, a
//! torn half-written frame, a CRC mismatch, a closed pipe — surfaces as
//! [`FailureKind::WorkerDeath`]: the pool reaps the corpse's exit status,
//! spawns a replacement with a fresh identity, and the failed assignment
//! flows through the ordinary retry → quarantine pipeline. A workload
//! that panics or times out *inside* a healthy worker comes back as a
//! failure frame carrying the same kind and message the in-process
//! runner would have produced, so those outcomes stay byte-identical
//! too. Worker indices are monotonic across restarts (`worker:0` dies,
//! `worker:2` replaces it), which is what lets
//! `VP_FAULTS_SCOPE=worker:0` kill one specific process exactly once.
//!
//! Hangs have two layers: a cooperative hang inside a workload is cut
//! loose by the *worker's own* deadline watchdog and reported as an
//! ordinary timeout failure frame; a worker that stops responding
//! entirely is hard-killed by the parent's reaper after a grace period
//! (`2 × deadline + 2s`, overridable via `VP_WORKER_GRACE_MS`) and
//! surfaces as a worker death.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vp_core::fault::{self, FaultAction};
use vp_core::FaultPlan;
use vp_instrument::frame::{self, FrameError, FrameReader};
use vp_instrument::{effective_jobs, FailureKind};
use vp_obs::Json;
use vp_workloads::{DataSet, Workload};

use crate::checkpoint;
use crate::suite::{SuiteRunner, WorkloadProfile};

/// Frame kinds, worker → parent.
pub const FRAME_READY: u32 = 1;
/// Result frame: payload is one checkpoint record.
pub const FRAME_RESULT: u32 = 2;
/// Failure frame: payload is `{name, failure_kind, error}`.
pub const FRAME_FAILURE: u32 = 3;
/// Orderly-shutdown acknowledgment.
pub const FRAME_BYE: u32 = 4;
/// Frame kinds, parent → worker: run one workload (payload = name).
pub const FRAME_RUN: u32 = 10;
/// Orderly shutdown request.
pub const FRAME_EXIT: u32 = 11;

/// Environment variable overriding the parent's hard-kill grace period
/// for unresponsive workers, in milliseconds.
pub const GRACE_ENV: &str = "VP_WORKER_GRACE_MS";

/// How a dead worker process ended, as reaped by the parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerExit {
    /// The worker's pool index (monotonic across restarts).
    pub worker: u64,
    /// Rendered wait status: `signal 9`, `signal 6`, `exit 1`, or
    /// `spawn failed` when the process never started.
    pub status: String,
}

/// Why one assignment handed to an executor failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Panic / timeout relayed from a healthy worker, or the death of
    /// the worker process itself.
    pub kind: FailureKind,
    /// Deterministic description (for relayed failures, byte-identical
    /// to the in-process runner's message).
    pub message: String,
    /// Exit details, present exactly when `kind` is
    /// [`FailureKind::WorkerDeath`].
    pub exit: Option<WorkerExit>,
}

/// Lifecycle counters of an executor, merged into suite fault counters
/// (and thence telemetry) when any worker died.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Worker processes successfully spawned.
    pub spawns: u64,
    /// Worker processes that died mid-assignment, plus spawn attempts
    /// that never produced a process.
    pub deaths: u64,
    /// Spawns that replaced a death.
    pub restarts: u64,
}

/// Something that can execute one workload per call on behalf of the
/// suite runner — the seam between the retry/quarantine loop and the
/// process pool (tests substitute an in-memory fake).
pub trait WorkerExecutor: Sync {
    /// Maximum concurrent assignments the executor can hold.
    fn slots(&self) -> usize;

    /// Tops capacity up for a round of `items` assignments. Called once
    /// per retry round, before any [`run`](WorkerExecutor::run).
    fn prepare(&self, items: usize);

    /// Runs one workload to completion somewhere, returning its full
    /// profile or the failure that stopped it.
    fn run(&self, workload: &str) -> Result<WorkloadProfile, WorkerFailure>;

    /// Lifecycle counters so far.
    fn counters(&self) -> WorkerCounters;

    /// Releases every held resource (kills what will not exit).
    fn shutdown(&self);
}

/// How to launch worker processes.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The `vprof` binary.
    pub bin: PathBuf,
    /// Arguments selecting the hidden `worker` subcommand plus every
    /// profiling flag the run needs (data set, mode, shards, deadline…).
    pub args: Vec<String>,
    /// Pool size — the process-level analogue of `--jobs`.
    pub workers: usize,
}

struct PoolWorker {
    index: u64,
    child: Child,
    stdin: ChildStdin,
    reader: FrameReader<ChildStdout>,
    greeted: bool,
}

#[derive(Default)]
struct PoolState {
    idle: Vec<PoolWorker>,
    live: usize,
    next_index: u64,
    spawns: u64,
    deaths: u64,
    restarts: u64,
    closed: bool,
}

fn status_str(status: &ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            return format!("signal {sig}");
        }
    }
    match status.code() {
        Some(code) => format!("exit {code}"),
        None => "unknown status".to_string(),
    }
}

/// The local-process [`WorkerExecutor`]: spawns `vprof worker` children,
/// assigns workloads over pipes, replaces the dead.
pub struct ProcessPool {
    spec: WorkerSpec,
    faults: Arc<FaultPlan>,
    state: Mutex<PoolState>,
    idle_cv: Condvar,
    inflight: Arc<Mutex<HashMap<u64, (Instant, u32)>>>,
    reaper_stop: Arc<AtomicBool>,
    reaper: Mutex<Option<std::thread::JoinHandle<()>>>,
    grace: Option<Duration>,
}

impl ProcessPool {
    /// A pool of up to `spec.workers` processes. `deadline` is the
    /// per-workload deadline the workers enforce themselves; it sizes
    /// the parent's hard-kill grace period for workers that stop
    /// responding entirely. The plan fires
    /// [`worker/spawn`](fault::WORKER_SPAWN_POINT) before every spawn.
    pub fn new(
        spec: WorkerSpec,
        faults: Arc<FaultPlan>,
        deadline: Option<Duration>,
    ) -> ProcessPool {
        let grace = match std::env::var(GRACE_ENV).ok().and_then(|v| v.parse::<u64>().ok()) {
            Some(ms) => Some(Duration::from_millis(ms)),
            None => deadline.map(|d| d * 2 + Duration::from_secs(2)),
        };
        let pool = ProcessPool {
            spec,
            faults,
            state: Mutex::new(PoolState::default()),
            idle_cv: Condvar::new(),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            reaper_stop: Arc::new(AtomicBool::new(false)),
            reaper: Mutex::new(None),
            grace,
        };
        if let Some(grace) = pool.grace {
            let inflight = Arc::clone(&pool.inflight);
            let stop = Arc::clone(&pool.reaper_stop);
            *pool.reaper.lock().unwrap() = Some(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    let overdue: Vec<u32> = inflight
                        .lock()
                        .unwrap()
                        .values()
                        .filter(|(since, _)| since.elapsed() > grace)
                        .map(|&(_, pid)| pid)
                        .collect();
                    for pid in overdue {
                        // std cannot signal an arbitrary pid; the child
                        // handle is owned by the assignment thread that
                        // is blocked reading from it. /bin/kill is
                        // universally present where this runs.
                        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                    }
                }
            }));
        }
        pool
    }

    fn spawn_locked(&self, state: &mut PoolState) -> Result<(), WorkerFailure> {
        let index = state.next_index;
        state.next_index += 1;
        let dead = |message: String| WorkerFailure {
            kind: FailureKind::WorkerDeath,
            message,
            exit: Some(WorkerExit { worker: index, status: "spawn failed".to_string() }),
        };
        if let Err(e) = self.faults.fire(fault::WORKER_SPAWN_POINT) {
            state.deaths += 1;
            return Err(dead(format!("worker {index} spawn: {e}")));
        }
        let mut child = match Command::new(&self.spec.bin)
            .args(&self.spec.args)
            .env(fault::SELF_ENV, format!("worker:{index}"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                state.deaths += 1;
                return Err(dead(format!("worker {index} spawn: {e}")));
            }
        };
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        state.spawns += 1;
        if state.deaths > state.restarts {
            state.restarts += 1;
        }
        state.live += 1;
        state.idle.push(PoolWorker {
            index,
            child,
            stdin,
            reader: FrameReader::new(stdout),
            greeted: false,
        });
        self.idle_cv.notify_one();
        Ok(())
    }

    // Takes an idle worker, waiting while every live worker is busy.
    // With the pool empty (every worker dead and its replacement spawn
    // failed), attempts one emergency spawn so waiters fail loudly
    // instead of blocking forever.
    fn acquire(&self) -> Result<PoolWorker, WorkerFailure> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(w) = state.idle.pop() {
                return Ok(w);
            }
            if state.live == 0 {
                self.spawn_locked(&mut state)?;
                continue;
            }
            state = self.idle_cv.wait(state).unwrap();
        }
    }

    fn release(&self, worker: PoolWorker) {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            let mut worker = worker;
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            state.live -= 1;
            return;
        }
        state.idle.push(worker);
        drop(state);
        self.idle_cv.notify_one();
    }

    // Reaps a dead (or insane) worker: kill, collect the wait status,
    // count the death, and spawn a replacement so the pool never shrinks
    // below demand. Returns the failure for the assignment in flight.
    fn bury(&self, mut worker: PoolWorker, detail: &str) -> WorkerFailure {
        let _ = worker.child.kill();
        let status = worker
            .child
            .wait()
            .map(|s| status_str(&s))
            .unwrap_or_else(|e| format!("wait failed: {e}"));
        let failure = WorkerFailure {
            kind: FailureKind::WorkerDeath,
            message: format!("worker {} died ({status}): {detail}", worker.index),
            exit: Some(WorkerExit { worker: worker.index, status }),
        };
        let mut state = self.state.lock().unwrap();
        state.live -= 1;
        state.deaths += 1;
        if !state.closed {
            // Replace the capacity immediately (and deterministically:
            // one death, one restart). A failed replacement spawn was
            // already counted by spawn_locked; waiters will retry.
            let _ = self.spawn_locked(&mut state);
        }
        drop(state);
        self.idle_cv.notify_all();
        failure
    }

    fn run_on(&self, worker: &mut PoolWorker, workload: &str) -> Result<RunReply, FrameError> {
        if !worker.greeted {
            worker.reader.expect_magic()?;
            let ready = worker.reader.read_frame()?;
            if ready.kind != FRAME_READY {
                return Err(FrameError::Corrupt(format!(
                    "expected ready frame, got kind {}",
                    ready.kind
                )));
            }
            frame::write_magic(&mut worker.stdin).map_err(FrameError::Io)?;
            worker.greeted = true;
        }
        frame::write_frame(&mut worker.stdin, FRAME_RUN, workload.as_bytes())
            .map_err(FrameError::Io)?;
        let reply = {
            let pid = worker.child.id();
            let _guard = InflightGuard::enter(&self.inflight, worker.index, pid);
            worker.reader.read_frame()?
        };
        match reply.kind {
            FRAME_RESULT => {
                let text = String::from_utf8_lossy(&reply.payload);
                let rec = Json::parse(&text)
                    .map_err(|e| FrameError::Corrupt(format!("result payload: {e}")))?;
                let profile = checkpoint::profile_from_record(&rec)
                    .map_err(|e| FrameError::Corrupt(format!("result payload: {e}")))?;
                if profile.name != workload {
                    return Err(FrameError::Corrupt(format!(
                        "result for `{}`, expected `{workload}`",
                        profile.name
                    )));
                }
                Ok(RunReply::Profile(Box::new(profile)))
            }
            FRAME_FAILURE => {
                let text = String::from_utf8_lossy(&reply.payload);
                let rec = Json::parse(&text)
                    .map_err(|e| FrameError::Corrupt(format!("failure payload: {e}")))?;
                let kind = match rec.get("failure_kind").and_then(Json::as_str) {
                    Some("timeout") => FailureKind::Timeout,
                    Some("panic") => FailureKind::Panic,
                    other => {
                        return Err(FrameError::Corrupt(format!("failure payload kind {other:?}")))
                    }
                };
                let message = rec
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown failure")
                    .to_string();
                Ok(RunReply::Relayed(kind, message))
            }
            other => Err(FrameError::Corrupt(format!("unexpected frame kind {other}"))),
        }
    }
}

// What a healthy worker said back to a run request.
enum RunReply {
    Profile(Box<WorkloadProfile>),
    // A workload panic/timeout inside the worker, with the worker's own
    // message — byte-identical to the in-process failure.
    Relayed(FailureKind, String),
}

// RAII registration of an in-flight assignment for the reaper.
struct InflightGuard<'a> {
    inflight: &'a Mutex<HashMap<u64, (Instant, u32)>>,
    index: u64,
}

impl<'a> InflightGuard<'a> {
    fn enter(
        inflight: &'a Mutex<HashMap<u64, (Instant, u32)>>,
        index: u64,
        pid: u32,
    ) -> InflightGuard<'a> {
        inflight.lock().unwrap().insert(index, (Instant::now(), pid));
        InflightGuard { inflight, index }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.lock().unwrap().remove(&self.index);
    }
}

impl WorkerExecutor for ProcessPool {
    fn slots(&self) -> usize {
        self.spec.workers
    }

    fn prepare(&self, items: usize) {
        let want = effective_jobs(self.spec.workers).min(items);
        let mut state = self.state.lock().unwrap();
        while state.live < want {
            if self.spawn_locked(&mut state).is_err() {
                // Degraded capacity; the round still runs on whatever
                // spawned. A totally empty pool fails assignments in
                // acquire, loudly.
                break;
            }
        }
    }

    fn run(&self, workload: &str) -> Result<WorkloadProfile, WorkerFailure> {
        let mut worker = self.acquire()?;
        match self.run_on(&mut worker, workload) {
            Ok(RunReply::Profile(profile)) => {
                self.release(worker);
                Ok(*profile)
            }
            Ok(RunReply::Relayed(kind, message)) => {
                // The worker is healthy — the *workload* failed, with
                // the same kind and message the in-process path yields.
                self.release(worker);
                Err(WorkerFailure { kind, message, exit: None })
            }
            // A response was expected, so a clean close is as dead as a
            // torn one — the worker exited between frames.
            Err(FrameError::PeerClosed) => {
                Err(self.bury(worker, "worker closed its pipe mid-assignment"))
            }
            Err(FrameError::Torn(detail)) => {
                Err(self.bury(worker, &format!("torn frame ({detail})")))
            }
            Err(FrameError::Corrupt(detail)) => Err(self.bury(worker, &detail)),
            Err(FrameError::Io(e)) => Err(self.bury(worker, &format!("pipe error: {e}"))),
        }
    }

    fn counters(&self) -> WorkerCounters {
        let state = self.state.lock().unwrap();
        WorkerCounters { spawns: state.spawns, deaths: state.deaths, restarts: state.restarts }
    }

    fn shutdown(&self) {
        let workers: Vec<PoolWorker> = {
            let mut state = self.state.lock().unwrap();
            if state.closed {
                return;
            }
            state.closed = true;
            std::mem::take(&mut state.idle)
        };
        for mut w in workers {
            // Best-effort orderly exit; a worker that ignores it (or
            // hangs in worker/exit) is killed after a short patience.
            // A worker that never got an assignment is still waiting for
            // the magic greeting — send it so EXIT parses as a frame.
            if !w.greeted {
                let _ = frame::write_magic(&mut w.stdin);
            }
            let _ = frame::write_frame(&mut w.stdin, FRAME_EXIT, b"");
            drop(w.stdin);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
            self.state.lock().unwrap().live -= 1;
        }
        self.reaper_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.reaper.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// Writes one result frame the fault-aware way: a `kill` armed on
// worker/frame writes *half* the frame, flushes, and aborts — the
// deterministic model of a SIGKILL mid-write, leaving a genuinely torn
// tail for the parent to classify.
fn write_result_frame<W: Write>(
    out: &mut W,
    plan: &FaultPlan,
    kind: u32,
    payload: &[u8],
) -> io::Result<()> {
    match plan.check(fault::WORKER_FRAME_POINT) {
        None | Some(FaultAction::Slow) => {}
        Some(FaultAction::Kill) => {
            let bytes = frame::encode_frame(kind, payload);
            let _ = out.write_all(&bytes[..bytes.len() / 2]);
            let _ = out.flush();
            std::process::abort();
        }
        Some(FaultAction::Panic) => panic!("fault injected: {}", fault::WORKER_FRAME_POINT),
        // A worker has no socket to drop; treat a disconnect like an
        // injected write error so the plan never passes silently.
        Some(FaultAction::Err) | Some(FaultAction::Disconnect) => {
            return Err(io::Error::other(format!("fault injected: {}", fault::WORKER_FRAME_POINT)));
        }
        Some(FaultAction::Hang) => loop {
            // Only the parent's hard-kill reaper ends this.
            std::thread::sleep(Duration::from_millis(50));
        },
    }
    frame::write_frame(out, kind, payload)
}

/// The worker side of the protocol: serve assignments from stdin until
/// an exit frame (or the parent's death) ends the session. `runner` must
/// be configured exactly like the parent's (mode, shards, budget,
/// deadline, baseline) with [`crate::suite::RetryPolicy::none`] — the
/// parent owns retries — and `plan` is the worker's own scope-filtered
/// fault plan.
pub fn serve_worker(runner: &SuiteRunner, ds: DataSet, plan: &FaultPlan) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_worker_on(runner, ds, plan, stdin.lock(), stdout.lock())
}

fn serve_worker_on<R: Read, W: Write>(
    runner: &SuiteRunner,
    ds: DataSet,
    plan: &FaultPlan,
    input: R,
    mut out: W,
) -> io::Result<()> {
    let mut reader = FrameReader::new(input);
    frame::write_magic(&mut out)?;
    frame::write_frame(&mut out, FRAME_READY, b"")?;
    reader.expect_magic().map_err(|e| io::Error::other(e.to_string()))?;
    loop {
        let request = match reader.read_frame() {
            Ok(f) => f,
            // Parent gone: a clean close between frames or a tear from a
            // crash mid-write both mean nothing is left to serve.
            Err(FrameError::PeerClosed) | Err(FrameError::Torn(_)) => return Ok(()),
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        match request.kind {
            FRAME_RUN => {
                let name = String::from_utf8_lossy(&request.payload).to_string();
                let reply = match Workload::by_name(&name) {
                    None => failure_payload(&name, "panic", &format!("unknown workload `{name}`")),
                    Some(w) => {
                        let outcome = runner.try_run_workloads(std::slice::from_ref(&w), ds);
                        match outcome.profile.workloads.into_iter().next() {
                            Some(profile) => {
                                let payload = checkpoint::checkpoint_record(&profile).render();
                                write_result_frame(
                                    &mut out,
                                    plan,
                                    FRAME_RESULT,
                                    payload.as_bytes(),
                                )?;
                                continue;
                            }
                            None => {
                                let f = &outcome.failures[0];
                                failure_payload(&name, f.kind_str(), &f.error)
                            }
                        }
                    }
                };
                frame::write_frame(&mut out, FRAME_FAILURE, reply.as_bytes())?;
            }
            FRAME_EXIT => {
                plan.fire(fault::WORKER_EXIT_POINT)?;
                frame::write_frame(&mut out, FRAME_BYE, b"")?;
                return Ok(());
            }
            other => {
                return Err(io::Error::other(format!("unexpected request frame kind {other}")))
            }
        }
    }
}

fn failure_payload(name: &str, kind: &str, error: &str) -> String {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("failure_kind".to_string(), Json::Str(kind.to_string())),
        ("error".to_string(), Json::Str(error.to_string())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::RetryPolicy;
    use std::sync::atomic::AtomicU64;
    use vp_obs::CounterId;

    // A loopback "process": the worker side served over in-memory pipes,
    // no subprocess involved — proves the protocol round-trips profiles
    // bit-exactly and failures verbatim.
    fn serve_to_bytes(requests: &[(u32, &[u8])], plan: &FaultPlan) -> (Vec<u8>, io::Result<()>) {
        let mut input = frame::FRAME_MAGIC.to_vec();
        for &(kind, payload) in requests {
            input.extend_from_slice(&frame::encode_frame(kind, payload));
        }
        let runner = SuiteRunner::new().retry(RetryPolicy::none());
        let mut out = Vec::new();
        let result = serve_worker_on(&runner, DataSet::Test, plan, input.as_slice(), &mut out);
        (out, result)
    }

    fn read_reply_frames(bytes: &[u8]) -> Vec<frame::Frame> {
        let mut reader = FrameReader::new(bytes);
        reader.expect_magic().unwrap();
        let ready = reader.read_frame().unwrap();
        assert_eq!(ready.kind, FRAME_READY);
        let mut frames = Vec::new();
        while let Ok(f) = reader.read_frame() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn loopback_result_frame_is_bit_exact() {
        let reference = SuiteRunner::new()
            .run_workloads(&vp_workloads::suite()[..1], DataSet::Test)
            .workloads
            .remove(0);
        let (bytes, result) = serve_to_bytes(
            &[(FRAME_RUN, reference.name.as_bytes()), (FRAME_EXIT, b"")],
            &FaultPlan::empty(),
        );
        result.unwrap();
        let frames = read_reply_frames(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FRAME_RESULT);
        assert_eq!(frames[1].kind, FRAME_BYE);
        let rec = Json::parse(&String::from_utf8_lossy(&frames[0].payload)).unwrap();
        let roundtripped = checkpoint::profile_from_record(&rec).unwrap();
        assert_eq!(roundtripped.name, reference.name);
        assert_eq!(roundtripped.metrics, reference.metrics);
        assert_eq!(roundtripped.instructions, reference.instructions);
        assert_eq!(roundtripped.events, reference.events);
        assert_eq!(
            roundtripped.profile_fraction.to_bits(),
            reference.profile_fraction.to_bits(),
            "floats cross the wire bit-exactly"
        );
    }

    #[test]
    fn loopback_relays_workload_panic_verbatim() {
        let plan = FaultPlan::parse("panic:workload/gcc").unwrap();
        let runner = SuiteRunner::new()
            .retry(RetryPolicy::none())
            .faults(Arc::new(FaultPlan::parse("panic:workload/gcc").unwrap()));
        let mut input = frame::FRAME_MAGIC.to_vec();
        input.extend_from_slice(&frame::encode_frame(FRAME_RUN, b"gcc"));
        input.extend_from_slice(&frame::encode_frame(FRAME_EXIT, b""));
        let mut out = Vec::new();
        serve_worker_on(&runner, DataSet::Test, &plan, input.as_slice(), &mut out).unwrap();
        let frames = read_reply_frames(&out);
        assert_eq!(frames[0].kind, FRAME_FAILURE);
        let rec = Json::parse(&String::from_utf8_lossy(&frames[0].payload)).unwrap();
        assert_eq!(rec.get("name").and_then(Json::as_str), Some("gcc"));
        assert_eq!(rec.get("failure_kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(
            rec.get("error").and_then(Json::as_str),
            Some("fault injected: workload/gcc"),
            "the in-process message crosses the wire byte-identically"
        );
    }

    #[test]
    fn loopback_unknown_workload_fails_without_dying() {
        let (bytes, result) =
            serve_to_bytes(&[(FRAME_RUN, b"no-such-load"), (FRAME_EXIT, b"")], &FaultPlan::empty());
        result.unwrap();
        let frames = read_reply_frames(&bytes);
        assert_eq!(frames[0].kind, FRAME_FAILURE);
        assert_eq!(frames[1].kind, FRAME_BYE);
    }

    #[test]
    fn kill_on_frame_point_leaves_a_genuinely_torn_frame() {
        // Can't abort the test process — exercise the torn-write shape
        // directly: half of an encoded frame must classify as Torn.
        let payload = failure_payload("li", "panic", "x");
        let bytes = frame::encode_frame(FRAME_RESULT, payload.as_bytes());
        let mut stream = frame::FRAME_MAGIC.to_vec();
        stream.extend_from_slice(&bytes[..bytes.len() / 2]);
        let mut reader = FrameReader::new(stream.as_slice());
        reader.expect_magic().unwrap();
        assert!(matches!(reader.read_frame(), Err(FrameError::Torn(_))));
    }

    // An in-memory executor whose first `fail_first` assignments die —
    // drives the retry loop's WorkerDeath path without real processes.
    struct FlakyExecutor {
        fail_first: u64,
        calls: AtomicU64,
        runner: SuiteRunner,
    }

    impl WorkerExecutor for FlakyExecutor {
        fn slots(&self) -> usize {
            2
        }
        fn prepare(&self, _items: usize) {}
        fn run(&self, workload: &str) -> Result<WorkloadProfile, WorkerFailure> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if call < self.fail_first {
                return Err(WorkerFailure {
                    kind: FailureKind::WorkerDeath,
                    message: "worker 0 died (signal 9): torn frame".to_string(),
                    exit: Some(WorkerExit { worker: 0, status: "signal 9".to_string() }),
                });
            }
            let w = Workload::by_name(workload).unwrap();
            Ok(self
                .runner
                .run_workloads(std::slice::from_ref(&w), DataSet::Test)
                .workloads
                .remove(0))
        }
        fn counters(&self) -> WorkerCounters {
            WorkerCounters {
                spawns: self.fail_first.saturating_add(2),
                deaths: self.fail_first,
                restarts: self.fail_first,
            }
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn worker_death_is_retried_and_counted() {
        let workloads = &vp_workloads::suite()[..3];
        let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
        let exec =
            FlakyExecutor { fail_first: 1, calls: AtomicU64::new(0), runner: SuiteRunner::new() };
        let outcome = SuiteRunner::new()
            .retry(RetryPolicy { max_retries: 2, backoff_base_ms: 0, backoff_cap_ms: 0 })
            .try_run_executor(workloads, &exec);
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        for (a, b) in outcome.profile.workloads.iter().zip(&clean.workloads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(outcome.faults.get(CounterId::WorkerDeaths), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkerRestarts), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkerSpawns), 3);
        assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 0);
    }

    #[test]
    fn persistent_worker_death_quarantines_with_exit_details() {
        let workloads = &vp_workloads::suite()[..2];
        let exec = FlakyExecutor {
            fail_first: u64::MAX,
            calls: AtomicU64::new(0),
            runner: SuiteRunner::new(),
        };
        let outcome =
            SuiteRunner::new().retry(RetryPolicy::none()).try_run_executor(workloads, &exec);
        assert_eq!(outcome.failures.len(), 2);
        for f in &outcome.failures {
            assert_eq!(f.kind, FailureKind::WorkerDeath);
            assert_eq!(f.kind_str(), "worker-death");
            let exit = f.worker.as_ref().expect("death carries exit details");
            assert_eq!(exit.status, "signal 9");
        }
        let table = outcome.render_failures();
        assert!(table.contains("worker-death(w0:signal 9)"), "{table}");
    }
}
