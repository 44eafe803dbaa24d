//! `serve-ingest`: the write path. Three `vp_bench::serve` daemons run
//! in this process, one per profiling mode, each with the default
//! `ServeConfig` otherwise (window 16, `checkpoint_every` 8); the
//! full-mode one is the stock `vprof serve`. Two client threads stream
//! the suite's recorded register-defining traces as closed loops: HELLO,
//! CHUNKs within the window, END, check the END_OK profile, next session.

use std::collections::HashMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vp_bench::serve::{serve, ServeConfig, ServeReport, SessionMode};
use vp_core::{
    durable, parse_profile, profile_sharded, EntityMetrics, InstructionProfiler, PhaseBudget,
    TrackerConfig,
};
use vp_instrument::frame::{self, FrameReader};
use vp_instrument::net::{self, SessionMsg};
use vp_instrument::trace_codec::{self, DEFAULT_CHUNK_EVENTS};
use vp_instrument::Selection;
use vp_obs::CounterId;
use vp_workloads::{suite, DataSet};

use crate::check::{ErrAcc, Expected};
use crate::live::{verify, Mode};
use crate::trace::Tracer;
use crate::{best_ops, end_to_end, median, ratio, Args, Outcome, Values};

/// Concurrent client connections.
const CLIENTS: usize = 2;

/// The client's inflight window, as `vprof client` uses by default.
const WINDOW: u64 = 16;

/// One chunk as recorded: event count, CRC and varint payload.
struct Chunk {
    count: u32,
    crc: u32,
    payload: Vec<u8>,
}

/// One recorded register-defining trace of a suite program.
struct Trace {
    /// Digest-table stream key, `suite/<program>/<input>`.
    key: String,
    /// Session workload name, `<program>-<input>`.
    name: String,
    chunks: Vec<Chunk>,
    events: u64,
}

fn record_traces() -> Vec<Trace> {
    let mut traces = Vec::new();
    for w in suite() {
        for ds in [DataSet::Test, DataSet::Train] {
            let events = vp_bench::value_stream(&w, ds, Selection::RegisterDefining);
            let bytes = trace_codec::encode(&events, DEFAULT_CHUNK_EVENTS);
            let chunks = trace_codec::raw_chunks(&bytes)
                .expect("a freshly encoded trace splits into chunks")
                .into_iter()
                .map(|c| Chunk { count: c.count, crc: c.crc, payload: c.payload.to_vec() })
                .collect();
            traces.push(Trace {
                key: format!("suite/{}/{}", w.name(), ds.name()),
                name: format!("{}-{}", w.name(), ds.name()),
                chunks,
                events: events.len() as u64,
            });
        }
    }
    traces
}

/// A daemon serving one mode on its own socket and state dir.
struct Daemon {
    socket: PathBuf,
    handle: JoinHandle<Result<ServeReport, String>>,
}

impl Daemon {
    fn start(dir: &Path, mode: Mode) -> io::Result<Daemon> {
        let socket = dir.join(format!("{}.sock", mode.name()));
        let mut cfg = ServeConfig::new(socket.clone(), dir.join(mode.name()));
        cfg.mode = match mode {
            Mode::Full => SessionMode::Full,
            Mode::Convergent => SessionMode::Convergent,
            Mode::Adaptive => SessionMode::Adaptive(PhaseBudget::default()),
        };
        let handle = std::thread::Builder::new()
            .name(format!("serve-{}", mode.name()))
            .spawn(move || serve(cfg))?;
        // The socket file appears once the daemon listens.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            if handle.is_finished() || Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "daemon on {} did not start",
                    socket.display()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon { socket, handle })
    }

    /// Sends SHUTDOWN, which starts the drain.
    fn request_shutdown(&self) -> io::Result<()> {
        let mut stream = UnixStream::connect(&self.socket)?;
        frame::write_magic(&mut stream)?;
        net::write_msg(&mut stream, &SessionMsg::Shutdown)
    }
}

/// Shuts the daemons down together and waits for every drain to finish.
fn shutdown(daemons: Vec<Daemon>) -> Vec<Result<ServeReport, String>> {
    let sent: Vec<io::Result<()>> = daemons.iter().map(Daemon::request_shutdown).collect();
    daemons
        .into_iter()
        .zip(sent)
        .map(|(d, sent)| {
            sent.map_err(|e| format!("cannot send SHUTDOWN: {e}"))?;
            d.handle.join().map_err(|_| "daemon panicked".to_string())?
        })
        .collect()
}

fn start_daemons(dir: &Path) -> io::Result<Vec<Daemon>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    Mode::ALL.into_iter().map(|mode| Daemon::start(dir, mode)).collect()
}

/// What one client thread saw over one round.
struct Client {
    tenant: String,
    tr: Tracer,
    out: Outcome,
    /// Latency slot of the current session's first chunk.
    slot0: usize,
    /// Chunk latencies by slot.
    latencies_ms: Vec<(usize, f64)>,
    /// Session wall times by job.
    session_ns: Vec<(usize, f64)>,
    /// Sessions completed per mode.
    completed: [u64; 3],
    /// Chunks of completed sessions per mode.
    acked_chunks: [u64; 3],
    checkpoints: u64,
    throttles: u64,
    chunks: u64,
    /// First-round profiles for the accuracy metrics.
    profiles: Vec<(usize, Mode, Vec<EntityMetrics>)>,
}

impl Client {
    fn new(index: usize, tr: Tracer) -> Client {
        Client {
            tenant: format!("c{index}"),
            tr,
            out: Outcome::default(),
            slot0: 0,
            latencies_ms: Vec::new(),
            session_ns: Vec::new(),
            completed: [0; 3],
            acked_chunks: [0; 3],
            checkpoints: 0,
            throttles: 0,
            chunks: 0,
            profiles: Vec::new(),
        }
    }

    /// Applies one server reply. ACK, THROTTLE and END_OK carry the
    /// cumulative cursor: record the latency of every chunk it newly
    /// covers. Returns END_OK's profile.
    fn reply(
        &mut self,
        msg: SessionMsg,
        acked: &mut u64,
        sent: &[Instant],
    ) -> Result<Option<String>, String> {
        let (to, profile) = match msg {
            SessionMsg::Ack { acked: a } => {
                self.checkpoints += 1;
                (a, None)
            }
            SessionMsg::Throttle { acked: a } => {
                self.throttles += 1;
                (a, None)
            }
            SessionMsg::EndOk { acked: a, profile } => {
                self.checkpoints += 1;
                (a, Some(profile))
            }
            other => return Err(format!("unexpected reply: {other:?}")),
        };
        let now = Instant::now();
        let first = *acked as usize;
        let covered = sent.get(first..(to as usize).min(sent.len())).unwrap_or(&[]);
        for (k, at) in covered.iter().enumerate() {
            let ms = now.duration_since(*at).as_nanos() as f64 / 1e6;
            self.latencies_ms.push((self.slot0 + first + k, ms));
        }
        *acked = (*acked).max(to);
        Ok(profile)
    }

    /// Sends chunk `seq` of `trace`, noting when it left.
    fn send(
        &mut self,
        stream: &mut UnixStream,
        trace: &Trace,
        seq: u64,
        sent: &mut Vec<Instant>,
        op: u64,
    ) -> Result<(), String> {
        let c = &trace.chunks[seq as usize];
        let msg = SessionMsg::Chunk { seq, count: c.count, crc: c.crc, payload: c.payload.clone() };
        let span = self.tr.begin("frame.send", op);
        sent.push(Instant::now());
        let written = net::write_msg(stream, &msg);
        self.tr.end(span);
        self.chunks += 1;
        written.map_err(|e| e.to_string())
    }

    /// Streams `trace` into the daemon at `socket` and returns the END_OK
    /// profile text.
    ///
    /// The first window of chunks follows HELLO without waiting for
    /// HELLO_OK. The protocol allows it: a fresh session's cursor is 0,
    /// and chunks below a resumed cursor would be dropped as duplicates.
    /// It keeps the daemon from ever finding its socket idle at session
    /// start, where it would sleep out a 10 ms poll; how often that
    /// race is lost depends on scheduling, and it made whole runs
    /// bimodal.
    fn session(&mut self, socket: &Path, trace: &Trace, op: u64) -> Result<String, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut stream = UnixStream::connect(socket).map_err(|e| err(&e))?;
        let mut reader = FrameReader::new(stream.try_clone().map_err(|e| err(&e))?);
        let total = trace.chunks.len() as u64;
        let mut sent: Vec<Instant> = Vec::with_capacity(trace.chunks.len());
        let mut acked = 0u64;

        let span = self.tr.begin("net.hello", op);
        frame::write_magic(&mut stream).map_err(|e| err(&e))?;
        let hello = SessionMsg::Hello { tenant: self.tenant.clone(), workload: trace.name.clone() };
        net::write_msg(&mut stream, &hello).map_err(|e| err(&e))?;
        for seq in 0..total.min(WINDOW) {
            self.send(&mut stream, trace, seq, &mut sent, op)?;
        }
        reader.expect_magic().map_err(|e| err(&e))?;
        let reply = net::read_msg(&mut reader).map_err(|e| err(&e))?;
        self.tr.end(span);
        match reply {
            SessionMsg::HelloOk { acked: 0 } => {}
            other => return Err(format!("unexpected reply to HELLO: {other:?}")),
        }

        for seq in total.min(WINDOW)..total {
            while seq - acked >= WINDOW {
                let span = self.tr.begin("net.ack_wait", op);
                let msg = net::read_msg(&mut reader).map_err(|e| err(&e))?;
                self.tr.end(span);
                if self.reply(msg, &mut acked, &sent)?.is_some() {
                    return Err("END_OK before END".to_string());
                }
            }
            self.send(&mut stream, trace, seq, &mut sent, op)?;
        }

        let span = self.tr.begin("net.end", op);
        net::write_msg(&mut stream, &SessionMsg::End).map_err(|e| err(&e))?;
        let profile = loop {
            let msg = net::read_msg(&mut reader).map_err(|e| err(&e))?;
            if let Some(profile) = self.reply(msg, &mut acked, &sent)? {
                break profile;
            }
        };
        self.tr.end(span);
        if acked != total {
            return Err(format!("END_OK acknowledged {acked} of {total} chunks"));
        }
        Ok(profile)
    }
}

#[derive(Default)]
/// Timings and counts of one round. Sessions are indexed by job,
/// `3 * trace + mode`, and chunk latencies by slot, so that each
/// session's and chunk's best time can be taken across rounds; a failed
/// session leaves its entries infinite.
struct Round {
    session_ns: Vec<f64>,
    latencies_ms: Vec<f64>,
    checkpoints: u64,
    throttles: u64,
    chunks: u64,
}

struct Run<'a> {
    traces: Vec<Trace>,
    daemons: Vec<Daemon>,
    expected: &'a Expected,
    seed: u64,
    out: Outcome,
    /// Latency slot of each job's first chunk, and the slot count.
    slots: Vec<usize>,
    completed: [u64; 3],
    acked_chunks: [u64; 3],
    profiles: HashMap<(usize, Mode), Vec<EntityMetrics>>,
}

impl Run<'_> {
    fn round(&mut self, index: u64, tr: &mut Tracer) -> Round {
        let mut jobs: Vec<(usize, Mode)> =
            (0..self.traces.len()).flat_map(|t| Mode::ALL.map(|m| (t, m))).collect();
        crate::shuffle(&mut jobs, &mut crate::rng(self.seed, index));
        let keep_profiles = self.profiles.is_empty();
        let next = AtomicUsize::new(0);
        let (traces, daemons, expected, slots) =
            (&self.traces, &self.daemons, self.expected, &self.slots);
        let (on, epoch) = (tr.on(), tr.epoch());
        let clients: Vec<Option<Client>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|ci| {
                    let (jobs, next) = (&jobs, &next);
                    scope.spawn(move || {
                        let mut c = Client::new(ci, Tracer::new(on, epoch));
                        loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(ti, mode)) = jobs.get(j) else { break };
                            let trace = &traces[ti];
                            let mi = mode as usize;
                            let job = 3 * ti + mi;
                            c.slot0 = slots[job];
                            let op = index << 16 | j as u64;
                            let t = Instant::now();
                            let span = c.tr.begin("net.session", op);
                            let result = c.session(&daemons[mi].socket, trace, op);
                            c.tr.end(span);
                            let ns = t.elapsed().as_nanos() as f64;
                            let ok = match result {
                                Ok(text) => {
                                    let span = c.tr.begin("profile_io.parse", op);
                                    let metrics = parse_profile(&text);
                                    c.tr.end(span);
                                    metrics.is_ok_and(|m| {
                                        let key = format!("{}/{}", trace.key, mode.name());
                                        let ok = verify(&mut c.tr, op, expected, &key, &m);
                                        if ok && keep_profiles {
                                            c.profiles.push((ti, mode, m));
                                        }
                                        ok
                                    })
                                }
                                Err(e) => {
                                    eprintln!(
                                        "session {}/{} ({}): {e}",
                                        c.tenant,
                                        trace.name,
                                        mode.name()
                                    );
                                    false
                                }
                            };
                            c.out.op(ok);
                            if ok {
                                c.completed[mi] += 1;
                                c.session_ns.push((job, ns));
                                c.acked_chunks[mi] += trace.chunks.len() as u64;
                            }
                        }
                        c
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let mut r = Round {
            session_ns: vec![f64::INFINITY; jobs.len()],
            latencies_ms: vec![f64::INFINITY; self.slots[jobs.len()]],
            checkpoints: 0,
            throttles: 0,
            chunks: 0,
        };
        for c in clients {
            let Some(c) = c else {
                // A panicked client thread: its sessions are lost.
                self.out.op(false);
                continue;
            };
            self.out.attempted += c.out.attempted;
            self.out.failed += c.out.failed;
            for &(slot, ms) in &c.latencies_ms {
                r.latencies_ms[slot] = ms;
            }
            for &(job, ns) in &c.session_ns {
                r.session_ns[job] = ns;
            }
            for mi in 0..3 {
                self.completed[mi] += c.completed[mi];
                self.acked_chunks[mi] += c.acked_chunks[mi];
            }
            r.checkpoints += c.checkpoints;
            r.throttles += c.throttles;
            r.chunks += c.chunks;
            for (ti, mode, m) in c.profiles {
                self.profiles.insert((ti, mode), m);
            }
            tr.absorb(c.tr);
        }
        r
    }

    /// Accuracy of the convergent and adaptive END_OK profiles against
    /// the full-mode ones of the same traces.
    fn err(&self) -> (ErrAcc, ErrAcc) {
        let (mut conv, mut adapt) = (ErrAcc::default(), ErrAcc::default());
        for ti in 0..self.traces.len() {
            let Some(full) = self.profiles.get(&(ti, Mode::Full)) else { continue };
            if let Some(m) = self.profiles.get(&(ti, Mode::Convergent)) {
                conv.add(full, m);
            }
            if let Some(m) = self.profiles.get(&(ti, Mode::Adaptive)) {
                adapt.add(full, m);
            }
        }
        (conv, adapt)
    }

    /// Shuts every daemon down with SHUTDOWN and checks each drained
    /// clean: its report counts exactly the sessions and chunks the
    /// clients completed, and no session was killed or refused. Returns
    /// the sessions refused (BUSY) over all daemons.
    fn drain(&mut self) -> u64 {
        let mut busy = 0;
        for (mi, report) in shutdown(std::mem::take(&mut self.daemons)).into_iter().enumerate() {
            let clean = match report {
                Ok(report) => {
                    let c = &report.counts;
                    busy += c.get(CounterId::SessionRejected);
                    c.get(CounterId::SessionKilled) == 0
                        && c.get(CounterId::SessionRejected) == 0
                        && c.get(CounterId::SessionCompleted) == self.completed[mi]
                        && c.get(CounterId::ChunksAcked) == self.acked_chunks[mi]
                        && report.sessions.iter().all(|s| s.outcome == "completed")
                }
                Err(e) => {
                    eprintln!("daemon {}: {e}", Mode::ALL[mi].name());
                    false
                }
            };
            self.out.op(clean);
        }
        busy
    }
}

/// Records the traces and starts the daemons.
fn setup(dir: &Path) -> (Vec<Trace>, Vec<Daemon>) {
    let traces = record_traces();
    let daemons = start_daemons(dir).unwrap_or_else(|e| {
        eprintln!("serve-ingest set-up failed: {e}");
        std::process::exit(1);
    });
    (traces, daemons)
}

pub fn run(args: &Args, expected: &Expected) -> Outcome {
    let dir = crate::out_dir().join(format!("serve-{}", std::process::id()));
    let (first_s, (traces, daemons)) = crate::timed(|| setup(&dir));
    // A repetition sets up its own daemons and shuts them down, untimed.
    let rep_dir = crate::out_dir().join(format!("serve-{}-rep", std::process::id()));
    let setup_rep = || {
        let (secs, (_, daemons)) = crate::timed(|| setup(&rep_dir));
        shutdown(daemons);
        secs
    };
    let slots = std::iter::once(0)
        .chain(traces.iter().flat_map(|t| [t.chunks.len(); 3]).scan(0, |at, n| {
            *at += n;
            Some(*at)
        }))
        .collect();
    let mut run = Run {
        traces,
        daemons,
        expected,
        seed: args.seed,
        out: Outcome::default(),
        slots,
        completed: [0; 3],
        acked_chunks: [0; 3],
        profiles: HashMap::new(),
    };
    replay_check(&run.traces, expected, &mut run.out);
    let phases = crate::run_phases(args, setup_rep, |i, tr| run.round(i, tr));
    let (plain, traced) = (&phases.plain, &phases.traced);
    // Each round runs every trace once per mode. The two clients stream
    // sessions back to back, so a round lasts about the sessions' total
    // time over the clients; with each session's best time that is the
    // rate of a round without interference (times are in ns).
    let events = run.traces.iter().map(|t| t.events).sum::<u64>() as f64;
    let events_per_s = |rounds: &[Round]| {
        CLIENTS as f64 * 3e9 * events / best_ops(rounds, |r| &r.session_ns).iter().sum::<f64>()
    };
    let eps = events_per_s(plain);
    let mut v = Values::new();
    if args.trace {
        probes(&run.traces, &dir, &mut v);
    }
    let busy = run.drain();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&rep_dir);
    if !args.trace {
        // Each session's best wall time, per event of its mode.
        let best = best_ops(plain, |r| &r.session_ns);
        let overhead = [0, 1, 2].map(|mi| best.iter().skip(mi).step_by(3).sum::<f64>() / events);
        let ack = crate::ack_of(&best_ops(plain, |r| &r.latencies_ms));
        let v = end_to_end(&phases, first_s, eps, overhead, ack, run.err());
        run.out.emit(false, &v, phases.scale);
        return run.out;
    }

    let first = &traced[0];
    v.insert("serve.busy", busy as f64);
    v.insert("codec.chunks", first.chunks as f64);
    v.insert("serve.checkpoints", first.checkpoints as f64);
    v.insert("serve.throttles", first.throttles as f64);
    v.insert(
        "profile_io.render_us",
        median(&phases.tracer.durations_ns("profile_io.render")) / 1e3,
    );
    // Client threads overlap in time: the base is their combined time.
    let base = phases.traced_wall_ns * CLIENTS as f64;
    let traced_eps = events_per_s(traced);
    crate::insert_shares(&mut v, &phases.tracer.self_ns_by_layer(), base, (eps, traced_eps));
    run.out.emit(true, &v, phases.scale);
    run.out
}

/// Checks, once and untimed, that replaying each recorded trace serially
/// and through `profile_sharded(…, 2)` gives the live full-mode profile,
/// the same one every full-mode END_OK is checked against.
fn replay_check(traces: &[Trace], expected: &Expected, out: &mut Outcome) {
    let mut off = Tracer::new(false, Instant::now());
    for t in traces {
        let mut events = Vec::new();
        let decoded = t.chunks.iter().enumerate().all(|(seq, c)| {
            trace_codec::decode_chunk(seq, c.count, c.crc, &c.payload, &mut events).is_ok()
        });
        let key = format!("{}/full", t.key);
        let mut serial = InstructionProfiler::new(TrackerConfig::with_full());
        serial.observe_batch(&events);
        out.op(decoded && verify(&mut off, 0, expected, &key, &serial.metrics()));
        let sharded =
            profile_sharded(&events, 2, || InstructionProfiler::new(TrackerConfig::with_full()));
        out.op(decoded && verify(&mut off, 0, expected, &key, &sharded.metrics()));
    }
}

/// Times, from outside the daemon, the layer calls it makes per chunk
/// and per checkpoint: `decode_chunk`, full-mode `observe_batch`, a
/// session-meta-sized `append_jsonl`, and one CHUNK frame round trip.
fn probes(traces: &[Trace], dir: &Path, v: &mut Values) {
    let events: u64 = traces.iter().map(|t| t.events).sum();
    let mut decode_ns = 0u128;
    let mut observe_ns = 0u128;
    let mut bytes = 0usize;
    let mut tnv = vp_obs::TnvEvents::default();
    let mut scratch = Vec::new();
    for t in traces {
        let mut p = InstructionProfiler::new(TrackerConfig::with_full());
        for (seq, c) in t.chunks.iter().enumerate() {
            scratch.clear();
            let start = Instant::now();
            let decoded = trace_codec::decode_chunk(seq, c.count, c.crc, &c.payload, &mut scratch);
            decode_ns += start.elapsed().as_nanos();
            decoded.expect("recorded chunks decode");
            let start = Instant::now();
            p.observe_batch(&scratch);
            observe_ns += start.elapsed().as_nanos();
            bytes += c.payload.len() + 12;
        }
        tnv.merge(&p.tnv_events());
    }
    v.insert("codec.decode_ns_per_event", decode_ns as f64 / events as f64);
    v.insert("codec.bytes_per_event", ratio(bytes as f64, events as f64));
    v.insert("tnv.batch_ns_per_event", observe_ns as f64 / events as f64);
    v.insert("tnv.hits", tnv.hits as f64);
    v.insert("tnv.inserts", tnv.inserts as f64);
    v.insert("tnv.evictions", tnv.evictions as f64);
    v.insert("tnv.hit_ratio", ratio(tnv.hits as f64, tnv.observations() as f64));

    let meta = dir.join("probe.ckpt");
    let line = "{\"kind\":\"session-checkpoint\",\"tenant\":\"c0\",\
                \"workload\":\"m88ksim-train\",\"acked\":16,\"events\":131072}\n";
    let fsync_us: Vec<f64> = (0..32)
        .filter_map(|_| {
            let start = Instant::now();
            durable::append_jsonl(&meta, line).ok()?;
            Some(start.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect();
    v.insert("durable.append_fsync_us", median(&fsync_us));

    let chunk = traces.iter().flat_map(|t| t.chunks.first()).max_by_key(|c| c.payload.len());
    if let (Some(c), Ok((mut a, b))) = (chunk, UnixStream::pair()) {
        let mut reader = FrameReader::new(b);
        let msg =
            SessionMsg::Chunk { seq: 0, count: c.count, crc: c.crc, payload: c.payload.clone() };
        let round_trip_us: Vec<f64> = (0..256)
            .filter_map(|_| {
                let start = Instant::now();
                net::write_msg(&mut a, &msg).ok()?;
                net::read_msg(&mut reader).ok()?;
                Some(start.elapsed().as_nanos() as f64 / 1e3)
            })
            .collect();
        v.insert("frame.roundtrip_us", median(&round_trip_us));
    }
}
