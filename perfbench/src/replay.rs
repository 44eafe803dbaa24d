//! `replay-adversarial`: no emulation. Each round VPC1-encodes each of
//! the four adversarial streams, decodes it with `ChunkReader`, and
//! profiles it with `observe_batch` in full, convergent and adaptive
//! mode, plus full mode through `profile_sharded(…, 2)`.

use std::collections::BTreeMap;
use std::time::Instant;

use vp_core::{
    partition_by_entity, partition_count, profile_sharded, AdaptiveProfiler, ConvergentConfig,
    ConvergentProfiler, EntityMetrics, InstructionProfiler, PhaseBudget, TrackerConfig,
};
use vp_instrument::trace_codec::{self, ChunkReader, DEFAULT_CHUNK_EVENTS};
use vp_workloads::adversarial::{diurnal, heavy_tailed, phase_oscillating, tnv_churn};

use crate::check::{fnv, ErrAcc, Expected};
use crate::live::{profiler_metrics, verify, Counters, Mode};
use crate::trace::Tracer;
use crate::{best_ops, best_total, end_to_end, median, ratio, Args, Outcome, Values};

/// Seeded variants per family; each has committed digests.
const VARIANTS: u64 = 8;

const FAMILIES: [&str; 4] = ["phase-oscillating", "heavy-tailed", "tnv-churn", "diurnal"];

/// One adversarial stream, about 600k events.
struct Stream {
    key: String,
    events: Vec<(u32, u64)>,
    /// Digest of the stream's VPC1 encoding: every round's encode must
    /// reproduce it byte for byte.
    encoded: u64,
}

/// Family `family`, variant `v`. The variant moves the phase values and
/// the generator seeds; the stream shapes stay those of
/// `adversarial_streams`, scaled to about 600k events. `tnv-churn` has
/// no seed and a single variant.
fn generate(family: usize, v: u64) -> (String, Vec<(u32, u64)>) {
    let v = if family == 2 { 0 } else { v };
    let events = match family {
        0 => phase_oscillating(3, 4_096, &[7 + 2 * v, 9 + 2 * v], 600_000),
        1 => heavy_tailed(5, 512, 1.2, 600_000, 0xDECAF + v),
        2 => tnv_churn(24, 500, 5, 600_000),
        _ => diurnal(2, 8_192, 37, 10, 0xC0FFEE + v),
    };
    (format!("adversarial/{}/v{v}", FAMILIES[family]), events)
}

/// The variant of each family that `seed` picks.
fn variants(seed: u64) -> Vec<u64> {
    let mut rng = crate::rng(seed, u64::MAX);
    FAMILIES.iter().map(|_| rng.below(VARIANTS)).collect()
}

/// Set-up of one stream: generate it and encode it for reference.
fn stream(family: usize, variant: u64) -> Stream {
    let (key, events) = generate(family, variant);
    let encoded = fnv(&trace_codec::encode(&events, DEFAULT_CHUNK_EVENTS));
    Stream { key, events, encoded }
}

/// Profiles `events` with `observe_batch` in `mode`.
fn profile_batch(mode: Mode, events: &[(u32, u64)]) -> (Vec<EntityMetrics>, Counters) {
    match mode {
        Mode::Full => {
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            p.observe_batch(events);
            (p.metrics(), Counters { tnv: p.tnv_events(), ..Counters::default() })
        }
        Mode::Convergent => {
            let mut p =
                ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
            p.observe_batch(events);
            (p.metrics(), Counters { tnv: p.tnv_events(), conv: p.events(), ..Counters::default() })
        }
        Mode::Adaptive => {
            let mut p = AdaptiveProfiler::new(
                TrackerConfig::default(),
                ConvergentConfig::default(),
                PhaseBudget::default(),
            );
            p.observe_batch(events);
            let counters =
                Counters { tnv: p.tnv_events(), conv: p.events(), phase: p.phase_stats() };
            (p.metrics(), counters)
        }
    }
}

fn profile_shards(events: &[(u32, u64)]) -> Vec<EntityMetrics> {
    profile_sharded(events, 2, || InstructionProfiler::new(TrackerConfig::with_full())).metrics()
}

/// Adds every adversarial digest, for every variant, to `table`.
pub fn digests(table: &mut BTreeMap<String, u64>) {
    for f in 0..FAMILIES.len() {
        for v in 0..VARIANTS {
            let (key, events) = generate(f, v);
            for mode in Mode::ALL {
                let (metrics, _) = profile_batch(mode, &events);
                table.insert(
                    format!("{key}/{}", mode.name()),
                    crate::check::profile_digest(&metrics),
                );
            }
        }
    }
}

const MODE_SPANS: [&str; 3] =
    ["tnv.observe_batch", "convergent.observe_batch", "phase.observe_batch"];

/// Timings and counts of one round. Timings are per stream, indexed by
/// stream, so that each operation's best time can be taken across rounds.
struct Round {
    /// Events per profile (one pass over every stream).
    events: u64,
    bytes: u64,
    chunks: u64,
    /// Each stream's whole turn: its operations and their checks.
    stream_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    mode_ns: [Vec<f64>; 3],
    shard_ns: Vec<f64>,
    /// Traced rounds only: `partition_by_entity` probes.
    partition_ns: Vec<f64>,
    /// Latency of each stream's six operations, at `6 * stream + step`.
    latencies_ms: Vec<f64>,
    counters: [Counters; 3],
}

impl Round {
    fn new(streams: usize) -> Round {
        let zeros = || vec![0.0; streams];
        Round {
            events: 0,
            bytes: 0,
            chunks: 0,
            stream_ns: zeros(),
            encode_ns: zeros(),
            decode_ns: zeros(),
            mode_ns: [(); 3].map(|()| zeros()),
            shard_ns: zeros(),
            partition_ns: zeros(),
            latencies_ms: vec![0.0; 6 * streams],
            counters: [Counters::default(); 3],
        }
    }
}

/// Run-wide state the rounds feed.
struct Run<'a> {
    streams: Vec<Stream>,
    expected: &'a Expected,
    seed: u64,
    out: Outcome,
    /// Accuracy is deterministic: filled from the first round.
    err: Option<(ErrAcc, ErrAcc)>,
    decoded: Vec<(u32, u64)>,
}

impl Run<'_> {
    /// Closes operation `slot`, started at `t`.
    fn finish(&mut self, r: &mut Round, slot: usize, t: Instant, ok: bool) {
        r.latencies_ms[slot] = t.elapsed().as_nanos() as f64 / 1e6;
        self.out.op(ok);
    }

    fn round(&mut self, index: u64, tr: &mut Tracer) -> Round {
        let mut order: Vec<usize> = (0..self.streams.len()).collect();
        crate::shuffle(&mut order, &mut crate::rng(self.seed, index));
        let mut r = Round::new(self.streams.len());
        let mut acc = self.err.is_none().then(|| (ErrAcc::default(), ErrAcc::default()));
        for (op, &si) in order.iter().enumerate() {
            let op = index << 8 | op as u64;
            let stream_start = Instant::now();
            let stream_span = tr.begin("bench.stream", op);
            let (key, len, encoded) = {
                let s = &self.streams[si];
                (s.key.clone(), s.events.len() as u64, s.encoded)
            };
            r.events += len;

            let t = Instant::now();
            let span = tr.begin("codec.encode", op);
            let bytes = trace_codec::encode(&self.streams[si].events, DEFAULT_CHUNK_EVENTS);
            tr.end(span);
            r.encode_ns[si] = t.elapsed().as_nanos() as f64;
            r.bytes += bytes.len() as u64;
            let span = tr.begin("check.encoded", op);
            let ok = fnv(&bytes) == encoded;
            tr.end(span);
            self.finish(&mut r, 6 * si, t, ok);

            let t = Instant::now();
            let span = tr.begin("codec.decode", op);
            self.decoded.clear();
            let read = ChunkReader::new(&bytes).and_then(|mut reader| {
                reader.read_to_end_into(&mut self.decoded)?;
                Ok(reader.chunks_read() as u64)
            });
            tr.end(span);
            r.decode_ns[si] = t.elapsed().as_nanos() as f64;
            r.chunks += read.as_ref().map_or(0, |&c| c);
            let span = tr.begin("check.decoded", op);
            let ok = read.is_ok() && self.decoded == self.streams[si].events;
            tr.end(span);
            self.finish(&mut r, 6 * si + 1, t, ok);

            let mut full = Vec::new();
            for (mi, mode) in Mode::ALL.into_iter().enumerate() {
                let t = Instant::now();
                let span = tr.begin(MODE_SPANS[mi], op);
                let (metrics, counters) = profile_batch(mode, &self.decoded);
                tr.end(span);
                r.mode_ns[mi][si] = t.elapsed().as_nanos() as f64;
                r.counters[mi].merge(&counters);
                let ok = verify(tr, op, self.expected, &format!("{key}/{}", mode.name()), &metrics);
                self.finish(&mut r, 6 * si + 2 + mi, t, ok);
                match (mode, &mut acc) {
                    (Mode::Full, _) => full = metrics,
                    (Mode::Convergent, Some((conv, _))) => conv.add(&full, &metrics),
                    (Mode::Adaptive, Some((_, adapt))) => adapt.add(&full, &metrics),
                    _ => {}
                }
            }

            let t = Instant::now();
            let span = tr.begin("shard.profile_sharded", op);
            let metrics = profile_shards(&self.decoded);
            tr.end(span);
            r.shard_ns[si] = t.elapsed().as_nanos() as f64;
            let ok = verify(tr, op, self.expected, &format!("{key}/full"), &metrics);
            self.finish(&mut r, 6 * si + 5, t, ok);

            if tr.on() {
                let t = Instant::now();
                let span = tr.begin("shard.partition", op);
                std::hint::black_box(partition_by_entity(&self.decoded, partition_count(2)));
                tr.end(span);
                r.partition_ns[si] = t.elapsed().as_nanos() as f64;
            }
            tr.end(stream_span);
            r.stream_ns[si] = stream_start.elapsed().as_nanos() as f64 - r.partition_ns[si];
        }
        if acc.is_some() {
            self.err = acc;
        }
        r
    }
}

pub fn run(args: &Args, expected: &Expected) -> Outcome {
    let variants = variants(args.seed);
    let (first_s, streams) =
        crate::timed(|| variants.iter().enumerate().map(|(f, &v)| stream(f, v)).collect());
    let mut run = Run {
        streams,
        expected,
        seed: args.seed,
        out: Outcome::default(),
        err: None,
        decoded: Vec::new(),
    };
    // A repetition drops each stream once set up, so it does not hold a
    // second copy of all four in memory.
    let setup_rep =
        || crate::timed(|| variants.iter().enumerate().for_each(|(f, &v)| drop(stream(f, v)))).0;
    let phases = crate::run_phases(args, setup_rep, |i, tr| run.round(i, tr));
    let (plain, traced) = (&phases.plain, &phases.traced);
    // Every round profiles every stream: per-round counts repeat exactly.
    let events = plain[0].events as f64;
    // Value events profiled per second (times are in ns): four profiles
    // per stream, three modes plus the sharded one.
    let events_per_s = |rounds: &[Round]| 4e9 * events / best_total(rounds, |r| &r.stream_ns);
    let eps = events_per_s(plain);
    if !args.trace {
        let overhead = [0, 1, 2].map(|mi| best_total(plain, |r| &r.mode_ns[mi]) / events);
        let ack = crate::ack_of(&best_ops(plain, |r| &r.latencies_ms));
        let v = end_to_end(&phases, first_s, eps, overhead, ack, run.err.unwrap_or_default());
        run.out.emit(false, &v, phases.scale);
        return run.out;
    }

    let per_event = |ops: &dyn Fn(&Round) -> &[f64]| best_total(traced, ops) / events;
    let costs = [0, 1, 2].map(|mi| per_event(&|r: &Round| &r.mode_ns[mi]));
    let mut v = Values::new();
    profiler_metrics(&mut v, "tnv.batch_ns_per_event", costs, &traced[0].counters);
    v.insert("codec.encode_ns_per_event", per_event(&|r| &r.encode_ns));
    v.insert("codec.decode_ns_per_event", per_event(&|r| &r.decode_ns));
    v.insert("codec.bytes_per_event", ratio(traced[0].bytes as f64, events));
    v.insert("codec.chunks", traced[0].chunks as f64);
    v.insert("shard.partition_ns_per_event", per_event(&|r| &r.partition_ns));
    let shard = per_event(&|r| &r.shard_ns);
    v.insert("shard.ns_per_event_2", shard);
    v.insert("shard.speedup_2", costs[0] / shard);
    v.insert(
        "profile_io.render_us",
        median(&phases.tracer.durations_ns("profile_io.render")) / 1e3,
    );
    let traced_eps = events_per_s(traced);
    crate::insert_shares(
        &mut v,
        &phases.tracer.self_ns_by_layer(),
        phases.traced_wall_ns,
        (eps, traced_eps),
    );
    run.out.emit(true, &v, phases.scale);
    run.out
}
