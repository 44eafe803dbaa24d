//! End-to-end and per-layer benchmark of the value-profiling pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload live-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (`live-suite`, `replay-adversarial`, `serve-ingest`)
//! each run in their own process as a closed loop for `--seconds`,
//! check every operation's output against committed digests, and print
//! one metric per line followed by a JSON summary as the last line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` spends half
//! the time untraced and half traced and reports the per-layer metrics.
//! See `perfbench/README.md` for every metric's definition.

mod check;
mod live;
mod replay;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use vp_workloads::adversarial::XorShift64;

use crate::check::ErrAcc;
use crate::trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one expected digest: the run must then report failures.
    pub flip_digest: bool,
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("overhead_ns_per_event_full", "ns"),
    ("overhead_ns_per_event_convergent", "ns"),
    ("overhead_ns_per_event_adaptive", "ns"),
    ("ack_ms_p50", "ms"),
    ("ack_ms_p99", "ms"),
    ("convergent_err_pp", "pp"),
    ("adaptive_err_pp", "pp"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.ns_per_instr", "ns"),
    ("sim.instrs", "count"),
    ("sim.self_frac", "frac"),
    ("runner.dispatch_ns_per_event", "ns"),
    ("runner.events", "count"),
    ("runner.self_frac", "frac"),
    ("tnv.live_ns_per_event", "ns"),
    ("tnv.batch_ns_per_event", "ns"),
    ("tnv.hits", "count"),
    ("tnv.inserts", "count"),
    ("tnv.evictions", "count"),
    ("tnv.hit_ratio", "frac"),
    ("tnv.self_frac", "frac"),
    ("convergent.ns_per_event", "ns"),
    ("convergent.profiled_frac", "frac"),
    ("convergent.self_frac", "frac"),
    ("adaptive.ns_per_event", "ns"),
    ("adaptive.overhead_vs_convergent", "frac"),
    ("phase.windows", "count"),
    ("phase.rearms", "count"),
    ("phase.self_frac", "frac"),
    ("codec.encode_ns_per_event", "ns"),
    ("codec.decode_ns_per_event", "ns"),
    ("codec.bytes_per_event", "B"),
    ("codec.chunks", "count"),
    ("codec.self_frac", "frac"),
    ("shard.partition_ns_per_event", "ns"),
    ("shard.ns_per_event_2", "ns"),
    ("shard.speedup_2", "x"),
    ("shard.self_frac", "frac"),
    ("durable.append_fsync_us", "us"),
    ("durable.self_frac", "frac"),
    ("serve.checkpoints", "count"),
    ("serve.throttles", "count"),
    ("serve.busy", "count"),
    ("frame.roundtrip_us", "us"),
    ("frame.self_frac", "frac"),
    ("net.self_frac", "frac"),
    ("profile_io.render_us", "us"),
    ("profile_io.self_frac", "frac"),
    ("check.self_frac", "frac"),
    ("e12.slowdown_full", "x"),
    ("e12.slowdown_convergent", "x"),
    ("e12.slowdown_adaptive", "x"),
    ("trace.eps_delta", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// Metric values by name, as a workload computes them.
pub type Values = BTreeMap<&'static str, f64>;

/// What a workload run hands back: operation counts plus metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The calibration scale the metrics were stated at.
    pub scale: f64,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Emits the metric list for this run's mode from `values`, with
    /// times multiplied and rates divided by `scale` (see
    /// [`Phases::scale`]). A missing end-to-end value is a bug and reads
    /// as NaN, which marks the run incorrect.
    pub fn emit(&mut self, trace: bool, values: &Values, scale: f64) {
        let (list, missing) = if trace { (PER_LAYER, 0.0) } else { (END_TO_END, f64::NAN) };
        for &(name, unit) in list {
            let value = values.get(name).copied().unwrap_or(missing);
            let value = match unit {
                "s" | "ms" | "us" | "ns" => value * scale,
                "1/s" => value / scale,
                _ => value,
            };
            self.metrics.push(Metric { name, value, unit });
        }
        self.scale = scale;
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: vp-perfbench --workload live-suite|replay-adversarial|serve-ingest \
         --seed N --seconds S --trace 0|1 [--flip-digest]\n       \
         vp-perfbench --write-digests FILE"
    );
    std::process::exit(2);
}

fn parse_args(raw: &[String]) -> Args {
    let value = |name: &str| -> Option<&str> {
        raw.iter().position(|a| a == name).and_then(|i| raw.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage()).to_string();
    let seed = value("--seed").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    let seconds: f64 = value("--seconds").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    Args { workload, seed, seconds, trace, flip_digest: raw.iter().any(|a| a == "--flip-digest") }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--write-digests") {
        let path = raw.get(i + 1).unwrap_or_else(|| usage());
        let text = check::generate_digests();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write `{path}`: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&raw);
    let expected = check::Expected::load(args.flip_digest);
    let outcome = match args.workload.as_str() {
        "live-suite" => live::run(&args, &expected),
        "replay-adversarial" => replay::run(&args, &expected),
        "serve-ingest" => serve::run(&args, &expected),
        other => {
            eprintln!("unknown workload `{other}`");
            usage();
        }
    };
    report(&args, &outcome);
}

fn report(args: &Args, out: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "operations attempted {} failed {} failed_ops_frac {} calibration scale {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.scale,
    );
    for m in &out.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Set-up repetitions an untraced run times, spread over the second
/// half of its rounds.
const SETUP_SAMPLES: f64 = 16.0;

/// Calibration kernel iterations: about a millisecond.
const KERNEL_ITERS: u32 = 400_000;

/// The calibration kernel's best time on a quiet machine, ns: the speed
/// every reported time is scaled to.
const KERNEL_REF_NS: f64 = 1.0e6;

/// The calibration kernel: xorshift-driven increments into a 256 KiB
/// table, ALU work and cache traffic like the profilers' table updates.
/// It is the benchmark's own code, so no change to the code under test
/// moves it. Returns its wall time, ns.
fn kernel_ns(table: &mut [u32]) -> f64 {
    let start = Instant::now();
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..KERNEL_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & mask];
        *slot = slot.wrapping_add(1);
    }
    std::hint::black_box(&table);
    start.elapsed().as_nanos() as f64
}

/// The rounds of one run: the untraced ones and, with `--trace 1`, the
/// traced ones with their spans and wall time.
pub struct Phases<R> {
    pub plain: Vec<R>,
    pub traced: Vec<R>,
    pub tracer: Tracer,
    pub traced_wall_ns: f64,
    setup_secs: Vec<f64>,
    /// Untraced runs only: peak RSS, MiB, before the first repetition.
    pub peak_rss_mb: f64,
    /// `KERNEL_REF_NS` over the calibration kernel's best time in this
    /// run. The machine's speed drifts by tens of percent over minutes,
    /// so even an operation's best time moves between runs; reported
    /// times are multiplied by this, and rates divided by it, to state
    /// them at one reference speed.
    pub scale: f64,
}

impl<R> Phases<R> {
    /// `setup_s`: the median of the first set-up, `first_s`, and the
    /// repetitions timed between rounds.
    pub fn setup_s(&self, first_s: f64) -> f64 {
        let mut all = self.setup_secs.clone();
        all.push(first_s);
        median(&all)
    }
}

/// Runs whole closed-loop rounds untraced for the measured time, or for
/// half of it and then traced for the other half, and writes the spans.
///
/// An untraced run also calls `setup_rep`, which repeats the workload's
/// set-up and returns its seconds, 16 times over the second half of the
/// run. Slow spells of the shared machine last seconds, so set-up times
/// taken in one burst swing with them; spread out, their median swings
/// less. Peak RSS is read at the half, before the repetitions add theirs.
pub fn run_phases<R>(
    args: &Args,
    mut setup_rep: impl FnMut() -> f64,
    mut round: impl FnMut(u64, &mut Tracer) -> R,
) -> Phases<R> {
    let epoch = Instant::now();
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut plain = Vec::new();
    let mut setup_secs = Vec::new();
    let mut off = Tracer::new(false, epoch);
    let mut peak_rss_mb = 0.0;
    // The kernel runs a few times before every round, so its best time
    // samples the same stretch of machine time as the operations'.
    let mut table = vec![0u32; 1 << 16];
    let mut kernel_best = f64::INFINITY;
    let mut calibrate = || {
        for _ in 0..3 {
            kernel_best = kernel_best.min(kernel_ns(&mut table));
        }
    };
    let start = Instant::now();
    let mut next_setup = seconds / 2.0;
    while start.elapsed().as_secs_f64() < seconds {
        calibrate();
        plain.push(round(plain.len() as u64, &mut off));
        if !args.trace && start.elapsed().as_secs_f64() >= next_setup {
            if setup_secs.is_empty() {
                peak_rss_mb = read_peak_rss_mb();
            }
            setup_secs.push(setup_rep());
            next_setup = start.elapsed().as_secs_f64() + seconds / 2.0 / SETUP_SAMPLES;
        }
    }
    let mut tracer = Tracer::new(args.trace, epoch);
    let mut traced = Vec::new();
    let mut traced_wall_ns = 0.0;
    let start = Instant::now();
    while args.trace && start.elapsed().as_secs_f64() < seconds {
        calibrate();
        let round_start = Instant::now();
        traced.push(round((plain.len() + traced.len()) as u64, &mut tracer));
        traced_wall_ns += round_start.elapsed().as_nanos() as f64;
    }
    if args.trace {
        trace::dump(&tracer, &args.workload, args.seed);
    }
    let scale = KERNEL_REF_NS / kernel_best;
    Phases { plain, traced, tracer, traced_wall_ns, setup_secs, peak_rss_mb, scale }
}

/// The end-to-end values. `overhead_ns` is per mode (full, convergent,
/// adaptive), `ack_ms` the p50 and p99 operation latency, and `err` the
/// convergent and adaptive accuracy against full mode.
pub fn end_to_end<R>(
    phases: &Phases<R>,
    first_setup_s: f64,
    events_per_s: f64,
    overhead_ns: [f64; 3],
    [p50, p99]: [f64; 2],
    (conv, adapt): (ErrAcc, ErrAcc),
) -> Values {
    Values::from([
        ("setup_s", phases.setup_s(first_setup_s)),
        ("events_per_s", events_per_s),
        ("overhead_ns_per_event_full", overhead_ns[0]),
        ("overhead_ns_per_event_convergent", overhead_ns[1]),
        ("overhead_ns_per_event_adaptive", overhead_ns[2]),
        ("ack_ms_p50", p50),
        ("ack_ms_p99", p99),
        ("convergent_err_pp", conv.pp()),
        ("adaptive_err_pp", adapt.pp()),
        ("peak_rss_mb", phases.peak_rss_mb),
    ])
}

/// Inserts `<layer>.self_frac` = self time / `base_ns` for every layer
/// in `self_ns` that the per-layer list names, and the tracing cost.
pub fn insert_shares(
    v: &mut Values,
    self_ns: &BTreeMap<&str, f64>,
    base_ns: f64,
    (untraced_eps, traced_eps): (f64, f64),
) {
    for &(name, _) in PER_LAYER {
        let layer = name.strip_suffix(".self_frac");
        if let Some(ns) = layer.and_then(|l| self_ns.get(l)) {
            v.insert(name, ns / base_ns);
        }
    }
    v.insert("trace.eps_delta", traced_eps - untraced_eps);
    v.insert("trace.overhead_frac", 1.0 - traced_eps / untraced_eps);
}

/// A generator for round `round` of a run with `seed`.
pub fn rng(seed: u64, round: u64) -> XorShift64 {
    XorShift64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 1,
    )
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Each operation's best (lowest) time across rounds, element-wise over
/// the per-operation times `ops` gives for each round. Interference on
/// the shared machine only ever slows an operation down, and an
/// operation of a few milliseconds often runs undisturbed in some round
/// even while whole rounds do not.
pub fn best_ops<T>(rounds: &[T], ops: impl Fn(&T) -> &[f64]) -> Vec<f64> {
    let mut best = rounds.first().map_or_else(Vec::new, |r| ops(r).to_vec());
    for r in rounds.iter().skip(1) {
        for (b, &x) in best.iter_mut().zip(ops(r)) {
            *b = b.min(x);
        }
    }
    best
}

/// The sum of the operations' best times (see [`best_ops`]).
pub fn best_total<T>(rounds: &[T], ops: impl Fn(&T) -> &[f64]) -> f64 {
    best_ops(rounds, ops).iter().sum()
}

/// The p50 and p99 of `latencies_ms`.
pub fn ack_of(latencies_ms: &[f64]) -> [f64; 2] {
    [quantile(latencies_ms, 0.50), quantile(latencies_ms, 0.99)]
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when the denominator is 0 (the layer did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` and returns its seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, turning a panic into `None` so one operation's failure is
/// counted instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Directory for run artefacts (span dumps, serve state), inside the
/// working directory.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
