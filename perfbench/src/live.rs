//! `live-suite`: the paper's E12 path. Each round runs every suite
//! program on its `test` and `train` inputs four times — uninstrumented,
//! then live-profiled in full, convergent and adaptive mode — with the
//! configuration `vprof profile-suite --all` uses for each mode.

use std::time::Instant;

use vp_bench::BUDGET;
use vp_core::{
    AdaptiveProfiler, ConvergentConfig, ConvergentProfiler, EntityMetrics, InstructionProfiler,
    PhaseBudget, PhaseStats, TrackerConfig,
};
use vp_instrument::{Analysis, Instrumenter, Selection};
use vp_obs::{ConvEvents, TnvEvents};
use vp_sim::{Machine, RunOutcome, SimError};
use vp_workloads::{suite, DataSet, Workload};

use crate::check::{self, ErrAcc, Expected};
use crate::trace::Tracer;
use crate::{best_ops, best_total, end_to_end, median, ratio, Args, Outcome, Values};

/// One program on one input.
struct Case {
    workload: Workload,
    ds: DataSet,
    key: String,
}

/// Set-up: the 20 cases, each run once uninstrumented to fill caches
/// and record the outcome every later run must reproduce.
fn setup() -> Vec<(Case, RunOutcome)> {
    cases()
        .into_iter()
        .map(|case| {
            let reference = run_uninstrumented(&case).expect("suite programs run to completion");
            (case, reference)
        })
        .collect()
}

/// The 20 (program, input) cases, in suite order.
fn cases() -> Vec<Case> {
    suite()
        .into_iter()
        .flat_map(|w| {
            [DataSet::Test, DataSet::Train].map(|ds| Case {
                key: format!("suite/{}/{}", w.name(), ds.name()),
                workload: w.clone(),
                ds,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Full,
    Convergent,
    Adaptive,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Full, Mode::Convergent, Mode::Adaptive];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Convergent => "convergent",
            Mode::Adaptive => "adaptive",
        }
    }

    /// Span name of a live-profiled run in this mode.
    fn span(self) -> &'static str {
        match self {
            Mode::Full => "tnv.run_full",
            Mode::Convergent => "convergent.run",
            Mode::Adaptive => "phase.run_adaptive",
        }
    }
}

/// The counters a profiler exposes, summed over runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub tnv: TnvEvents,
    pub conv: ConvEvents,
    pub phase: PhaseStats,
}

impl Counters {
    pub fn merge(&mut self, other: &Counters) {
        self.tnv.merge(&other.tnv);
        self.conv.merge(&other.conv);
        self.phase.merge(&other.phase);
    }
}

/// A finished live-profiled run.
struct Profiled {
    outcome: RunOutcome,
    events: u64,
    metrics: Vec<EntityMetrics>,
    counters: Counters,
}

fn instrumenter() -> Instrumenter {
    Instrumenter::new().select(Selection::RegisterDefining)
}

fn run_uninstrumented(case: &Case) -> Result<RunOutcome, SimError> {
    let w = &case.workload;
    Machine::new(w.program().clone(), w.machine_config(case.ds))?.run(BUDGET)
}

fn run_noop(case: &Case) -> Result<u64, SimError> {
    struct Nop;
    impl Analysis for Nop {}
    let w = &case.workload;
    Ok(instrumenter().run(w.program(), w.machine_config(case.ds), BUDGET, &mut Nop)?.counts.total())
}

fn run_mode(case: &Case, mode: Mode) -> Result<Profiled, SimError> {
    let w = &case.workload;
    let cfg = w.machine_config(case.ds);
    let ins = instrumenter();
    let (run, metrics, counters) = match mode {
        Mode::Full => {
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            let run = ins.run(w.program(), cfg, BUDGET, &mut p)?;
            (run, p.metrics(), Counters { tnv: p.tnv_events(), ..Counters::default() })
        }
        Mode::Convergent => {
            let mut p =
                ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
            let run = ins.run(w.program(), cfg, BUDGET, &mut p)?;
            let counters =
                Counters { tnv: p.tnv_events(), conv: p.events(), ..Counters::default() };
            (run, p.metrics(), counters)
        }
        Mode::Adaptive => {
            let mut p = AdaptiveProfiler::new(
                TrackerConfig::default(),
                ConvergentConfig::default(),
                PhaseBudget::default(),
            );
            let run = ins.run(w.program(), cfg, BUDGET, &mut p)?;
            let counters =
                Counters { tnv: p.tnv_events(), conv: p.events(), phase: p.phase_stats() };
            (run, p.metrics(), counters)
        }
    };
    Ok(Profiled { events: run.counts.total(), outcome: run.outcome, metrics, counters })
}

/// Adds every live digest to `table`.
pub fn digests(table: &mut std::collections::BTreeMap<String, u64>) {
    for case in cases() {
        for mode in Mode::ALL {
            let p = run_mode(&case, mode).expect("suite programs run to completion");
            table
                .insert(format!("{}/{}", case.key, mode.name()), check::profile_digest(&p.metrics));
        }
    }
}

/// Timings and counts of one round. Timings are per case, indexed by
/// case, so that each operation's best time can be taken across rounds.
struct Round {
    /// Events delivered to one mode's profiler over all cases.
    events: u64,
    instrs: u64,
    /// Each case's whole turn: its runs and their checks.
    case_ns: Vec<f64>,
    uninstr_ns: Vec<f64>,
    mode_ns: [Vec<f64>; 3],
    /// Traced rounds only: the no-op-analysis runs.
    noop_ns: Vec<f64>,
    /// Latency of each case's four operations, at `4 * case + step`.
    latencies_ms: Vec<f64>,
    counters: [Counters; 3],
}

impl Round {
    fn new(cases: usize) -> Round {
        Round {
            events: 0,
            instrs: 0,
            case_ns: vec![0.0; cases],
            uninstr_ns: vec![0.0; cases],
            mode_ns: [(); 3].map(|()| vec![0.0; cases]),
            noop_ns: vec![0.0; cases],
            latencies_ms: vec![0.0; 4 * cases],
            counters: [Counters::default(); 3],
        }
    }
}

/// Run-wide state the rounds feed.
struct Run<'a> {
    /// Each case with its reference outcome.
    cases: Vec<(Case, RunOutcome)>,
    expected: &'a Expected,
    seed: u64,
    out: Outcome,
    /// Accuracy is deterministic: filled from the first round.
    err: Option<(ErrAcc, ErrAcc)>,
}

impl Run<'_> {
    fn round(&mut self, index: u64, tr: &mut Tracer) -> Round {
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        crate::shuffle(&mut order, &mut crate::rng(self.seed, index));
        let mut round = Round::new(self.cases.len());
        let mut err = self.err.is_none().then(|| (ErrAcc::default(), ErrAcc::default()));
        for (op, &ci) in order.iter().enumerate() {
            let (case, reference) = &self.cases[ci];
            let op = index << 8 | op as u64;
            let case_start = Instant::now();
            let case_span = tr.begin("bench.case", op);

            let t = Instant::now();
            let s = tr.begin("sim.run", op);
            let base = crate::guarded(|| run_uninstrumented(case)).and_then(Result::ok);
            tr.end(s);
            round.uninstr_ns[ci] = t.elapsed().as_nanos() as f64;
            round.latencies_ms[4 * ci] = round.uninstr_ns[ci] / 1e6;
            self.out.op(base.as_ref() == Some(reference));
            if let Some(o) = &base {
                round.instrs += o.instructions;
            }

            let mut noop_ns = 0.0;
            if tr.on() {
                let t = Instant::now();
                let s = tr.begin("runner.run_noop", op);
                let noop = crate::guarded(|| run_noop(case)).and_then(Result::ok);
                tr.end(s);
                noop_ns = t.elapsed().as_nanos() as f64;
                round.noop_ns[ci] = noop_ns;
                self.out.op(noop.is_some());
            }

            let mut full_metrics = None;
            for (mi, mode) in Mode::ALL.into_iter().enumerate() {
                let t = Instant::now();
                let s = tr.begin(mode.span(), op);
                let profiled = crate::guarded(|| run_mode(case, mode)).and_then(Result::ok);
                tr.end(s);
                round.mode_ns[mi][ci] = t.elapsed().as_nanos() as f64;
                let ok = profiled.as_ref().is_some_and(|p| {
                    let key = format!("{}/{}", case.key, mode.name());
                    // Instrumentation must not change what the program does.
                    base.as_ref() == Some(&p.outcome)
                        && verify(tr, op, self.expected, &key, &p.metrics)
                });
                round.latencies_ms[4 * ci + 1 + mi] = t.elapsed().as_nanos() as f64 / 1e6;
                self.out.op(ok);
                let Some(p) = profiled else { continue };
                if mode == Mode::Full {
                    round.events += p.events;
                }
                round.counters[mi].merge(&p.counters);
                match (mode, &mut err) {
                    (Mode::Full, _) => full_metrics = Some(p.metrics),
                    (Mode::Convergent, Some((conv, _))) => {
                        conv.add(full_metrics.as_deref().unwrap_or(&[]), &p.metrics)
                    }
                    (Mode::Adaptive, Some((_, adapt))) => {
                        adapt.add(full_metrics.as_deref().unwrap_or(&[]), &p.metrics)
                    }
                    _ => {}
                }
            }
            tr.end(case_span);
            round.case_ns[ci] = case_start.elapsed().as_nanos() as f64 - noop_ns;
        }
        if err.is_some() {
            self.err = err;
        }
        round
    }
}

/// Renders and digests a profile, then checks it against `key`.
pub fn verify(
    tr: &mut Tracer,
    op: u64,
    expected: &Expected,
    key: &str,
    metrics: &[EntityMetrics],
) -> bool {
    let s = tr.begin("profile_io.render", op);
    let text = vp_core::render_profile(metrics);
    tr.end(s);
    let s = tr.begin("check.digest", op);
    let ok = expected.matches(key, check::digest(&text));
    tr.end(s);
    ok
}

pub fn run(args: &Args, expected: &Expected) -> Outcome {
    let (first_s, cases) = crate::timed(setup);
    let mut run = Run { cases, expected, seed: args.seed, out: Outcome::default(), err: None };
    let phases = crate::run_phases(args, || crate::timed(setup).0, |i, tr| run.round(i, tr));
    let (plain, traced) = (&phases.plain, &phases.traced);
    // Every round runs every case: per-round counts repeat exactly.
    let events = plain[0].events as f64;
    // Value events profiled per second (times are in ns): three profiled
    // runs per case.
    let events_per_s = |rounds: &[Round]| 3e9 * events / best_total(rounds, |r| &r.case_ns);
    let eps = events_per_s(plain);
    if !args.trace {
        let uninstr = best_total(plain, |r| &r.uninstr_ns);
        let overhead =
            [0, 1, 2].map(|mi| (best_total(plain, |r| &r.mode_ns[mi]) - uninstr) / events);
        let ack = crate::ack_of(&best_ops(plain, |r| &r.latencies_ms));
        let v = end_to_end(&phases, first_s, eps, overhead, ack, run.err.unwrap_or_default());
        run.out.emit(false, &v, phases.scale);
        return run.out;
    }

    let uninstr = best_total(traced, |r| &r.uninstr_ns);
    let noop = best_total(traced, |r| &r.noop_ns);
    let modes = [0, 1, 2].map(|mi| best_total(traced, |r| &r.mode_ns[mi]));
    let mut v = Values::new();
    profiler_metrics(
        &mut v,
        "tnv.live_ns_per_event",
        modes.map(|ns| (ns - noop) / events),
        &traced[0].counters,
    );
    v.insert("sim.ns_per_instr", uninstr / traced[0].instrs as f64);
    v.insert("sim.instrs", traced[0].instrs as f64);
    v.insert("runner.dispatch_ns_per_event", (noop - uninstr) / events);
    v.insert("runner.events", events);
    v.insert(
        "profile_io.render_us",
        median(&phases.tracer.durations_ns("profile_io.render")) / 1e3,
    );
    for (mi, name) in ["e12.slowdown_full", "e12.slowdown_convergent", "e12.slowdown_adaptive"]
        .into_iter()
        .enumerate()
    {
        v.insert(name, modes[mi] / uninstr);
    }
    // Spans sit at public call boundaries, so an instrumented run's span
    // also covers the emulation and dispatch beneath it. Split it with
    // the same case's uninstrumented and no-op runs: each of the five
    // runs emulates once and each of the four instrumented ones
    // dispatches once.
    let mut layers = phases.tracer.self_ns_by_layer();
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let (sim, noop) = (get("sim"), get("runner"));
    let split = [
        ("sim", 5.0 * sim),
        ("runner", 4.0 * (noop - sim)),
        ("tnv", get("tnv") - noop),
        ("convergent", get("convergent") - noop),
        ("phase", get("phase") - noop),
    ];
    layers.extend(split);
    crate::insert_shares(&mut v, &layers, phases.traced_wall_ns, (eps, events_per_s(traced)));
    run.out.emit(true, &v, phases.scale);
    run.out
}

/// Inserts the per-event cost of each mode's profiler calls (the
/// full-mode one under `tnv_metric`) and one round's profiler counters.
pub fn profiler_metrics(
    v: &mut Values,
    tnv_metric: &'static str,
    [full, conv, adapt]: [f64; 3],
    c: &[Counters; 3],
) {
    v.insert(tnv_metric, full);
    v.insert("tnv.hits", c[0].tnv.hits as f64);
    v.insert("tnv.inserts", c[0].tnv.inserts as f64);
    v.insert("tnv.evictions", c[0].tnv.evictions as f64);
    v.insert("tnv.hit_ratio", ratio(c[0].tnv.hits as f64, c[0].tnv.observations() as f64));
    v.insert("convergent.ns_per_event", conv);
    v.insert(
        "convergent.profiled_frac",
        ratio(c[1].conv.profiled as f64, (c[1].conv.profiled + c[1].conv.skipped) as f64),
    );
    v.insert("adaptive.ns_per_event", adapt);
    v.insert("adaptive.overhead_vs_convergent", ratio(adapt, conv) - 1.0);
    v.insert("phase.windows", c[2].phase.windows as f64);
    v.insert("phase.rearms", c[2].phase.rearms as f64);
}
