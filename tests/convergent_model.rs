//! The convergent sampling rule, written out straight-line, against
//! `ConvergentProfiler::{new, adaptive}`.
//!
//! The model keeps, per instruction, a plain `ValueTracker` and the rule's
//! state in the open: a burst of `burst` profiled executions, then a
//! stable-check of `Inv-Top(1)` against the previous burst end, a back-off
//! after `stable_checks` stable checks whose skip grows by `backoff` up to
//! `max_skip`, and a resume when the skip runs out. With a phase budget it
//! also runs the window detector (every 8th execution feeds a 4-slot
//! space-saving sketch; a window's signature is its top value and that
//! value's share in sixteenths) and re-arms a backed-off instruction on a
//! shift until its `max_rearms` are spent, after which each further shift
//! is a denial.
//!
//! The profilers must match the model's per-instruction `stats()`,
//! `events()`, `phase_stats()` and `metrics()` exactly, in two settings:
//! one `observe` per event on random interleaved streams of several
//! instructions, and a live, skip-gated `Instrumenter::run` of two suite
//! programs against the model fed their whole value stream.

use std::collections::BTreeMap;

use proptest::prelude::*;
use value_profiling::core::{
    track::TrackerConfig, ConvergentConfig, ConvergentProfiler, ConvergentStats, EntityMetrics,
    PhaseBudget, PhaseStats, ValueTracker, TNV_CAPACITY,
};
use value_profiling::instrument::{Instrumenter, Selection};
use value_profiling::obs::ConvEvents;
use value_profiling::workloads::{DataSet, Workload};
use vp_bench::{value_stream, BUDGET};

/// Executions between two detector samples.
const STRIDE: u64 = 8;
/// Slots of the detector's sketch.
const SKETCH_SLOTS: usize = 4;

/// One instruction's state under the model.
struct Entity {
    tracker: ValueTracker,
    /// Executions left to skip; `None` while profiling.
    skipping: Option<u64>,
    in_burst: u64,
    prev_inv: Option<f64>,
    stable: u32,
    /// The next back-off's skip.
    skip: u64,
    profiled: u64,
    total: u64,
    /// The detector's window: sketch slots, samples taken, the previous
    /// window's `(top value, share16)`, and the re-arms spent.
    sketch: Vec<(u64, u64)>,
    samples: u64,
    prev_sig: Option<(u64, u64)>,
    rearms: u64,
}

struct Model {
    config: ConvergentConfig,
    budget: Option<PhaseBudget>,
    entities: BTreeMap<u32, Entity>,
    events: ConvEvents,
    phase: PhaseStats,
    /// The largest skip any back-off used (to show the cap was reached).
    longest_skip: u64,
}

impl Model {
    fn new(config: ConvergentConfig, budget: Option<PhaseBudget>) -> Model {
        Model {
            config,
            budget,
            entities: BTreeMap::new(),
            events: ConvEvents::default(),
            phase: PhaseStats::default(),
            longest_skip: 0,
        }
    }

    fn observe(&mut self, pc: u32, value: u64) {
        let c = self.config;
        let e = self.entities.entry(pc).or_insert_with(|| Entity {
            tracker: ValueTracker::new(TrackerConfig::default()),
            skipping: None,
            in_burst: 0,
            prev_inv: None,
            stable: 0,
            skip: c.initial_skip,
            profiled: 0,
            total: 0,
            sketch: Vec::new(),
            samples: 0,
            prev_sig: None,
            rearms: 0,
        });
        e.total += 1;

        match e.skipping {
            None => {
                // Profile; at a burst end, check stability and maybe back off.
                e.tracker.observe(value);
                e.profiled += 1;
                self.events.profiled += 1;
                e.in_burst += 1;
                if e.in_burst == c.burst {
                    e.in_burst = 0;
                    let inv = e.tracker.inv_top(1);
                    let stable_now = match e.prev_inv {
                        Some(prev) => (inv - prev).abs() < c.delta,
                        None => false,
                    };
                    e.prev_inv = Some(inv);
                    if !stable_now {
                        e.stable = 0;
                    } else {
                        e.stable += 1;
                        if e.stable >= c.stable_checks {
                            e.stable = 0;
                            // A zero skip never backs off.
                            if e.skip > 0 {
                                e.skipping = Some(e.skip);
                                self.longest_skip = self.longest_skip.max(e.skip);
                                let grown = (e.skip as f64 * c.backoff) as u64;
                                e.skip = grown.min(c.max_skip);
                                self.events.backoffs += 1;
                            }
                        }
                    }
                }
            }
            Some(left) => {
                // Skip; the last skipped execution resumes profiling.
                self.events.skipped += 1;
                if left == 1 {
                    e.skipping = None;
                    e.in_burst = 0;
                    self.events.resumes += 1;
                } else {
                    e.skipping = Some(left - 1);
                }
            }
        }

        let Some(budget) = self.budget else { return };
        // Executions 1, 9, 17, … of the instruction feed the detector.
        if e.total % STRIDE != 1 {
            return;
        }
        match e.sketch.iter().position(|&(v, _)| v == value) {
            Some(i) => {
                e.sketch[i].1 += 1;
                if i > 0 {
                    e.sketch.swap(i, i - 1);
                }
            }
            None if e.sketch.len() < SKETCH_SLOTS => e.sketch.push((value, 1)),
            None => {
                let mut min = 0;
                for i in 1..SKETCH_SLOTS {
                    if e.sketch[i].1 < e.sketch[min].1 {
                        min = i;
                    }
                }
                e.sketch[min] = (value, e.sketch[min].1 + 1);
            }
        }
        e.samples += 1;
        let per_window = budget.window.div_ceil(STRIDE);
        if e.samples < per_window {
            return;
        }
        // The window is complete: its top value (ties to the smaller
        // value) and that value's share, rounded to sixteenths.
        let mut top = e.sketch[0];
        for &(v, n) in &e.sketch[1..] {
            if n > top.1 || (n == top.1 && v < top.0) {
                top = (v, n);
            }
        }
        let share = (top.1.min(per_window) * 16 + per_window / 2) / per_window;
        let sig = (top.0, share);
        let shifted = e.prev_sig.is_some_and(|(prev_top, prev_share)| {
            let majorities = prev_share >= 8 && share >= 8;
            (majorities && prev_top != top.0) || prev_share.abs_diff(share) >= 8
        });
        e.prev_sig = Some(sig);
        e.samples = 0;
        e.sketch.clear();
        self.phase.windows += 1;
        if !shifted {
            return;
        }
        self.phase.shifts_detected += 1;
        if e.skipping.is_none() {
            return;
        }
        if e.rearms < budget.max_rearms {
            // Re-arm: back to a first burst, with the skip ladder reset.
            e.rearms += 1;
            self.phase.rearms += 1;
            e.skipping = None;
            e.in_burst = 0;
            e.prev_inv = None;
            e.stable = 0;
            e.skip = c.initial_skip;
            self.events.resumes += 1;
        } else {
            self.phase.rearms_denied += 1;
        }
    }

    fn stats(&self) -> Vec<ConvergentStats> {
        let stat = |(&index, e): (&u32, &Entity)| ConvergentStats {
            index,
            total: e.total,
            profiled: e.profiled,
        };
        self.entities.iter().map(stat).collect()
    }

    fn metrics(&self) -> Vec<EntityMetrics> {
        let metric = |(&pc, e): (&u32, &Entity)| EntityMetrics {
            executions: e.total,
            ..EntityMetrics::from_tracker(u64::from(pc), &e.tracker, TNV_CAPACITY)
        };
        self.entities.iter().map(metric).collect()
    }
}

fn profiler(config: ConvergentConfig, budget: Option<PhaseBudget>) -> ConvergentProfiler {
    match budget {
        Some(budget) => ConvergentProfiler::adaptive(TrackerConfig::default(), config, budget),
        None => ConvergentProfiler::new(TrackerConfig::default(), config),
    }
}

fn assert_matches(model: &Model, p: &ConvergentProfiler, at: &str) {
    assert_eq!(p.stats(), model.stats(), "{at}: stats");
    assert_eq!(p.events(), model.events, "{at}: events");
    assert_eq!(p.phase_stats(), model.phase, "{at}: phase stats");
    assert_eq!(p.metrics(), model.metrics(), "{at}: metrics");
}

/// A configuration that backs off, caps and re-arms within a few
/// thousand executions per instruction.
fn small_config() -> ConvergentConfig {
    ConvergentConfig {
        burst: 10,
        delta: 0.05,
        stable_checks: 2,
        initial_skip: 50,
        backoff: 2.0,
        max_skip: 400,
    }
}

/// A small window and two re-arms per instruction, so denials happen.
const SMALL_BUDGET: PhaseBudget = PhaseBudget { max_rearms: 2, window: 64 };

/// `segments` of `(length, alphabet, base)`: each segment draws its
/// events' instructions from `0..pcs` and their values from
/// `base * 100 .. base * 100 + alphabet`, so a segment boundary is a
/// phase change.
fn segmented_stream(segments: &[(usize, u64, u64)], pcs: u64, seed: u64) -> Vec<(u32, u64)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::new();
    for &(len, alphabet, base) in segments {
        for _ in 0..len {
            let pc = (next() % pcs) as u32;
            out.push((pc, base * 100 + next() % alphabet));
        }
    }
    out
}

/// Runs the model and both profilers over `stream` one event at a time.
fn check_stream(stream: &[(u32, u64)], config: ConvergentConfig, at: &str) -> Model {
    let mut last = None;
    for budget in [None, Some(SMALL_BUDGET)] {
        let mut model = Model::new(config, budget);
        let mut p = profiler(config, budget);
        for &(pc, value) in stream {
            model.observe(pc, value);
            p.observe(pc, value);
        }
        assert_matches(&model, &p, &format!("{at} budget {budget:?}"));
        last = Some(model);
    }
    last.expect("two runs")
}

#[test]
fn model_reaches_every_branch_of_the_rule() {
    // Long constant phases alternating between two values per
    // instruction: every instruction converges, backs off up to the
    // cap, resumes, re-arms on the flips and then is denied.
    let segments: Vec<(usize, u64, u64)> = (0..24).map(|i| (6_000, 1, i % 2)).collect();
    let stream = segmented_stream(&segments, 3, 7);
    let model = check_stream(&stream, small_config(), "alternating phases");
    assert!(model.events.backoffs > 0 && model.events.resumes > 0, "{:?}", model.events);
    assert_eq!(model.longest_skip, small_config().max_skip, "the skip reaches its cap");
    assert!(model.phase.rearms > 0 && model.phase.rearms_denied > 0, "{:?}", model.phase);
}

proptest! {
    #[test]
    fn profilers_match_the_model_on_random_streams(
        segments in prop::collection::vec((1usize..4_000, 1u64..6, 0u64..3), 1..8),
        pcs in 1u64..6,
        seed in any::<u64>(),
        small in any::<bool>(),
    ) {
        let stream = segmented_stream(&segments, pcs, seed);
        let config = if small { small_config() } else { ConvergentConfig::default() };
        check_stream(&stream, config, &format!("segments {segments:?} pcs {pcs} seed {seed}"));
    }
}

#[test]
fn live_gated_runs_match_the_model() {
    for name in ["compress", "gcc"] {
        let w = Workload::by_name(name).expect("a suite program");
        let stream = value_stream(&w, DataSet::Test, Selection::RegisterDefining);
        for budget in [None, Some(PhaseBudget::default())] {
            let config = ConvergentConfig::default();
            let mut model = Model::new(config, budget);
            stream.iter().for_each(|&(pc, value)| model.observe(pc, value));
            let mut live = profiler(config, budget);
            Instrumenter::new()
                .select(Selection::RegisterDefining)
                .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut live)
                .expect("the program runs");
            assert!(model.events.skipped > 0, "{name}: the gate has executions to drop");
            assert_matches(&model, &live, &format!("{name} live, budget {budget:?}"));
        }
    }
}
