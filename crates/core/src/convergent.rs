//! The convergent ("intelligent") sampling profiler.
//!
//! Full value profiling runs analysis code at every instruction, which the
//! paper measured as a substantial slowdown. Its remedy: profile each
//! instruction in *bursts*; once an instruction's invariance stops changing
//! between bursts (it has **converged**), back off — skip a geometrically
//! growing number of executions before the next burst. Unconverged
//! instructions keep being profiled at full rate.
//!
//! The profiler reports exactly how many executions it profiled versus how
//! many occurred, which is the machine-independent overhead measure of
//! experiment E7, and its trackers yield the same metrics as the full
//! profiler so accuracy can be compared side by side.
//!
//! With a phase budget armed ([`ConvergentProfiler::adaptive`]) the same
//! profiler is the engine's adaptive mode: a detected shift re-arms a
//! backed-off instruction (see [`crate::phase`]).

use vp_instrument::Analysis;
use vp_obs::{ConvEvents, TnvEvents};

use crate::arena::EntityMap;
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::phase::{Detector, PhaseBudget, PhaseStats, SKETCH_STRIDE};
use crate::track::{TrackerConfig, ValueTracker};

/// Tuning of the convergent profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergentConfig {
    /// Executions profiled per burst before checking convergence.
    pub burst: u64,
    /// Maximum absolute change of `Inv-Top(1)` between consecutive burst
    /// ends for the instruction to be considered stable.
    pub delta: f64,
    /// Consecutive stable checks required before backing off.
    pub stable_checks: u32,
    /// Executions skipped after the first convergence.
    pub initial_skip: u64,
    /// Skip-interval growth factor applied at each re-convergence.
    pub backoff: f64,
    /// Upper bound on the skip interval.
    pub max_skip: u64,
}

impl Default for ConvergentConfig {
    /// The defaults used by the reproduction's experiments: 200-execution
    /// bursts, 1% invariance delta, two stable checks, skips growing 4x
    /// from 2 000 up to 256 000 executions.
    fn default() -> Self {
        ConvergentConfig {
            burst: 200,
            delta: 0.01,
            stable_checks: 2,
            initial_skip: 2_000,
            backoff: 4.0,
            max_skip: 256_000,
        }
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Profiling a burst; counts executions profiled in the burst so far.
    Profiling { in_burst: u64 },
    /// Skipping; counts executions remaining to skip.
    Skipping { remaining: u64 },
}

#[derive(Debug, Clone)]
struct ConvState {
    tracker: ValueTracker,
    phase: Phase,
    prev_inv: Option<f64>,
    stable: u32,
    skip: u64,
    profiled: u64,
    total: u64,
    /// Phase detector, armed only on adaptive profilers.
    detect: Option<Detector>,
}

impl ConvState {
    fn new(config: TrackerConfig, initial_skip: u64, adaptive: bool) -> ConvState {
        ConvState {
            tracker: ValueTracker::new(config),
            phase: Phase::Profiling { in_burst: 0 },
            prev_inv: None,
            stable: 0,
            skip: initial_skip,
            profiled: 0,
            total: 0,
            detect: adaptive.then(Detector::default),
        }
    }
}

/// Per-instruction overhead/accuracy summary of a convergent run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergentStats {
    /// Instruction index.
    pub index: u32,
    /// Executions observed (profiled or skipped).
    pub total: u64,
    /// Executions actually profiled into the TNV table.
    pub profiled: u64,
}

impl ConvergentStats {
    /// Fraction of executions profiled, in `\[0, 1\]`.
    pub fn profile_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.profiled as f64 / self.total as f64
        }
    }
}

/// The convergent sampling profiler (an [`Analysis`]).
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_core::convergent::{ConvergentConfig, ConvergentProfiler};
/// use vp_core::track::TrackerConfig;
/// use vp_instrument::{Instrumenter, Selection};
/// use vp_sim::MachineConfig;
///
/// // A long loop producing a constant value converges almost immediately.
/// let program = vp_asm::assemble(
///     ".text\nmain: li r9, 30000\nloop: addi r2, r0, 7\n addi r9, r9, -1\n bnz r9, loop\n sys exit\n",
/// )?;
/// let mut profiler = ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
/// Instrumenter::new()
///     .select(Selection::RegisterDefining)
///     .run(&program, MachineConfig::new(), 1_000_000, &mut profiler)?;
/// let constant = profiler.stats().into_iter().find(|s| s.index == 1).unwrap();
/// assert!(constant.profile_fraction() < 0.2, "converged instruction should be mostly skipped");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConvergentProfiler {
    tracker_config: TrackerConfig,
    config: ConvergentConfig,
    /// Phase-detection budget; `Some` arms the adaptive re-arm machinery.
    budget: Option<PhaseBudget>,
    /// `ceil(budget.window / SKETCH_STRIDE)`, precomputed so the
    /// detector's window bookkeeping never divides (0 when unarmed).
    samples_per_window: u64,
    phase_stats: PhaseStats,
    states: EntityMap<u32, ConvState>,
    events: ConvEvents,
}

impl ConvergentProfiler {
    /// Creates a convergent profiler.
    ///
    /// # Panics
    ///
    /// Panics if `config.burst` is 0 or `config.backoff < 1.0`.
    pub fn new(tracker_config: TrackerConfig, config: ConvergentConfig) -> ConvergentProfiler {
        assert!(config.burst > 0, "burst must be positive");
        assert!(config.backoff >= 1.0, "backoff must be >= 1");
        ConvergentProfiler {
            tracker_config,
            config,
            budget: None,
            samples_per_window: 0,
            phase_stats: PhaseStats::default(),
            states: EntityMap::default(),
            events: ConvEvents::default(),
        }
    }

    /// Creates a convergent profiler with phase detection armed: each
    /// instruction's value stream is cut into `budget.window`-execution
    /// windows, and a signature shift while the instruction is backed
    /// off re-arms its sampling state machine (at most
    /// `budget.max_rearms` times per instruction). This is the profiler
    /// behind [`ProfileMode::Adaptive`](crate::engine::ProfileMode::Adaptive).
    ///
    /// On streams where the detector never flags a shift it is
    /// bit-identical to [`new`](Self::new): the detector observes but
    /// never touches the sampling state machine.
    ///
    /// ```
    /// use vp_core::convergent::{ConvergentConfig, ConvergentProfiler};
    /// use vp_core::phase::PhaseBudget;
    /// use vp_core::track::TrackerConfig;
    ///
    /// let budget = PhaseBudget { max_rearms: 8, window: 64 };
    /// let mut p =
    ///     ConvergentProfiler::adaptive(TrackerConfig::default(), ConvergentConfig::default(), budget);
    /// for i in 0..10_000u64 {
    ///     // Dominant value flips halfway through: a phase change.
    ///     p.observe(0, if i < 5_000 { 7 } else { 9 });
    /// }
    /// assert!(p.phase_stats().shifts_detected > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `budget.window` is 0, plus the [`new`](Self::new) checks.
    pub fn adaptive(
        tracker_config: TrackerConfig,
        config: ConvergentConfig,
        budget: PhaseBudget,
    ) -> ConvergentProfiler {
        assert!(budget.window > 0, "phase window must be positive");
        let mut p = ConvergentProfiler::new(tracker_config, config);
        p.budget = Some(budget);
        p.samples_per_window = budget.window.div_ceil(SKETCH_STRIDE);
        p
    }

    /// The phase-detection budget, when armed.
    pub fn phase_budget(&self) -> Option<PhaseBudget> {
        self.budget
    }

    /// Exact phase-detector counters, summed over all instructions
    /// (all-zero when detection is unarmed).
    pub fn phase_stats(&self) -> PhaseStats {
        self.phase_stats
    }

    /// Whether one instruction is currently backed off (skipping).
    pub fn is_backed_off(&self, index: u32) -> bool {
        self.states.get(&index).is_some_and(|s| matches!(s.phase, Phase::Skipping { .. }))
    }

    /// Re-arms one instruction's sampling state machine: back to burst
    /// profiling with a fresh convergence history and the skip ladder
    /// reset to `initial_skip`, as if the instruction were new — except
    /// its tracker and profiled/total counters are kept, so
    /// [`metrics`](Self::metrics) still reweights `executions` to the
    /// true totals across the re-arm. Returns whether the instruction
    /// existed and was backed off (a resume is recorded only then).
    pub fn rearm(&mut self, index: u32) -> bool {
        let Some(state) = self.states.get_mut(&index) else { return false };
        let was_backed_off = matches!(state.phase, Phase::Skipping { .. });
        state.phase = Phase::Profiling { in_burst: 0 };
        state.prev_inv = None;
        state.stable = 0;
        state.skip = self.config.initial_skip;
        if was_backed_off {
            self.events.resumes += 1;
        }
        was_backed_off
    }

    /// Self-profiling state-machine events: back-off transitions, resumes
    /// and the profiled/skipped split (`profiled + skipped` equals the
    /// total executions seen).
    pub fn events(&self) -> ConvEvents {
        self.events
    }

    /// Summed TNV-table events across all instruction trackers.
    pub fn tnv_events(&self) -> TnvEvents {
        let mut out = TnvEvents::default();
        for state in self.states.values() {
            out.merge(&state.tracker.tnv_events());
        }
        out
    }

    /// The sampler configuration.
    pub fn config(&self) -> ConvergentConfig {
        self.config
    }

    /// Metric snapshots from the (sampled) trackers, ordered by index,
    /// with execution counts reweighted to the *true* totals each
    /// instruction had — the same convention as
    /// [`SampledProfiler::metrics`](crate::sampled::SampledProfiler::metrics),
    /// so these rows are directly comparable to (and mixable with) a full
    /// profiler's. Profiled-only counts remain available via
    /// [`stats`](ConvergentProfiler::stats).
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        let mut out: Vec<EntityMetrics> = self
            .states
            .iter()
            .map(|(&i, s)| {
                let mut m = EntityMetrics::from_tracker(
                    u64::from(i),
                    &s.tracker,
                    self.tracker_config.capacity,
                );
                m.executions = s.total;
                m
            })
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Execution-weighted aggregate over sampled trackers, weighted by the
    /// *total* executions each instruction had (so the aggregate is
    /// comparable to a full profile's).
    pub fn aggregate(&self) -> Aggregate {
        aggregate(&self.metrics())
    }

    /// Per-instruction overhead statistics, ordered by index.
    pub fn stats(&self) -> Vec<ConvergentStats> {
        let mut out: Vec<ConvergentStats> = self
            .states
            .iter()
            .map(|(&index, s)| ConvergentStats { index, total: s.total, profiled: s.profiled })
            .collect();
        out.sort_by_key(|s| s.index);
        out
    }

    /// Overall fraction of executions profiled (the headline overhead
    /// reduction of experiment E7).
    pub fn overall_profile_fraction(&self) -> f64 {
        let total: u64 = self.states.values().map(|s| s.total).sum();
        let profiled: u64 = self.states.values().map(|s| s.profiled).sum();
        if total == 0 {
            0.0
        } else {
            profiled as f64 / total as f64
        }
    }

    /// The sampled tracker of one instruction.
    pub fn tracker(&self, index: u32) -> Option<&ValueTracker> {
        self.states.get(&index).map(|s| &s.tracker)
    }

    /// Feeds one `(instruction, value)` event directly — the trace-replay
    /// entry point; the [`Analysis`] callback delegates here. The state
    /// machine is entirely per-instruction, so each instruction's result
    /// depends only on its own value subsequence, not on how subsequences
    /// of *different* instructions interleave.
    pub fn observe(&mut self, index: u32, value: u64) {
        let config = self.config;
        let state = self.states.entry(index).or_insert_with(|| {
            ConvState::new(self.tracker_config, config.initial_skip, self.budget.is_some())
        });
        let total = state.total + 1;
        state.total = total;
        match state.phase {
            Phase::Profiling { ref mut in_burst } => {
                state.tracker.observe(value);
                state.profiled += 1;
                self.events.profiled += 1;
                *in_burst += 1;
                if *in_burst >= config.burst {
                    *in_burst = 0;
                    let inv = state.tracker.inv_top(1);
                    let stable_now =
                        state.prev_inv.is_some_and(|prev| (inv - prev).abs() < config.delta);
                    state.prev_inv = Some(inv);
                    if stable_now {
                        state.stable += 1;
                        if state.stable >= config.stable_checks {
                            state.stable = 0;
                            // A zero skip interval (initial_skip: 0) means
                            // "never back off": entering the skipping phase
                            // with 0 remaining would underflow below, so
                            // keep profiling instead.
                            if state.skip > 0 {
                                state.phase = Phase::Skipping { remaining: state.skip };
                                let next = (state.skip as f64 * config.backoff) as u64;
                                state.skip = next.min(config.max_skip);
                                self.events.backoffs += 1;
                            }
                        }
                    } else {
                        state.stable = 0;
                    }
                }
            }
            Phase::Skipping { ref mut remaining } => {
                *remaining -= 1;
                self.events.skipped += 1;
                if *remaining == 0 {
                    state.phase = Phase::Profiling { in_burst: 0 };
                    self.events.resumes += 1;
                }
            }
        }
        // The phase detector samples every SKETCH_STRIDE-th execution —
        // including skipped ones, which is the whole point: it watches
        // for distribution shifts the backed-off sampler is blind to.
        // Gating on the execution counter the state machine already
        // maintains (`total` is 1 on the first, i.e. 0th-position,
        // execution) keeps the common path to one mask-and-branch on a
        // register-resident value; all detector work hides behind it.
        if total & (SKETCH_STRIDE - 1) == 1 {
            if let (Some(budget), Some(det)) = (self.budget, state.detect.as_mut()) {
                if let Some(shift) = det.sample(value, self.samples_per_window) {
                    self.phase_stats.windows += 1;
                    if shift {
                        self.phase_stats.shifts_detected += 1;
                        if matches!(state.phase, Phase::Skipping { .. }) {
                            if det.rearms < budget.max_rearms {
                                det.rearms += 1;
                                self.phase_stats.rearms += 1;
                                // Re-arm: same reset as `rearm`, inlined
                                // here because `state` is already borrowed.
                                state.phase = Phase::Profiling { in_burst: 0 };
                                state.prev_inv = None;
                                state.stable = 0;
                                state.skip = config.initial_skip;
                                self.events.resumes += 1;
                            } else {
                                self.phase_stats.rearms_denied += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Feeds a batch of `(instruction, value)` events in stream order.
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        for &(index, value) in events {
            self.observe(index, value);
        }
    }
}

impl Analysis for ConvergentProfiler {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        self.observe_batch(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(profiler: &mut ConvergentProfiler, index: u32, values: impl Iterator<Item = u64>) {
        // Drive the state machine through the runner's value-stream entry.
        let events: Vec<(u32, u64)> = values.map(|value| (index, value)).collect();
        profiler.observe_values(&events);
    }

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

    #[test]
    fn constant_stream_converges_and_skips() {
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 10_000));
        let stats = &p.stats()[0];
        assert_eq!(stats.total, 10_000);
        // Must have skipped the overwhelming majority.
        assert!(stats.profile_fraction() < 0.1, "fraction {}", stats.profile_fraction());
        // And the sampled profile still reports full invariance.
        let m = &p.metrics()[0];
        assert!((m.inv_top1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_stream_never_converges_fully() {
        // Invariance of a uniform-random stream keeps drifting early on but
        // eventually settles near zero, so backoff happens late: the
        // profiled fraction stays well above the constant-stream case.
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        let mut seed = 0x9e3779b97f4a7c15u64;
        let values = std::iter::repeat_with(move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        })
        .take(10_000);
        feed(&mut p, 3, values);

        let mut q = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut q, 3, std::iter::repeat_n(7, 10_000));
        assert!(
            p.stats()[0].profiled >= q.stats()[0].profiled,
            "random stream should be profiled at least as much as a constant one"
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = ConvergentConfig { max_skip: 100, ..small_config() };
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), cfg);
        feed(&mut p, 0, std::iter::repeat_n(1, 50_000));
        let s = &p.states[&0];
        assert_eq!(s.skip, 100, "skip should cap at max_skip");
    }

    #[test]
    fn phase_change_reawakens_profiling() {
        // Converge on value A, then switch to value B: the periodic
        // re-profiling bursts must pick up the new value.
        let cfg = small_config();
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), cfg);
        let stream = std::iter::repeat_n(1, 5_000).chain(std::iter::repeat_n(2, 200_000));
        feed(&mut p, 0, stream);
        let tnv = p.tracker(0).unwrap().tnv();
        assert_eq!(tnv.top_value(), Some(2), "new dominant value must surface: {tnv}");
    }

    #[test]
    fn overall_fraction_mixes_instructions() {
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 10_000));
        feed(&mut p, 1, (0..100u64).cycle().take(10_000));
        let f = p.overall_profile_fraction();
        assert!(f > 0.0 && f < 1.0);
        assert_eq!(p.stats().len(), 2);
    }

    #[test]
    fn aggregate_reweights_by_total() {
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 10_000));
        let agg = p.aggregate();
        assert_eq!(agg.executions, 10_000);
        assert!((agg.inv_top1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_initial_skip_profiles_everything() {
        // Regression: initial_skip 0 used to enter Skipping { remaining: 0 }
        // and underflow `remaining -= 1` (debug panic; release wrap that
        // silenced the profiler for ~u64::MAX executions). It now means
        // "never back off".
        let cfg = ConvergentConfig { initial_skip: 0, ..small_config() };
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), cfg);
        feed(&mut p, 0, std::iter::repeat_n(7, 5_000));
        let stats = &p.stats()[0];
        assert_eq!(stats.total, 5_000);
        assert_eq!(stats.profiled, 5_000, "zero skip interval disables backoff");
        assert!((stats.profile_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn positive_initial_skip_still_backs_off() {
        // The guard must not change the normal path.
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 5_000));
        assert!(p.stats()[0].profile_fraction() < 0.5);
    }

    #[test]
    fn metrics_reweight_to_true_totals() {
        // Regression: metrics() used to report profiled-only execution
        // counts while SampledProfiler::metrics() reported true totals,
        // silently mixing conventions in downstream reports.
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 10_000));
        let m = &p.metrics()[0];
        let s = &p.stats()[0];
        assert_eq!(m.executions, 10_000, "metrics carry true totals");
        assert!(s.profiled < s.total, "while profiling skipped most executions");
    }

    #[test]
    fn rearm_resets_machine_and_reweights_to_true_totals() {
        // Regression guard on the re-arm seam: after converging, backing
        // off and re-arming, metrics() must still reweight `executions`
        // to the true totals (the convention tests/pipeline.rs asserts),
        // and the re-armed burst must profile the new phase.
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 5_000));
        assert!(p.is_backed_off(0), "constant stream must back off");
        let profiled_before = p.stats()[0].profiled;
        assert!(p.rearm(0), "re-arming a backed-off instruction reports true");
        assert!(!p.is_backed_off(0));
        feed(&mut p, 0, std::iter::repeat_n(9, 5_000));
        let m = &p.metrics()[0];
        let s = &p.stats()[0];
        assert_eq!(m.executions, 10_000, "metrics reweight to true totals across a re-arm");
        assert!(s.profiled > profiled_before, "re-armed instruction profiles again");
        assert!(s.profiled < s.total, "and still backs off afterwards");
        let tnv = p.tracker(0).unwrap().tnv();
        assert!(tnv.entries().iter().any(|e| e.value == 9), "new phase surfaces: {tnv}");
        assert!(!p.rearm(42), "unknown instruction is a no-op");
    }

    #[test]
    fn events_track_state_machine() {
        let mut p = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        feed(&mut p, 0, std::iter::repeat_n(7, 10_000));
        let ev = p.events();
        let stats = &p.stats()[0];
        assert_eq!(ev.profiled, stats.profiled);
        assert_eq!(ev.skipped, stats.total - stats.profiled);
        assert!(ev.backoffs > 0, "constant stream must back off");
        assert!(ev.resumes > 0 && ev.resumes <= ev.backoffs);
        assert_eq!(p.tnv_events().observations(), ev.profiled);
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn zero_burst_panics() {
        let _ = ConvergentProfiler::new(
            TrackerConfig::default(),
            ConvergentConfig { burst: 0, ..ConvergentConfig::default() },
        );
    }
}
