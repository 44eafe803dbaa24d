//! Phase detection and the adaptive convergent profiler.
//!
//! The convergent profiler (paper §IV) backs off geometrically once an
//! instruction converges, so a *phase change* after convergence — the
//! dominant value of an instruction switching, a working set rotating —
//! is mostly invisible: the profiler samples the new behaviour only at
//! its sparse re-profiling bursts, and its skip ladder never shrinks.
//!
//! This module closes that gap. Each instruction's value stream is cut
//! into fixed-size **windows** (counted in that instruction's own
//! executions, so the scheme is clock-free and independent of how
//! streams of different instructions interleave). A small top-k sketch,
//! fed by a strided subsample of the stream to keep per-event cost off
//! the hot path, summarises every window into a [`WindowSig`]
//! signature; when the
//! signature of consecutive windows changes — a majority value flips,
//! or the dominant share of the window moves by at least half the
//! quantisation scale — a **shift** is flagged. A shift while the instruction is
//! backed off *re-arms* it: the sampling state machine returns to burst
//! profiling with a fresh convergence history and the skip ladder reset
//! to `initial_skip`, bounded by a per-instruction re-arm budget so an
//! adversarially noisy stream cannot force unbounded re-profiling.
//!
//! Everything is deterministic: no clocks, no randomness, all state per
//! instruction, and [`PhaseStats`] counters are exact sums of
//! per-instruction events.
//!
//! The adaptive profiler itself is [`ConvergentProfiler::adaptive`]: the
//! convergent profiler with a [`PhaseBudget`] armed. This module holds
//! the detector it runs per instruction, the budget and the counters.
//! [`AdaptiveProfiler`] is a forwarding wrapper kept only for the
//! repository benchmark.

use vp_instrument::Analysis;
use vp_obs::{ConvEvents, TnvEvents};

use crate::convergent::{ConvergentConfig, ConvergentProfiler};
use crate::metrics::EntityMetrics;
use crate::track::TrackerConfig;

/// Number of distinct values the per-window sketch tracks.
const SKETCH_K: usize = 4;

/// Detector sampling stride: only every `SKETCH_STRIDE`-th execution of
/// an instruction feeds the sketch (0-based stream positions 0, 8, 16, …
/// of that instruction — a pure per-entity function of the stream). The
/// profiler gates on the per-instruction execution counter it already
/// maintains, so on the other `SKETCH_STRIDE - 1` executions the
/// detector costs one mask-and-branch on a register-resident value;
/// that gate bounds the adaptive profiler's overhead over the stock
/// convergent profiler. A 1 024-event window still sees 128 samples —
/// ample to call a majority (and few enough that the space-saving
/// sketch's `samples / SKETCH_K` count inflation keeps heavy-tailed
/// windows below the [`TOP_MAJORITY`] trust floor; see there). Windows
/// advance in whole strides: a window spans
/// `ceil(window / SKETCH_STRIDE)` samples, i.e. exactly `window`
/// executions when `window` is a multiple of the stride, and the next
/// multiple of the stride otherwise. Must be a power of two (the gate
/// is a mask).
pub(crate) const SKETCH_STRIDE: u64 = 8;

/// Quantisation scale of a window's dominant-value share (`share16` runs
/// 0..=16); a share move of at least half the scale counts as a shift.
const SHARE_SCALE: u64 = 16;

/// Minimum quantised share for a window's top value to take part in the
/// shift rule: a majority (≥ 8/16). The space-saving sketch inflates
/// counts by up to `samples / SKETCH_K` through slot inheritance, so on a
/// diffuse window (no true majority) the reported top can be an artefact
/// of slot churn — two consecutive heavy-tailed windows may flip tops
/// without any distribution change. Majority tops are immune: a sketch
/// count above `window / 2` exceeds every other value's true count plus
/// the maximum inflation, so it identifies the true dominant value.
/// Below the floor the signature degrades to its share component alone.
const TOP_MAJORITY: u8 = (SHARE_SCALE / 2) as u8;

/// Re-profile budget of the adaptive profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseBudget {
    /// Maximum re-arms per instruction; once exhausted further shifts are
    /// counted as denied and the instruction stays backed off.
    pub max_rearms: u64,
    /// Window length in per-instruction executions over which signatures
    /// are computed. Must be positive.
    pub window: u64,
}

impl Default for PhaseBudget {
    /// 1 024-execution windows, at most 16 re-arms per instruction.
    fn default() -> Self {
        PhaseBudget { max_rearms: 16, window: 1_024 }
    }
}

/// Exact counters of the phase detector, summed over all instructions.
///
/// They travel as [`ProfilerStats::Phase`](crate::ProfilerStats::Phase)
/// into telemetry and `vprof stats`, only when adaptive
/// profiling is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Signature windows completed.
    pub windows: u64,
    /// Consecutive-window signature changes flagged.
    pub shifts_detected: u64,
    /// Re-arms performed (shift while backed off, budget available).
    pub rearms: u64,
    /// Re-arms denied because the instruction's budget was exhausted.
    pub rearms_denied: u64,
}

impl PhaseStats {
    /// Sums another detector's counters into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.windows += other.windows;
        self.shifts_detected += other.shifts_detected;
        self.rearms += other.rearms;
        self.rearms_denied += other.rearms_denied;
    }
}

/// Signature of one completed window of an instruction's value stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSig {
    /// Dominant value of the window per the top-k sketch (count ties
    /// break towards the smaller value, so the signature is a pure
    /// function of the window's multiset). Only trusted by the shift
    /// rule when `share16` reports a majority — a space-saving sketch's
    /// top is exact for majority values but can be slot-churn noise on
    /// diffuse windows.
    pub top_value: u64,
    /// Dominant value's share of the window's sampled observations,
    /// quantised to 0..=16.
    pub share16: u8,
}

/// The shift-detection rule: consecutive windows shifted when the
/// dominant value changed while holding a majority in both windows, or
/// when its share moved by at least half the quantisation scale.
///
/// The majority guard keeps diffuse windows (no value above half the
/// window) from flagging shifts on sketch noise alone — there the top
/// reported by the space-saving sketch is not trustworthy (see
/// [`WindowSig::top_value`]), but large concentration changes still
/// register through the share component.
pub fn shifted(prev: &WindowSig, next: &WindowSig) -> bool {
    let top_trusted = prev.share16 >= TOP_MAJORITY && next.share16 >= TOP_MAJORITY;
    (top_trusted && prev.top_value != next.top_value)
        || prev.share16.abs_diff(next.share16) >= (SHARE_SCALE / 2) as u8
}

/// Quantises a dominant-value share to the signature scale (rounded).
pub(crate) fn quantize_share(top: u64, window: u64) -> u8 {
    debug_assert!(window > 0);
    let top = top.min(window);
    ((top * SHARE_SCALE + window / 2) / window) as u8
}

/// Space-saving top-k sketch of the current window's values.
///
/// Hits increment; misses displace the smallest counter, inheriting its
/// count plus one. Deterministic: scan order is slot order and ties on
/// the read side break towards the smaller value.
#[derive(Debug, Clone, Default)]
struct Sketch {
    entries: [(u64, u64); SKETCH_K],
    len: usize,
}

impl Sketch {
    #[inline]
    fn observe(&mut self, value: u64) {
        // Fast path: the dominant value gravitates to slot 0 via the
        // transpose below, so on skewed streams (the common case) this
        // is a single compare — this path runs on every sampled
        // observation, including ones the profiler skips, so it sets
        // the sampled-position cost of the adaptive profiler.
        if self.len > 0 && self.entries[0].0 == value {
            self.entries[0].1 += 1;
            return;
        }
        for i in 1..self.len {
            if self.entries[i].0 == value {
                self.entries[i].1 += 1;
                // Transpose towards the front: hot values bubble up, so
                // the next hit on them is cheaper. Deterministic — the
                // layout is a pure function of the window's sequence.
                self.entries.swap(i, i - 1);
                return;
            }
        }
        if self.len < SKETCH_K {
            self.entries[self.len] = (value, 1);
            self.len += 1;
            return;
        }
        let mut min = 0;
        for i in 1..SKETCH_K {
            if self.entries[i].1 < self.entries[min].1 {
                min = i;
            }
        }
        self.entries[min] = (value, self.entries[min].1 + 1);
    }

    /// Dominant `(value, count)`; count ties break to the smaller value.
    fn top(&self) -> Option<(u64, u64)> {
        let mut best: Option<(u64, u64)> = None;
        for &(value, count) in &self.entries[..self.len] {
            best = match best {
                None => Some((value, count)),
                Some((bv, bc)) if count > bc || (count == bc && value < bv) => Some((value, count)),
                keep => keep,
            };
        }
        best
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Per-instruction detector state: the in-progress window sketch, the
/// previous window's signature, and the re-arm budget already spent.
///
/// The detector is *sample*-driven: the profiler forwards only every
/// [`SKETCH_STRIDE`]-th execution (gated on the per-instruction
/// execution counter it already maintains), so the detector itself
/// keeps no per-event state and adds nothing to the non-sampled path.
#[derive(Debug, Clone, Default)]
pub(crate) struct Detector {
    sketch: Sketch,
    /// Samples accumulated into the current window's sketch.
    samples: u64,
    prev: Option<WindowSig>,
    /// Re-arms this instruction has consumed from its budget.
    pub(crate) rearms: u64,
}

impl Detector {
    /// Feeds one *sampled* value. Returns `Some(shifted)` when this
    /// sample completes a window of `samples_per_window` samples
    /// (`shifted` is false for the first window, which has no
    /// predecessor to compare against), `None` otherwise.
    ///
    /// `samples_per_window` is `ceil(window / SKETCH_STRIDE)`,
    /// precomputed by the profiler so the hot path never divides.
    ///
    /// Deliberately not inlined: this runs on 1 in [`SKETCH_STRIDE`]
    /// executions, and keeping its body out of the profiler's `observe`
    /// keeps that hot function small (register allocation there is what
    /// the adaptive-overhead bench measures).
    #[inline(never)]
    pub(crate) fn sample(&mut self, value: u64, samples_per_window: u64) -> Option<bool> {
        self.sketch.observe(value);
        self.samples += 1;
        if self.samples < samples_per_window {
            return None;
        }
        let (top_value, count) = self.sketch.top().expect("completed window is non-empty");
        let sig = WindowSig { top_value, share16: quantize_share(count, samples_per_window) };
        let is_shift = self.prev.as_ref().is_some_and(|prev| shifted(prev, &sig));
        self.prev = Some(sig);
        self.samples = 0;
        self.sketch.clear();
        Some(is_shift)
    }
}

/// A forwarding wrapper around [`ConvergentProfiler::adaptive`], the
/// adaptive profiler every product path builds (through
/// [`ProfileMode::Adaptive`](crate::engine::ProfileMode::Adaptive)).
///
/// Only the repository benchmark (`perfbench/`) still builds one, and it
/// is kept to the surface that benchmark calls. It goes once the
/// benchmark builds [`ConvergentProfiler::adaptive`] itself (ROADMAP
/// item 1).
#[derive(Debug, Clone)]
pub struct AdaptiveProfiler {
    inner: ConvergentProfiler,
}

impl AdaptiveProfiler {
    /// Creates an adaptive profiler (see [`ConvergentProfiler::adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget.window` is 0, or on an invalid `config` (see
    /// [`ConvergentProfiler::new`]).
    pub fn new(
        tracker_config: TrackerConfig,
        config: ConvergentConfig,
        budget: PhaseBudget,
    ) -> AdaptiveProfiler {
        AdaptiveProfiler { inner: ConvergentProfiler::adaptive(tracker_config, config, budget) }
    }

    /// See [`ConvergentProfiler::phase_stats`].
    pub fn phase_stats(&self) -> PhaseStats {
        self.inner.phase_stats()
    }

    /// See [`ConvergentProfiler::events`].
    pub fn events(&self) -> ConvEvents {
        self.inner.events()
    }

    /// See [`ConvergentProfiler::tnv_events`].
    pub fn tnv_events(&self) -> TnvEvents {
        self.inner.tnv_events()
    }

    /// See [`ConvergentProfiler::metrics`].
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        self.inner.metrics()
    }

    /// See [`ConvergentProfiler::observe_batch`].
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        self.inner.observe_batch(events);
    }
}

impl Analysis for AdaptiveProfiler {
    const VALUE_STREAM: bool = true;
    const SKIP_GATE: bool = <ConvergentProfiler as Analysis>::SKIP_GATE;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        self.inner.observe_values(events);
    }

    fn request_skips(&mut self, skip: &mut [u32]) {
        self.inner.request_skips(skip);
    }

    fn return_skips(&mut self, unconsumed: &[u32]) {
        self.inner.return_skips(unconsumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn small_budget() -> PhaseBudget {
        PhaseBudget { max_rearms: 16, window: 64 }
    }

    fn oscillating(values: &[u64], period: u64, len: u64) -> impl Iterator<Item = u64> + '_ {
        (0..len).map(move |i| values[((i / period) as usize) % values.len()])
    }

    #[test]
    fn sketch_is_deterministic_and_tie_breaks_to_smaller_value() {
        let mut s = Sketch::default();
        for v in [5, 3, 5, 3, 9, 9] {
            s.observe(v);
        }
        assert_eq!(s.top(), Some((3, 2)), "tie on count breaks to smaller value");
        s.observe(5);
        assert_eq!(s.top(), Some((5, 3)));
    }

    #[test]
    fn sketch_displaces_minimum_when_full() {
        let mut s = Sketch::default();
        for v in [1, 1, 1, 2, 3, 4] {
            s.observe(v);
        }
        // 5 misses: displaces one of the count-1 slots, inheriting 2.
        s.observe(5);
        assert_eq!(s.top(), Some((1, 3)));
        assert!(s.entries[..s.len].iter().any(|&(v, c)| v == 5 && c == 2));
    }

    /// Feeds sample values straight into a detector (the profiler's
    /// stride gate is exercised separately at the profiler level).
    fn drive(d: &mut Detector, samples_per_window: u64, values: &[u64]) -> Vec<bool> {
        values.iter().filter_map(|&v| d.sample(v, samples_per_window)).collect()
    }

    #[test]
    fn detector_windows_and_shift_rule() {
        let mut d = Detector::default();
        let samples: Vec<u64> =
            std::iter::repeat_n(7u64, 16).chain(std::iter::repeat_n(9, 8)).collect();
        let completions = drive(&mut d, 8, &samples);
        assert_eq!(completions, vec![false, false, true], "dominant flip is a shift");
    }

    #[test]
    fn share_collapse_without_top_change_is_a_shift() {
        // Window 1: all 7s (share16 = 16). Window 2: 7 dominant only by a
        // hair (share16 ~ 5) — same top value, share moved >= 8.
        let mut d = Detector::default();
        let mut samples = vec![7u64; 16 + 5];
        samples.extend([1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
        let completions = drive(&mut d, 16, &samples);
        assert_eq!(completions, vec![false, true]);
    }

    #[test]
    fn diffuse_windows_do_not_shift_on_sketch_noise() {
        // Two consecutive windows of disjoint near-uniform values: the
        // sketch's reported tops differ, but no value holds a majority,
        // so the top comparison is suppressed and the (equally diffuse)
        // shares do not move — no shift.
        let mut d = Detector::default();
        let samples: Vec<u64> = (0u64..16).chain(100..116).collect();
        let completions = drive(&mut d, 16, &samples);
        assert_eq!(completions, vec![false, false], "sketch churn is not a phase");
        // A majority flip between the same kinds of windows still is.
        assert!(shifted(
            &WindowSig { top_value: 7, share16: 16 },
            &WindowSig { top_value: 9, share16: 16 }
        ));
        assert!(!shifted(
            &WindowSig { top_value: 7, share16: 5 },
            &WindowSig { top_value: 9, share16: 5 }
        ));
    }

    #[test]
    fn windows_advance_in_whole_strides() {
        // window = 64 with stride 8: 8 samples at 0-based positions
        // 0, 8, …, 56 — the 8th sample (57th execution) completes the
        // window; the 56th does not.
        let mut p =
            ConvergentProfiler::adaptive(TrackerConfig::default(), small_config(), small_budget());
        for _ in 0..56 {
            p.observe(0, 7);
        }
        assert_eq!(p.phase_stats().windows, 0);
        p.observe(0, 7);
        assert_eq!(p.phase_stats().windows, 1);
    }

    #[test]
    fn phase_free_stream_is_bit_identical_to_convergent() {
        let mut adaptive =
            ConvergentProfiler::adaptive(TrackerConfig::default(), small_config(), small_budget());
        let mut plain = ConvergentProfiler::new(TrackerConfig::default(), small_config());
        // Stationary skewed stream: dominant value never changes.
        let stream: Vec<u64> =
            (0..20_000).map(|i| if i % 5 == 4 { 100 + i % 3 } else { 7 }).collect();
        for (i, &v) in stream.iter().enumerate() {
            adaptive.observe((i % 3) as u32, v);
            plain.observe((i % 3) as u32, v);
        }
        assert_eq!(adaptive.metrics(), plain.metrics());
        assert_eq!(adaptive.stats(), plain.stats());
        assert_eq!(adaptive.events(), plain.events());
        assert_eq!(adaptive.tnv_events(), plain.tnv_events());
        let ps = adaptive.phase_stats();
        assert!(ps.windows > 0);
        assert_eq!(ps.shifts_detected, 0);
        assert_eq!(ps.rearms, 0);
        assert_eq!(ps.rearms_denied, 0);
    }

    #[test]
    fn oscillating_stream_rearms_and_tracks_new_phase() {
        let mut p =
            ConvergentProfiler::adaptive(TrackerConfig::default(), small_config(), small_budget());
        for v in oscillating(&[7, 9], 4_096, 65_536) {
            p.observe(0, v);
        }
        let ps = p.phase_stats();
        assert!(ps.shifts_detected > 0, "phase flips must be detected: {ps:?}");
        assert!(ps.rearms > 0, "backed-off entity must re-arm: {ps:?}");
        // Both phases surface in the sampled tracker.
        let tnv = p.tracker(0).unwrap().tnv();
        let values: Vec<u64> = tnv.entries().map(|(value, _)| value).collect();
        assert!(values.contains(&7) && values.contains(&9), "tnv: {tnv}");
    }

    #[test]
    fn budget_bounds_rearms_and_counts_denials() {
        let budget = PhaseBudget { max_rearms: 2, window: 64 };
        let mut p = ConvergentProfiler::adaptive(TrackerConfig::default(), small_config(), budget);
        for v in oscillating(&[1, 2, 3, 4], 1_024, 262_144) {
            p.observe(0, v);
        }
        let ps = p.phase_stats();
        assert_eq!(ps.rearms, 2, "budget caps re-arms: {ps:?}");
        assert!(ps.rearms_denied > 0, "further shifts are denied: {ps:?}");
    }

    #[test]
    fn rearms_only_when_backed_off() {
        // With a huge delta the stream never converges, so shifts are
        // detected but nothing needs re-arming.
        let cfg = ConvergentConfig { delta: -1.0, ..small_config() };
        let mut p = ConvergentProfiler::adaptive(TrackerConfig::default(), cfg, small_budget());
        for v in oscillating(&[7, 9], 1_024, 16_384) {
            p.observe(0, v);
        }
        let ps = p.phase_stats();
        assert!(ps.shifts_detected > 0);
        assert_eq!(ps.rearms, 0);
        assert_eq!(ps.rearms_denied, 0);
        assert_eq!(p.stats()[0].profiled, p.stats()[0].total);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = ConvergentProfiler::adaptive(
            TrackerConfig::default(),
            small_config(),
            PhaseBudget { max_rearms: 1, window: 0 },
        );
    }

    #[test]
    fn quantize_share_is_rounded_and_clamped() {
        assert_eq!(quantize_share(0, 16), 0);
        assert_eq!(quantize_share(8, 16), 8);
        assert_eq!(quantize_share(16, 16), 16);
        assert_eq!(quantize_share(99, 16), 16, "overestimates clamp to the window");
        assert_eq!(quantize_share(1, 1024), 0);
        assert_eq!(quantize_share(1023, 1024), 16);
    }
}
