//! Temporal (interval) value profiling: invariance over time.
//!
//! A single whole-run invariance number hides *phases* — a value can be
//! fully invariant within each program phase yet look semi-invariant
//! overall (the gcc workload's mode word: 100% within each compile phase,
//! 33% whole-run). The interval profiler splits an instruction's execution
//! stream into fixed-length windows and keeps per-window metrics, the data
//! behind phase plots and behind choosing the TNV clear interval.

use vp_instrument::Analysis;

use crate::arena::EntityTable;
use crate::phase::{self, WindowSig};
use crate::track::{TrackerConfig, ValueTracker};

/// Per-window snapshot of one instruction's value behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMetrics {
    /// Executions in this window (== window length except the last).
    pub executions: u64,
    /// `Inv-Top(1)` within the window alone.
    pub inv_top1: f64,
    /// The window's dominant value.
    pub top_value: Option<u64>,
}

#[derive(Debug, Clone)]
struct TemporalState {
    current: ValueTracker,
    windows: Vec<WindowMetrics>,
}

/// Profiles instruction values in fixed-length execution windows.
///
/// ```
/// use vp_core::temporal::TemporalProfiler;
/// use vp_core::track::TrackerConfig;
///
/// let profiler = TemporalProfiler::new(TrackerConfig::default(), 1000);
/// assert_eq!(profiler.window_length(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TemporalProfiler {
    config: TrackerConfig,
    window: u64,
    states: EntityTable<TemporalState>,
}

impl TemporalProfiler {
    /// Creates an interval profiler with `window` executions per window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    pub fn new(config: TrackerConfig, window: u64) -> TemporalProfiler {
        assert!(window > 0, "window length must be positive");
        TemporalProfiler { config, window, states: EntityTable::new() }
    }

    /// The configured window length.
    pub fn window_length(&self) -> u64 {
        self.window
    }

    fn snapshot(tracker: &ValueTracker) -> WindowMetrics {
        WindowMetrics {
            executions: tracker.executions(),
            inv_top1: tracker.inv_top(1),
            top_value: tracker.tnv().top_value(),
        }
    }

    /// Completed (and the trailing partial) windows of one instruction, in
    /// execution order. Empty if the instruction never executed.
    pub fn windows(&self, index: u32) -> Vec<WindowMetrics> {
        let Some(state) = self.states.get(index) else { return Vec::new() };
        let mut out = state.windows.clone();
        if state.current.executions() > 0 {
            out.push(Self::snapshot(&state.current));
        }
        out
    }

    /// Instructions profiled, ordered by index.
    pub fn instructions(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.states.keys().collect();
        v.sort_unstable();
        v
    }

    /// The number of *phases* of an instruction: maximal runs of adjacent
    /// windows sharing the same dominant value. A stationary instruction
    /// has 1; gcc's mode load has 3.
    pub fn phase_count(&self, index: u32) -> usize {
        let windows = self.windows(index);
        let mut phases = 0;
        let mut last: Option<Option<u64>> = None;
        for w in &windows {
            if last != Some(w.top_value) {
                phases += 1;
                last = Some(w.top_value);
            }
        }
        phases
    }

    /// Phase signatures of one instruction's windows — the same
    /// [`WindowSig`] the online adaptive detector computes, derived
    /// offline from the interval profile (dominant value plus its
    /// quantised share, here taken from the window's `Inv-Top(1)`).
    /// Feeds the detector's shift rule for offline analysis and lets
    /// tests cross-validate the online detector against the exact
    /// interval profile. Windows that saw no values are skipped.
    pub fn signatures(&self, index: u32) -> Vec<WindowSig> {
        self.windows(index)
            .iter()
            .filter_map(|w| {
                let top_value = w.top_value?;
                let top = (w.inv_top1 * w.executions as f64).round() as u64;
                Some(WindowSig {
                    top_value,
                    share16: phase::quantize_share(top, w.executions.max(1)),
                })
            })
            .collect()
    }

    /// Offline shift points per the adaptive detector's rule
    /// ([`phase::shifted`]): indices `i` such that window `i-1 → i`
    /// constitutes a distribution shift.
    pub fn shift_points(&self, index: u32) -> Vec<usize> {
        let sigs = self.signatures(index);
        sigs.windows(2)
            .enumerate()
            .filter_map(|(i, pair)| phase::shifted(&pair[0], &pair[1]).then_some(i + 1))
            .collect()
    }

    /// Mean within-window invariance, weighted by window executions. When
    /// this is much higher than the whole-run `Inv-Top(1)`, the
    /// instruction is *phase-wise invariant* — the prime case for the TNV
    /// clearing policy and for re-specialization.
    pub fn windowed_invariance(&self, index: u32) -> f64 {
        let windows = self.windows(index);
        let total: u64 = windows.iter().map(|w| w.executions).sum();
        if total == 0 {
            return 0.0;
        }
        windows.iter().map(|w| w.inv_top1 * w.executions as f64).sum::<f64>() / total as f64
    }
}

impl Analysis for TemporalProfiler {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        let config = self.config;
        let window = self.window;
        for &(index, value) in events {
            let state = self.states.get_or_insert_with(index, || TemporalState {
                current: ValueTracker::new(config),
                windows: Vec::new(),
            });
            state.current.observe(value);
            if state.current.executions() >= window {
                state.windows.push(Self::snapshot(&state.current));
                state.current = ValueTracker::new(config);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(profiler: &mut TemporalProfiler, index: u32, values: impl Iterator<Item = u64>) {
        let events: Vec<(u32, u64)> = values.map(|value| (index, value)).collect();
        profiler.observe_values(&events);
    }

    #[test]
    fn phases_of_a_three_phase_stream() {
        // 3 phases of 1000 executions, fully invariant within each.
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 100);
        let stream = std::iter::repeat_n(1, 1000)
            .chain(std::iter::repeat_n(2, 1000))
            .chain(std::iter::repeat_n(3, 1000));
        feed(&mut p, 0, stream);
        assert_eq!(p.windows(0).len(), 30);
        assert_eq!(p.phase_count(0), 3);
        // Whole-run invariance is 1/3; windowed invariance is 1.0.
        assert!((p.windowed_invariance(0) - 1.0).abs() < 1e-12);
        assert_eq!(p.instructions(), vec![0]);
    }

    #[test]
    fn stationary_stream_is_one_phase() {
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 50);
        feed(&mut p, 4, std::iter::repeat_n(9, 500));
        assert_eq!(p.phase_count(4), 1);
        assert!((p.windowed_invariance(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn varying_stream_has_low_windowed_invariance() {
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 50);
        feed(&mut p, 4, 0..500u64);
        assert!(p.windowed_invariance(4) < 0.05);
    }

    #[test]
    fn partial_trailing_window_is_reported() {
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 100);
        feed(&mut p, 0, std::iter::repeat_n(1, 250));
        let windows = p.windows(0);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[2].executions, 50);
        assert_eq!(p.windows(99), Vec::new());
        assert_eq!(p.phase_count(99), 0);
    }

    #[test]
    fn signatures_and_shift_points_follow_the_detector_rule() {
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 100);
        let stream = std::iter::repeat_n(1, 300).chain(std::iter::repeat_n(2, 300));
        feed(&mut p, 0, stream);
        let sigs = p.signatures(0);
        assert_eq!(sigs.len(), 6);
        assert!(sigs[..3].iter().all(|s| s.top_value == 1 && s.share16 == 16));
        assert!(sigs[3..].iter().all(|s| s.top_value == 2 && s.share16 == 16));
        assert_eq!(p.shift_points(0), vec![3], "exactly one shift, at the phase boundary");
        assert_eq!(p.shift_points(99), Vec::<usize>::new());
    }

    #[test]
    fn stationary_stream_has_no_shift_points() {
        let mut p = TemporalProfiler::new(TrackerConfig::default(), 50);
        feed(&mut p, 4, std::iter::repeat_n(9, 500));
        assert!(p.shift_points(4).is_empty());
        assert!(p.signatures(4).iter().all(|s| s.top_value == 9));
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        let _ = TemporalProfiler::new(TrackerConfig::default(), 0);
    }
}
