//! Sampling-based profiling baselines.
//!
//! The paper positions its *convergent* profiler against simpler ways of
//! cutting profiling cost, in particular the Continuous Profiling
//! Infrastructure's random sampling (Anderson et al. \[1\]) — "for doing
//! accurate value profiling additional research is needed to determine if
//! random sampling is sufficient". These baselines answer that question in
//! the ablation experiment (E7): sample every k-th execution
//! ([`SampleStrategy::Periodic`]) or with probability 1/k
//! ([`SampleStrategy::Random`]) — spending the *same* profiling budget on
//! every instruction regardless of whether its profile has converged.
//!
//! These baselines are not an engine mode
//! ([`ProfileMode`](crate::engine::ProfileMode) has none): E7 drives
//! [`SampledProfiler`] directly, live through the runner's value blocks.

use vp_instrument::Analysis;

use crate::arena::EntityTable;
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::tnv::TNV_CAPACITY;
use crate::track::{TrackerConfig, ValueTracker};

/// How executions are picked for profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Profile every `k`-th execution of each instruction (deterministic).
    Periodic {
        /// Sampling period (1 = profile everything).
        period: u64,
    },
    /// Profile each execution with probability `1/period`, using a
    /// per-profiler xorshift generator seeded deterministically (runs are
    /// reproducible).
    Random {
        /// Expected sampling period.
        period: u64,
    },
}

#[derive(Debug, Clone)]
struct SampleState {
    tracker: ValueTracker,
    countdown: u64,
    profiled: u64,
    total: u64,
}

/// A value profiler that samples a fixed fraction of executions — the
/// CPI-style baseline the convergent profiler is compared against.
///
/// ```
/// use vp_core::sampled::{SampledProfiler, SampleStrategy};
/// use vp_core::track::TrackerConfig;
///
/// let profiler = SampledProfiler::new(
///     TrackerConfig::default(),
///     SampleStrategy::Periodic { period: 10 },
/// );
/// assert_eq!(profiler.overall_profile_fraction(), 0.0); // nothing seen yet
/// ```
#[derive(Debug, Clone)]
pub struct SampledProfiler {
    tracker_config: TrackerConfig,
    strategy: SampleStrategy,
    states: EntityTable<SampleState>,
    rng: u64,
}

impl SampledProfiler {
    /// Creates a sampled profiler.
    ///
    /// # Panics
    ///
    /// Panics if the sampling period is 0.
    pub fn new(tracker_config: TrackerConfig, strategy: SampleStrategy) -> SampledProfiler {
        let period = match strategy {
            SampleStrategy::Periodic { period } | SampleStrategy::Random { period } => period,
        };
        assert!(period > 0, "sampling period must be positive");
        SampledProfiler {
            tracker_config,
            strategy,
            states: EntityTable::new(),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Metric snapshots from the sampled trackers, ordered by index, with
    /// execution counts reweighted to the true totals (comparable to a
    /// full profile's aggregate).
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        let mut out: Vec<EntityMetrics> = self
            .states
            .iter()
            .map(|(i, s)| {
                let mut m = EntityMetrics::from_tracker(u64::from(i), &s.tracker, TNV_CAPACITY);
                m.executions = s.total;
                m
            })
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Execution-weighted aggregate (weights are true execution counts).
    pub fn aggregate(&self) -> Aggregate {
        aggregate(&self.metrics())
    }

    /// Overall fraction of executions profiled.
    pub fn overall_profile_fraction(&self) -> f64 {
        let total: u64 = self.states.values().map(|s| s.total).sum();
        let profiled: u64 = self.states.values().map(|s| s.profiled).sum();
        if total == 0 {
            0.0
        } else {
            profiled as f64 / total as f64
        }
    }

    /// Feeds one `(instruction, value)` event directly — the trace-replay
    /// entry point; the [`Analysis`] callback delegates here.
    ///
    /// Under [`SampleStrategy::Periodic`] the sampling position is a
    /// per-instruction countdown, so the result is insensitive to how
    /// different instructions' subsequences interleave.
    /// [`SampleStrategy::Random`] draws from a single profiler-wide
    /// generator whose sequence *does* depend on the global interleaving.
    pub fn observe(&mut self, index: u32, value: u64) {
        let strategy = self.strategy;
        let config = self.tracker_config;
        // Random draw decided before borrowing the state.
        let random_hit = match strategy {
            SampleStrategy::Random { period } => self.next_random().is_multiple_of(period),
            SampleStrategy::Periodic { .. } => false,
        };
        let state = self.states.get_or_insert_with(index, || SampleState {
            tracker: ValueTracker::new(config),
            countdown: 0,
            profiled: 0,
            total: 0,
        });
        state.total += 1;
        let hit = match strategy {
            SampleStrategy::Periodic { period } => {
                if state.countdown == 0 {
                    state.countdown = period - 1;
                    true
                } else {
                    state.countdown -= 1;
                    false
                }
            }
            SampleStrategy::Random { .. } => random_hit,
        };
        if hit {
            state.tracker.observe(value);
            state.profiled += 1;
        }
    }

    /// Feeds a batch of `(instruction, value)` events in stream order.
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        for &(index, value) in events {
            self.observe(index, value);
        }
    }

    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

impl Analysis for SampledProfiler {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        self.observe_batch(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(profiler: &mut SampledProfiler, index: u32, values: impl Iterator<Item = u64>) {
        let events: Vec<(u32, u64)> = values.map(|value| (index, value)).collect();
        profiler.observe_values(&events);
    }

    #[test]
    fn periodic_fraction_is_exact() {
        let mut p =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Periodic { period: 10 });
        feed(&mut p, 0, std::iter::repeat_n(7, 1000));
        assert!((p.overall_profile_fraction() - 0.1).abs() < 1e-12);
        let m = &p.metrics()[0];
        assert_eq!(m.executions, 1000, "metrics reweighted to true totals");
        assert!((m.inv_top1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_fraction_is_approximate() {
        let mut p =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Random { period: 10 });
        feed(&mut p, 0, std::iter::repeat_n(7, 100_000));
        let f = p.overall_profile_fraction();
        assert!((f - 0.1).abs() < 0.01, "fraction {f}");
    }

    #[test]
    fn sampling_estimates_invariance_of_mixed_stream() {
        // 90/10 mix: a 1-in-10 periodic sampler still sees the mix.
        let mut p =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Random { period: 10 });
        let values = (0..100_000u64).map(|i| if i % 10 == 3 { 5 } else { 1 });
        feed(&mut p, 0, values);
        let inv = p.metrics()[0].inv_top1;
        assert!((inv - 0.9).abs() < 0.03, "estimated invariance {inv}");
    }

    #[test]
    fn periodic_sampling_aliases_with_periodic_streams() {
        // The classic sampling hazard motivating CPI's *random* sampling:
        // a period-10 sampler on a period-10 stream sees only one value.
        let mut p =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Periodic { period: 10 });
        let values = (0..10_000u64).map(|i| i % 10);
        feed(&mut p, 0, values);
        let m = &p.metrics()[0];
        assert!((m.inv_top1 - 1.0).abs() < 1e-12, "aliased estimate claims invariance");
        // Random sampling does not alias.
        let mut r =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Random { period: 10 });
        let values = (0..10_000u64).map(|i| i % 10);
        feed(&mut r, 0, values);
        assert!(r.metrics()[0].inv_top1 < 0.3);
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let mut p = SampledProfiler::new(
                TrackerConfig::default(),
                SampleStrategy::Random { period: 7 },
            );
            feed(&mut p, 0, (0..10_000u64).map(|i| i * 31));
            p.overall_profile_fraction()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ =
            SampledProfiler::new(TrackerConfig::default(), SampleStrategy::Periodic { period: 0 });
    }
}
