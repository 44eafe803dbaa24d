//! Differential ε-oracle for phase-aware adaptive profiling.
//!
//! Three guarantees, each checked against an exact `FullProfile` ground
//! truth (`inv_all1`, the exact top-value share):
//!
//! 1. **Adaptive tracks the truth where convergent goes blind.** On the
//!    phase-shifting adversarial families the stock convergent profiler
//!    converges on the first phase, backs off, and never sees the shift:
//!    its profiled-sample invariance diverges from the truth by far more
//!    than ε. The adaptive profiler's window detector re-arms the sampler
//!    at each shift, keeping its estimate within ε. *Both* directions are
//!    asserted: the divergence must exist (or the family has regressed
//!    into an easy input) and the adaptive estimate must close it.
//! 2. **Phase-free streams are bit-identical.** On stationary streams the
//!    detector observes but never fires, so the adaptive profiler is the
//!    convergent profiler — metrics, stats, events and TNV counters all
//!    exactly equal.
//! 3. **Output is independent of `--jobs` and `--shards`.** The suite
//!    runner produces identical metrics and phase counters at every
//!    parallelism setting.
//!
//! ε = 0.05 matches the acceptance bound in ROADMAP item 4.

use std::collections::HashMap;

use value_profiling::core::{
    track::TrackerConfig, AdaptiveProfiler, ConvergentConfig, ConvergentProfiler,
    InstructionProfiler, PhaseBudget,
};
use value_profiling::workloads::adversarial::{
    diurnal, heavy_tailed, phase_oscillating, tnv_churn,
};
use value_profiling::workloads::{suite, DataSet};
use vp_bench::{ProfileMode, SuiteRunner};

const EPS: f64 = 0.05;

/// A convergent configuration whose skip ladder dwarfs the adversarial
/// streams: after the first convergence the instruction skips 40 000
/// executions, longer than any remaining per-entity stream, so the stock
/// profiler is *provably* blind to everything after its first back-off.
/// The generous `delta` makes convergence take exactly the minimum three
/// bursts (150 events) after every (re-)arm, so the adaptive profiler
/// samples each phase equally and its estimate is unbiased.
fn blinding_config() -> ConvergentConfig {
    ConvergentConfig {
        burst: 50,
        delta: 0.2,
        stable_checks: 2,
        initial_skip: 40_000,
        backoff: 2.0,
        max_skip: 1_000_000,
    }
}

/// Exact top-value share per entity from a full profile of `events`.
fn truth(events: &[(u32, u64)]) -> HashMap<u64, f64> {
    let mut full = InstructionProfiler::new(TrackerConfig::with_full());
    full.observe_batch(events);
    full.metrics()
        .iter()
        .map(|m| (m.id, m.inv_all1.expect("full profile keeps the exact histogram")))
        .collect()
}

/// Exact top-value share of each entity's *profiled sample* — trackers
/// keep the full histogram so the comparison isolates sampling blindness
/// from TNV estimation error.
fn profiled_share(metrics: &[value_profiling::core::EntityMetrics]) -> HashMap<u64, f64> {
    metrics.iter().map(|m| (m.id, m.inv_all1.expect("trackers keep the exact histogram"))).collect()
}

/// Runs convergent and adaptive side by side and asserts the ε-oracle:
/// every entity where convergent diverges from the truth by more than ε
/// is tracked within ε by the adaptive profiler. Returns the divergent
/// entity count so callers can assert the pathology actually manifested.
fn assert_adaptive_closes_divergence(
    name: &str,
    events: &[(u32, u64)],
    config: ConvergentConfig,
    budget: PhaseBudget,
) -> (usize, AdaptiveProfiler) {
    let exact = truth(events);
    let mut conv = ConvergentProfiler::new(TrackerConfig::with_full(), config);
    conv.observe_batch(events);
    let mut adaptive = AdaptiveProfiler::new(TrackerConfig::with_full(), config, budget);
    adaptive.observe_batch(events);
    let conv_share = profiled_share(&conv.metrics());
    let adaptive_share = profiled_share(&adaptive.metrics());
    let mut divergent = 0;
    for (&id, &t) in &exact {
        let c = conv_share[&id];
        let a = adaptive_share[&id];
        if (c - t).abs() > EPS {
            divergent += 1;
            assert!(
                (a - t).abs() <= EPS,
                "{name} pc={id}: convergent diverged (truth {t:.3}, convergent {c:.3}) \
                 but adaptive missed too (adaptive {a:.3}, ε={EPS})"
            );
        }
    }
    (divergent, adaptive)
}

#[test]
fn adaptive_tracks_truth_through_phase_oscillation() {
    // 3 entities, 8 phases of 4 096 per-entity events alternating values
    // 7 and 9: the truth is inv_all1 = 0.5 for every entity, while the
    // blinded convergent profiler only ever profiles value 7.
    let events = phase_oscillating(3, 4_096, &[7, 9], 98_304);
    let budget = PhaseBudget { max_rearms: 64, window: 1_024 };
    let (divergent, adaptive) =
        assert_adaptive_closes_divergence("phase-oscillating", &events, blinding_config(), budget);
    assert_eq!(divergent, 3, "every entity must blind the stock profiler");

    // The stream is engineered so the counters are exact: 32 768
    // per-entity events / 1 024-event windows = 32 windows per entity;
    // 7 phase transitions per entity, each aligned to a window boundary,
    // each caught while the instruction is backed off.
    let ps = adaptive.phase_stats();
    assert_eq!(ps.windows, 96, "3 entities x 32 windows");
    assert_eq!(ps.shifts_detected, 21, "3 entities x 7 phase transitions");
    assert_eq!(ps.rearms, 21, "every shift lands while backed off, within budget");
    assert_eq!(ps.rearms_denied, 0);
}

#[test]
fn adaptive_tracks_truth_through_diurnal_drift() {
    // 2 entities, 4 epochs of 8 192 per-entity events; the dominant value
    // (90% share over a 10% uniform noise floor) drifts once per epoch.
    // Truth per entity: top share ≈ 0.9 / 4; the blinded profiler reports
    // ≈ 0.9 from its epoch-0 sample.
    let events = diurnal(2, 8_192, 4, 10, 0xC0FFEE);
    let budget = PhaseBudget { max_rearms: 64, window: 1_024 };
    let (divergent, adaptive) =
        assert_adaptive_closes_divergence("diurnal", &events, blinding_config(), budget);
    assert_eq!(divergent, 2, "every entity must blind the stock profiler");
    let ps = adaptive.phase_stats();
    assert!(ps.shifts_detected >= 6, "3 epoch boundaries x 2 entities: {ps:?}");
    assert!(ps.rearms >= 6, "each boundary re-arms: {ps:?}");
}

#[test]
fn adaptive_tracks_truth_through_tnv_churn() {
    // Rotating dominance over 24 values in 500-event blocks: the truth
    // top share is tiny (≈ 0.04), while a profiler that converged early
    // reports the share of its early sample. A 250-event window (two per
    // block) and an effectively unbounded re-arm budget keep the adaptive
    // sample spread across the whole rotation.
    let events = tnv_churn(24, 500, 5, 60_000);
    let config = ConvergentConfig {
        burst: 25,
        delta: 0.1,
        stable_checks: 1,
        initial_skip: 40_000,
        backoff: 2.0,
        max_skip: 1_000_000,
    };
    let budget = PhaseBudget { max_rearms: 10_000, window: 250 };
    let (divergent, adaptive) =
        assert_adaptive_closes_divergence("tnv-churn", &events, config, budget);
    assert_eq!(divergent, 1, "the churn entity must blind an early-converging profiler");
    assert!(adaptive.phase_stats().rearms > 50, "{:?}", adaptive.phase_stats());
}

#[test]
fn stationary_streams_are_bit_identical_to_convergent() {
    // Heavy-tailed but *stationary*: the rank distribution never changes,
    // so no window signature ever shifts and the adaptive profiler must
    // equal the stock convergent profiler bit for bit. Same for trivially
    // invariant and mildly skewed streams.
    let streams: Vec<(&str, Vec<(u32, u64)>)> = vec![
        ("heavy-tailed", heavy_tailed(5, 512, 1.2, 60_000, 0xDECAF)),
        ("constant", (0..20_000u64).map(|i| ((i % 3) as u32, 7)).collect()),
        ("skewed", (0..20_000u64).map(|i| (0, if i % 10 == 9 { i % 7 } else { 42 })).collect()),
    ];
    let config = ConvergentConfig::default();
    let budget = PhaseBudget::default();
    for (name, events) in streams {
        let mut conv = ConvergentProfiler::new(TrackerConfig::default(), config);
        conv.observe_batch(&events);
        let mut adaptive = AdaptiveProfiler::new(TrackerConfig::default(), config, budget);
        adaptive.observe_batch(&events);
        let ps = adaptive.phase_stats();
        assert_eq!(ps.rearms, 0, "{name} is stationary; nothing may re-arm: {ps:?}");
        assert_eq!(adaptive.metrics(), conv.metrics(), "{name}");
        assert_eq!(adaptive.stats(), conv.stats(), "{name}");
        assert_eq!(adaptive.events(), conv.events(), "{name}");
        assert_eq!(adaptive.tnv_events(), conv.tnv_events(), "{name}");
        assert!(ps.windows > 0, "{name}: the detector still watched: {ps:?}");
    }
}

#[test]
fn suite_output_is_independent_of_jobs_and_shards() {
    let workloads = &suite()[..3];
    let mode = ProfileMode::Adaptive(PhaseBudget { max_rearms: 8, window: 512 });
    let base = SuiteRunner::new().mode(mode).run_workloads(workloads, DataSet::Test);
    for (jobs, shards) in [(4, 1), (1, 7), (4, 7)] {
        let run = SuiteRunner::new()
            .mode(mode)
            .jobs(jobs)
            .shards(shards)
            .run_workloads(workloads, DataSet::Test);
        for (b, r) in base.workloads.iter().zip(&run.workloads) {
            let at = format!("{} jobs={jobs} shards={shards}", b.name);
            assert_eq!(b.metrics, r.metrics, "{at}");
            assert_eq!(b.aggregate, r.aggregate, "{at}");
            assert_eq!(b.profile_fraction, r.profile_fraction, "{at}");
            assert_eq!(b.instructions, r.instructions, "{at}");
            assert_eq!(b.phase, r.phase, "{at}");
        }
    }
}
