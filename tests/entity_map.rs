//! An instruction profiler finds its per-pc state in an entity table: a
//! dense index below `DENSE_CAP`, a keyed and randomly seeded map above
//! it. Nothing may depend on which half holds a pc, on the map's layout,
//! or on either half's iteration order.
//!
//! * **Hostile keys.** Instruction ids `i << 16` share their low 16 bits,
//!   the pattern that collapses an unkeyed multiplicative hash into one
//!   bucket, and all but `0` lie past the dense index, in the keyed
//!   overflow. Every `ProfileMode` must profile 65 536 of them exactly, with
//!   exact per-entity execution totals, and the full profiler must also
//!   profile them exactly when sharded. This is a correctness test, not a
//!   timing test.
//! * **Relabelling.** A stream whose pcs move past `DENSE_CAP`, into the
//!   entity table's keyed overflow, profiles exactly like the original on
//!   the dense index, apart from the ids: metrics, TNV and sampler event
//!   counters and the profiler's stats section, in every mode and
//!   under a budget tight enough to degrade and drop entities.
//! * **Seed independence.** Every overflow map has its own seeds, so the same
//!   stream profiled twice runs on two different hash layouts, and a full
//!   profile of two merged entity shards on a third. Rendered profiles,
//!   TNV event counters and governor statistics must not move.

use std::collections::BTreeMap;

use value_profiling::core::arena::DENSE_CAP;
use value_profiling::core::{
    partition_by_entity, profile_sharded, render_profile, track::TrackerConfig,
    InstructionProfiler, MemBudget, PhaseBudget, ProfileMode, Profiler, ProfilerStats,
};
use value_profiling::instrument::Selection;
use value_profiling::obs::Counts;
use value_profiling::workloads::adversarial::adversarial_streams;
use value_profiling::workloads::{suite, DataSet};
use vp_bench::value_stream;

/// Every engine mode.
fn modes() -> [ProfileMode; 3] {
    [
        ProfileMode::Full,
        ProfileMode::Convergent,
        ProfileMode::Adaptive(PhaseBudget { max_rearms: 8, window: 512 }),
    ]
}

/// Telemetry event counters of a profiler (TNV work, sampler decisions,
/// governor and phase counters).
fn events_of(p: &Profiler) -> Counts {
    let mut counts = Counts::new();
    p.add_events_to(&mut counts);
    counts
}

#[test]
fn low_bit_colliding_pcs_profile_exactly_in_every_mode() {
    // Four rounds over 65 536 pcs of the form `i << 16`, then a few hot
    // pcs long enough for the sampling modes to back off and skip.
    let mut events: Vec<(u32, u64)> = Vec::new();
    for round in 0..4u64 {
        events.extend((0..1u32 << 16).map(|i| (i << 16, u64::from(i % 7) + round)));
    }
    for i in 0..16u32 {
        events.extend((0..3000u64).map(|n| (i << 16, n % 3)));
    }
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for &(pc, _) in &events {
        *totals.entry(u64::from(pc)).or_insert(0) += 1;
    }
    for mode in modes() {
        let mut serial = mode.build(None);
        serial.observe_batch(&events);
        let metrics = serial.metrics();
        let executions: BTreeMap<u64, u64> = metrics.iter().map(|m| (m.id, m.executions)).collect();
        assert_eq!(executions, totals, "{mode:?}: per-entity execution totals");
        if mode == ProfileMode::Full {
            let sharded = Profiler::Full(profile_sharded(&events, 7, full));
            assert_eq!(sharded.metrics(), metrics, "sharded profile");
            assert_eq!(events_of(&sharded), events_of(&serial), "sharded events");
        }
    }
}

/// An ungoverned full profiler, the one mode whose shards merge.
fn full() -> InstructionProfiler {
    InstructionProfiler::new(TrackerConfig::with_full())
}

/// A real workload's load stream followed by a synthetic stream that
/// shifts phase halfway through and spreads over sparse pcs.
fn mixed_stream() -> Vec<(u32, u64)> {
    let mut events = value_stream(&suite()[0], DataSet::Test, Selection::LoadsOnly);
    events.extend((0..60_000u64).map(|i| {
        let pc = ((i * 7919) % 97) as u32 * 4099 + 1_000_000;
        let value = if i < 30_000 { i % 5 } else { (i * i) % 13 };
        (pc, value)
    }));
    events
}

#[test]
fn profiles_do_not_depend_on_the_map_seed() {
    let events = mixed_stream();
    for mode in modes() {
        let build = || mode.build(None);
        let mut first = build();
        first.observe_batch(&events);
        let mut second = build();
        second.observe_batch(&events);
        let mut runs = vec![("second run", second)];
        if mode == ProfileMode::Full {
            let mut parts = partition_by_entity(&events, 2).into_iter();
            let mut merged = full();
            merged.observe_batch(&parts.next().expect("two parts"));
            let mut later = full();
            later.observe_batch(&parts.next().expect("two parts"));
            merged.merge(later);
            runs.push(("two merged shards", Profiler::Full(merged)));
        }

        let reference = render_profile(&first.metrics());
        for (path, p) in &runs {
            assert_eq!(render_profile(&p.metrics()), reference, "{mode:?}: {path}");
            assert_eq!(events_of(p), events_of(&first), "{mode:?}: {path}");
        }
    }
}

#[test]
fn governed_runs_do_not_depend_on_the_map_seed() {
    // Small enough that the governor degrades and drops entities.
    let budget = MemBudget::bytes(24 * 1024);
    let events = mixed_stream();
    let run = || {
        let mut p = InstructionProfiler::with_budget(TrackerConfig::with_full(), budget);
        p.observe_batch(&events);
        p
    };
    let (a, b) = (run(), run());
    let stats = *a.governor_stats().expect("governed");
    assert!(stats.entities_degraded > 0 && stats.entities_dropped > 0, "{stats:?}");
    assert_eq!(b.governor_stats(), Some(&stats));
    assert_eq!(render_profile(&b.metrics()), render_profile(&a.metrics()));
    assert_eq!(b.tnv_events(), a.tnv_events());
}

/// Moves every pc at or above `from` past `DENSE_CAP`. The move keeps pc
/// order, so the governor's smallest-id tie-break picks the same victims.
fn relabel(events: &[(u32, u64)], from: u32) -> Vec<(u32, u64)> {
    events
        .iter()
        .map(|&(pc, value)| (if pc >= from { pc + DENSE_CAP } else { pc }, value))
        .collect()
}

/// Everything a profiler reports, with relabelled ids mapped back.
fn report(p: &Profiler, from: u32) -> (String, Counts, Option<ProfilerStats>) {
    let mut metrics = p.metrics();
    for m in &mut metrics {
        if m.id >= u64::from(from + DENSE_CAP) {
            m.id -= u64::from(DENSE_CAP);
        }
    }
    (render_profile(&metrics), events_of(p), p.stats())
}

#[test]
fn overflow_pcs_profile_exactly_like_dense_ones() {
    let mut streams: Vec<(&str, Vec<(u32, u64)>)> = adversarial_streams();
    for w in &suite()[..3] {
        streams.push((w.name(), value_stream(w, DataSet::Test, Selection::RegisterDefining)));
    }
    let mut builds: Vec<(ProfileMode, Option<MemBudget>)> =
        modes().into_iter().map(|mode| (mode, None)).collect();
    builds.push((ProfileMode::Full, Some(MemBudget::bytes(4 * 1024))));
    let mut governor_acted = false;
    for (name, events) in &streams {
        let top = events.iter().map(|&(pc, _)| pc).max().expect("non-empty stream");
        assert!(top < DENSE_CAP, "{name}: the original stream is dense");
        for &(mode, budget) in &builds {
            let mut dense = mode.build(budget);
            dense.observe_batch(events);
            // No id reaches `2 * DENSE_CAP`: nothing to map back.
            let want = report(&dense, DENSE_CAP);
            governor_acted |= matches!(want.2, Some(ProfilerStats::Governor(g))
                if g.entities_dropped > 0 && g.observations_dropped > 0);
            // Everything in the overflow, then the upper half of the pcs.
            for from in [0, top / 2 + 1] {
                let mut moved = mode.build(budget);
                moved.observe_batch(&relabel(events, from));
                assert!(
                    report(&moved, from) == want,
                    "{name}, {mode:?} under {budget:?}, pcs from {from} moved"
                );
            }
        }
    }
    assert!(governor_acted, "the tight budget drops entities and their observations");
}
