//! Entity-sharded profiling: split one recorded `(pc, value)` stream
//! across workers, profile the shards in parallel, and `merge()` the
//! results.
//!
//! This is a library path, not an execution path: no `vprof` subcommand
//! shards a workload (the suite runner parallelizes *across* workloads
//! with `--jobs`/`--workers`). It exists for the benchmark's shard layer
//! and for the differential tests that pin the profilers' merge
//! semantics. Events are routed by entity
//! ([`partition_by_entity`], `pc % shards`), so each instruction's full
//! value subsequence lands on exactly one shard, in order. Per-entity
//! profiler state (TNV tables, LVP chains, the convergent state machine,
//! periodic-sample countdowns) never observes a difference from a serial
//! pass, and the merge is a disjoint union — the sharded result is
//! **bit-identical** to serial for the full, convergent, and
//! periodic-sampled profilers. The one exception is
//! [`SampleStrategy::Random`], whose single profiler-wide generator
//! depends on the global event interleaving.
//!
//! [`SampleStrategy::Random`]: crate::sampled::SampleStrategy::Random

use vp_instrument::parallel_map;

use crate::convergent::ConvergentProfiler;
use crate::instr_profile::InstructionProfiler;
use crate::phase::AdaptiveProfiler;
use crate::sampled::SampledProfiler;

/// A profiler that can consume a raw `(pc, value)` event stream and fold
/// in shard results — what [`profile_sharded`] requires.
pub trait StreamProfiler: Send {
    /// Feeds one event.
    fn observe(&mut self, pc: u32, value: u64);

    /// Feeds a batch of events in stream order.
    fn observe_batch(&mut self, events: &[(u32, u64)]) {
        for &(pc, value) in events {
            self.observe(pc, value);
        }
    }

    /// Folds in the result of a *later* shard.
    fn merge_shard(&mut self, later: Self);
}

impl StreamProfiler for InstructionProfiler {
    fn observe(&mut self, pc: u32, value: u64) {
        InstructionProfiler::observe(self, pc, value);
    }

    fn observe_batch(&mut self, events: &[(u32, u64)]) {
        InstructionProfiler::observe_batch(self, events);
    }

    fn merge_shard(&mut self, later: InstructionProfiler) {
        self.merge(later);
    }
}

impl StreamProfiler for ConvergentProfiler {
    fn observe(&mut self, pc: u32, value: u64) {
        ConvergentProfiler::observe(self, pc, value);
    }

    fn merge_shard(&mut self, later: ConvergentProfiler) {
        self.merge(later);
    }
}

impl StreamProfiler for AdaptiveProfiler {
    fn observe(&mut self, pc: u32, value: u64) {
        AdaptiveProfiler::observe(self, pc, value);
    }

    fn merge_shard(&mut self, later: AdaptiveProfiler) {
        self.merge(later);
    }
}

impl StreamProfiler for SampledProfiler {
    fn observe(&mut self, pc: u32, value: u64) {
        SampledProfiler::observe(self, pc, value);
    }

    fn merge_shard(&mut self, later: SampledProfiler) {
        self.merge(later);
    }
}

/// Routes each event to shard `pc % shards`, preserving per-entity order.
/// Every entity's full subsequence lands on exactly one shard.
///
/// **Invariant:** `shards >= 1`. Callers are expected to pass at least
/// one shard; this function debug-asserts the invariant and, in release
/// builds, clamps to 1 rather than dividing by zero.
pub fn partition_by_entity(events: &[(u32, u64)], shards: usize) -> Vec<Vec<(u32, u64)>> {
    debug_assert!(shards > 0, "partition_by_entity requires at least one shard");
    let shards = shards.max(1);
    let mut parts: Vec<Vec<(u32, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    for &event in events {
        parts[event.0 as usize % shards].push(event);
    }
    parts
}

/// Work-stealing over-decomposition factor: each requested shard worker
/// gets this many entity partitions to claim from.
const STEAL_FACTOR: usize = 8;

/// Number of entity partitions [`profile_sharded`] creates for a request
/// of `shards` workers: 1 for a serial request, `shards` times the
/// work-stealing over-decomposition factor (8) otherwise.
///
/// Budgeted callers must split their `MemBudget` by *this* count (not by
/// `shards`): one partition profiler exists per partition, so splitting
/// by the partition count keeps the per-profiler budgets summing to at
/// most the whole.
pub fn partition_count(shards: usize) -> usize {
    if shards <= 1 {
        1
    } else {
        shards * STEAL_FACTOR
    }
}

/// Profiles `events` across `shards` workers and merges the partition
/// profilers in partition order. `make` builds one identically-configured
/// profiler per partition.
///
/// The scheduler is work-stealing in the claim-based sense: the stream
/// is over-decomposed into [`partition_count`] entity partitions —
/// several per worker — and [`parallel_map`]'s workers claim partitions
/// dynamically. A skewed `pc % N` split (one bucket holding a dominant
/// entity) therefore pins only the one worker that claims the hot
/// partition, while the others drain the remaining partitions instead of
/// idling behind a static 1:1 assignment. Entity-disjointness keeps the
/// merged result bit-identical to serial no matter which worker ran
/// which partition, and the partition-order merge keeps intermediate
/// state deterministic too.
///
/// With `shards <= 1` the stream is profiled on the calling thread (via
/// the batched path), which is the serial reference the differential
/// oracle compares against.
pub fn profile_sharded<P, F>(events: &[(u32, u64)], shards: usize, make: F) -> P
where
    P: StreamProfiler,
    F: Fn() -> P + Sync,
{
    if shards <= 1 {
        let mut profiler = make();
        profiler.observe_batch(events);
        return profiler;
    }
    let parts = partition_by_entity(events, partition_count(shards));
    let mut results: Vec<P> = parallel_map(shards, &parts, |part| {
        let mut profiler = make();
        profiler.observe_batch(part);
        profiler
    });
    let mut merged = results.remove(0);
    for later in results {
        merged.merge_shard(later);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::TrackerConfig;

    fn stream() -> Vec<(u32, u64)> {
        (0..5000u32).map(|i| (i % 11, u64::from(i % 7) * 3)).collect()
    }

    #[test]
    fn partition_routes_every_event_once() {
        let events = stream();
        let parts = partition_by_entity(&events, 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), events.len());
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|&(pc, _)| pc as usize % 4 == shard));
        }
    }

    #[test]
    fn sharded_full_profile_matches_serial() {
        let events = stream();
        let serial =
            profile_sharded(&events, 1, || InstructionProfiler::new(TrackerConfig::with_full()));
        for shards in [2, 3, 8, 64] {
            let sharded = profile_sharded(&events, shards, || {
                InstructionProfiler::new(TrackerConfig::with_full())
            });
            assert_eq!(sharded.metrics(), serial.metrics(), "shards={shards}");
            assert_eq!(sharded.tnv_events(), serial.tnv_events(), "shards={shards}");
        }
    }

    #[test]
    fn more_shards_than_entities_leaves_empty_shards() {
        let events = vec![(0u32, 5u64); 100];
        let sharded =
            profile_sharded(&events, 16, || InstructionProfiler::new(TrackerConfig::default()));
        assert_eq!(sharded.profiled_instructions(), 1);
        assert_eq!(sharded.metrics()[0].executions, 100);
    }

    #[test]
    fn empty_stream_profiles_to_nothing() {
        let p = profile_sharded(&[], 4, || InstructionProfiler::new(TrackerConfig::default()));
        assert_eq!(p.profiled_instructions(), 0);
    }

    #[test]
    fn work_stealing_overdecomposition_stays_exact_on_skew() {
        // One dominant entity plus a sprinkle of others: the hot
        // partition pins a single worker while the rest are claimed
        // dynamically — and the result must still be bit-identical.
        let mut events: Vec<(u32, u64)> = (0..20_000u64).map(|i| (3, i % 13)).collect();
        events.extend((0..500u64).map(|i| ((i % 29) as u32, i)));
        let serial =
            profile_sharded(&events, 1, || InstructionProfiler::new(TrackerConfig::with_full()));
        for shards in [2, 4] {
            assert!(partition_count(shards) > shards, "several partitions per worker");
            let sharded = profile_sharded(&events, shards, || {
                InstructionProfiler::new(TrackerConfig::with_full())
            });
            assert_eq!(sharded.metrics(), serial.metrics(), "shards={shards}");
            assert_eq!(sharded.tnv_events(), serial.tnv_events(), "shards={shards}");
        }
    }
}
