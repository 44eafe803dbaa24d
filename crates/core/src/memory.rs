//! The memory-location value profiler.
//!
//! The thesis extends value profiling from instructions to *memory
//! locations*: for each (aligned) address, profile the values stored to
//! it. Semi-invariant locations are candidates for the same optimizations
//! as semi-invariant instructions (e.g. speculative load bypassing,
//! Moudgill & Moreno \[29\]).

use std::collections::hash_map::Entry;

use vp_instrument::Analysis;
use vp_sim::{Machine, MemAccess};

use crate::arena::EntityMap;
use crate::govern::{Governor, GovernorStats, MemBudget};
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::track::{TrackerConfig, ValueTracker};

/// Profiles values written to memory locations.
///
/// Locations are tracked at a configurable alignment granularity (default
/// 8 bytes — one 64-bit word per tracker, the granularity the thesis
/// profiles). The tracker population is capped so a pathological workload
/// cannot exhaust memory; overflowing stores are counted in
/// [`MemoryProfiler::dropped`].
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_core::MemoryProfiler;
/// use vp_core::track::TrackerConfig;
/// use vp_instrument::{Instrumenter, Selection};
/// use vp_sim::MachineConfig;
///
/// let program = vp_asm::assemble(
///     r#"
///     .data
///     x: .quad 0
///     .text
///     main:
///         la  r8, x
///         li  r9, 20
///     loop:
///         std r9, 0(r8)         # store the loop counter: varying
///         addi r9, r9, -1
///         bnz r9, loop
///         sys exit
///     "#,
/// )?;
/// let mut profiler = MemoryProfiler::new(TrackerConfig::with_full());
/// Instrumenter::new()
///     .select(Selection::MemoryOps)
///     .run(&program, MachineConfig::new(), 10_000, &mut profiler)?;
/// let metrics = profiler.metrics();
/// assert_eq!(metrics.len(), 1);
/// assert_eq!(metrics[0].executions, 20);
/// assert!(metrics[0].inv_top1 < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryProfiler {
    config: TrackerConfig,
    granularity: u64,
    max_locations: usize,
    include_loads: bool,
    trackers: EntityMap<u64, ValueTracker>,
    dropped: u64,
    governor: Option<Governor>,
}

impl MemoryProfiler {
    /// Default limit on tracked locations.
    pub const DEFAULT_MAX_LOCATIONS: usize = 1 << 20;

    /// Creates a profiler tracking 8-byte-aligned locations, observing
    /// stored values only (the thesis's primary memory profile).
    pub fn new(config: TrackerConfig) -> MemoryProfiler {
        MemoryProfiler {
            config,
            granularity: 8,
            max_locations: Self::DEFAULT_MAX_LOCATIONS,
            include_loads: false,
            trackers: EntityMap::default(),
            dropped: 0,
            governor: None,
        }
    }

    /// Puts the resident tracker state under a byte budget with the
    /// degradation ladder of [`crate::govern`]. The location *count* cap
    /// ([`with_max_locations`](MemoryProfiler::with_max_locations)) still
    /// applies independently; the budget governs *bytes*.
    pub fn with_budget(mut self, budget: MemBudget) -> MemoryProfiler {
        self.governor = Some(Governor::new(budget));
        self
    }

    /// The governor's intervention counters, when a budget is in force.
    pub fn governor_stats(&self) -> Option<&GovernorStats> {
        self.governor.as_ref().map(Governor::stats)
    }

    /// Also observe values *read* from each location, so the profile
    /// reflects the values a location supplies, not just those written to
    /// it (the thesis's read-side variant; pair with
    /// [`Selection::MemoryOps`](vp_instrument::Selection)).
    pub fn including_loads(mut self, yes: bool) -> MemoryProfiler {
        self.include_loads = yes;
        self
    }

    /// Sets the alignment granularity in bytes (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is 0 or not a power of two.
    pub fn with_granularity(mut self, granularity: u64) -> MemoryProfiler {
        assert!(granularity.is_power_of_two(), "granularity must be a power of two");
        self.granularity = granularity;
        self
    }

    /// Caps the number of tracked locations.
    pub fn with_max_locations(mut self, max: usize) -> MemoryProfiler {
        self.max_locations = max;
        self
    }

    /// Stores ignored because the location cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of tracked locations.
    pub fn locations(&self) -> usize {
        self.trackers.len()
    }

    /// The tracker for the location containing `address`.
    pub fn tracker(&self, address: u64) -> Option<&ValueTracker> {
        self.trackers.get(&(address & !(self.granularity - 1)))
    }

    /// Metric snapshots per location, ordered by address.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        let mut out: Vec<EntityMetrics> = self
            .trackers
            .iter()
            .map(|(&a, t)| EntityMetrics::from_tracker(a, t, self.config.capacity))
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Execution-weighted aggregate over all locations.
    pub fn aggregate(&self) -> Aggregate {
        aggregate(&self.metrics())
    }

    /// Merges another memory profiler (a later shard of the workload) into
    /// this one. Shared locations merge per [`ValueTracker::merge`];
    /// locations only `other` saw move over while the tracked-location cap
    /// still holds — overflowing locations are dropped with their
    /// executions added to [`dropped`](MemoryProfiler::dropped).
    ///
    /// # Panics
    ///
    /// Panics if the profilers differ in tracker configuration,
    /// granularity, or load inclusion.
    pub fn merge(&mut self, other: MemoryProfiler) {
        assert_eq!(
            self.config, other.config,
            "cannot merge memory profilers with different tracker configs"
        );
        assert_eq!(
            self.granularity, other.granularity,
            "cannot merge memory profilers with different granularity"
        );
        assert_eq!(
            self.include_loads, other.include_loads,
            "cannot merge memory profilers with different load inclusion"
        );
        assert_eq!(
            self.governor.is_some(),
            other.governor.is_some(),
            "cannot merge governed and ungoverned memory profilers"
        );
        self.dropped += other.dropped;
        let other_governor = other.governor;
        // Address order, not map order: which locations still fit under
        // the cap must not depend on the other map's hash seed.
        let mut incoming: Vec<(u64, ValueTracker)> = other.trackers.into_iter().collect();
        incoming.sort_unstable_by_key(|&(address, _)| address);
        for (address, theirs) in incoming {
            if let Some(mine) = self.trackers.get_mut(&address) {
                mine.merge(&theirs);
            } else if self.trackers.len() < self.max_locations {
                self.trackers.insert(address, theirs);
            } else {
                self.dropped += theirs.executions();
            }
        }
        if let (Some(governor), Some(theirs)) = (&mut self.governor, &other_governor) {
            let resident = self.trackers.values().map(ValueTracker::footprint_bytes).sum();
            governor.absorb(theirs, resident);
        }
    }

    /// The `n` most frequently written locations, hottest first.
    pub fn hottest(&self, n: usize) -> Vec<EntityMetrics> {
        let mut ms = self.metrics();
        ms.sort_by(|a, b| b.executions.cmp(&a.executions).then(a.id.cmp(&b.id)));
        ms.truncate(n);
        ms
    }

    /// Summed TNV-table events across all location trackers.
    pub fn tnv_events(&self) -> vp_obs::TnvEvents {
        let mut out = vp_obs::TnvEvents::default();
        for tracker in self.trackers.values() {
            out.merge(&tracker.tnv_events());
        }
        out
    }
}

impl MemoryProfiler {
    fn observe_access(&mut self, access: &MemAccess) {
        let key = access.address & !(self.granularity - 1);
        if let Some(governor) = &mut self.governor {
            // The location-count cap fires before the byte budget for new
            // locations; it keeps its own counter, distinct from the
            // governor's budget-driven drops.
            if self.trackers.len() >= self.max_locations
                && !self.trackers.contains_key(&key)
                && !governor.is_dropped(key)
            {
                self.dropped += 1;
                return;
            }
            governor.observe(&mut self.trackers, self.config, key, access.value);
            return;
        }
        let full = self.trackers.len() >= self.max_locations;
        match self.trackers.entry(key) {
            Entry::Occupied(e) => e.into_mut().observe(access.value),
            Entry::Vacant(e) if !full => {
                e.insert(ValueTracker::new(self.config)).observe(access.value)
            }
            Entry::Vacant(_) => self.dropped += 1,
        }
    }
}

impl Analysis for MemoryProfiler {
    fn on_store(&mut self, _machine: &Machine, _index: u32, access: &MemAccess) {
        self.observe_access(access);
    }

    fn on_load(&mut self, _machine: &Machine, _index: u32, access: &MemAccess) {
        if self.include_loads {
            self.observe_access(access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_instrument::{Instrumenter, Selection};
    use vp_sim::MachineConfig;

    fn run(src: &str, profiler: &mut MemoryProfiler) {
        let program = vp_asm::assemble(src).unwrap();
        Instrumenter::new()
            .select(Selection::MemoryOps)
            .run(&program, MachineConfig::new(), 100_000, profiler)
            .unwrap();
    }

    #[test]
    fn invariant_location() {
        let mut p = MemoryProfiler::new(TrackerConfig::with_full());
        run(
            r#"
            .data
            x: .quad 0
            .text
            main:
                la r8, x
                li r9, 30
                li r10, 5
            loop:
                std r10, 0(r8)   # always 5
                addi r9, r9, -1
                bnz r9, loop
                sys exit
            "#,
            &mut p,
        );
        assert_eq!(p.locations(), 1);
        let m = &p.metrics()[0];
        assert!((m.inv_top1 - 1.0).abs() < 1e-12);
        assert_eq!(m.top_value, Some(5));
        assert_eq!(p.dropped(), 0);
        assert!(p.tracker(m.id).is_some());
        assert!(p.tracker(m.id + 3).is_some(), "sub-word addresses map to the same tracker");
    }

    #[test]
    fn granularity_merges_subword_stores() {
        let mut p = MemoryProfiler::new(TrackerConfig::default()).with_granularity(8);
        run(
            r#"
            .data
            x: .quad 0
            .text
            main:
                la r8, x
                li r9, 1
                stb r9, 0(r8)
                stb r9, 4(r8)
                sys exit
            "#,
            &mut p,
        );
        assert_eq!(p.locations(), 1);
        assert_eq!(p.metrics()[0].executions, 2);
    }

    #[test]
    fn location_cap_drops() {
        let mut p = MemoryProfiler::new(TrackerConfig::default()).with_max_locations(2);
        run(
            r#"
            .data
            buf: .space 64
            .text
            main:
                la r8, buf
                std r0, 0(r8)
                std r0, 8(r8)
                std r0, 16(r8)
                std r0, 24(r8)
                sys exit
            "#,
            &mut p,
        );
        assert_eq!(p.locations(), 2);
        assert_eq!(p.dropped(), 2);
    }

    #[test]
    fn capped_merge_keeps_the_lowest_addresses() {
        // The survivors of a merge that overflows the cap are picked in
        // address order, whatever the incoming map's seed.
        const STORES: &str = r#"
            .data
            buf: .space 256
            .text
            main:
                la r8, buf
                li r9, 32
            loop:
                std r9, 0(r8)
                addi r8, r8, 8
                addi r9, r9, -1
                bnz r9, loop
                sys exit
            "#;
        let merged = || {
            let mut mine = MemoryProfiler::new(TrackerConfig::default()).with_max_locations(4);
            let mut theirs = MemoryProfiler::new(TrackerConfig::default());
            run(STORES, &mut theirs);
            mine.merge(theirs);
            mine
        };
        let mut uncapped = MemoryProfiler::new(TrackerConfig::default());
        run(STORES, &mut uncapped);
        let (a, b) = (merged(), merged());
        assert_eq!(a.dropped(), 28);
        assert_eq!(a.metrics(), uncapped.metrics()[..4]);
        assert_eq!(b.metrics(), a.metrics());
    }

    #[test]
    fn hottest_ordering() {
        let mut p = MemoryProfiler::new(TrackerConfig::default());
        run(
            r#"
            .data
            buf: .space 16
            .text
            main:
                la r8, buf
                std r0, 0(r8)
                std r0, 8(r8)
                std r0, 8(r8)
                sys exit
            "#,
            &mut p,
        );
        let hot = p.hottest(1);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].executions, 2);
        let agg = p.aggregate();
        assert_eq!(agg.executions, 3);
    }

    #[test]
    fn including_loads_observes_reads() {
        let src = r#"
            .data
            x: .quad 5
            .text
            main:
                la  r8, x
                ldd r2, 0(r8)
                ldd r2, 0(r8)
                std r2, 0(r8)
                sys exit
        "#;
        let mut stores_only = MemoryProfiler::new(TrackerConfig::default());
        run(src, &mut stores_only);
        assert_eq!(stores_only.metrics()[0].executions, 1);
        let mut both = MemoryProfiler::new(TrackerConfig::default()).including_loads(true);
        run(src, &mut both);
        assert_eq!(both.metrics()[0].executions, 3);
        assert!((both.metrics()[0].inv_top1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_granularity_panics() {
        let _ = MemoryProfiler::new(TrackerConfig::default()).with_granularity(6);
    }

    const COUNTER_STORES: &str = r#"
        .data
        buf: .space 32
        .text
        main:
            la r8, buf
            li r9, 200
        loop:
            std r9, 0(r8)
            std r9, 8(r8)
            std r9, 16(r8)
            std r9, 24(r8)
            addi r9, r9, -1
            bnz r9, loop
            sys exit
    "#;

    #[test]
    fn generous_budget_changes_nothing() {
        use crate::govern::MemBudget;
        let mut plain = MemoryProfiler::new(TrackerConfig::with_full());
        run(COUNTER_STORES, &mut plain);
        let mut governed =
            MemoryProfiler::new(TrackerConfig::with_full()).with_budget(MemBudget::mib(64));
        run(COUNTER_STORES, &mut governed);
        assert_eq!(governed.metrics(), plain.metrics());
        assert_eq!(governed.dropped(), 0);
        assert!(!governed.governor_stats().unwrap().intervened());
    }

    #[test]
    fn tight_budget_degrades_locations_but_keeps_scalars() {
        use crate::govern::MemBudget;
        let mut plain = MemoryProfiler::new(TrackerConfig::with_full());
        run(COUNTER_STORES, &mut plain);
        let budget = MemBudget::bytes(4 * 1024);
        let mut governed = MemoryProfiler::new(TrackerConfig::with_full()).with_budget(budget);
        run(COUNTER_STORES, &mut governed);
        let stats = *governed.governor_stats().unwrap();
        assert!(stats.entities_degraded > 0);
        assert!(stats.bytes_peak <= budget.limit_bytes() as u64);
        for truth in plain.metrics() {
            let Some(m) = governed.metrics().into_iter().find(|m| m.id == truth.id) else {
                continue; // location evicted (rung 2)
            };
            assert_eq!(m.executions, truth.executions, "location {:#x}", truth.id);
            assert_eq!(m.inv_top1, truth.inv_top1, "location {:#x}", truth.id);
            assert_eq!(m.lvp, truth.lvp, "location {:#x}", truth.id);
        }
    }
}
