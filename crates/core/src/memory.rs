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
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::tnv::TNV_CAPACITY;
use crate::track::{TrackerConfig, ValueTracker};

/// Profiles values written to memory locations.
///
/// Locations are tracked at 8-byte alignment — one 64-bit word per
/// tracker, the granularity the thesis profiles. Only stored values are
/// observed. The tracker population is capped so a pathological workload
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
    max_locations: usize,
    trackers: EntityMap<u64, ValueTracker>,
    dropped: u64,
}

/// Alignment of a tracked location, in bytes: sub-word stores fold into
/// the word that contains them.
const GRANULARITY: u64 = 8;

impl MemoryProfiler {
    /// Default limit on tracked locations.
    pub const DEFAULT_MAX_LOCATIONS: usize = 1 << 20;

    /// Creates a profiler tracking 8-byte-aligned locations, observing
    /// stored values only (the thesis's primary memory profile).
    pub fn new(config: TrackerConfig) -> MemoryProfiler {
        MemoryProfiler {
            config,
            max_locations: Self::DEFAULT_MAX_LOCATIONS,
            trackers: EntityMap::default(),
            dropped: 0,
        }
    }

    /// Caps the number of tracked locations.
    #[cfg(test)]
    fn with_max_locations(mut self, max: usize) -> MemoryProfiler {
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
        self.trackers.get(&(address & !(GRANULARITY - 1)))
    }

    /// Metric snapshots per location, ordered by address.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        let mut out: Vec<EntityMetrics> = self
            .trackers
            .iter()
            .map(|(&a, t)| EntityMetrics::from_tracker(a, t, TNV_CAPACITY))
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Execution-weighted aggregate over all locations.
    pub fn aggregate(&self) -> Aggregate {
        aggregate(&self.metrics())
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
        let key = access.address & !(GRANULARITY - 1);
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
        let mut p = MemoryProfiler::new(TrackerConfig::default());
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
    fn loads_are_not_observed() {
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
        let mut p = MemoryProfiler::new(TrackerConfig::default());
        run(src, &mut p);
        assert_eq!(p.metrics()[0].executions, 1);
    }
}
