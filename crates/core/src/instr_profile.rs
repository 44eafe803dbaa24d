//! The instruction value profiler: one [`ValueTracker`] per profiled
//! instruction, fed from the instrumentation layer.
//!
//! This is the paper's core tool. Pair it with
//! [`Selection::LoadsOnly`](vp_instrument::Selection) for the load-value
//! profile (experiment E2) or
//! [`Selection::RegisterDefining`](vp_instrument::Selection) for the
//! all-instructions profile (E3).

use vp_instrument::Analysis;

use crate::arena::{Arena, EntityTable};
use crate::govern::{Governor, GovernorStats, MemBudget};
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::tnv::TNV_CAPACITY;
use crate::track::{TrackerConfig, ValueTracker};

/// Profiles destination-register values of instrumented instructions.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_core::InstructionProfiler;
/// use vp_core::track::TrackerConfig;
/// use vp_instrument::{Instrumenter, Selection};
/// use vp_sim::MachineConfig;
///
/// let program = vp_asm::assemble(
///     r#"
///     .text
///     main:
///         li r1, 100
///     loop:
///         addi r2, r0, 7        # always produces 7: fully invariant
///         addi r1, r1, -1       # loop counter: all values distinct
///         bnz  r1, loop
///         sys  exit
///     "#,
/// )?;
/// let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
/// Instrumenter::new()
///     .select(Selection::RegisterDefining)
///     .run(&program, MachineConfig::new(), 100_000, &mut profiler)?;
/// let constant = profiler.metrics_for(1).unwrap();   // the `addi r2` at index 1
/// assert!((constant.inv_top1 - 1.0).abs() < 1e-9);
/// let counter = profiler.metrics_for(2).unwrap();
/// assert!(counter.inv_top1 < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InstructionProfiler {
    config: TrackerConfig,
    trackers: EntityTable<ValueTracker>,
    governor: Option<Governor>,
    /// Reused run buffer of [`observe_batch`](Self::observe_batch).
    scratch: Vec<u64>,
}

impl InstructionProfiler {
    /// Creates a profiler; each instruction gets a tracker configured by
    /// `config` the first time it executes.
    pub fn new(config: TrackerConfig) -> InstructionProfiler {
        InstructionProfiler {
            config,
            trackers: EntityTable::new(),
            governor: None,
            scratch: Vec::new(),
        }
    }

    /// Creates a profiler whose resident tracker state is governed by
    /// `budget`: when ingest pushes the estimated footprint over the
    /// budget, entities walk the degradation ladder (full profile → TNV
    /// only → dropped; see [`crate::govern`]). Under a budget the
    /// profiler never exceeds, behavior is identical to
    /// [`new`](InstructionProfiler::new).
    pub fn with_budget(config: TrackerConfig, budget: MemBudget) -> InstructionProfiler {
        InstructionProfiler {
            config,
            trackers: EntityTable::new(),
            governor: Some(Governor::new(budget)),
            scratch: Vec::new(),
        }
    }

    /// The governor's intervention counters, when a budget is in force.
    pub fn governor_stats(&self) -> Option<&GovernorStats> {
        self.governor.as_ref().map(Governor::stats)
    }

    /// The governor's arena byte meter, when a budget is in force —
    /// `bytes_peak` in the stats equals its high-water mark exactly.
    pub fn arena(&self) -> Option<&Arena> {
        self.governor.as_ref().map(Governor::arena)
    }

    /// The tracker of one instruction, if it ever executed.
    pub fn tracker(&self, index: u32) -> Option<&ValueTracker> {
        self.trackers.get(index)
    }

    /// Metric snapshot of one instruction.
    pub fn metrics_for(&self, index: u32) -> Option<EntityMetrics> {
        self.trackers
            .get(index)
            .map(|t| EntityMetrics::from_tracker(u64::from(index), t, TNV_CAPACITY))
    }

    /// Metric snapshots of every profiled instruction, ordered by index.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        let mut out: Vec<EntityMetrics> = self
            .trackers
            .iter()
            .map(|(i, t)| EntityMetrics::from_tracker(u64::from(i), t, TNV_CAPACITY))
            .collect();
        out.sort_by_key(|m| m.id);
        out
    }

    /// Execution-weighted aggregate over all profiled instructions.
    pub fn aggregate(&self) -> Aggregate {
        aggregate(&self.metrics())
    }

    /// Feeds one `(instruction, value)` event directly — the trace-replay
    /// entry point; the [`Analysis`] callback delegates here.
    pub fn observe(&mut self, index: u32, value: u64) {
        let config = self.config;
        if let Some(governor) = &mut self.governor {
            governor.observe(&mut self.trackers, config, index, value);
            return;
        }
        self.trackers.get_or_insert_with(index, || ValueTracker::new(config)).observe(value);
    }

    /// Feeds a batch of `(instruction, value)` events — semantically
    /// identical to calling [`observe`](InstructionProfiler::observe) once
    /// per event, but consecutive events of the same instruction (the
    /// common shape of a loop's hot load) resolve one table lookup for the
    /// whole run and take the tracker's batched fast path.
    ///
    /// Under a governor the batch degenerates to the per-event path, so
    /// budget enforcement happens at exactly the same points as a scalar
    /// feed — governed batch and scalar ingestion stay bit-identical.
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        if self.governor.is_some() {
            for &(index, value) in events {
                self.observe(index, value);
            }
            return;
        }
        let config = self.config;
        let values = &mut self.scratch;
        let mut i = 0;
        while i < events.len() {
            let index = events[i].0;
            let mut j = i + 1;
            while j < events.len() && events[j].0 == index {
                j += 1;
            }
            let tracker = self.trackers.get_or_insert_with(index, || ValueTracker::new(config));
            if j == i + 1 {
                tracker.observe(events[i].1);
            } else {
                values.clear();
                values.extend(events[i..j].iter().map(|&(_, value)| value));
                tracker.observe_batch(values);
            }
            i = j;
        }
    }

    /// Merges another instruction profiler (e.g. the same program run on a
    /// different input, or a later shard of the same run) into this one.
    ///
    /// Instructions profiled by only one side move over unchanged; shared
    /// instructions merge per [`ValueTracker::merge`] with `other` treated
    /// as the later shard. Scalar counters and full profiles combine
    /// exactly; TNV estimates remain under-estimates.
    ///
    /// # Panics
    ///
    /// Panics if the tracker configurations differ, or if either side is
    /// governed: a governor's byte accounting covers its own ingest only.
    pub fn merge(&mut self, other: InstructionProfiler) {
        assert_eq!(
            self.config, other.config,
            "cannot merge instruction profilers with different tracker configs"
        );
        assert!(
            self.governor.is_none() && other.governor.is_none(),
            "cannot merge governed instruction profilers"
        );
        for (index, theirs) in other.trackers {
            match self.trackers.get_mut(index) {
                Some(ours) => ours.merge(&theirs),
                None => {
                    self.trackers.insert(index, theirs);
                }
            }
        }
    }

    /// Number of distinct instructions profiled.
    pub fn profiled_instructions(&self) -> usize {
        self.trackers.len()
    }

    /// The tracker configuration in force.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// Estimated total profiler footprint in bytes across all trackers —
    /// constant per instruction under a pure TNV configuration, growing
    /// with distinct values when the exact histogram is kept.
    pub fn footprint_bytes(&self) -> usize {
        self.trackers.values().map(ValueTracker::footprint_bytes).sum()
    }

    /// Summed TNV-table events across all instruction trackers.
    pub fn tnv_events(&self) -> vp_obs::TnvEvents {
        let mut out = vp_obs::TnvEvents::default();
        for tracker in self.trackers.values() {
            out.merge(&tracker.tnv_events());
        }
        out
    }
}

impl Analysis for InstructionProfiler {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        self.observe_batch(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_instrument::{Instrumenter, Selection};
    use vp_sim::MachineConfig;

    const LOOP: &str = r#"
        .data
        x: .quad 11
        .text
        main:
            li  r9, 50
            la  r8, x
        loop:
            ldd r2, 0(r8)        # always loads 11
            addi r9, r9, -1
            bnz r9, loop
            sys exit
    "#;

    fn run(selection: Selection) -> InstructionProfiler {
        let program = vp_asm::assemble(LOOP).unwrap();
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(selection)
            .run(&program, MachineConfig::new(), 100_000, &mut profiler)
            .unwrap();
        profiler
    }

    #[test]
    fn loads_only_profiles_one_instruction() {
        let p = run(Selection::LoadsOnly);
        assert_eq!(p.profiled_instructions(), 1);
        let m = &p.metrics()[0];
        assert_eq!(m.executions, 50);
        assert!((m.inv_top1 - 1.0).abs() < 1e-12);
        assert_eq!(m.top_value, Some(11));
        assert_eq!(m.distinct, Some(1));
    }

    #[test]
    fn register_defining_covers_alu_and_loads() {
        let p = run(Selection::RegisterDefining);
        // li (1) + la (2) + ldd (1) + addi (1) = 5 defining instructions.
        assert_eq!(p.profiled_instructions(), 5);
        let agg = p.aggregate();
        assert!(agg.executions > 100);
        assert!(agg.inv_top1 > 0.0 && agg.inv_top1 <= 1.0);
        // The loop counter has 50 distinct values; the load has 1.
        let ms = p.metrics();
        let counter = ms.iter().find(|m| m.distinct == Some(50)).unwrap();
        assert!(counter.inv_top1 < 0.1);
    }

    #[test]
    fn generous_budget_changes_nothing() {
        use crate::govern::MemBudget;
        let events: Vec<(u32, u64)> =
            (0..4000u32).map(|i| (i % 13, u64::from(i % 31) * 7)).collect();
        let mut plain = InstructionProfiler::new(TrackerConfig::with_full());
        plain.observe_batch(&events);
        let mut governed =
            InstructionProfiler::with_budget(TrackerConfig::with_full(), MemBudget::mib(64));
        governed.observe_batch(&events);
        assert_eq!(governed.metrics(), plain.metrics());
        assert_eq!(governed.tnv_events(), plain.tnv_events());
        let stats = governed.governor_stats().unwrap();
        assert!(!stats.intervened());
        assert_eq!(stats.bytes_peak as usize, governed.footprint_bytes());
    }

    #[test]
    fn tight_budget_degrades_but_keeps_tnv_metrics_exact() {
        use crate::govern::MemBudget;
        let events: Vec<(u32, u64)> =
            (0..20_000u32).map(|i| (i % 5, u64::from(i).wrapping_mul(2654435761) % 4096)).collect();
        let mut plain = InstructionProfiler::new(TrackerConfig::with_full());
        plain.observe_batch(&events);
        let budget = MemBudget::bytes(16 * 1024);
        let mut governed = InstructionProfiler::with_budget(TrackerConfig::with_full(), budget);
        governed.observe_batch(&events);
        let stats = *governed.governor_stats().unwrap();
        assert!(stats.entities_degraded > 0);
        assert!(stats.bytes_peak <= budget.limit_bytes() as u64);
        for truth in plain.metrics() {
            let Some(m) = governed.metrics_for(truth.id as u32) else {
                continue; // entity dropped entirely (rung 2)
            };
            assert_eq!(m.executions, truth.executions, "entity {}", truth.id);
            assert_eq!(m.inv_top1, truth.inv_top1, "entity {}", truth.id);
            assert_eq!(m.lvp, truth.lvp, "entity {}", truth.id);
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge governed")]
    fn merging_governed_profilers_panics() {
        use crate::govern::MemBudget;
        let budget = MemBudget::mib(64);
        let mut a = InstructionProfiler::with_budget(TrackerConfig::default(), budget);
        a.observe(0, 1);
        let mut b = InstructionProfiler::with_budget(TrackerConfig::default(), budget);
        b.observe(1, 2);
        a.merge(b);
    }

    #[test]
    fn stores_produce_no_samples() {
        let src = ".data\nx: .quad 0\n.text\nmain: la r8, x\n std r0, 0(r8)\n sys exit\n";
        let program = vp_asm::assemble(src).unwrap();
        let mut p = InstructionProfiler::new(TrackerConfig::default());
        Instrumenter::new()
            .select(Selection::All)
            .run(&program, MachineConfig::new(), 1000, &mut p)
            .unwrap();
        // la defines r8 twice (lui+ori); store and sys define nothing.
        assert_eq!(p.profiled_instructions(), 2);
        assert!(p.tracker(2).is_none());
        assert!(p.metrics_for(0).is_some());
    }
}
