//! The procedure parameter / return-value profiler.
//!
//! Semi-invariant procedure arguments are the paper's primary hook for
//! code specialization (Chapter X): a procedure whose argument is nearly
//! always the same value can be cloned and specialized on that value
//! behind a cheap guard.

use std::collections::hash_map::Entry;

use vp_instrument::Analysis;
use vp_sim::Machine;

use crate::arena::EntityMap;
use crate::metrics::{aggregate, Aggregate, EntityMetrics};
use crate::track::{TrackerConfig, ValueTracker};

/// Identifies one profiled parameter slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamSlot {
    /// The `i`-th argument register (`a0`..`a3`).
    Arg(u8),
    /// The return value (`v0`).
    Ret,
}

/// Metrics of one (procedure, slot) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamMetrics {
    /// Procedure index (position in the program's procedure table).
    pub proc_index: usize,
    /// Which slot.
    pub slot: ParamSlot,
    /// The slot's value metrics.
    pub metrics: EntityMetrics,
}

/// Profiles procedure arguments and return values.
///
/// By default the first `arity` argument registers of every procedure are
/// profiled (VP64 has four); override per procedure with
/// [`set_arity`](ParamProfiler::set_arity) when the true arity is known so
/// dead argument registers don't pollute the profile.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_core::params::{ParamProfiler, ParamSlot};
/// use vp_core::track::TrackerConfig;
/// use vp_instrument::{Instrumenter, Selection};
/// use vp_sim::MachineConfig;
///
/// let program = vp_asm::assemble(
///     r#"
///     .text
///     main:
///         li r9, 10
///     loop:
///         li a0, 3              # the argument is always 3
///         call f
///         addi r9, r9, -1
///         bnz r9, loop
///         sys exit
///     .proc f
///     f:
///         add v0, a0, a0
///         ret
///     .endp
///     "#,
/// )?;
/// let mut profiler = ParamProfiler::new(TrackerConfig::with_full(), 1);
/// Instrumenter::new()
///     .select(Selection::None)
///     .with_procedures(true)
///     .run(&program, MachineConfig::new(), 100_000, &mut profiler)?;
/// let rows = profiler.metrics();
/// let arg0 = rows.iter().find(|r| r.slot == ParamSlot::Arg(0)).unwrap();
/// assert!((arg0.metrics.inv_top1 - 1.0).abs() < 1e-12);
/// assert_eq!(arg0.metrics.executions, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParamProfiler {
    config: TrackerConfig,
    default_arity: u8,
    arity: EntityMap<usize, u8>,
    trackers: EntityMap<(usize, ParamSlot), ValueTracker>,
}

impl ParamProfiler {
    /// Creates a profiler that tracks `default_arity` argument registers
    /// per procedure (clamped to 4) plus every return value.
    pub fn new(config: TrackerConfig, default_arity: u8) -> ParamProfiler {
        ParamProfiler {
            config,
            default_arity: default_arity.min(4),
            arity: EntityMap::default(),
            trackers: EntityMap::default(),
        }
    }

    /// Overrides the profiled arity for one procedure.
    pub fn set_arity(&mut self, proc_index: usize, arity: u8) {
        self.arity.insert(proc_index, arity.min(4));
    }

    /// Tracker for one (procedure, slot) pair.
    pub fn tracker(&self, proc_index: usize, slot: ParamSlot) -> Option<&ValueTracker> {
        self.trackers.get(&(proc_index, slot))
    }

    /// Metrics for every profiled slot, ordered by procedure then slot.
    pub fn metrics(&self) -> Vec<ParamMetrics> {
        let mut keys: Vec<&(usize, ParamSlot)> = self.trackers.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|&(proc_index, slot)| ParamMetrics {
                proc_index,
                slot,
                metrics: EntityMetrics::from_tracker(
                    encode_id(proc_index, slot),
                    &self.trackers[&(proc_index, slot)],
                    self.config.capacity,
                ),
            })
            .collect()
    }

    /// Merges another parameter profiler (a later shard of the workload)
    /// into this one: shared (procedure, slot) trackers merge per
    /// [`ValueTracker::merge`], others move over. Arity overrides combine
    /// with this profiler's taking precedence on conflict.
    ///
    /// # Panics
    ///
    /// Panics if the tracker configurations or default arities differ.
    pub fn merge(&mut self, other: ParamProfiler) {
        assert_eq!(
            self.config, other.config,
            "cannot merge param profilers with different tracker configs"
        );
        assert_eq!(
            self.default_arity, other.default_arity,
            "cannot merge param profilers with different default arity"
        );
        for (proc_index, arity) in other.arity {
            self.arity.entry(proc_index).or_insert(arity);
        }
        for (key, theirs) in other.trackers {
            match self.trackers.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(theirs);
                }
                Entry::Occupied(mut e) => e.get_mut().merge(&theirs),
            }
        }
    }

    /// Execution-weighted aggregate over all argument slots (returns
    /// excluded, matching the paper's parameter table).
    pub fn aggregate_args(&self) -> Aggregate {
        let ms: Vec<EntityMetrics> = self
            .metrics()
            .into_iter()
            .filter(|p| matches!(p.slot, ParamSlot::Arg(_)))
            .map(|p| p.metrics)
            .collect();
        aggregate(&ms)
    }

    /// Summed TNV-table events across all parameter-slot trackers.
    pub fn tnv_events(&self) -> vp_obs::TnvEvents {
        let mut out = vp_obs::TnvEvents::default();
        for tracker in self.trackers.values() {
            out.merge(&tracker.tnv_events());
        }
        out
    }
}

fn encode_id(proc_index: usize, slot: ParamSlot) -> u64 {
    let s = match slot {
        ParamSlot::Arg(i) => u64::from(i),
        ParamSlot::Ret => 15,
    };
    (proc_index as u64) << 4 | s
}

impl Analysis for ParamProfiler {
    fn on_proc_entry(&mut self, _machine: &Machine, proc_index: usize, args: [u64; 4]) {
        let arity = self.arity.get(&proc_index).copied().unwrap_or(self.default_arity);
        for (i, &value) in args.iter().enumerate().take(usize::from(arity)) {
            self.trackers
                .entry((proc_index, ParamSlot::Arg(i as u8)))
                .or_insert_with(|| ValueTracker::new(self.config))
                .observe(value);
        }
    }

    fn on_proc_exit(&mut self, _machine: &Machine, proc_index: usize, ret: u64) {
        self.trackers
            .entry((proc_index, ParamSlot::Ret))
            .or_insert_with(|| ValueTracker::new(self.config))
            .observe(ret);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_instrument::{Instrumenter, Selection};
    use vp_sim::MachineConfig;

    const TWO_PROCS: &str = r#"
        .text
        main:
            li r9, 6
        loop:
            mov a0, r9           # varying argument
            call id
            li  a0, 42           # constant argument
            li  a1, 9
            call pair
            addi r9, r9, -1
            bnz r9, loop
            sys exit
        .proc id
        id:
            mov v0, a0
            ret
        .endp
        .proc pair
        pair:
            add v0, a0, a1
            ret
        .endp
    "#;

    fn run(arity: u8) -> ParamProfiler {
        let program = vp_asm::assemble(TWO_PROCS).unwrap();
        let mut p = ParamProfiler::new(TrackerConfig::with_full(), arity);
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(&program, MachineConfig::new(), 100_000, &mut p)
            .unwrap();
        p
    }

    #[test]
    fn per_proc_and_slot_tracking() {
        let p = run(2);
        // proc 0 = id, proc 1 = pair; 2 arg slots + ret each.
        let rows = p.metrics();
        assert_eq!(rows.len(), 6);
        let id_arg = p.tracker(0, ParamSlot::Arg(0)).unwrap();
        assert_eq!(id_arg.executions(), 6);
        assert_eq!(id_arg.distinct(), Some(6)); // varying
        let pair_arg = p.tracker(1, ParamSlot::Arg(0)).unwrap();
        assert!((pair_arg.inv_top(1) - 1.0).abs() < 1e-12); // constant 42
        let pair_ret = p.tracker(1, ParamSlot::Ret).unwrap();
        assert!((pair_ret.inv_top(1) - 1.0).abs() < 1e-12); // always 51
    }

    #[test]
    fn arity_override() {
        let program = vp_asm::assemble(TWO_PROCS).unwrap();
        let mut p = ParamProfiler::new(TrackerConfig::default(), 4);
        p.set_arity(0, 1);
        p.set_arity(1, 2);
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(&program, MachineConfig::new(), 100_000, &mut p)
            .unwrap();
        assert!(p.tracker(0, ParamSlot::Arg(1)).is_none());
        assert!(p.tracker(1, ParamSlot::Arg(1)).is_some());
        assert!(p.tracker(1, ParamSlot::Arg(2)).is_none());
    }

    #[test]
    fn aggregate_excludes_returns() {
        let p = run(1);
        let agg = p.aggregate_args();
        // id's arg (6 distinct values) + pair's arg (constant): 12 executions.
        assert_eq!(agg.executions, 12);
        assert!(agg.inv_top1 > 0.4 && agg.inv_top1 < 0.8);
    }

    #[test]
    fn metric_ids_unique() {
        let p = run(4);
        let rows = p.metrics();
        let mut ids: Vec<u64> = rows.iter().map(|r| r.metrics.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
