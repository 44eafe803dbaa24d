//! The procedure parameter / return-value profiler.
//!
//! Semi-invariant procedure arguments are the paper's primary hook for
//! code specialization (Chapter X): a procedure whose argument is nearly
//! always the same value can be cloned and specialized on that value
//! behind a cheap guard.

use vp_instrument::Analysis;
use vp_sim::Machine;

use crate::arena::EntityMap;
use crate::metrics::EntityMetrics;
use crate::tnv::TNV_CAPACITY;
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
/// The first `arity` argument registers of every procedure are profiled
/// (VP64 has four), plus every return value.
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
    arity: u8,
    trackers: EntityMap<(usize, ParamSlot), ValueTracker>,
}

impl ParamProfiler {
    /// Creates a profiler that tracks `arity` argument registers per
    /// procedure (clamped to 4) plus every return value.
    pub fn new(config: TrackerConfig, arity: u8) -> ParamProfiler {
        ParamProfiler { config, arity: arity.min(4), trackers: EntityMap::default() }
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
                    TNV_CAPACITY,
                ),
            })
            .collect()
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
        for (i, &value) in args.iter().enumerate().take(usize::from(self.arity)) {
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
