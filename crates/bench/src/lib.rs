//! # vp-bench — experiment harness
//!
//! One function per table/figure of the paper, registered in
//! [`experiments::ALL`] (see DESIGN.md §5 for the experiment index E1–E17
//! and EXPERIMENTS.md for captured results), plus the suite runner, the
//! optimize driver and the serve daemon. Wall-clock costs are measured by
//! the `perfbench` harness, not here.
//!
//! Run an experiment with e.g. `vprof experiment E2`, or every one in
//! E-order with `vprof experiment all`.

pub mod checkpoint;
pub mod executor;
pub mod experiments;
pub mod optimize;
pub mod serve;
pub mod suite;
pub mod telemetry;

use vp_core::{track::TrackerConfig, InstructionProfiler};
use vp_instrument::{Instrumenter, Selection};
use vp_workloads::{DataSet, Workload};

pub use checkpoint::{Checkpoint, ResumeSummary};
pub use executor::{
    serve_worker, ProcessPool, WorkerCounters, WorkerExecutor, WorkerExit, WorkerFailure,
    WorkerSpec,
};
pub use experiments::ExpReport;
pub use optimize::{optimize_from_outcome, OptimizeConfig, OptimizeReport, WorkloadOptimize};
pub use serve::{ServeConfig, ServeReport, SessionMode, SessionSummary};
pub use suite::{
    RetryPolicy, SuiteOutcome, SuiteProfile, SuiteRunner, WorkloadFailure, WorkloadProfile,
};
pub use telemetry::{default_path, fault_records, suite_records, write_jsonl};
pub use vp_core::ProfileMode;

/// Instruction budget for experiment runs (far above any workload's need).
pub const BUDGET: u64 = 100_000_000;

/// Runs the instruction profiler over one workload/data set.
///
/// # Panics
///
/// Panics if the workload run faults — experiments treat that as a fatal
/// harness bug.
pub fn profile_instructions(
    workload: &Workload,
    ds: DataSet,
    selection: Selection,
    config: TrackerConfig,
) -> InstructionProfiler {
    let mut profiler = InstructionProfiler::new(config);
    Instrumenter::new()
        .select(selection)
        .run(workload.program(), workload.machine_config(ds), BUDGET, &mut profiler)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", workload.name(), ds.name()));
    profiler
}

/// Load-value profile with exact ground truth (the default experiment
/// configuration).
pub fn load_profile(workload: &Workload, ds: DataSet) -> InstructionProfiler {
    profile_instructions(workload, ds, Selection::LoadsOnly, TrackerConfig::with_full())
}

/// All-register-defining-instruction profile with exact ground truth.
pub fn all_instr_profile(workload: &Workload, ds: DataSet) -> InstructionProfiler {
    profile_instructions(workload, ds, Selection::RegisterDefining, TrackerConfig::with_full())
}

/// Collects the `(pc, value)` stream of selected instructions for one
/// workload run (used by the predictor and TNV-policy experiments).
///
/// # Panics
///
/// Panics if the workload run faults.
pub fn value_stream(workload: &Workload, ds: DataSet, selection: Selection) -> Vec<(u32, u64)> {
    struct Collector(Vec<(u32, u64)>);
    impl vp_instrument::Analysis for Collector {
        const VALUE_STREAM: bool = true;

        fn observe_values(&mut self, events: &[(u32, u64)]) {
            self.0.extend_from_slice(events);
        }
    }
    let mut collector = Collector(Vec::new());
    Instrumenter::new()
        .select(selection)
        .run(workload.program(), workload.machine_config(ds), BUDGET, &mut collector)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", workload.name(), ds.name()));
    collector.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_workloads::suite;

    #[test]
    fn helpers_produce_profiles() {
        let w = &suite()[1]; // li
        let p = load_profile(w, DataSet::Test);
        assert!(p.profiled_instructions() >= 1);
        let a = all_instr_profile(w, DataSet::Test);
        assert!(a.profiled_instructions() > p.profiled_instructions());
        let stream = value_stream(w, DataSet::Test, Selection::LoadsOnly);
        assert_eq!(stream.len() as u64, p.aggregate().executions);
    }
}
