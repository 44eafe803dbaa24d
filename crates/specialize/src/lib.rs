//! # vp-specialize — profile-guided code specialization
//!
//! The Value Profiling paper's end-to-end payoff (thesis Chapter X):
//! identify a *semi-invariant* value with the profiler, clone the code
//! that consumes it, constant-fold the clone against the dominant value,
//! and guard entry to the clone with a cheap run-time comparison.
//!
//! The transform here works on assembled [`vp_asm::Program`]s, in one
//! profile → plan → transform → validate loop:
//!
//! * [`plan_candidates`] — pick specializable loads from a value profile,
//!   naming a [`RejectReason`] for every site it passes on,
//! * [`specialize`] / [`specialize_all`] — build a chain of one or more
//!   guards in front of folded fast paths (see [`transform`] for the
//!   trampoline layout),
//! * [`fold`] — the constant folder, backed by a real backward
//!   [`liveness`] analysis over the CFG so dead folded registers are never
//!   materialized,
//! * [`evaluate`] — measure the dynamic-instruction speedup, verify
//!   output equivalence and count every guard hit and miss,
//! * [`optimize_program`] — all of the above for one program,
//! * [`demo`] — the kernels used by experiments E13 and E17.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use vp_core::{track::TrackerConfig, InstructionProfiler};
//! use vp_instrument::{Instrumenter, Selection};
//! use vp_sim::MachineConfig;
//! use vp_specialize::{
//!     demo, evaluate, plan_candidates, specialize_all, tracker_top_values, OptimizeOptions,
//! };
//!
//! let program = demo::program();
//! let input = demo::input(2_000, 0); // fully invariant configuration
//!
//! // 1. Profile.
//! let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
//! Instrumenter::new().select(Selection::LoadsOnly).run(
//!     &program,
//!     MachineConfig::new().input(input.clone()),
//!     10_000_000,
//!     &mut profiler,
//! )?;
//!
//! // 2. Plan: which loads, and which of their top values to guard on.
//! let top_values =
//!     |index| profiler.tracker(index).map(|t| tracker_top_values(t, 8)).unwrap_or_default();
//! let plan =
//!     plan_candidates(&program, &profiler.metrics(), &top_values, &OptimizeOptions::default());
//! assert_eq!(plan.selected.len(), 1);
//!
//! // 3. Specialize behind run-time guards.
//! let (specialized, sites) = specialize_all(&program, &plan.selected)?;
//!
//! // 4. Measure, counting every guard outcome.
//! let report = evaluate(&program, &specialized, &sites, &input, 10_000_000)?;
//! assert!(report.speedup.equivalent);
//! assert!(report.speedup.speedup() > 1.0);
//! assert_eq!(report.guards[0].misses, 0);
//! # Ok(())
//! # }
//! ```

pub mod demo;
pub mod eval;
pub mod fold;
pub mod liveness;
pub mod pipeline;
pub mod transform;

pub use eval::{evaluate, GuardStats, GuardedReport, SpeedupReport};
pub use liveness::{Liveness, RegSet};
pub use pipeline::{
    optimize_program, plan_candidates, tracker_top_values, CandidatePlan, OptimizeOptions,
    ProgramOptimize, RejectReason, RejectedCandidate, SiteOutcome,
};
pub use transform::{
    estimate, specialize, specialize_all, Candidate, CandidateOptions, FoldEstimate, GuardSite,
    SpecializeError, SCRATCH,
};
