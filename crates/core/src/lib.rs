//! # vp-core — Value Profiling
//!
//! Implementation of *Value Profiling* (Brad Calder, Peter Feller, Alan
//! Eustace; MICRO-30, 1997) and its thesis extension *Value Profiling for
//! Instructions and Memory Locations* (Feller, UCSD TR CS98-581).
//!
//! Value profiling measures, for each instruction / memory location /
//! procedure parameter of a program, how *invariant* the values it produces
//! at run time are. Its outputs drive code specialization, value
//! prediction and speculation:
//!
//! * [`tnv::TnvTable`] — the Top-N-Value table, a constant-space sketch of
//!   an entity's most frequent values, maintained with LFU replacement and
//!   periodic lower-part clearing;
//! * [`track::ValueTracker`] — TNV table plus the paper's scalar metrics
//!   (LVP, %zero) and an optional exact histogram ([`track::FullProfile`]);
//! * [`InstructionProfiler`] / [`MemoryProfiler`] /
//!   [`params::ParamProfiler`] — the three profiled entity kinds, all
//!   pluggable [`vp_instrument::Analysis`] tools;
//! * [`convergent::ConvergentProfiler`] — the paper's low-overhead
//!   sampling profiler that backs off once an instruction's invariance has
//!   converged, plus the CPI-style [`sampled::SampledProfiler`] baselines
//!   that experiment E7 compares it against;
//! * [`engine`] — [`ProfileMode`] builds every mode's [`Profiler`] in one
//!   place, for the live, replay and serve paths alike;
//! * [`metrics`] — execution-weighted aggregates, invariance histograms
//!   and correlation, i.e. the numbers in the paper's tables and figures;
//! * [`report`] — table rendering and profile comparison (train vs test,
//!   full vs convergent).
//!
//! ## Quick example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use vp_core::{InstructionProfiler, track::TrackerConfig};
//! use vp_instrument::{Instrumenter, Selection};
//! use vp_sim::MachineConfig;
//!
//! let program = vp_asm::assemble(
//!     r#"
//!     .data
//!     flag: .quad 1
//!     .text
//!     main:
//!         li r9, 1000
//!         la r8, flag
//!     loop:
//!         ldd  r2, 0(r8)       # a semi-invariant load
//!         addi r9, r9, -1
//!         bnz  r9, loop
//!         sys exit
//!     "#,
//! )?;
//! let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
//! Instrumenter::new()
//!     .select(Selection::LoadsOnly)
//!     .run(&program, MachineConfig::new(), 100_000, &mut profiler)?;
//! let agg = profiler.aggregate();
//! assert!((agg.inv_top1 - 1.0).abs() < 1e-9); // the load always sees 1
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod convergent;
pub mod durable;
pub mod engine;
pub mod fault;
pub mod govern;
pub mod instr_profile;
pub mod memory;
pub mod metrics;
pub mod params;
pub mod phase;
pub mod profile_io;
pub mod report;
pub mod sampled;
pub mod shard;
pub mod temporal;
pub mod tnv;
pub mod track;

pub use arena::{Arena, ValueMap};
pub use convergent::{ConvergentConfig, ConvergentProfiler, ConvergentStats};
pub use durable::{
    append_jsonl, crc32, load_profile, parse_profile_checked, write_atomic, write_profile,
    CheckedProfile, Integrity, IntegrityMode, LoadProfileError,
};
pub use engine::{ProfileMode, Profiler, ProfilerStats};
pub use fault::{FaultAction, FaultPlan};
pub use govern::{Governor, GovernorStats, MemBudget};
pub use instr_profile::InstructionProfiler;
pub use memory::MemoryProfiler;
pub use metrics::{
    aggregate, correlation, invariance_histogram, merge_entity_metrics, Aggregate, EntityMetrics,
};
pub use params::{ParamMetrics, ParamProfiler, ParamSlot};
pub use phase::{AdaptiveProfiler, PhaseBudget, PhaseStats, WindowSig};
pub use profile_io::{parse_profile, render_profile, ParseProfileError};
pub use report::{compare, group_by_class, render_metric_table, ProfileComparison, ReportRow};
pub use sampled::{SampleStrategy, SampledProfiler};
pub use shard::{partition_by_entity, partition_count, profile_sharded, StreamProfiler};
pub use temporal::{TemporalProfiler, WindowMetrics};
pub use tnv::{Policy, TnvEntry, TnvTable};
pub use track::{FullProfile, TrackerConfig, ValueTracker};
