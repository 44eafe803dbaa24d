//! # vp-obs — self-profiling for the value profiler
//!
//! The paper's central trade-off is profiler *accuracy versus overhead*:
//! the convergent profiler exists only because full TNV profiling is too
//! slow. This crate is how the reproduction measures that overhead on
//! itself, in the spirit of low-perturbation instrumentation counters
//! (Metz & Lencevicius) and persisted cross-run profile data (Quackenbush
//! & Zahran, "Beyond Profiling"):
//!
//! * [`counter`] — the event taxonomy ([`CounterId`]), fixed-size count
//!   vectors ([`Counts`]) and the per-subsystem event structs
//!   ([`TnvEvents`], [`ConvEvents`]) that the profilers
//!   in `vp-core` maintain as plain `u64` increments on their hot paths —
//!   deterministic, mergeable, and practically free;
//! * [`crc`] — the CRC32 behind every integrity footer in the workspace
//!   (durable profile files, binary trace chunks, session frames): a
//!   carry-less-multiply kernel where the CPU has one, tables otherwise;
//! * [`json`] / [`telemetry`] — a dependency-free ordered JSON value and
//!   the schema-versioned `telemetry.jsonl` record format (one record per
//!   run/phase/workload), including volatile-field masking so records can
//!   be golden-tested;
//! * [`stats`] — the human summary table behind `vprof stats <file>`.
//!
//! Counts travel with the result they describe: a suite workload's
//! profile carries its own events and wall time into telemetry.
//! Per-layer cost is measured in one place, the `perfbench` harness.
//!
//! ```
//! use vp_obs::{CounterId, Counts};
//!
//! let mut a = Counts::new();
//! a.add(CounterId::TnvHits, 3);
//! let mut b = Counts::new();
//! b.add(CounterId::TnvHits, 4);
//! a.merge(&b);
//! assert_eq!(a.get(CounterId::TnvHits), 7);
//! ```

pub mod counter;
pub mod crc;
pub mod json;
pub mod stats;
pub mod telemetry;

pub use counter::{ConvEvents, CounterId, Counts, TnvEvents};
pub use crc::{crc32, Crc32};
pub use json::Json;
pub use telemetry::SCHEMA_VERSION;
