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
//! * [`crc`] — the table-driven CRC32 behind every integrity footer in
//!   the workspace (durable profile files, binary trace chunks);
//! * [`hist`] — [`Log2Histogram`], a 65-bucket power-of-two histogram for
//!   timing distributions (queue waits, per-workload wall times);
//! * [`recorder`] — the [`Recorder`] sink trait. The default
//!   [`NullRecorder`] makes every instrumented site cost a single
//!   predictable branch; [`MemRecorder`] aggregates counters atomically
//!   for tests and telemetry emission;
//! * [`json`] / [`telemetry`] — a dependency-free ordered JSON value and
//!   the schema-versioned `telemetry.jsonl` record format (one record per
//!   run/phase/workload), including volatile-field masking so records can
//!   be golden-tested;
//! * [`stats`] — the human summary table behind `vprof stats <file>`.
//!
//! ```
//! use vp_obs::{CounterId, Counts, MemRecorder, Recorder};
//!
//! let rec = MemRecorder::new();
//! rec.add(CounterId::TnvHits, 3);
//! let mut counts = Counts::new();
//! counts.add(CounterId::TnvHits, 4);
//! rec.add_counts(&counts);
//! assert_eq!(rec.snapshot().get(CounterId::TnvHits), 7);
//! ```

pub mod counter;
pub mod crc;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod stats;
pub mod telemetry;

pub use counter::{ConvEvents, CounterId, Counts, TnvEvents};
pub use crc::{crc32, Crc32};
pub use hist::Log2Histogram;
pub use json::Json;
pub use recorder::{HistId, MemRecorder, NullRecorder, Recorder, Stopwatch};
pub use telemetry::SCHEMA_VERSION;
