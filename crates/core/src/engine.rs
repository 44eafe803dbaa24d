//! The profiling engine: every profiling mode is one [`Profiler`], built
//! in one place ([`ProfileMode::build`]).
//!
//! The paper has two profilers — full TNV tracking and convergent
//! sampling — and so does the engine. Adaptive mode is the convergent
//! profiler with its phase budget armed. Both consume the same
//! `(pc, value)` stream. Every execution path (the suite runner's live
//! pass, `vprof replay`, the serve daemon's sessions) builds its profiler
//! here and reads its results through the same accessors, so none of
//! them dispatches on the mode itself. The flat sampling baselines
//! ([`SampledProfiler`](crate::sampled::SampledProfiler)) are not an
//! engine mode: experiment E7 drives them directly.
//!
//! [`Profiler`] is a closed enum rather than a trait object: the live
//! path ([`Profiler::run_live`]) matches the variant once and then runs
//! the monomorphized instrumentation loop, so no event pays a dynamic
//! dispatch, and the stream paths dispatch once per batch.
//!
//! A profiler's account of its own interventions is one value,
//! [`Profiler::stats`]: a [`ProfilerStats`] section (the memory
//! governor's on a governed full profiler, the phase detector's on an
//! adaptive one) or `None`. Telemetry and `vprof stats` each encode it
//! through one function.

use vp_asm::Program;
use vp_instrument::trace_codec::{ChunkReader, CodecError};
use vp_instrument::{cancel, InstrumentedRun, Instrumenter};
use vp_obs::{CounterId, Counts};
use vp_sim::{MachineConfig, SimError};

use crate::convergent::{ConvergentConfig, ConvergentProfiler};
use crate::govern::{GovernorStats, MemBudget};
use crate::instr_profile::InstructionProfiler;
use crate::metrics::EntityMetrics;
use crate::phase::{PhaseBudget, PhaseStats};
use crate::track::TrackerConfig;

/// Which profiler a run attaches. Convergent and adaptive profiling use
/// [`ConvergentConfig::default`], the configuration of every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// Full profiling: every selected execution observed
    /// ([`InstructionProfiler`]).
    Full,
    /// The paper's convergent profiler (bursts with adaptive back-off).
    Convergent,
    /// The convergent profiler with phase detection armed: converged
    /// instructions re-arm when their value distribution shifts, under
    /// the bounded [`PhaseBudget`] ([`ConvergentProfiler::adaptive`]).
    Adaptive(PhaseBudget),
}

impl ProfileMode {
    /// The mode's name, as its CLI flag and in telemetry.
    pub fn name(self) -> &'static str {
        match self {
            ProfileMode::Full => "full",
            ProfileMode::Convergent => "convergent",
            ProfileMode::Adaptive(_) => "adaptive",
        }
    }

    /// The tracker configuration the mode profiles with: exact histograms
    /// for full profiling, plain TNV tables for the sampling modes (whose
    /// point is constant space per entity).
    fn tracker(self) -> TrackerConfig {
        match self {
            ProfileMode::Full => TrackerConfig::with_full(),
            ProfileMode::Convergent | ProfileMode::Adaptive(_) => TrackerConfig::default(),
        }
    }

    /// Builds the mode's profiler. `mem_budget` governs the full
    /// profiler's resident state (see [`crate::govern`]); the sampling
    /// modes already run in constant space per entity and ignore it.
    pub fn build(self, mem_budget: Option<MemBudget>) -> Profiler {
        let tracker = self.tracker();
        let config = ConvergentConfig::default();
        match self {
            ProfileMode::Full => Profiler::Full(match mem_budget {
                Some(budget) => InstructionProfiler::with_budget(tracker, budget),
                None => InstructionProfiler::new(tracker),
            }),
            ProfileMode::Convergent => {
                Profiler::Convergent(ConvergentProfiler::new(tracker, config))
            }
            ProfileMode::Adaptive(budget) => {
                Profiler::Convergent(ConvergentProfiler::adaptive(tracker, config, budget))
            }
        }
    }

    /// Profiles a VPC1 trace: the one decode loop behind `vprof replay`.
    /// Each decoded chunk streams straight into one profiler's batched
    /// observe path, and every chunk boundary is a cancellation
    /// checkpoint, so a deadline bounds the decode too.
    pub fn profile_trace(
        self,
        mem_budget: Option<MemBudget>,
        reader: &mut ChunkReader<'_>,
    ) -> Result<Profiler, CodecError> {
        let mut profiler = self.build(mem_budget);
        let mut chunk = Vec::new();
        loop {
            cancel::checkpoint();
            if !reader.next_chunk_into(&mut chunk)? {
                return Ok(profiler);
            }
            profiler.observe_batch(&chunk);
        }
    }
}

/// The profiler of a [`ProfileMode`].
#[derive(Debug, Clone)]
pub enum Profiler {
    /// [`ProfileMode::Full`].
    Full(InstructionProfiler),
    /// [`ProfileMode::Convergent`], and [`ProfileMode::Adaptive`] with
    /// its phase budget armed.
    Convergent(ConvergentProfiler),
}

impl Profiler {
    /// Feeds one `(pc, value)` event.
    pub fn observe(&mut self, pc: u32, value: u64) {
        match self {
            Profiler::Full(p) => p.observe(pc, value),
            Profiler::Convergent(p) => p.observe(pc, value),
        }
    }

    /// Feeds a batch of events in stream order.
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        match self {
            Profiler::Full(p) => p.observe_batch(events),
            Profiler::Convergent(p) => p.observe_batch(events),
        }
    }

    /// Runs `program` with this profiler attached live. The variant is
    /// matched once; the instrumentation loop itself is monomorphized
    /// over the concrete profiler.
    pub fn run_live(
        &mut self,
        instrumenter: &Instrumenter,
        program: &Program,
        config: MachineConfig,
        budget: u64,
    ) -> Result<InstrumentedRun, SimError> {
        match self {
            Profiler::Full(p) => instrumenter.run(program, config, budget, p),
            Profiler::Convergent(p) => instrumenter.run(program, config, budget, p),
        }
    }

    /// Per-entity metrics ordered by entity id; the convergent profiler
    /// reweights `executions` to the true totals.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        match self {
            Profiler::Full(p) => p.metrics(),
            Profiler::Convergent(p) => p.metrics(),
        }
    }

    /// Fraction of observed executions actually profiled (1.0 for full
    /// profiling).
    pub fn profile_fraction(&self) -> f64 {
        match self {
            Profiler::Full(_) => 1.0,
            Profiler::Convergent(p) => p.overall_profile_fraction(),
        }
    }

    /// The profiler's account of its own interventions: the memory
    /// governor's counters on a governed full profiler, the phase
    /// detector's on an adaptive one, `None` in every other mode.
    pub fn stats(&self) -> Option<ProfilerStats> {
        match self {
            Profiler::Full(p) => p.governor_stats().copied().map(ProfilerStats::Governor),
            Profiler::Convergent(p) => {
                p.phase_budget().map(|_| ProfilerStats::Phase(p.phase_stats()))
            }
        }
    }

    /// Adds the profiler's self-profiling events to `counts`: TNV-table
    /// work, convergent-sampler decisions, and the summable counters of
    /// its [`stats`](Self::stats).
    pub fn add_events_to(&self, counts: &mut Counts) {
        match self {
            Profiler::Full(p) => p.tnv_events().add_to(counts),
            Profiler::Convergent(p) => {
                p.tnv_events().add_to(counts);
                p.events().add_to(counts);
            }
        }
        if let Some(stats) = self.stats() {
            stats.add_events_to(counts);
        }
    }
}

/// The one stats section a [`Profiler`] carries: the governor's on a
/// governed full profiler, the phase detector's on an adaptive one. No
/// mode has both. Each section is four `u64` fields under one name, and
/// [`name`](Self::name) with [`fields`](Self::fields) drive every
/// encoding of it (telemetry, `vprof stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilerStats {
    /// A governed full profiler's [`GovernorStats`].
    Governor(GovernorStats),
    /// An adaptive profiler's [`PhaseStats`].
    Phase(PhaseStats),
}

impl ProfilerStats {
    /// The section's name: its key in telemetry records.
    pub fn name(&self) -> &'static str {
        match self {
            ProfilerStats::Governor(_) => "governor",
            ProfilerStats::Phase(_) => "phase",
        }
    }

    /// The section's fields as `(name, value)`, in encoding order.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        match *self {
            ProfilerStats::Governor(g) => [
                ("bytes_peak", g.bytes_peak),
                ("entities_degraded", g.entities_degraded),
                ("entities_dropped", g.entities_dropped),
                ("observations_dropped", g.observations_dropped),
            ],
            ProfilerStats::Phase(p) => [
                ("windows", p.windows),
                ("shifts_detected", p.shifts_detected),
                ("rearms", p.rearms),
                ("rearms_denied", p.rearms_denied),
            ],
        }
    }

    /// Adds the section's event counts to `counts`. The governor's
    /// `bytes_peak` is a gauge, not an event count, so it is left out, as
    /// are its dropped observations, which have no counter.
    fn add_events_to(&self, counts: &mut Counts) {
        match *self {
            ProfilerStats::Governor(g) => {
                counts.add(CounterId::EntitiesDegraded, g.entities_degraded);
                counts.add(CounterId::EntitiesDropped, g.entities_dropped);
            }
            ProfilerStats::Phase(p) => {
                counts.add(CounterId::PhaseWindows, p.windows);
                counts.add(CounterId::PhaseShifts, p.shifts_detected);
                counts.add(CounterId::PhaseRearms, p.rearms);
                counts.add(CounterId::PhaseRearmsDenied, p.rearms_denied);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::AdaptiveProfiler;
    use vp_instrument::{trace_codec, ChunkReader, Selection};
    use vp_workloads::adversarial::adversarial_streams;
    use vp_workloads::{suite, DataSet};

    const MODES: [ProfileMode; 3] = [
        ProfileMode::Full,
        ProfileMode::Convergent,
        ProfileMode::Adaptive(PhaseBudget { max_rearms: 4, window: 64 }),
    ];

    fn stream() -> Vec<(u32, u64)> {
        (0..20_000u64).map(|i| ((i % 13) as u32, if i < 10_000 { i % 3 } else { 7 })).collect()
    }

    #[test]
    fn trace_replay_matches_the_serial_batch_for_every_mode() {
        let events = stream();
        let bytes = trace_codec::encode(&events, 1000);
        for mode in MODES {
            let mut serial = mode.build(None);
            serial.observe_batch(&events);
            let mut reader = ChunkReader::new(&bytes).unwrap();
            let replayed = mode.profile_trace(None, &mut reader).unwrap();
            assert_eq!(replayed.metrics(), serial.metrics(), "{mode:?}");
            assert_eq!(replayed.stats(), serial.stats(), "{mode:?}");
            let (mut a, mut b) = (Counts::new(), Counts::new());
            replayed.add_events_to(&mut a);
            serial.add_events_to(&mut b);
            assert_eq!(a, b, "{mode:?}");
            assert_eq!(reader.events_read(), events.len() as u64);
        }
    }

    #[test]
    fn stats_are_present_exactly_in_their_modes() {
        for mode in MODES {
            let governed = mode.build(Some(MemBudget::mib(64))).stats().map(|s| s.name());
            let plain = mode.build(None).stats().map(|s| s.name());
            let want = match mode {
                ProfileMode::Full => (Some("governor"), None),
                ProfileMode::Convergent => (None, None),
                ProfileMode::Adaptive(_) => (Some("phase"), Some("phase")),
            };
            assert_eq!((governed, plain), want, "{mode:?}");
        }
        assert_eq!(ProfileMode::Full.build(None).profile_fraction(), 1.0);
    }

    #[test]
    fn the_governor_peak_is_no_event_count() {
        let stats = ProfilerStats::Governor(GovernorStats {
            bytes_peak: 919_352,
            entities_degraded: 1,
            entities_dropped: 2,
            observations_dropped: 4,
        });
        let mut counts = Counts::new();
        stats.add_events_to(&mut counts);
        assert_eq!(counts.total(), 3, "only the entity counts are events: {counts:?}");
    }

    fn assert_wrapper_matches(at: &str, wrapper: &AdaptiveProfiler, engine: &Profiler) {
        let Profiler::Convergent(p) = engine else { panic!("{at}: adaptive is convergent") };
        assert_eq!(wrapper.metrics(), p.metrics(), "{at}");
        assert_eq!(wrapper.events(), p.events(), "{at}");
        assert_eq!(wrapper.tnv_events(), p.tnv_events(), "{at}");
        assert_eq!(Some(ProfilerStats::Phase(wrapper.phase_stats())), engine.stats(), "{at}");
    }

    #[test]
    fn adaptive_wrapper_matches_the_adaptive_mode() {
        // The benchmark builds the wrapper, the product builds the
        // engine's adaptive mode: unless the two agree bit for bit, the
        // benchmark's adaptive digests stop describing the product path.
        let b = PhaseBudget::default();
        let wrapper =
            || AdaptiveProfiler::new(TrackerConfig::default(), ConvergentConfig::default(), b);
        let engine = || ProfileMode::Adaptive(b).build(None);
        for (name, events) in adversarial_streams() {
            let (mut w, mut e) = (wrapper(), engine());
            w.observe_batch(&events);
            e.observe_batch(&events);
            assert_wrapper_matches(name, &w, &e);
        }
        // A suite program's value stream, delivered live in value blocks.
        let program = &suite()[0];
        let instrumenter = Instrumenter::new().select(Selection::RegisterDefining);
        let cfg = || program.machine_config(DataSet::Test);
        let (mut w, mut e) = (wrapper(), engine());
        instrumenter.run(program.program(), cfg(), 100_000_000, &mut w).unwrap();
        e.run_live(&instrumenter, program.program(), cfg(), 100_000_000).unwrap();
        assert_wrapper_matches(program.name(), &w, &e);
        assert!(matches!(e.stats(), Some(ProfilerStats::Phase(ps)) if ps.windows > 0));
        let mut convergent = ProfileMode::Convergent.build(None);
        convergent.run_live(&instrumenter, program.program(), cfg(), 100_000_000).unwrap();
        assert_eq!(convergent.stats(), None);
    }

    #[test]
    fn live_run_feeds_the_profiler() {
        let program = vp_asm::assemble(
            ".data\nx: .quad 5\n.text\nmain: li r9, 100\n la r8, x\nloop: ldd r2, 0(r8)\n addi r9, r9, -1\n bnz r9, loop\n sys exit\n",
        )
        .unwrap();
        let instrumenter = Instrumenter::new().select(Selection::LoadsOnly);
        for mode in MODES {
            let mut p = mode.build(None);
            let run = p.run_live(&instrumenter, &program, MachineConfig::new(), 10_000).unwrap();
            assert_eq!(run.counts.instr_events, 100, "{mode:?}");
            assert_eq!(p.metrics()[0].executions, 100, "{mode:?}");
        }
    }
}
