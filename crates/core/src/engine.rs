//! The profiling engine: every profiling mode is one [`Profiler`], built
//! in one place ([`ProfileMode::build`]).
//!
//! The paper's profilers — full TNV tracking and convergent sampling —
//! and this reproduction's adaptive and sampled variants all consume the
//! same `(pc, value)` stream. Every execution path (the suite runner's
//! live pass, `vprof replay`, the serve daemon's sessions)
//! builds its profiler here and reads its results through the same
//! accessors, so none of them dispatches on the mode itself.
//!
//! [`Profiler`] is a closed enum rather than a trait object: the live
//! path ([`Profiler::run_live`]) matches the variant once and then runs
//! the monomorphized instrumentation loop, so no event pays a dynamic
//! dispatch, and the stream paths dispatch once per batch.

use vp_asm::Program;
use vp_instrument::trace_codec::{ChunkReader, CodecError};
use vp_instrument::{cancel, InstrumentedRun, Instrumenter};
use vp_obs::{CounterId, Counts};
use vp_sim::{MachineConfig, SimError};

use crate::convergent::{ConvergentConfig, ConvergentProfiler};
use crate::govern::{GovernorStats, MemBudget};
use crate::instr_profile::InstructionProfiler;
use crate::metrics::EntityMetrics;
use crate::phase::{AdaptiveProfiler, PhaseBudget, PhaseStats};
use crate::sampled::{SampleStrategy, SampledProfiler};
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
    /// the bounded [`PhaseBudget`] ([`AdaptiveProfiler`]).
    Adaptive(PhaseBudget),
    /// The CPI-style sampling baseline.
    Sampled(SampleStrategy),
}

impl ProfileMode {
    /// The tracker configuration the mode profiles with by default: exact
    /// histograms for full profiling, plain TNV tables for the sampling
    /// modes (whose point is constant space per entity).
    pub fn tracker(self) -> TrackerConfig {
        match self {
            ProfileMode::Full => TrackerConfig::with_full(),
            _ => TrackerConfig::default(),
        }
    }

    /// Builds the mode's profiler. `mem_budget` governs the full
    /// profiler's resident state (see [`crate::govern`]); the sampling
    /// modes already run in constant space per entity and ignore it.
    pub fn build(self, tracker: TrackerConfig, mem_budget: Option<MemBudget>) -> Profiler {
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
                Profiler::Adaptive(AdaptiveProfiler::new(tracker, config, budget))
            }
            ProfileMode::Sampled(strategy) => {
                Profiler::Sampled(SampledProfiler::new(tracker, strategy))
            }
        }
    }

    /// Profiles a VPC1 trace: the one decode loop behind `vprof replay`.
    /// Each decoded chunk streams straight into one profiler's batched
    /// observe path, and every chunk boundary is a cancellation
    /// checkpoint, so a deadline bounds the decode too.
    pub fn profile_trace(
        self,
        tracker: TrackerConfig,
        mem_budget: Option<MemBudget>,
        reader: &mut ChunkReader<'_>,
    ) -> Result<Profiler, CodecError> {
        let mut profiler = self.build(tracker, mem_budget);
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

/// One profiler of any [`ProfileMode`].
#[derive(Debug, Clone)]
pub enum Profiler {
    /// [`ProfileMode::Full`].
    Full(InstructionProfiler),
    /// [`ProfileMode::Convergent`].
    Convergent(ConvergentProfiler),
    /// [`ProfileMode::Adaptive`].
    Adaptive(AdaptiveProfiler),
    /// [`ProfileMode::Sampled`].
    Sampled(SampledProfiler),
}

impl Profiler {
    /// Feeds one `(pc, value)` event.
    pub fn observe(&mut self, pc: u32, value: u64) {
        match self {
            Profiler::Full(p) => p.observe(pc, value),
            Profiler::Convergent(p) => p.observe(pc, value),
            Profiler::Adaptive(p) => p.observe(pc, value),
            Profiler::Sampled(p) => p.observe(pc, value),
        }
    }

    /// Feeds a batch of events in stream order.
    pub fn observe_batch(&mut self, events: &[(u32, u64)]) {
        match self {
            Profiler::Full(p) => p.observe_batch(events),
            Profiler::Convergent(p) => p.observe_batch(events),
            Profiler::Adaptive(p) => p.observe_batch(events),
            Profiler::Sampled(p) => p.observe_batch(events),
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
            Profiler::Adaptive(p) => instrumenter.run(program, config, budget, p),
            Profiler::Sampled(p) => instrumenter.run(program, config, budget, p),
        }
    }

    /// Per-entity metrics ordered by entity id; the sampling modes
    /// reweight `executions` to the true totals.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        match self {
            Profiler::Full(p) => p.metrics(),
            Profiler::Convergent(p) => p.metrics(),
            Profiler::Adaptive(p) => p.metrics(),
            Profiler::Sampled(p) => p.metrics(),
        }
    }

    /// Fraction of observed executions actually profiled (1.0 for full
    /// profiling).
    pub fn profile_fraction(&self) -> f64 {
        match self {
            Profiler::Full(_) => 1.0,
            Profiler::Convergent(p) => p.overall_profile_fraction(),
            Profiler::Adaptive(p) => p.overall_profile_fraction(),
            Profiler::Sampled(p) => p.overall_profile_fraction(),
        }
    }

    /// Memory-governor counters, present only on a governed full
    /// profiler.
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        match self {
            Profiler::Full(p) => p.governor_stats().copied(),
            _ => None,
        }
    }

    /// Phase-detector counters, present only on an adaptive profiler.
    pub fn phase_stats(&self) -> Option<PhaseStats> {
        match self {
            Profiler::Adaptive(p) => Some(p.phase_stats()),
            _ => None,
        }
    }

    /// Adds the profiler's self-profiling events to `counts`: TNV-table
    /// work, sampler decisions, and the governor and phase-detector
    /// counters where the mode has them.
    pub fn add_events_to(&self, counts: &mut Counts) {
        match self {
            Profiler::Full(p) => p.tnv_events().add_to(counts),
            Profiler::Convergent(p) => {
                p.tnv_events().add_to(counts);
                p.events().add_to(counts);
            }
            Profiler::Adaptive(p) => {
                p.tnv_events().add_to(counts);
                p.events().add_to(counts);
            }
            Profiler::Sampled(p) => {
                p.tnv_events().add_to(counts);
                p.events().add_to(counts);
            }
        }
        if let Some(gov) = self.governor_stats() {
            counts.add(CounterId::EntitiesDegraded, gov.entities_degraded);
            counts.add(CounterId::EntitiesDropped, gov.entities_dropped);
        }
        if let Some(ph) = self.phase_stats() {
            counts.add(CounterId::PhaseWindows, ph.windows);
            counts.add(CounterId::PhaseShifts, ph.shifts_detected);
            counts.add(CounterId::PhaseRearms, ph.rearms);
            counts.add(CounterId::PhaseRearmsDenied, ph.rearms_denied);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_instrument::{trace_codec, ChunkReader, Selection};

    const MODES: [ProfileMode; 4] = [
        ProfileMode::Full,
        ProfileMode::Convergent,
        ProfileMode::Adaptive(PhaseBudget { max_rearms: 4, window: 64 }),
        ProfileMode::Sampled(SampleStrategy::Periodic { period: 3 }),
    ];

    fn stream() -> Vec<(u32, u64)> {
        (0..20_000u64).map(|i| ((i % 13) as u32, if i < 10_000 { i % 3 } else { 7 })).collect()
    }

    #[test]
    fn trace_replay_matches_the_serial_batch_for_every_mode() {
        let events = stream();
        let bytes = trace_codec::encode(&events, 1000);
        for mode in MODES {
            let mut serial = mode.build(mode.tracker(), None);
            serial.observe_batch(&events);
            let mut reader = ChunkReader::new(&bytes).unwrap();
            let replayed = mode.profile_trace(mode.tracker(), None, &mut reader).unwrap();
            assert_eq!(replayed.metrics(), serial.metrics(), "{mode:?}");
            assert_eq!(replayed.phase_stats(), serial.phase_stats(), "{mode:?}");
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
            let p = mode.build(mode.tracker(), Some(MemBudget::mib(64)));
            assert_eq!(p.governor_stats().is_some(), mode == ProfileMode::Full, "{mode:?}");
            assert_eq!(p.phase_stats().is_some(), matches!(mode, ProfileMode::Adaptive(_)));
        }
        assert!(ProfileMode::Full.build(TrackerConfig::default(), None).governor_stats().is_none());
        assert_eq!(ProfileMode::Full.build(TrackerConfig::default(), None).profile_fraction(), 1.0);
    }

    #[test]
    fn live_run_feeds_the_profiler() {
        let program = vp_asm::assemble(
            ".data\nx: .quad 5\n.text\nmain: li r9, 100\n la r8, x\nloop: ldd r2, 0(r8)\n addi r9, r9, -1\n bnz r9, loop\n sys exit\n",
        )
        .unwrap();
        let instrumenter = Instrumenter::new().select(Selection::LoadsOnly);
        for mode in MODES {
            let mut p = mode.build(mode.tracker(), None);
            let run = p.run_live(&instrumenter, &program, MachineConfig::new(), 10_000).unwrap();
            assert_eq!(run.counts.instr_events, 100, "{mode:?}");
            assert_eq!(p.metrics()[0].executions, 100, "{mode:?}");
        }
    }
}
