//! Suite-profiling driver: profile every workload of the benchmark suite
//! and render one table, serially or fanned out across worker threads.
//!
//! Parallelism is *per workload* — each worker profiles whole workloads,
//! so a workload's profile is produced by exactly one profiler instance
//! and `--jobs N` output is identical to a serial run by construction.
//! Only the order in which workloads *finish* varies; results are
//! reassembled in canonical suite order.
//!
//! Every run is one [`try_parallel_map`] in
//! [`SuiteRunner::try_run_workloads`], with one attempt per workload: a
//! workload that fails is quarantined and the rest of the suite
//! completes. Workloads run in process: a panic unwinds and is caught, a
//! hang is cut loose by [`cancel::run_with_deadline`] around the attempt,
//! and a runaway workload stops at the instruction budget with an error.
//! The emulator is deterministic, so a second attempt would fail the same
//! way. Each workload's event counts and wall time travel in its
//! [`WorkloadProfile`]; the run's fault counters in
//! [`SuiteOutcome::faults`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use vp_core::{
    aggregate, merge_entity_metrics, render_metric_table, report::row, Aggregate, EntityMetrics,
    FaultPlan, MemBudget, ProfileMode, ProfilerStats, ReportRow,
};
use vp_instrument::{cancel, try_parallel_map, FailureKind, Instrumenter, ItemFailure, Selection};
use vp_obs::{CounterId, Counts};
use vp_sim::Machine;
use vp_workloads::{suite, DataSet, Workload};

use crate::BUDGET;

/// One workload's profiling result.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload name.
    pub name: &'static str,
    /// Per-entity metrics, ordered by entity id.
    pub metrics: Vec<EntityMetrics>,
    /// Execution-weighted aggregate of `metrics`.
    pub aggregate: Aggregate,
    /// Fraction of selected executions actually profiled (1.0 in
    /// [`ProfileMode::Full`]).
    pub profile_fraction: f64,
    /// Dynamic instructions the run executed.
    pub instructions: u64,
    /// Self-profiling event counts of this workload's run (analysis
    /// events delivered, TNV-table work, sampler decisions). Plain
    /// deterministic counters: identical across `--jobs` settings.
    pub events: Counts,
    /// Wall time of the instrumented run, nanoseconds.
    pub wall_ns: u64,
    /// Wall time of an uninstrumented replay of the same workload, when
    /// baseline measurement was requested — the denominator of the
    /// profiling-slowdown figure.
    pub baseline_wall_ns: Option<u64>,
    /// The profiler's stats section ([`vp_core::Profiler::stats`]): the
    /// governor's when a budget was armed ([`SuiteRunner::mem_budget`]),
    /// the phase detector's in [`ProfileMode::Adaptive`]. `None`
    /// otherwise, keeping those profiles byte-identical to before either
    /// section existed.
    pub stats: Option<ProfilerStats>,
}

impl WorkloadProfile {
    /// Instrumented wall time over uninstrumented replay time, when a
    /// baseline was measured.
    pub fn slowdown(&self) -> Option<f64> {
        let base = self.baseline_wall_ns?;
        (base > 0).then(|| self.wall_ns as f64 / base as f64)
    }
}

/// The whole suite's profiling results, in canonical suite order.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// One entry per workload.
    pub workloads: Vec<WorkloadProfile>,
}

impl SuiteProfile {
    /// Report rows (one per workload), ready for
    /// [`render_metric_table`].
    pub fn rows(&self) -> Vec<ReportRow> {
        self.workloads.iter().map(|w| row(w.name, &w.metrics)).collect()
    }

    /// Renders the per-workload metric table.
    pub fn render(&self, title: &str) -> String {
        render_metric_table(title, &self.rows())
    }

    /// Pools every workload's entities into one metric set, re-keying ids
    /// as `workload_index << 32 | entity_id` so sites from different
    /// workloads never collide, and returns the suite-wide aggregate.
    ///
    /// Uses [`merge_entity_metrics`], so pooling two disjoint shards is
    /// exact (no entity is shared across workloads).
    pub fn pooled(&self) -> (Vec<EntityMetrics>, Aggregate) {
        let mut pool: Vec<EntityMetrics> = Vec::new();
        for (wi, w) in self.workloads.iter().enumerate() {
            let rekeyed: Vec<EntityMetrics> = w
                .metrics
                .iter()
                .map(|m| {
                    let mut m = m.clone();
                    m.id |= (wi as u64) << 32;
                    m
                })
                .collect();
            pool = merge_entity_metrics(&pool, &rekeyed);
        }
        let agg = aggregate(&pool);
        (pool, agg)
    }

    /// Total dynamic instructions across the suite.
    pub fn total_instructions(&self) -> u64 {
        self.workloads.iter().map(|w| w.instructions).sum()
    }
}

/// One workload whose attempt failed and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadFailure {
    /// Workload name.
    pub name: &'static str,
    /// How the attempt failed: a caught panic, or cooperative
    /// cancellation after the wall-clock deadline.
    pub kind: FailureKind,
    /// The attempt's panic message (a fixed `deadline exceeded` for
    /// timeouts, kept deterministic).
    pub error: String,
}

impl WorkloadFailure {
    /// Stable lower-case label of [`kind`](WorkloadFailure::kind), as
    /// rendered in failure tables and telemetry.
    pub fn kind_str(&self) -> &'static str {
        match self.kind {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }
}

/// Result of a fault-tolerant suite run: the profiles that succeeded, the
/// workloads that did not, and the fault counters describing what
/// happened along the way.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Profiles of the workloads that completed, in canonical order.
    /// Quarantined workloads are absent.
    pub profile: SuiteProfile,
    /// Workloads quarantined after their attempt failed, in canonical
    /// order.
    pub failures: Vec<WorkloadFailure>,
    /// Fault counters of this run: `WorkloadPanic` per caught panic,
    /// `WorkloadTimeout` per deadline cancellation, and
    /// `WorkloadQuarantined` per failure, so it equals their sum. All
    /// zero on a clean run.
    pub faults: Counts,
}

impl SuiteOutcome {
    /// Whether every workload completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the failure table (empty string when the run was clean),
    /// in the same shape `vprof stats` uses.
    pub fn render_failures(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:<12}  error\n", "failed", "kind"));
        for f in &self.failures {
            out.push_str(&format!("{:<16} {:<12}  {}\n", f.name, f.kind_str(), f.error));
        }
        out
    }
}

/// Profiles the workload suite, optionally in parallel.
///
/// ```
/// use vp_bench::suite::SuiteRunner;
/// use vp_workloads::DataSet;
///
/// let profile = SuiteRunner::new().jobs(2).run(DataSet::Test);
/// assert_eq!(profile.workloads.len(), vp_workloads::suite().len());
/// ```
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    jobs: usize,
    selection: Selection,
    budget: u64,
    mode: ProfileMode,
    measure_baseline: bool,
    faults: Arc<FaultPlan>,
    deadline: Option<Duration>,
    mem_budget: Option<MemBudget>,
}

impl Default for SuiteRunner {
    fn default() -> SuiteRunner {
        SuiteRunner::new()
    }
}

impl SuiteRunner {
    /// A serial runner profiling loads in full mode, with exact ground
    /// truth.
    pub fn new() -> SuiteRunner {
        SuiteRunner {
            jobs: 1,
            selection: Selection::LoadsOnly,
            budget: BUDGET,
            mode: ProfileMode::Full,
            measure_baseline: false,
            faults: Arc::new(FaultPlan::empty()),
            deadline: None,
            mem_budget: None,
        }
    }

    /// Sets the worker count (0 = available parallelism, 1 = serial).
    pub fn jobs(mut self, jobs: usize) -> SuiteRunner {
        self.jobs = jobs;
        self
    }

    /// Sets which instructions are profiled.
    pub fn selection(mut self, selection: Selection) -> SuiteRunner {
        self.selection = selection;
        self
    }

    /// Sets the instruction budget per workload run.
    pub fn budget(mut self, budget: u64) -> SuiteRunner {
        self.budget = budget;
        self
    }

    /// Sets the profiling mode.
    pub fn mode(mut self, mode: ProfileMode) -> SuiteRunner {
        self.mode = mode;
        self
    }

    /// Also replays every workload *uninstrumented* and records the
    /// baseline wall time, enabling [`WorkloadProfile::slowdown`]. Doubles
    /// the emulation work, so off by default.
    pub fn measure_baseline(mut self, measure: bool) -> SuiteRunner {
        self.measure_baseline = measure;
        self
    }

    /// Arms a fault plan: [`try_run`](SuiteRunner::try_run) fires the
    /// point `workload/<name>` before profiling each workload. The
    /// default empty plan never fires.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> SuiteRunner {
        self.faults = plan;
        self
    }

    /// Arms a per-workload wall-clock deadline for
    /// [`try_run`](SuiteRunner::try_run): each attempt runs under
    /// [`cancel::run_with_deadline`], and one still running when the
    /// deadline fires is cancelled cooperatively (at the next
    /// instruction-chunk boundary), counted as a `WorkloadTimeout` and
    /// quarantined — the rest of the suite always completes. Workloads
    /// that finish before the deadline are byte-identical to an
    /// undeadlined run. `None` (the default) starts no watchdog.
    pub fn deadline(mut self, deadline: Option<Duration>) -> SuiteRunner {
        self.deadline = deadline;
        self
    }

    /// Arms a per-workload memory budget for [`ProfileMode::Full`]: each
    /// workload's profiler accounts every tracked byte and, when over
    /// budget, walks the degradation ladder (full-profile → TNV-only →
    /// dropped; see [`vp_core::govern`]). Convergent and sampled modes
    /// already run in constant space per entity and are not governed.
    /// `None` (the default) leaves every profile byte-identical to an
    /// ungoverned run.
    pub fn mem_budget(mut self, budget: Option<MemBudget>) -> SuiteRunner {
        self.mem_budget = budget;
        self
    }

    /// Profiles the whole built-in suite on `ds`.
    ///
    /// # Panics
    ///
    /// Panics if a workload run faults (a harness bug, as in the
    /// experiments).
    pub fn run(&self, ds: DataSet) -> SuiteProfile {
        self.run_workloads(&suite(), ds)
    }

    /// Profiles an explicit workload list on `ds`, one workload per
    /// worker: [`try_run_workloads`](SuiteRunner::try_run_workloads) for
    /// callers that treat any failure as fatal.
    ///
    /// # Panics
    ///
    /// Panics with the first quarantined workload's error.
    pub fn run_workloads(&self, workloads: &[Workload], ds: DataSet) -> SuiteProfile {
        let outcome = self.try_run_workloads(workloads, ds);
        if let Some(f) = outcome.failures.first() {
            panic!("{}: {}", f.name, f.error);
        }
        outcome.profile
    }

    /// Fault-tolerant [`run`](SuiteRunner::run): a workload that panics or
    /// times out is caught and quarantined — the rest of the suite still
    /// completes and the outcome reports exactly what happened.
    pub fn try_run(&self, ds: DataSet) -> SuiteOutcome {
        self.try_run_workloads(&suite(), ds)
    }

    /// [`try_run`](SuiteRunner::try_run) over an explicit workload list.
    ///
    /// One [`try_parallel_map`] gives each workload one attempt: it fires
    /// the fault point `workload/<name>` and is profiled. An armed
    /// deadline wraps the attempt in [`cancel::run_with_deadline`] and
    /// re-raises a cancellation with [`cancel::unwind`], so a panic or
    /// timeout alike becomes an [`ItemFailure`] and the workload is
    /// quarantined.
    pub fn try_run_workloads(&self, workloads: &[Workload], ds: DataSet) -> SuiteOutcome {
        let attempt = |w: &Workload| {
            if let Err(e) = self.faults.fire(&format!("workload/{}", w.name())) {
                panic!("{e}");
            }
            self.profile_one(w, ds)
        };
        let run_one = |w: &Workload| match self.deadline {
            Some(deadline) => cancel::run_with_deadline(deadline, || attempt(w))
                .unwrap_or_else(|_| cancel::unwind()),
            None => attempt(w),
        };

        let mut outcome = SuiteOutcome {
            profile: SuiteProfile { workloads: Vec::new() },
            failures: Vec::new(),
            faults: Counts::new(),
        };
        for (w, slot) in workloads.iter().zip(try_parallel_map(self.jobs, workloads, run_one)) {
            match slot {
                Ok(profile) => outcome.profile.workloads.push(profile),
                Err(ItemFailure { kind, message, .. }) => {
                    let counter = match kind {
                        FailureKind::Panic => CounterId::WorkloadPanic,
                        FailureKind::Timeout => CounterId::WorkloadTimeout,
                    };
                    outcome.faults.add(counter, 1);
                    outcome.faults.add(CounterId::WorkloadQuarantined, 1);
                    outcome.failures.push(WorkloadFailure { name: w.name(), kind, error: message });
                }
            }
        }
        outcome
    }

    // Profiles one workload with the mode's engine profiler attached live.
    fn profile_one(&self, w: &Workload, ds: DataSet) -> WorkloadProfile {
        let instrumenter = Instrumenter::new().select(self.selection.clone());
        let mut events = Counts::new();
        let clock = Instant::now();
        let mut profiler = self.mode.build(self.mem_budget);
        let run = profiler
            .run_live(&instrumenter, w.program(), w.machine_config(ds), self.budget)
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name(), ds.name()));
        let metrics = profiler.metrics();
        let wall_ns = clock.elapsed().as_nanos() as u64;
        profiler.add_events_to(&mut events);
        events.add(CounterId::InstrEvents, run.counts.instr_events);
        events.add(CounterId::LoadEvents, run.counts.load_events);
        events.add(CounterId::StoreEvents, run.counts.store_events);
        events.add(CounterId::ProcEntryEvents, run.counts.entry_events);
        events.add(CounterId::ProcExitEvents, run.counts.exit_events);
        events.add(CounterId::WorkloadsProfiled, 1);

        let baseline_wall_ns = self.measure_baseline.then(|| {
            let clock = Instant::now();
            let mut machine = Machine::new(w.program().clone(), w.machine_config(ds))
                .unwrap_or_else(|e| panic!("{} [{}] baseline: {e}", w.name(), ds.name()));
            machine
                .run(self.budget)
                .unwrap_or_else(|e| panic!("{} [{}] baseline: {e}", w.name(), ds.name()));
            clock.elapsed().as_nanos() as u64
        });

        WorkloadProfile {
            name: w.name(),
            aggregate: aggregate(&metrics),
            metrics,
            profile_fraction: profiler.profile_fraction(),
            instructions: run.outcome.instructions,
            events,
            wall_ns,
            baseline_wall_ns,
            stats: profiler.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_core::PhaseBudget;

    #[test]
    fn serial_profiles_whole_suite() {
        let profile = SuiteRunner::new().run(DataSet::Test);
        assert_eq!(profile.workloads.len(), suite().len());
        for w in &profile.workloads {
            assert!(w.aggregate.executions > 0, "{} profiled nothing", w.name);
            assert!((w.profile_fraction - 1.0).abs() < 1e-12);
        }
        assert!(profile.total_instructions() > 0);
        assert!(profile.render("suite").contains(profile.workloads[0].name));
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = SuiteRunner::new().jobs(1).run(DataSet::Test);
        let parallel = SuiteRunner::new().jobs(4).run(DataSet::Test);
        assert_eq!(serial.workloads.len(), parallel.workloads.len());
        for (s, p) in serial.workloads.iter().zip(&parallel.workloads) {
            assert_eq!(s.name, p.name, "canonical order preserved");
            assert_eq!(s.metrics, p.metrics);
            assert_eq!(s.instructions, p.instructions);
        }
    }

    #[test]
    fn convergent_mode_profiles_a_fraction() {
        let runner = SuiteRunner::new().mode(ProfileMode::Convergent);
        let profile = runner.run_workloads(&suite()[..2], DataSet::Test);
        for w in &profile.workloads {
            assert!(w.profile_fraction <= 1.0);
            assert!(w.aggregate.executions > 0);
        }
    }

    #[test]
    fn adaptive_mode_reports_phase_stats_and_others_do_not() {
        let budget = PhaseBudget { max_rearms: 4, window: 256 };
        let profile = SuiteRunner::new()
            .mode(ProfileMode::Adaptive(budget))
            .run_workloads(&suite()[..2], DataSet::Test);
        for w in &profile.workloads {
            let Some(ProfilerStats::Phase(ps)) = w.stats else {
                panic!("{}: adaptive run reports phase stats, got {:?}", w.name, w.stats)
            };
            assert!(ps.windows > 0, "{} completed no windows", w.name);
            assert_eq!(w.events.get(CounterId::PhaseWindows), ps.windows, "{}", w.name);
            assert_eq!(w.events.get(CounterId::PhaseShifts), ps.shifts_detected, "{}", w.name);
            assert_eq!(w.events.get(CounterId::PhaseRearms), ps.rearms, "{}", w.name);
            assert_eq!(w.events.get(CounterId::PhaseRearmsDenied), ps.rearms_denied, "{}", w.name);
        }
        let full = SuiteRunner::new().run_workloads(&suite()[..2], DataSet::Test);
        assert!(full.workloads.iter().all(|w| w.stats.is_none()));
        let conv = SuiteRunner::new()
            .mode(ProfileMode::Convergent)
            .run_workloads(&suite()[..1], DataSet::Test);
        assert!(conv.workloads.iter().all(|w| w.stats.is_none()));
    }

    #[test]
    fn workload_events_count_every_tnv_observation() {
        let profile = SuiteRunner::new().run_workloads(&suite()[..3], DataSet::Test);
        for w in &profile.workloads {
            assert!(w.events.get(CounterId::InstrEvents) > 0, "{}", w.name);
            assert_eq!(w.events.get(CounterId::WorkloadsProfiled), 1);
            // Full mode over loads: every delivered instruction event is
            // observed into a TNV table, and each observation is exactly
            // one of hit/insert/evict.
            assert_eq!(
                w.events.get(CounterId::TnvHits)
                    + w.events.get(CounterId::TnvInserts)
                    + w.events.get(CounterId::TnvEvictions),
                w.events.get(CounterId::InstrEvents),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn baseline_replay_enables_slowdown() {
        let profile =
            SuiteRunner::new().measure_baseline(true).run_workloads(&suite()[..1], DataSet::Test);
        let w = &profile.workloads[0];
        assert!(w.baseline_wall_ns.is_some());
        assert!(w.slowdown().unwrap() > 0.0);
        let without = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
        assert_eq!(without.workloads[0].baseline_wall_ns, None);
        assert_eq!(without.workloads[0].slowdown(), None);
    }

    #[test]
    fn try_run_matches_run_on_a_clean_suite() {
        let workloads = &suite()[..3];
        let plain = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
        let outcome = SuiteRunner::new().try_run_workloads(workloads, DataSet::Test);
        assert!(outcome.is_clean());
        assert_eq!(outcome.faults.total(), 0);
        assert_eq!(outcome.render_failures(), "");
        assert_eq!(outcome.profile.workloads.len(), plain.workloads.len());
        for (a, b) in outcome.profile.workloads.iter().zip(&plain.workloads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    /// The quarantine identity every failed run keeps: one quarantine per
    /// failure, each counted once as a panic or a timeout.
    fn assert_quarantine_counts(outcome: &SuiteOutcome) {
        let quarantined = outcome.faults.get(CounterId::WorkloadQuarantined);
        let failed = outcome.faults.get(CounterId::WorkloadPanic)
            + outcome.faults.get(CounterId::WorkloadTimeout);
        assert_eq!(quarantined, failed, "{:?}", outcome.faults);
        assert_eq!(quarantined, outcome.failures.len() as u64, "{:?}", outcome.failures);
    }

    #[test]
    fn persistent_panic_quarantines_on_its_one_attempt() {
        let plan = Arc::new(FaultPlan::parse("panic:workload/gcc").unwrap());
        let outcome =
            SuiteRunner::new().faults(plan).try_run_workloads(&suite()[..3], DataSet::Test);
        assert_eq!(outcome.profile.workloads.len(), 2, "other workloads completed");
        assert!(outcome.profile.workloads.iter().all(|w| w.name != "gcc"));
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].name, "gcc");
        assert!(outcome.failures[0].error.contains("fault injected: workload/gcc"));
        assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
        assert_quarantine_counts(&outcome);
        let table = outcome.render_failures();
        assert!(table.contains("failed") && table.contains("gcc"), "{table}");
        assert!(!table.contains("attempts"), "{table}");
    }

    #[test]
    fn generous_mem_budget_matches_ungoverned_run() {
        let workloads = &suite()[..2];
        let plain = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
        let governed = SuiteRunner::new()
            .mem_budget(Some(MemBudget::mib(64)))
            .run_workloads(workloads, DataSet::Test);
        for (p, g) in plain.workloads.iter().zip(&governed.workloads) {
            assert_eq!(p.metrics, g.metrics, "{}", p.name);
            assert_eq!(p.events, g.events, "{}", p.name);
            assert!(p.stats.is_none());
            let Some(ProfilerStats::Governor(gov)) = g.stats else {
                panic!("{}: governed run reports governor stats, got {:?}", g.name, g.stats)
            };
            assert!(!gov.intervened(), "{}: {gov:?}", g.name);
            assert!(gov.bytes_peak > 0);
        }
    }

    #[test]
    fn governed_parallel_run_matches_governed_serial() {
        let workloads = &suite()[..2];
        let budget = Some(MemBudget::bytes(48 * 1024));
        let serial = SuiteRunner::new().mem_budget(budget).run_workloads(workloads, DataSet::Test);
        let parallel =
            SuiteRunner::new().mem_budget(budget).jobs(4).run_workloads(workloads, DataSet::Test);
        for (s, p) in serial.workloads.iter().zip(&parallel.workloads) {
            assert_eq!(s.metrics, p.metrics, "{}", s.name);
            assert_eq!(s.stats, p.stats, "{}", s.name);
        }
    }

    #[test]
    fn hang_fault_times_out_and_quarantines_only_that_workload() {
        let plan = Arc::new(FaultPlan::parse("hang:workload/gcc").unwrap());
        let clean = SuiteRunner::new().run_workloads(&suite()[..3], DataSet::Test);
        let outcome = SuiteRunner::new()
            .faults(plan)
            .deadline(Some(Duration::from_millis(150)))
            .try_run_workloads(&suite()[..3], DataSet::Test);
        assert_eq!(outcome.failures.len(), 1);
        let f = &outcome.failures[0];
        assert_eq!(f.name, "gcc");
        assert_eq!(f.kind, FailureKind::Timeout);
        assert_eq!(f.kind_str(), "timeout");
        assert_eq!(f.error, "deadline exceeded");
        assert_eq!(outcome.faults.get(CounterId::WorkloadTimeout), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 0);
        assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
        assert_quarantine_counts(&outcome);
        // Everything that was not hung completed identically to a clean run.
        let done: Vec<_> = outcome.profile.workloads.iter().map(|w| w.name).collect();
        assert_eq!(done, ["compress", "li"]);
        for w in &outcome.profile.workloads {
            let reference = clean.workloads.iter().find(|c| c.name == w.name).unwrap();
            assert_eq!(w.metrics, reference.metrics, "{}", w.name);
        }
        let table = outcome.render_failures();
        assert!(table.starts_with("failed"), "{table}");
        assert!(table.contains("timeout") && table.contains("deadline exceeded"), "{table}");
    }

    #[test]
    fn pooled_rekeys_and_sums() {
        let profile = SuiteRunner::new().run_workloads(&suite()[..3], DataSet::Test);
        let (pool, agg) = profile.pooled();
        let per_workload: usize = profile.workloads.iter().map(|w| w.metrics.len()).sum();
        assert_eq!(pool.len(), per_workload, "disjoint shards pool without collisions");
        let execs: u64 = profile.workloads.iter().map(|w| w.aggregate.executions).sum();
        assert_eq!(agg.executions, execs);
    }
}
