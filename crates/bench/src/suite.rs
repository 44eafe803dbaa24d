//! Suite-profiling driver: profile every workload of the benchmark suite
//! and render one table, serially or fanned out across worker threads.
//!
//! Parallelism is *per workload* — each worker profiles whole workloads,
//! so a workload's profile is produced by exactly one profiler instance
//! and `--jobs N` output is identical to a serial run by construction.
//! Only the order in which workloads *finish* varies; results are
//! reassembled in canonical suite order.
//!
//! Every run goes through one fault-tolerant loop,
//! [`SuiteRunner::try_run_workloads`]: rounds of [`try_parallel_map`]
//! that retry failed workloads, quarantine the ones that exhaust the
//! [`RetryPolicy`], and checkpoint each completion. Workloads run in
//! process: a panic unwinds and is caught, a hang is cut loose by the
//! cooperative deadline, and a runaway workload stops at the instruction
//! budget with an error.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use vp_core::{
    aggregate, merge_entity_metrics, render_metric_table, report::row, Aggregate, EntityMetrics,
    FaultPlan, MemBudget, ProfileMode, ProfilerStats, ReportRow,
};
use vp_instrument::{
    try_parallel_map, FailureKind, Instrumenter, ItemFailure, MapOptions, Selection,
};
use vp_obs::recorder::Stopwatch;
use vp_obs::{CounterId, Counts, HistId, NullRecorder, Recorder};
use vp_sim::Machine;
use vp_workloads::{suite, DataSet, Workload};

use crate::checkpoint::Checkpoint;
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

/// How [`SuiteRunner::try_run`] retries workloads that panicked.
///
/// Backoff is deterministic (no jitter, no clock reads): retry round `k`
/// sleeps `min(base · 2^(k-1), cap)` milliseconds. The defaults keep total
/// added latency under a second even with every workload failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry *rounds* after the first attempt, so a workload is tried at
    /// most `max_retries + 1` times.
    pub max_retries: u64,
    /// Backoff before the first retry round, milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff, milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 2, backoff_base_ms: 25, backoff_cap_ms: 250 }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, straight to quarantine on failure.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, backoff_base_ms: 0, backoff_cap_ms: 0 }
    }

    /// Backoff before retry round `round` (1-based), milliseconds.
    pub fn backoff_ms(&self, round: u64) -> u64 {
        let factor = 2u64.saturating_pow(round.saturating_sub(1).min(u32::MAX as u64) as u32);
        self.backoff_base_ms.saturating_mul(factor).min(self.backoff_cap_ms)
    }
}

/// One workload that exhausted its retry budget and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadFailure {
    /// Workload name.
    pub name: &'static str,
    /// Attempts made (first run plus retries).
    pub attempts: u64,
    /// How the final attempt failed: a caught panic, or cooperative
    /// cancellation after the wall-clock deadline.
    pub kind: FailureKind,
    /// The final attempt's panic message (a fixed `deadline exceeded` for
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
    /// Workloads quarantined after exhausting the retry budget.
    pub failures: Vec<WorkloadFailure>,
    /// Fault counters of this run: `WorkloadPanic` per caught panic,
    /// `WorkloadTimeout` per deadline cancellation, `WorkloadRetry` per
    /// workload-retry, `WorkloadQuarantined` per giving-up. All zero on a
    /// clean run.
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
        out.push_str(&format!("{:<16} {:>8}  {:<12}  error\n", "failed", "attempts", "kind"));
        for f in &self.failures {
            out.push_str(&format!(
                "{:<16} {:>8}  {:<12}  {}\n",
                f.name,
                f.attempts,
                f.kind_str(),
                f.error
            ));
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
#[derive(Clone)]
pub struct SuiteRunner {
    jobs: usize,
    selection: Selection,
    budget: u64,
    mode: ProfileMode,
    recorder: Arc<dyn Recorder>,
    measure_baseline: bool,
    retry: RetryPolicy,
    faults: Arc<FaultPlan>,
    checkpoint: Option<Arc<Checkpoint>>,
    deadline: Option<Duration>,
    mem_budget: Option<MemBudget>,
}

impl fmt::Debug for SuiteRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuiteRunner")
            .field("jobs", &self.jobs)
            .field("selection", &self.selection)
            .field("budget", &self.budget)
            .field("mode", &self.mode)
            .field("recorder_enabled", &self.recorder.enabled())
            .field("measure_baseline", &self.measure_baseline)
            .field("retry", &self.retry)
            .field("faults", &!self.faults.is_empty())
            .field("checkpoint", &self.checkpoint.as_ref().map(|c| c.path().to_path_buf()))
            .field("deadline", &self.deadline)
            .field("mem_budget", &self.mem_budget)
            .finish()
    }
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
            recorder: Arc::new(NullRecorder),
            measure_baseline: false,
            retry: RetryPolicy::default(),
            faults: Arc::new(FaultPlan::empty()),
            checkpoint: None,
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

    /// Attaches a [`Recorder`] sink for self-profiling telemetry: each
    /// workload's event counts and wall time are flushed into it, and the
    /// parallel driver reports per-worker busy/queue-wait times. The
    /// default [`NullRecorder`] keeps every instrumented site at a single
    /// branch.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> SuiteRunner {
        self.recorder = recorder;
        self
    }

    /// Also replays every workload *uninstrumented* and records the
    /// baseline wall time, enabling [`WorkloadProfile::slowdown`]. Doubles
    /// the emulation work, so off by default.
    pub fn measure_baseline(mut self, measure: bool) -> SuiteRunner {
        self.measure_baseline = measure;
        self
    }

    /// Sets the retry budget and backoff used by
    /// [`try_run`](SuiteRunner::try_run).
    pub fn retry(mut self, policy: RetryPolicy) -> SuiteRunner {
        self.retry = policy;
        self
    }

    /// Arms a fault plan: [`try_run`](SuiteRunner::try_run) fires the
    /// point `workload/<name>` before profiling each workload, and the
    /// checkpoint append path fires its durable-layer points. The default
    /// empty plan never fires.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> SuiteRunner {
        self.faults = plan;
        self
    }

    /// Arms a per-workload wall-clock deadline for
    /// [`try_run`](SuiteRunner::try_run): an attempt still running when
    /// the deadline fires is cancelled cooperatively (at the next
    /// instruction-chunk or claim boundary), counted as a
    /// `WorkloadTimeout`, retried per the [`RetryPolicy`], and
    /// quarantined when the budget is exhausted — the rest of the suite
    /// always completes. Workloads that finish before the deadline are
    /// byte-identical to an undeadlined run. `None` (the default)
    /// disables the watchdog entirely.
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

    /// Attaches a [`Checkpoint`]: each workload completed by
    /// [`try_run`](SuiteRunner::try_run) is durably appended the moment it
    /// finishes, and workloads the checkpoint already holds are restored
    /// instead of re-profiled (their events still flow to the recorder, so
    /// a resumed run's telemetry matches an uninterrupted one).
    pub fn checkpoint(mut self, checkpoint: Arc<Checkpoint>) -> SuiteRunner {
        self.checkpoint = Some(checkpoint);
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

    /// Fault-tolerant [`run`](SuiteRunner::run): a workload that panics is
    /// caught, retried per the [`RetryPolicy`], and quarantined when the
    /// budget is exhausted — the rest of the suite still completes and the
    /// outcome reports exactly what happened.
    pub fn try_run(&self, ds: DataSet) -> SuiteOutcome {
        self.try_run_workloads(&suite(), ds)
    }

    /// [`try_run`](SuiteRunner::try_run) over an explicit workload list.
    ///
    /// Each round maps the pending workloads through [`try_parallel_map`].
    /// A workload the checkpoint holds is restored (its events still
    /// reach the recorder, so resumed telemetry matches an uninterrupted
    /// run's); any other fires the fault point `workload/<name>`, is
    /// profiled, and is durably checkpointed. A panic or timeout becomes
    /// an [`ItemFailure`] and the workload is retried in the next round.
    pub fn try_run_workloads(&self, workloads: &[Workload], ds: DataSet) -> SuiteOutcome {
        let checkpoint = self.checkpoint.as_deref();
        let run_one = |w: &&Workload| {
            if let Some(restored) = checkpoint.and_then(|c| c.restored(w.name())) {
                if self.recorder.enabled() {
                    self.recorder.add_counts(&restored.events);
                    self.recorder.observe(HistId::WorkloadWallNs, restored.wall_ns);
                }
                return restored;
            }
            if let Err(e) = self.faults.fire(&format!("workload/{}", w.name())) {
                panic!("{e}");
            }
            let profile = self.profile_one(w, ds);
            if let Some(c) = checkpoint {
                c.record(&self.faults, &profile)
                    .unwrap_or_else(|e| panic!("checkpoint {}: {e}", c.path().display()));
            }
            profile
        };
        let options = MapOptions { recorder: &*self.recorder, deadline: self.deadline };

        let mut results: Vec<Option<WorkloadProfile>> =
            (0..workloads.len()).map(|_| None).collect();
        let mut attempts = vec![0u64; workloads.len()];
        let mut last_error: Vec<Option<ItemFailure>> = vec![None; workloads.len()];
        let mut faults = Counts::new();
        let mut pending: Vec<usize> = (0..workloads.len()).collect();
        let mut round = 0u64;
        loop {
            let subset: Vec<&Workload> = pending.iter().map(|&i| &workloads[i]).collect();
            let outs = try_parallel_map(self.jobs, &subset, run_one, options);
            let mut still = Vec::new();
            for (slot, i) in outs.into_iter().zip(pending) {
                attempts[i] += 1;
                match slot {
                    Ok(profile) => results[i] = Some(profile),
                    Err(failure) => {
                        let counter = match failure.kind {
                            FailureKind::Panic => CounterId::WorkloadPanic,
                            FailureKind::Timeout => CounterId::WorkloadTimeout,
                        };
                        faults.add(counter, 1);
                        last_error[i] = Some(failure);
                        still.push(i);
                    }
                }
            }
            pending = still;
            if pending.is_empty() || round >= self.retry.max_retries {
                break;
            }
            round += 1;
            faults.add(CounterId::WorkloadRetry, pending.len() as u64);
            let backoff = self.retry.backoff_ms(round);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
        faults.add(CounterId::WorkloadQuarantined, pending.len() as u64);
        if self.recorder.enabled() && faults.total() > 0 {
            self.recorder.add_counts(&faults);
        }
        let failures = pending
            .iter()
            .map(|&i| {
                let f = last_error[i].take().expect("a pending workload failed its last attempt");
                WorkloadFailure {
                    name: workloads[i].name(),
                    attempts: attempts[i],
                    kind: f.kind,
                    error: f.message,
                }
            })
            .collect();
        SuiteOutcome {
            profile: SuiteProfile { workloads: results.into_iter().flatten().collect() },
            failures,
            faults,
        }
    }

    // Profiles one workload with the mode's engine profiler attached live.
    fn profile_one(&self, w: &Workload, ds: DataSet) -> WorkloadProfile {
        let instrumenter = Instrumenter::new().select(self.selection.clone());
        let mut events = Counts::new();
        let clock = Stopwatch::start();
        let mut profiler = self.mode.build(self.mem_budget);
        let run = profiler
            .run_live(&instrumenter, w.program(), w.machine_config(ds), self.budget)
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name(), ds.name()));
        let metrics = profiler.metrics();
        let wall_ns = clock.elapsed_ns();
        profiler.add_events_to(&mut events);
        events.add(CounterId::InstrEvents, run.counts.instr_events);
        events.add(CounterId::LoadEvents, run.counts.load_events);
        events.add(CounterId::StoreEvents, run.counts.store_events);
        events.add(CounterId::ProcEntryEvents, run.counts.entry_events);
        events.add(CounterId::ProcExitEvents, run.counts.exit_events);
        events.add(CounterId::WorkloadsProfiled, 1);

        let baseline_wall_ns = self.measure_baseline.then(|| {
            let clock = Stopwatch::start();
            let mut machine = Machine::new(w.program().clone(), w.machine_config(ds))
                .unwrap_or_else(|e| panic!("{} [{}] baseline: {e}", w.name(), ds.name()));
            machine
                .run(self.budget)
                .unwrap_or_else(|e| panic!("{} [{}] baseline: {e}", w.name(), ds.name()));
            clock.elapsed_ns()
        });

        if self.recorder.enabled() {
            self.recorder.add_counts(&events);
            self.recorder.observe(HistId::WorkloadWallNs, wall_ns);
        }

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
    fn workload_events_and_recorder_agree() {
        use vp_obs::MemRecorder;
        let rec = Arc::new(MemRecorder::new());
        let profile =
            SuiteRunner::new().recorder(rec.clone()).run_workloads(&suite()[..3], DataSet::Test);
        let mut summed = Counts::new();
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
            summed.merge(&w.events);
        }
        // The recorder aggregates exactly the per-workload counts (plus
        // the parallel driver's WorkerItems, one per workload here).
        let mut expected = summed;
        expected.add(CounterId::WorkerItems, profile.workloads.len() as u64);
        assert_eq!(rec.snapshot(), expected);
        assert_eq!(rec.hist(vp_obs::HistId::WorkloadWallNs).count(), 3);
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

    #[test]
    fn persistent_panic_exhausts_retries_and_quarantines() {
        let plan = Arc::new(FaultPlan::parse("panic:workload/gcc").unwrap());
        let policy = RetryPolicy { max_retries: 2, backoff_base_ms: 0, backoff_cap_ms: 0 };
        let outcome = SuiteRunner::new()
            .faults(plan)
            .retry(policy)
            .try_run_workloads(&suite()[..3], DataSet::Test);
        assert_eq!(outcome.profile.workloads.len(), 2, "other workloads completed");
        assert!(outcome.profile.workloads.iter().all(|w| w.name != "gcc"));
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].name, "gcc");
        assert_eq!(outcome.failures[0].attempts, 3, "first try + two retries");
        assert!(outcome.failures[0].error.contains("fault injected: workload/gcc"));
        assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 3);
        assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 2);
        assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
        let table = outcome.render_failures();
        assert!(table.contains("failed") && table.contains("gcc"), "{table}");
    }

    #[test]
    fn transient_panic_is_absorbed_by_a_retry() {
        use vp_obs::MemRecorder;
        let rec = Arc::new(MemRecorder::new());
        let plan = Arc::new(FaultPlan::parse("panic:workload/li@1x1").unwrap());
        let policy = RetryPolicy { max_retries: 2, backoff_base_ms: 0, backoff_cap_ms: 0 };
        let clean = SuiteRunner::new().run_workloads(&suite()[..3], DataSet::Test);
        let outcome = SuiteRunner::new()
            .faults(plan)
            .retry(policy)
            .recorder(rec.clone())
            .try_run_workloads(&suite()[..3], DataSet::Test);
        assert!(outcome.is_clean());
        assert_eq!(outcome.profile.workloads.len(), 3);
        for (a, b) in outcome.profile.workloads.iter().zip(&clean.workloads) {
            assert_eq!(a.name, b.name, "canonical order restored after retry");
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 1);
        assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 0);
        // The fault counters also reached the recorder.
        let counts = rec.snapshot();
        assert_eq!(counts.get(CounterId::WorkloadPanic), 1);
        assert_eq!(counts.get(CounterId::WorkloadRetry), 1);
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
            .retry(RetryPolicy::none())
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
    fn backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy { max_retries: 10, backoff_base_ms: 25, backoff_cap_ms: 250 };
        assert_eq!(policy.backoff_ms(1), 25);
        assert_eq!(policy.backoff_ms(2), 50);
        assert_eq!(policy.backoff_ms(4), 200);
        assert_eq!(policy.backoff_ms(5), 250, "capped");
        assert_eq!(policy.backoff_ms(60), 250, "no overflow at large rounds");
        assert_eq!(RetryPolicy::none().max_retries, 0);
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
