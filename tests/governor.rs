//! Resource-governor contract: a memory-budgeted run degrades gracefully
//! (exact TNV metrics survive, only the exact histograms go), a hung
//! workload is cancelled at its deadline and quarantined without losing
//! the rest of the suite, and governed output is independent of the
//! worker count. The hang is driven by a deterministic [`FaultPlan`] —
//! the only clock in these tests is the deadline itself.

use std::sync::Arc;
use std::time::Duration;

use value_profiling::core::{FaultPlan, GovernorStats, MemBudget, ProfilerStats};
use value_profiling::instrument::FailureKind;
use value_profiling::obs::CounterId;
use value_profiling::workloads::{suite, DataSet};
use vp_bench::{RetryPolicy, SuiteRunner, WorkloadProfile};

/// The governor section of a governed workload's stats.
fn governor(w: &WorkloadProfile) -> GovernorStats {
    match w.stats {
        Some(ProfilerStats::Governor(g)) => g,
        other => panic!("{}: a governed run reports governor stats, got {other:?}", w.name),
    }
}

#[test]
fn degraded_run_keeps_tnv_metrics_exact_and_loses_only_full_histograms() {
    let workloads = &suite()[..2];
    let ungoverned = SuiteRunner::new().run_workloads(workloads, DataSet::Test);

    // Probe the full footprint with a generous budget, then rerun under
    // half of it so the governor must degrade — everything here is
    // deterministic, so the derived budget is too.
    let generous = SuiteRunner::new()
        .mem_budget(Some(MemBudget::mib(64)))
        .run_workloads(workloads, DataSet::Test);
    for (g, u) in generous.workloads.iter().zip(&ungoverned.workloads) {
        assert_eq!(g.metrics, u.metrics, "generous budget is invisible: {}", g.name);
        assert!(!governor(g).intervened(), "{}", g.name);
    }

    let peak = generous.workloads.iter().map(|w| governor(w).bytes_peak).max().unwrap();
    let tight = MemBudget::bytes(peak as usize / 2);
    let governed =
        SuiteRunner::new().mem_budget(Some(tight)).run_workloads(workloads, DataSet::Test);

    let mut total_degraded = 0;
    for (g, u) in governed.workloads.iter().zip(&ungoverned.workloads) {
        let gov = governor(g);
        assert!(gov.bytes_peak <= tight.limit_bytes() as u64, "{}: {gov:?}", g.name);
        assert_eq!(gov.entities_dropped, 0, "{}: budget only forces rung 1", g.name);
        total_degraded += gov.entities_degraded;

        // Same entities, and for every one of them the TNV-derived
        // metrics are bit-exact; only degraded entities lose inv_all*.
        assert_eq!(g.metrics.len(), u.metrics.len(), "{}", g.name);
        let mut absent = 0;
        for (gm, um) in g.metrics.iter().zip(&u.metrics) {
            assert_eq!(gm.id, um.id);
            assert_eq!(gm.executions, um.executions);
            assert_eq!(gm.lvp.to_bits(), um.lvp.to_bits(), "{} entity {}", g.name, gm.id);
            assert_eq!(gm.inv_top1.to_bits(), um.inv_top1.to_bits(), "{} entity {}", g.name, gm.id);
            assert_eq!(gm.inv_topn.to_bits(), um.inv_topn.to_bits(), "{} entity {}", g.name, gm.id);
            assert_eq!(gm.pct_zero.to_bits(), um.pct_zero.to_bits(), "{} entity {}", g.name, gm.id);
            assert_eq!(gm.top_value, um.top_value, "{} entity {}", g.name, gm.id);
            if gm.inv_all1.is_none() {
                assert!(gm.inv_alln.is_none() && gm.distinct.is_none());
                absent += 1;
            } else {
                assert_eq!(gm, um, "undegraded entity is fully identical");
            }
        }
        assert_eq!(
            absent, gov.entities_degraded,
            "{}: inv_all* absent exactly for the degraded entities",
            g.name
        );
    }
    assert!(total_degraded > 0, "the tight budget actually degraded something");
}

#[test]
fn hung_workload_times_out_and_the_rest_of_the_suite_completes() {
    let workloads = &suite()[..4]; // compress, gcc, li, ijpeg
    let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
    let plan = Arc::new(FaultPlan::parse("hang:workload/gcc").unwrap());
    let outcome = SuiteRunner::new()
        .faults(plan)
        .retry(RetryPolicy::none())
        .deadline(Some(Duration::from_millis(200)))
        .try_run_workloads(workloads, DataSet::Test);

    // Exactly the hung workload is quarantined, as a timeout, not a panic.
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!((f.name, f.kind, f.attempts), ("gcc", FailureKind::Timeout, 1));
    assert_eq!(f.error, "deadline exceeded", "timeout message is deterministic");
    assert_eq!(outcome.faults.get(CounterId::WorkloadTimeout), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 0);
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 0);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);

    // Everything else completed identically to a clean run.
    let surviving: Vec<&str> = outcome.profile.workloads.iter().map(|w| w.name).collect();
    assert_eq!(surviving, ["compress", "li", "ijpeg"]);
    for w in &outcome.profile.workloads {
        let reference = clean.workloads.iter().find(|c| c.name == w.name).unwrap();
        assert_eq!(w.metrics, reference.metrics, "{}", w.name);
        assert_eq!(w.events, reference.events, "{}", w.name);
        assert_eq!(w.instructions, reference.instructions, "{}", w.name);
    }

    // The failure table carries the kind and the fixed message.
    let table = outcome.render_failures();
    assert!(table.starts_with("failed"), "{table}");
    assert!(table.contains("timeout") && table.contains("deadline exceeded"), "{table}");
}

#[test]
fn hang_retries_then_quarantines_with_exact_counters() {
    let workloads = &suite()[..3];
    let plan = Arc::new(FaultPlan::parse("hang:workload/gcc").unwrap());
    let policy = RetryPolicy { max_retries: 1, backoff_base_ms: 0, backoff_cap_ms: 0 };
    let outcome = SuiteRunner::new()
        .faults(plan)
        .retry(policy)
        .deadline(Some(Duration::from_millis(150)))
        .try_run_workloads(workloads, DataSet::Test);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].attempts, 2, "first try + one retry");
    assert_eq!(outcome.faults.get(CounterId::WorkloadTimeout), 2, "each attempt timed out");
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
}

#[test]
fn governed_run_is_independent_of_worker_count() {
    let workloads = &suite()[..4];
    let budget = Some(MemBudget::bytes(96 * 1024));
    let serial = SuiteRunner::new()
        .jobs(1)
        .mem_budget(budget)
        .deadline(Some(Duration::from_secs(120)))
        .run_workloads(workloads, DataSet::Test);
    let parallel = SuiteRunner::new()
        .jobs(4)
        .mem_budget(budget)
        .deadline(Some(Duration::from_secs(120)))
        .run_workloads(workloads, DataSet::Test);
    assert_eq!(serial.workloads.len(), parallel.workloads.len());
    for (s, p) in serial.workloads.iter().zip(&parallel.workloads) {
        assert_eq!(s.name, p.name, "canonical order preserved");
        assert_eq!(s.metrics, p.metrics, "{}", s.name);
        assert_eq!(s.events, p.events, "{}", s.name);
        assert_eq!(governor(s), governor(p), "{}", s.name);
    }
}

#[test]
fn bytes_peak_is_exactly_the_arena_high_water_mark() {
    use value_profiling::core::{InstructionProfiler, TrackerConfig};

    // The governor's byte meter is arena-backed: every tracker allocation
    // is charged and every degradation release is credited, so
    // `bytes_peak` is the arena's high-water mark by construction — not
    // an estimate. Exercise both a budget that never intervenes and one
    // that forces degradation mid-stream.
    for budget in [MemBudget::mib(64), MemBudget::bytes(48 * 1024)] {
        let mut profiler = InstructionProfiler::with_budget(TrackerConfig::with_full(), budget);
        for i in 0..40_000u64 {
            profiler.observe((i % 97) as u32, i % 1013);
        }
        let stats = profiler.governor_stats().expect("budgeted profiler reports stats");
        let arena = profiler.arena().expect("budgeted profiler exposes its arena");
        assert_eq!(
            stats.bytes_peak,
            arena.high_water_bytes() as u64,
            "budget {budget:?}: peak is the arena high-water mark, exactly"
        );
        assert!(stats.bytes_peak > 0, "the stream allocated tracker state");
        assert!(
            stats.bytes_peak <= budget.limit_bytes() as u64,
            "budget {budget:?}: settled peak never exceeds the budget"
        );
    }
}
