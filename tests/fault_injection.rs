//! Fault-injection contract of the robust suite runner: each workload
//! gets one attempt, an injected panic quarantines that workload without
//! touching the rest of the suite, a runaway workload stops at the
//! instruction budget, and corruption of persisted profiles is detected
//! at load. Everything is driven by deterministic [`FaultPlan`]s — no
//! timing, no signals, no flakes.

use std::path::PathBuf;
use std::sync::Arc;

use value_profiling::core::{FaultPlan, Integrity, IntegrityMode, LoadProfileError};
use value_profiling::instrument::FailureKind;
use value_profiling::obs::telemetry::mask_volatile;
use value_profiling::obs::{CounterId, Json};
use value_profiling::workloads::{suite, DataSet};
use vp_bench::{fault_records, suite_records, SuiteOutcome, SuiteProfile, SuiteRunner};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vp_fault_injection_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Per-workload telemetry records of a profile with run-to-run volatile
/// fields masked, rendered to strings for byte comparison.
fn masked_workload_records(profile: &SuiteProfile) -> Vec<String> {
    let records = suite_records("fault-test", DataSet::Test, 1, "full-loads", profile);
    records[1..].iter().map(|r: &Json| mask_volatile(r).render()).collect()
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
fn injected_panic_quarantines_one_workload_and_keeps_the_rest() {
    let workloads = &suite()[..4]; // compress, gcc, li, ijpeg
    let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
    let plan = Arc::new(FaultPlan::parse("panic:workload/gcc").unwrap());
    let outcome = SuiteRunner::new().faults(plan).try_run_workloads(workloads, DataSet::Test);

    // Every other workload completed with metrics identical to a clean run.
    assert_eq!(outcome.profile.workloads.len(), 3);
    let surviving: Vec<&str> = outcome.profile.workloads.iter().map(|w| w.name).collect();
    assert_eq!(surviving, ["compress", "li", "ijpeg"], "canonical order, gcc quarantined");
    for w in &outcome.profile.workloads {
        let reference = clean.workloads.iter().find(|c| c.name == w.name).unwrap();
        assert_eq!(w.metrics, reference.metrics, "{}", w.name);
        assert_eq!(w.instructions, reference.instructions, "{}", w.name);
    }

    // The failure is fully described: message, table, counters. The one
    // attempt panicked, and nothing retried it.
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].name, "gcc");
    assert!(outcome.failures[0].error.contains("fault injected: workload/gcc"));
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
    assert_quarantine_counts(&outcome);
    let table = outcome.render_failures();
    assert!(table.starts_with("failed           kind          error\n"), "{table}");
    assert!(table.contains("gcc") && table.contains("fault injected"), "{table}");

    // The telemetry carries one faults record and one failure record.
    let records = fault_records("fault-test", &outcome);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].get("kind").unwrap().as_str(), Some("faults"));
    assert_eq!(records[1].get("kind").unwrap().as_str(), Some("failure"));
    assert_eq!(records[1].get("name").unwrap().as_str(), Some("gcc"));
    assert_eq!(records[1].get("attempts"), None);
    assert_eq!(records[1].get("failure_kind").unwrap().as_str(), Some("panic"));
}

/// A fault that fires once costs its workload the run: there is no
/// second attempt, and every other workload renders the same rows and
/// masked telemetry as a clean run.
#[test]
fn transient_panic_quarantines_its_workload_on_the_first_attempt() {
    let workloads = &suite()[..4]; // compress, gcc, li, ijpeg
    let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
    let plan = Arc::new(FaultPlan::parse("panic:workload/li@1x1").unwrap());
    let outcome = SuiteRunner::new().faults(plan).try_run_workloads(workloads, DataSet::Test);

    let quarantined: Vec<&str> = outcome.failures.iter().map(|f| f.name).collect();
    assert_eq!(quarantined, ["li"]);
    assert_eq!(outcome.failures[0].kind, FailureKind::Panic);
    assert_eq!(outcome.failures[0].error, "fault injected: workload/li");
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 1);
    assert_quarantine_counts(&outcome);

    let mut rest = clean.clone();
    rest.workloads.retain(|w| w.name != "li");
    assert_eq!(outcome.profile.render("suite"), rest.render("suite"));
    assert_eq!(masked_workload_records(&outcome.profile), masked_workload_records(&rest));
}

/// A runaway workload is contained in process: the emulator stops it at
/// the instruction budget with an error, the runner quarantines it, and
/// the rest of the suite completes — the same outcome at any `--jobs`.
#[test]
fn runaway_workloads_stop_at_the_budget_and_are_quarantined() {
    const BUDGET: u64 = 60_000;
    let clean = SuiteRunner::new().run(DataSet::Test);
    let runaway: Vec<&str> =
        clean.workloads.iter().filter(|w| w.instructions > BUDGET).map(|w| w.name).collect();
    assert!(!runaway.is_empty() && runaway.len() < clean.workloads.len(), "{runaway:?}");

    let run = |jobs| SuiteRunner::new().jobs(jobs).budget(BUDGET).try_run(DataSet::Test);
    let outcome = run(1);
    let quarantined: Vec<&str> = outcome.failures.iter().map(|f| f.name).collect();
    assert_eq!(quarantined, runaway);
    for f in &outcome.failures {
        assert_eq!(f.kind, FailureKind::Panic, "{}", f.name);
        assert!(f.error.ends_with("instruction budget of 60000 exhausted"), "{}", f.error);
    }
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), runaway.len() as u64);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), runaway.len() as u64);
    assert_quarantine_counts(&outcome);

    // Every workload under the budget completed exactly as in a clean run.
    let completed: Vec<&str> = outcome.profile.workloads.iter().map(|w| w.name).collect();
    let expected: Vec<&str> =
        clean.workloads.iter().map(|w| w.name).filter(|n| !runaway.contains(n)).collect();
    assert_eq!(completed, expected);
    for w in &outcome.profile.workloads {
        let reference = clean.workloads.iter().find(|c| c.name == w.name).unwrap();
        assert_eq!(w.metrics, reference.metrics, "{}", w.name);
        assert_eq!(w.instructions, reference.instructions, "{}", w.name);
    }

    let parallel = run(4);
    assert_eq!(parallel.failures, outcome.failures);
    assert_eq!(parallel.faults, outcome.faults);
    assert_eq!(parallel.render_failures(), outcome.render_failures());
    let names = |o: &SuiteOutcome| o.profile.workloads.iter().map(|w| w.name).collect::<Vec<_>>();
    assert_eq!(names(&parallel), completed);
    for (p, s) in parallel.profile.workloads.iter().zip(&outcome.profile.workloads) {
        assert_eq!(p.metrics, s.metrics, "{}", p.name);
    }
}

#[test]
fn corrupted_profile_is_detected_at_load() {
    use value_profiling::core::{load_profile, write_profile};
    let path = tmp("integrity.tsv");
    let profile = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
    write_profile(&path, &profile.workloads[0].metrics).unwrap();

    // Pristine: verified in both modes.
    let strict = load_profile(&path, IntegrityMode::Strict).unwrap();
    assert!(strict.integrity.is_verified());
    assert_eq!(strict.metrics.len(), profile.workloads[0].metrics.len());

    // Flip one digit in the body: strict load fails on the checksum,
    // lenient load succeeds but reports the corruption.
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let (row, rest) = body.split_once('\n').unwrap();
    let at = row.find(|c: char| c.is_ascii_digit()).unwrap();
    let digit = row.as_bytes()[at] as char;
    let flipped = if digit == '9' { '0' } else { char::from(row.as_bytes()[at] + 1) };
    let mut row = row.to_string();
    row.replace_range(at..=at, &flipped.to_string());
    let corrupted = format!("{header}\n{row}\n{rest}");
    assert_ne!(text, corrupted);
    std::fs::write(&path, &corrupted).unwrap();
    match load_profile(&path, IntegrityMode::Strict) {
        Err(LoadProfileError::Parse(e)) => assert!(e.to_string().contains("crc32 mismatch"), "{e}"),
        other => panic!("strict load of corrupt profile: {other:?}"),
    }
    let lenient = load_profile(&path, IntegrityMode::Lenient).unwrap();
    assert!(!lenient.integrity.is_verified());
    assert!(matches!(lenient.integrity, Integrity::Corrupt { .. }), "{:?}", lenient.integrity);
    std::fs::remove_file(&path).unwrap();
}
