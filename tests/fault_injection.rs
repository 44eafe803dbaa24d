//! Fault-injection contract of the robust suite runner: injected panics
//! quarantine a workload without losing the rest of the suite, the retry
//! counters are exact, an interrupted checkpointed run resumes to output
//! identical to an uninterrupted one, and corruption of persisted
//! profiles is detected at load, and a resume under other flags than the
//! interrupted run's is refused. Everything is driven by deterministic
//! [`FaultPlan`]s — no timing, no signals, no flakes.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use value_profiling::core::{FaultPlan, Integrity, IntegrityMode, LoadProfileError};
use value_profiling::instrument::FailureKind;
use value_profiling::obs::telemetry::mask_volatile;
use value_profiling::obs::{CounterId, Json};
use value_profiling::workloads::{suite, DataSet, Workload};
use vp_bench::{fault_records, suite_records, Checkpoint, RunConfig, SuiteOutcome, SuiteRunner};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vp_fault_injection_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The configuration of a default [`SuiteRunner`] on the test input.
fn full_loads() -> RunConfig {
    SuiteRunner::new().run_config(DataSet::Test)
}

/// Telemetry records of an outcome with run-to-run volatile fields
/// masked, rendered to strings for byte comparison.
fn masked_records(outcome: &SuiteOutcome) -> Vec<String> {
    let mut records = suite_records("fault-test", DataSet::Test, 1, "full-loads", &outcome.profile);
    records.extend(fault_records("fault-test", outcome));
    records.iter().map(|r: &Json| mask_volatile(r).render()).collect()
}

#[test]
fn injected_panic_quarantines_one_workload_and_keeps_the_rest() {
    let workloads = &suite()[..4]; // compress, gcc, li, ijpeg
    let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
    let plan = Arc::new(FaultPlan::parse("panic:workload/gcc").unwrap());
    let outcome =
        SuiteRunner::new().faults(plan).retries(1).try_run_workloads(workloads, DataSet::Test);

    // Every other workload completed with metrics identical to a clean run.
    assert_eq!(outcome.profile.workloads.len(), 3);
    let surviving: Vec<&str> = outcome.profile.workloads.iter().map(|w| w.name).collect();
    assert_eq!(surviving, ["compress", "li", "ijpeg"], "canonical order, gcc quarantined");
    for w in &outcome.profile.workloads {
        let reference = clean.workloads.iter().find(|c| c.name == w.name).unwrap();
        assert_eq!(w.metrics, reference.metrics, "{}", w.name);
        assert_eq!(w.instructions, reference.instructions, "{}", w.name);
    }

    // The failure is fully described: attempts, message, table, counters.
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].name, "gcc");
    assert_eq!(outcome.failures[0].attempts, 2, "first try + one retry");
    assert!(outcome.failures[0].error.contains("fault injected: workload/gcc"));
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 2);
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 1);
    let table = outcome.render_failures();
    assert!(table.starts_with("failed"), "{table}");
    assert!(table.contains("gcc") && table.contains("fault injected"), "{table}");

    // The telemetry carries one faults record and one failure record.
    let records = fault_records("fault-test", &outcome);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].get("kind").unwrap().as_str(), Some("faults"));
    assert_eq!(records[1].get("kind").unwrap().as_str(), Some("failure"));
    assert_eq!(records[1].get("name").unwrap().as_str(), Some("gcc"));
    assert_eq!(records[1].get("attempts").unwrap().as_u64(), Some(2));
    assert_eq!(records[1].get("failure_kind").unwrap().as_str(), Some("panic"));
}

#[test]
fn retry_counters_are_exact_across_multiple_transient_faults() {
    let workloads = &suite()[..3]; // compress, gcc, li
    let clean = SuiteRunner::new().run_workloads(workloads, DataSet::Test);
    // compress panics on its first two attempts, li on its first one.
    let plan =
        Arc::new(FaultPlan::parse("panic:workload/compress@1x2,panic:workload/li@1x1").unwrap());
    let outcome =
        SuiteRunner::new().faults(plan).retries(3).try_run_workloads(workloads, DataSet::Test);

    assert!(outcome.is_clean(), "{:?}", outcome.failures);
    assert_eq!(outcome.profile.workloads.len(), 3);
    for (a, b) in outcome.profile.workloads.iter().zip(&clean.workloads) {
        assert_eq!(a.name, b.name, "canonical order restored after retries");
        assert_eq!(a.metrics, b.metrics, "{}", a.name);
    }
    // Round 1: compress + li panic (2). Round 2 retries both (2): compress
    // panics again (1), li succeeds. Round 3 retries compress (1), which
    // succeeds. Nothing is quarantined.
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 3);
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 3);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 0);
    assert_eq!(outcome.render_failures(), "");
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

    let run = |jobs| SuiteRunner::new().jobs(jobs).budget(BUDGET).retries(0).try_run(DataSet::Test);
    let outcome = run(1);
    let quarantined: Vec<&str> = outcome.failures.iter().map(|f| f.name).collect();
    assert_eq!(quarantined, runaway);
    for f in &outcome.failures {
        assert_eq!(f.kind, FailureKind::Panic, "{}", f.name);
        assert_eq!(f.attempts, 1, "{}", f.name);
        assert!(f.error.ends_with("instruction budget of 60000 exhausted"), "{}", f.error);
    }
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), runaway.len() as u64);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), runaway.len() as u64);
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 0);

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
fn interrupted_checkpoint_resume_matches_uninterrupted_run() {
    let workloads: &[Workload] = &suite()[..5]; // compress, gcc, li, ijpeg, go
    let path = tmp("kill_resume.jsonl");

    // Reference: the uninterrupted run, telemetry and all.
    let reference = SuiteRunner::new().try_run_workloads(workloads, DataSet::Test);
    assert!(reference.is_clean());

    // Interrupted run: dies after completing 3 of 5 workloads, mid-append
    // of a fourth record (the torn tail a SIGKILL during write leaves).
    let checkpoint = Arc::new(Checkpoint::create(&path, &full_loads()).unwrap());
    let partial =
        SuiteRunner::new().checkpoint(checkpoint).try_run_workloads(&workloads[..3], DataSet::Test);
    assert!(partial.is_clean());
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(br#"{"schema":1,"kind":"checkpoint","name":"ijp"#).unwrap();
    }

    // Resume: the 3 complete records are restored, the torn tail dropped.
    let (resumed_checkpoint, summary) = Checkpoint::resume(&path, &full_loads()).unwrap();
    assert_eq!(summary.restored, 3);
    assert!(summary.dropped_tail.is_some(), "torn tail reported");
    let resumed = SuiteRunner::new()
        .checkpoint(Arc::new(resumed_checkpoint))
        .try_run_workloads(workloads, DataSet::Test);
    assert!(resumed.is_clean());

    // The resumed run's output is identical to the uninterrupted one:
    // bit-exact metrics, byte-identical rendered table, and byte-identical
    // telemetry once volatile wall times are masked: the `run` record's
    // event totals and the `faults` record included.
    assert_eq!(resumed.profile.workloads.len(), reference.profile.workloads.len());
    for (a, b) in resumed.profile.workloads.iter().zip(&reference.profile.workloads) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.metrics, b.metrics, "{}: restored metrics drifted", a.name);
        assert_eq!(a.instructions, b.instructions, "{}", a.name);
        assert_eq!(a.events, b.events, "{}: restored events drifted", a.name);
        assert_eq!(
            a.profile_fraction.to_bits(),
            b.profile_fraction.to_bits(),
            "{}: fraction not bit-exact",
            a.name
        );
    }
    assert_eq!(resumed.profile.render("suite"), reference.profile.render("suite"));
    assert_eq!(
        masked_records(&resumed),
        masked_records(&reference),
        "telemetry record sets differ"
    );

    // The checkpoint file was repaired in place: all 5 records, no tail.
    let (final_checkpoint, summary) = Checkpoint::resume(&path, &full_loads()).unwrap();
    assert_eq!(summary.restored, 5);
    assert_eq!(summary.dropped_tail, None);
    assert_eq!(final_checkpoint.restored_count(), 5);
    std::fs::remove_file(&path).unwrap();
}

/// A full-mode `profile-suite` killed after its fourth checkpoint record
/// cannot be resumed with `--adaptive`: the resume exits non-zero, prints
/// nothing on stdout, and names both configurations. The same flags
/// still resume to the uninterrupted run's output.
#[test]
fn resume_under_other_flags_is_refused() {
    let dir = tmp("flag_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let (checkpoint, telemetry) = (dir.join("checkpoint.jsonl"), dir.join("telemetry.jsonl"));
    let suite_run = |extra: &[&str], faults: Option<&str>| {
        let mut cmd = common::vprof_command();
        cmd.arg("profile-suite").args(extra).arg("--telemetry").arg(&telemetry);
        if let Some(plan) = faults {
            cmd.env("VP_FAULTS", plan);
        }
        cmd.output().expect("spawn vprof")
    };
    let with_checkpoint = |resume: &[&'static str]| {
        let mut args = vec!["--checkpoint", checkpoint.to_str().unwrap()];
        args.extend(resume);
        args
    };

    let reference = suite_run(&[], None);
    assert!(reference.status.success());
    let killed = suite_run(&with_checkpoint(&[]), Some("kill:checkpoint/appended@4"));
    assert!(!killed.status.success(), "the run dies at its fourth checkpoint record");
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert_eq!(text.matches(r#""kind":"checkpoint""#).count(), 4);

    let refused = suite_run(&with_checkpoint(&["--resume", "--adaptive"]), None);
    assert!(!refused.status.success());
    assert!(refused.stdout.is_empty(), "{}", String::from_utf8_lossy(&refused.stdout));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("`mode=full "), "{stderr}");
    assert!(stderr.contains("`mode=adaptive "), "{stderr}");
    assert_eq!(std::fs::read_to_string(&checkpoint).unwrap(), text, "the refusal wrote nothing");

    let resumed = suite_run(&with_checkpoint(&["--resume"]), None);
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, reference.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_append_io_error_is_absorbed_by_retry() {
    let workloads = &suite()[..2]; // compress, gcc
    let path = tmp("append_fault.jsonl");
    // The first durable append fails with an injected io::Error; the
    // workload it belonged to is retried and re-checkpointed.
    let plan = Arc::new(FaultPlan::parse("err:durable/append@1x1").unwrap());
    let outcome = SuiteRunner::new()
        .checkpoint(Arc::new(Checkpoint::create(&path, &full_loads()).unwrap()))
        .faults(plan)
        .retries(1)
        .try_run_workloads(workloads, DataSet::Test);
    assert!(outcome.is_clean(), "{:?}", outcome.failures);
    assert_eq!(outcome.faults.get(CounterId::WorkloadPanic), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadRetry), 1);
    assert_eq!(outcome.faults.get(CounterId::WorkloadQuarantined), 0);
    let (_, summary) = Checkpoint::resume(&path, &full_loads()).unwrap();
    assert_eq!(summary.restored, 2, "both workloads checkpointed despite the fault");
    assert_eq!(summary.dropped_tail, None);
    std::fs::remove_file(&path).unwrap();
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
