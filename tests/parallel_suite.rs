//! Determinism contract of the parallel suite runner: fanning the suite
//! out over worker threads must produce byte-for-byte the same
//! per-workload profiles and reports as a serial run, on both data sets
//! and in every profiling mode.

use value_profiling::workloads::DataSet;
use vp_bench::{ProfileMode, SuiteRunner};

fn assert_identical(a: &vp_bench::SuiteProfile, b: &vp_bench::SuiteProfile) {
    assert_eq!(a.workloads.len(), b.workloads.len());
    for (s, p) in a.workloads.iter().zip(&b.workloads) {
        assert_eq!(s.name, p.name, "workload order is canonical");
        assert_eq!(s.metrics, p.metrics, "{}: per-entity metrics differ", s.name);
        assert_eq!(s.instructions, p.instructions, "{}", s.name);
        assert!(
            (s.profile_fraction - p.profile_fraction).abs() < 1e-15,
            "{}: profile fraction differs",
            s.name
        );
    }
    assert_eq!(a.render("x"), b.render("x"), "rendered reports differ");
}

#[test]
fn full_mode_jobs4_matches_serial() {
    for ds in [DataSet::Test, DataSet::Train] {
        let serial = SuiteRunner::new().jobs(1).run(ds);
        let parallel = SuiteRunner::new().jobs(4).run(ds);
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn convergent_mode_is_parallel_deterministic() {
    let runner =
        |jobs| SuiteRunner::new().mode(ProfileMode::Convergent).jobs(jobs).run(DataSet::Test);
    assert_identical(&runner(1), &runner(4));
}

#[test]
fn zero_jobs_uses_available_parallelism_and_still_matches() {
    let serial = SuiteRunner::new().jobs(1).run(DataSet::Test);
    let auto = SuiteRunner::new().jobs(0).run(DataSet::Test);
    assert_identical(&serial, &auto);
}

#[test]
fn telemetry_event_counts_identical_across_jobs() {
    use value_profiling::obs::telemetry::mask_volatile;
    use value_profiling::obs::Json;

    let serial = SuiteRunner::new().jobs(1).run(DataSet::Test);
    let parallel = SuiteRunner::new().jobs(4).run(DataSet::Test);

    // The per-workload event counters are plain u64s flushed at workload
    // boundaries, so they are byte-identical however the suite is fanned
    // out.
    for (s, p) in serial.workloads.iter().zip(&parallel.workloads) {
        assert_eq!(s.events.to_json().render(), p.events.to_json().render(), "{}", s.name);
    }

    // And the full telemetry record sets agree byte-for-byte once volatile
    // wall-time fields are masked. The declared jobs value is part of the
    // record, so both sides label themselves identically here.
    let masked = |profile| {
        let records = vp_bench::suite_records("t", DataSet::Test, 0, "full-loads", profile);
        records.iter().map(|r: &Json| mask_volatile(r).render()).collect::<Vec<String>>()
    };
    assert_eq!(masked(&serial), masked(&parallel));
}
