//! Golden-file regression tests for the experiment reports and their
//! telemetry records.
//!
//! Every registered experiment (E1–E17) is rendered over a fixed slice of
//! the workload suite, and its report text plus its *masked* telemetry
//! (wall times and other volatile fields replaced by `"<volatile>"`, see
//! [`vp_obs::telemetry::VOLATILE_KEYS`]) are compared against checked-in
//! golden files under `tests/golden/`; so are an adaptive suite run and
//! the optimize pipeline, and so are the class tables `vprof run` prints
//! for every suite program on both inputs.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! VP_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

mod common;

use std::fs;
use std::path::PathBuf;

use value_profiling::core::{PhaseBudget, ProfilerStats};
use value_profiling::obs::telemetry::{mask_volatile, parse_jsonl, to_jsonl};
use value_profiling::obs::Json;
use value_profiling::workloads::{suite, DataSet, Workload};
use vp_bench::experiments::{self, Experiment};
use vp_bench::{optimize_from_outcome, telemetry, OptimizeConfig, ProfileMode, SuiteRunner};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `VP_UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("VP_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n(regenerate with VP_UPDATE_GOLDEN=1 cargo test --test golden)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden file; if the change is intentional, regenerate with \
         VP_UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

fn masked_jsonl(records: &[Json]) -> String {
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    to_jsonl(&masked)
}

/// The workloads each experiment's golden is rendered on: the first
/// three of the suite, plus what two experiments need to show anything.
fn golden_slice(ws: &[Workload], exp: &Experiment) -> Vec<Workload> {
    let names: &[&str] = match exp.id {
        // Only perl and vortex have procedures; li must add no rows.
        "E10" => &["li", "perl", "vortex"],
        // m88ksim has the suite's one specialization candidate.
        "E13" => &["compress", "gcc", "li", "m88ksim"],
        _ => &["compress", "gcc", "li"],
    };
    ws.iter().filter(|w| names.contains(&w.name())).cloned().collect()
}

/// Pins one registered experiment's report text as `exp_<name>.txt` and
/// its masked records as `exp_<name>.jsonl`. An experiment without
/// records must have no `.jsonl` golden, so one that stops emitting them
/// fails here rather than silently dropping its pin.
fn check_experiment(ws: &[Workload], exp: &Experiment) {
    let report = (exp.run)(&golden_slice(ws, exp), 1);
    check(&format!("exp_{}.txt", exp.name), &report.text);
    let jsonl = format!("exp_{}.jsonl", exp.name);
    if report.records.is_empty() {
        assert!(!golden_dir().join(&jsonl).exists(), "{}: {jsonl} but no records", exp.id);
    } else {
        check(&jsonl, &masked_jsonl(&report.records));
    }
}

/// The experiments pinned by a test of their own below.
const NAMED: [&str; 3] = ["benchmarks", "convergent", "tnv_policy"];

fn check_named(name: &str) {
    let exp = experiments::ALL.iter().find(|exp| exp.name == name).unwrap();
    check_experiment(&suite(), exp);
}

#[test]
fn exp_benchmarks_matches_golden() {
    check_named("benchmarks");
}

#[test]
fn exp_convergent_matches_golden() {
    check_named("convergent");
}

#[test]
fn exp_tnv_policy_matches_golden() {
    check_named("tnv_policy");
}

#[test]
fn every_experiment_matches_golden() {
    // Every registered experiment not pinned by a named test above.
    let ws = suite();
    for exp in experiments::ALL.iter().filter(|exp| !NAMED.contains(&exp.name)) {
        check_experiment(&ws, exp);
    }
}

/// The experiment `.jsonl` goldens that exist.
fn experiment_jsonl_goldens() -> Vec<String> {
    let names = experiments::ALL.iter().map(|exp| format!("exp_{}.jsonl", exp.name));
    names.filter(|name| golden_dir().join(name).exists()).collect()
}

/// `vprof run <w>` and `vprof run <w> --train` for every suite program:
/// the exit code, the instruction count and the per-class table.
#[test]
fn run_class_tables_match_golden() {
    let mut text = String::new();
    for w in suite() {
        for args in [&[w.name()][..], &[w.name(), "--train"]] {
            let out = common::vprof_command().arg("run").args(args).output().expect("spawn vprof");
            assert!(out.status.success(), "vprof run {args:?} failed");
            text.push_str(&format!("$ vprof run {}\n", args.join(" ")));
            text.push_str(std::str::from_utf8(&out.stdout).expect("utf-8 stdout"));
        }
    }
    check("run_classes.txt", &text);
}

#[test]
fn adaptive_phase_shift_run_matches_golden() {
    // A deterministic phase-shift run: the gcc workload's mode load
    // changes value between compile phases, so adaptive profiling with a
    // small window detects shifts. The masked telemetry (with its
    // per-workload `phase` objects) and the `vprof stats` rendering (with
    // its adaptive section) are both pinned.
    let ws = suite();
    let mode = ProfileMode::Adaptive(PhaseBudget { max_rearms: 8, window: 256 });
    let profile = SuiteRunner::new().mode(mode).run_workloads(&ws[..3], DataSet::Test);
    let shifts: u64 = profile
        .workloads
        .iter()
        .map(|w| match w.stats {
            Some(ProfilerStats::Phase(ps)) => ps.shifts_detected,
            other => panic!("{}: an adaptive run reports phase stats, got {other:?}", w.name),
        })
        .sum();
    assert!(shifts > 0, "the golden run must actually contain a phase shift");
    let records = telemetry::suite_records(
        "profile-suite",
        DataSet::Test,
        1,
        "adaptive-loads",
        &profile,
        None,
    );
    check("adaptive_suite.jsonl", &masked_jsonl(&records));
    // Render stats from the *masked* records, exactly what `vprof stats`
    // would show on the checked-in telemetry — wall times degrade to
    // placeholders, everything else is deterministic.
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    let stats = value_profiling::obs::stats::summarize_records(&masked).unwrap();
    assert!(stats.contains("adaptive"), "stats must render the phase section:\n{stats}");
    check("adaptive_suite_stats.txt", &stats);
}

#[test]
fn optimize_run_matches_golden() {
    // The end-to-end optimize pipeline over a fixed workload set that
    // includes the stationary m88ksim case, so the golden pins a real
    // specialized site (guard values, hit/miss counts) alongside
    // rejections. Three artifacts are pinned: the durable CRC-footered
    // report, the masked telemetry, and the `vprof stats` rendering.
    let picked = ["compress", "gcc", "li", "m88ksim"];
    let ws: Vec<_> = suite().into_iter().filter(|w| picked.contains(&w.name())).collect();
    let outcome = SuiteRunner::new().try_run_workloads(&ws, DataSet::Train);
    assert!(outcome.is_clean(), "golden profiling pass must be fault-free");
    let report = optimize_from_outcome(&outcome, &ws, "full", &OptimizeConfig::default()).unwrap();
    let m88ksim = report.workloads.iter().find(|w| w.name == "m88ksim").unwrap();
    assert!(!m88ksim.result.sites.is_empty(), "the golden run must actually specialize a site");
    check("optimize_report.txt", &report.render_durable());
    let records = report.optimize_records("optimize");
    check("optimize_suite.jsonl", &masked_jsonl(&records));
    // Render stats from the *masked* records, exactly what `vprof stats`
    // would show on the checked-in telemetry.
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    let stats = value_profiling::obs::stats::summarize_records(&masked).unwrap();
    assert!(stats.contains("optimize"), "stats must render the optimize section:\n{stats}");
    check("optimize_suite_stats.txt", &stats);
}

#[test]
fn non_adaptive_goldens_carry_no_phase_section() {
    // Absent-when-off: the pre-existing goldens must contain no phase
    // fields, so runs without `--adaptive` stay byte-identical to before
    // the detector existed.
    let names = experiment_jsonl_goldens();
    assert!(!names.is_empty());
    for name in &names {
        let text = fs::read_to_string(golden_dir().join(name)).unwrap();
        assert!(!text.contains("\"phase\""), "{name} grew a phase field");
    }
}

#[test]
fn golden_telemetry_parses_and_is_masked() {
    // The checked-in .jsonl goldens must stay valid, schema-tagged JSONL
    // with every volatile field masked (masking is idempotent).
    let mut names = experiment_jsonl_goldens();
    names.extend(["adaptive_suite.jsonl", "optimize_suite.jsonl"].map(String::from));
    for name in &names {
        let path = golden_dir().join(name);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (run VP_UPDATE_GOLDEN=1 cargo test --test golden)",
                path.display()
            )
        });
        let records = parse_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!records.is_empty(), "{name} is empty");
        for r in &records {
            assert!(r.get("schema").is_some(), "{name}: record without schema tag");
            assert_eq!(&mask_volatile(r), r, "{name}: volatile field left unmasked");
        }
    }
}
