//! Cross-input stability oracle for the end-to-end `optimize` pipeline.
//!
//! The pipeline profiles on the *train* input and is judged on the *test*
//! input — the paper's cross-input experiment (Table V.5) turned into a
//! gate: stationary workloads must keep their specialization win on data
//! they were never profiled on, every workload must stay output-
//! equivalent, and the adversarial families (whose profiles lie) must be
//! caught by the guards, not by luck.

mod common;

use std::path::Path;
use std::sync::OnceLock;

use common::vprof_command;
use value_profiling::core::{track::TrackerConfig, InstructionProfiler};
use value_profiling::instrument::{Instrumenter, Selection};
use value_profiling::sim::{InputSet, MachineConfig};
use value_profiling::specialize::{
    optimize_program, tracker_top_values, OptimizeOptions, ProgramOptimize,
};
use value_profiling::workloads::adversarial::{optimize_cases, OptimizeCase};
use value_profiling::workloads::{suite, DataSet};
use vp_bench::{optimize_from_outcome, OptimizeConfig, OptimizeReport, SuiteRunner};

const BUDGET: u64 = 100_000_000;

/// How many TNV values the exact pass offers the planner (mirrors the
/// driver in `vp_bench::optimize`).
const TOP_VALUE_POOL: usize = 8;

/// Suite workloads whose hot profiled load is stationary across data
/// sets. The pipeline must win on every one of these: at least one site
/// specialized, a positive dynamic-instruction reduction *on the test
/// input*, and a high guard hit rate.
const STATIONARY: &[&str] = &["m88ksim"];

fn full_suite_report() -> &'static OptimizeReport {
    static REPORT: OnceLock<OptimizeReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let ws = suite();
        let outcome = SuiteRunner::new().try_run_workloads(&ws, DataSet::Train);
        assert!(outcome.is_clean(), "train profiling pass must be fault-free");
        optimize_from_outcome(&outcome, &ws, "full", &OptimizeConfig::default()).unwrap()
    })
}

#[test]
fn every_suite_workload_stays_output_equivalent() {
    let report = full_suite_report();
    assert_eq!(report.workloads.len(), suite().len());
    for w in &report.workloads {
        assert!(
            w.result.eval.equivalent,
            "{}: train-profile-driven specialization changed test-input behaviour",
            w.name
        );
    }
    assert!(report.all_equivalent());
}

#[test]
fn stationary_workloads_win_across_inputs() {
    let report = full_suite_report();
    for &name in STATIONARY {
        let w = report
            .workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the optimize report"));
        let r = &w.result;
        assert!(!r.sites.is_empty(), "{name}: no site specialized");
        assert!(
            r.eval.specialized_instructions < r.eval.base_instructions,
            "{name}: no dynamic-instruction reduction on the test input \
             ({} -> {})",
            r.eval.base_instructions,
            r.eval.specialized_instructions
        );
        let (hits, misses) = (r.guard_hits(), r.guard_misses());
        assert!(hits + misses > 0, "{name}: guards never executed");
        let hit_rate = hits as f64 / (hits + misses) as f64;
        assert!(hit_rate > 0.9, "{name}: cross-input guard hit rate only {hit_rate:.3}");
    }
}

#[test]
fn non_stationary_workloads_are_rejected_with_reasons() {
    // Every load the planner passed over carries a machine-readable
    // rejection reason; nothing silently disappears.
    let report = full_suite_report();
    let mut rejected = 0usize;
    for w in &report.workloads {
        rejected += w.result.rejected.len();
        for r in &w.result.rejected {
            assert!(!r.reason.name().is_empty());
        }
    }
    assert!(rejected > 0, "the suite should reject at least one candidate");
}

/// Profiles `program` on `input` with exact ground truth.
fn exact_profile(program: &value_profiling::asm::Program, input: &InputSet) -> InstructionProfiler {
    let mut p = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(program, MachineConfig::new().input(input.clone()), BUDGET, &mut p)
        .unwrap();
    p
}

/// Runs the program-level pipeline for one adversarial case: profile on
/// its stationary train input, evaluate on its hostile test input.
fn optimize_case(case: &OptimizeCase) -> ProgramOptimize {
    let profiler = exact_profile(&case.program, &case.train);
    let top = |index: u32| {
        profiler.tracker(index).map(|t| tracker_top_values(t, TOP_VALUE_POOL)).unwrap_or_default()
    };
    let options = OptimizeOptions { budget: BUDGET, ..OptimizeOptions::default() };
    optimize_program(&case.program, &profiler.metrics(), &top, &case.test, &options).unwrap()
}

#[test]
fn adversarial_cases_stay_equivalent_and_report_their_misses() {
    // The train profile of every adversarial family is fully invariant —
    // the planner *must* take the bait — and the test input then breaks
    // the assumption. The guards have to absorb the damage (equivalent
    // output) and the miss counters have to confess it.
    for case in optimize_cases() {
        let r = optimize_case(&case);
        assert!(
            !r.sites.is_empty(),
            "{}: the stationary train profile should produce a site",
            case.name
        );
        assert!(r.eval.equivalent, "{}: guards failed to preserve behaviour", case.name);
        let (hits, misses) = (r.guard_hits(), r.guard_misses());
        assert_eq!(
            hits + misses,
            case.iterations,
            "{}: the config load runs once per iteration",
            case.name
        );
        assert!(misses > 0, "{}: a hostile input must produce guard misses", case.name);
    }
}

#[test]
fn phase_flip_misses_exactly_the_second_phase() {
    let case = optimize_cases().into_iter().find(|c| c.name == "phase-flip").unwrap();
    let r = optimize_case(&case);
    // The config flips once at the midpoint and never back: first half
    // hits, second half misses, exactly.
    assert_eq!(r.guard_hits(), case.iterations / 2, "phase-flip hits");
    assert_eq!(r.guard_misses(), case.iterations / 2, "phase-flip misses");
    assert!(r.eval.equivalent);
}

#[test]
fn tnv_churn_never_hits() {
    let case = optimize_cases().into_iter().find(|c| c.name == "tnv-churn").unwrap();
    let r = optimize_case(&case);
    // The test input replaces the config before the very first load and
    // churns from then on; the trained guard value never comes back.
    assert_eq!(r.guard_hits(), 0, "tnv-churn hits");
    assert_eq!(r.guard_misses(), case.iterations, "tnv-churn misses");
    assert!(r.eval.equivalent);
}

#[test]
fn report_and_records_are_parallelism_invariant_in_process() {
    use value_profiling::obs::telemetry::to_jsonl;
    let ws = suite();
    let cfg = OptimizeConfig::default();
    let serial = SuiteRunner::new().try_run_workloads(&ws, DataSet::Train);
    let reference = optimize_from_outcome(&serial, &ws, "full", &cfg).unwrap();
    let parallel = SuiteRunner::new().jobs(4).try_run_workloads(&ws, DataSet::Train);
    let report = optimize_from_outcome(&parallel, &ws, "full", &cfg).unwrap();
    assert_eq!(reference.render_durable(), report.render_durable());
    assert_eq!(
        to_jsonl(&reference.optimize_records("optimize")),
        to_jsonl(&report.optimize_records("optimize"))
    );
}

// ---------------------------------------------------------------------
// End-to-end CLI determinism: `vprof optimize` must write byte-identical
// stdout, report artifact and telemetry however the profiling pass is
// parallelized across threads.
// ---------------------------------------------------------------------

fn run_optimize(dir: &Path, extra: &[&str]) -> String {
    let mut cmd = vprof_command();
    cmd.args(["optimize", "--report", "report.txt", "--telemetry", "opt.jsonl"])
        .args(extra)
        .current_dir(dir);
    let out = cmd.output().expect("spawn vprof optimize");
    assert!(
        out.status.success(),
        "vprof optimize {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn cli_output_is_byte_identical_across_parallelism() {
    let base = std::env::temp_dir().join(format!("vprof-optimize-det-{}", std::process::id()));
    let variants: &[(&str, &[&str])] = &[("serial", &[]), ("jobs4", &["--jobs", "4"])];
    let mut reference: Option<(String, String, String)> = None;
    for (name, extra) in variants {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let stdout = run_optimize(&dir, extra);
        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        let telemetry = std::fs::read_to_string(dir.join("opt.jsonl")).unwrap();
        match &reference {
            None => reference = Some((stdout, report, telemetry)),
            Some((s, r, t)) => {
                assert_eq!(s, &stdout, "{name}: stdout diverged from the serial run");
                assert_eq!(r, &report, "{name}: report artifact diverged");
                assert_eq!(t, &telemetry, "{name}: telemetry diverged");
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
