//! End-to-end specialization safety: the guarded fast path must preserve
//! observable behaviour on every workload it is applied to, whether the
//! specialized value is right, stale or plain wrong.

use value_profiling::asm::Program;
use value_profiling::core::{track::TrackerConfig, InstructionProfiler};
use value_profiling::instrument::{Instrumenter, Selection};
use value_profiling::sim::MachineConfig;
use value_profiling::specialize::{
    demo, evaluate, plan_candidates, specialize_all, Candidate, CandidateOptions, OptimizeOptions,
};
use value_profiling::workloads::{suite, DataSet, Workload};

const BUDGET: u64 = 100_000_000;

fn load_metrics(w: &Workload, ds: DataSet) -> InstructionProfiler {
    let mut p = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(w.program(), w.machine_config(ds), BUDGET, &mut p)
        .unwrap();
    p
}

/// The planner's one-value-per-site candidates under `thresholds`.
fn plan(
    program: &Program,
    profiler: &InstructionProfiler,
    thresholds: CandidateOptions,
) -> Vec<Candidate> {
    let options = OptimizeOptions { candidates: thresholds, ..OptimizeOptions::default() };
    plan_candidates(program, &profiler.metrics(), &|_| Vec::new(), &options).selected
}

#[test]
fn profile_guided_specialization_is_exact_suite_wide() {
    for w in suite() {
        let profiler = load_metrics(&w, DataSet::Test);
        let candidates = plan(w.program(), &profiler, CandidateOptions::default());
        let Ok((specialized, sites)) = specialize_all(w.program(), &candidates) else {
            continue; // e.g. scratch register in use — allowed to refuse
        };
        for ds in [DataSet::Test, DataSet::Train] {
            let report = evaluate(w.program(), &specialized, &sites, w.input(ds), BUDGET).unwrap();
            assert!(
                report.speedup.equivalent,
                "{} [{}]: specialization changed behaviour",
                w.name(),
                ds.name()
            );
        }
    }
}

#[test]
fn wrong_value_specialization_is_still_exact() {
    // Force-specialize every foldable load on a value it will never see:
    // the guard must route everything down the slow path unchanged.
    for w in suite() {
        let profiler = load_metrics(&w, DataSet::Test);
        let loose = CandidateOptions { min_invariance: 0.0, min_executions: 1, min_folded: 1 };
        let mut candidates = plan(w.program(), &profiler, loose);
        for c in &mut candidates {
            c.values = vec![0xdead_beef_dead_beef];
        }
        let Ok((specialized, sites)) = specialize_all(w.program(), &candidates) else {
            continue;
        };
        let report =
            evaluate(w.program(), &specialized, &sites, w.input(DataSet::Test), BUDGET).unwrap();
        assert!(report.speedup.equivalent, "{}: wrong-value guard broke behaviour", w.name());
        assert!(
            report.speedup.specialized_instructions >= report.speedup.base_instructions,
            "{}: wrong-value specialization cannot be faster",
            w.name()
        );
    }
}

#[test]
fn demo_kernel_speedup_monotone_in_invariance() {
    let program = demo::program();
    let mut last_speedup = f64::INFINITY;
    for period in [0u64, 100, 10] {
        let input = demo::input(10_000, period);
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(&program, MachineConfig::new().input(input.clone()), BUDGET, &mut profiler)
            .unwrap();
        let candidates = plan(&program, &profiler, CandidateOptions::default());
        assert_eq!(candidates.len(), 1, "period {period}");
        let (specialized, sites) = specialize_all(&program, &candidates).unwrap();
        let report = evaluate(&program, &specialized, &sites, &input, BUDGET).unwrap().speedup;
        assert!(report.equivalent);
        assert!(
            report.speedup() <= last_speedup + 1e-9,
            "period {period}: speedup should not grow as invariance falls"
        );
        last_speedup = report.speedup();
    }
    assert!(last_speedup > 1.0, "even at period 10 the fast path should win");
}

#[test]
fn double_specialization_of_distinct_sites() {
    // Two foldable loads in one program: both can be specialized, and the
    // result remains exact.
    let program = value_profiling::asm::assemble(
        r#"
        .data
        a: .quad 6
        b: .quad 9
        .text
        main:
            la r10, a
            la r11, b
            li r9, 500
            li r18, 0
        loop:
            ldd  r2, 0(r10)
            muli r3, r2, 3
            addi r3, r3, 1
            xori r3, r3, 85
            slli r3, r3, 2
            srli r3, r3, 1
            andi r3, r3, 1023
            muli r3, r3, 7
            addi r3, r3, 13
            add  r18, r18, r3
            ldd  r4, 0(r11)
            xori r5, r4, 60
            muli r5, r5, 7
            addi r5, r5, 29
            slli r5, r5, 3
            srli r5, r5, 2
            andi r5, r5, 2047
            muli r5, r5, 11
            add  r18, r18, r5
            addi r9, r9, -1
            bnz  r9, loop
            andi a0, r18, 255
            sys  exit
        "#,
    )
    .unwrap();
    let loads: Vec<u32> = program
        .code()
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_load())
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(loads.len(), 2);
    let candidates = vec![
        Candidate { load_index: loads[0], values: vec![6], invariance: 1.0, executions: 500 },
        Candidate { load_index: loads[1], values: vec![9], invariance: 1.0, executions: 500 },
    ];
    let (specialized, sites) = specialize_all(&program, &candidates).unwrap();
    let input = value_profiling::sim::InputSet::empty();
    let report = evaluate(&program, &specialized, &sites, &input, BUDGET).unwrap();
    // Both guards run on every iteration: the loads share a basic block,
    // and the first site's fast path must not copy the second load
    // unspecialized and jump past its guard.
    assert_eq!((report.guards[0].hits, report.guards[0].misses), (500, 0));
    assert_eq!((report.guards[1].hits, report.guards[1].misses), (500, 0));
    let report = report.speedup;
    assert!(report.equivalent);
    assert!(report.speedup() > 1.0, "speedup {}", report.speedup());
}
