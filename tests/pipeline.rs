//! Cross-crate pipeline invariants over the full benchmark suite:
//! consistency between the emulator's statistics, the instrumentation
//! layer's event counts and the profiler's metrics; determinism; and the
//! convergent profiler's accuracy contract.

use std::collections::BTreeMap;

use value_profiling::core::{
    compare, track::TrackerConfig, ConvergentConfig, ConvergentProfiler, InstructionProfiler,
};
use value_profiling::instrument::{Instrumenter, Selection};
use value_profiling::isa::OpClass;
use value_profiling::sim::Machine;
use value_profiling::workloads::{suite, DataSet};

const BUDGET: u64 = 100_000_000;

#[test]
fn event_counts_match_profiler_and_stats() {
    for w in suite() {
        let mut profiler = InstructionProfiler::new(TrackerConfig::default());
        let run = Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
            .unwrap();
        // Every load event became exactly one profiled value.
        let profiled: u64 = profiler.metrics().iter().map(|m| m.executions).sum();
        assert_eq!(profiled, run.counts.load_events, "{}", w.name());
        assert_eq!(run.counts.instr_events, run.counts.load_events, "{}", w.name());
        // The emulator's own statistics agree with the run outcome.
        assert_eq!(run.stats.total(), run.outcome.instructions, "{}", w.name());
        // Load class count equals load events.
        assert_eq!(run.stats.class_count(OpClass::Load), run.counts.load_events, "{}", w.name());
    }
}

#[test]
fn derived_class_counts_match_a_per_event_tally() {
    for w in suite() {
        for ds in [DataSet::Test, DataSet::Train] {
            let at = format!("{} [{}]", w.name(), ds.name());
            let mut machine = Machine::new(w.program().clone(), w.machine_config(ds)).unwrap();
            let mut tally: BTreeMap<OpClass, u64> = BTreeMap::new();
            let outcome = machine
                .run_with(BUDGET, |_, event| *tally.entry(event.instr.class()).or_insert(0) += 1)
                .unwrap();
            let per_class = machine.stats().per_class();
            assert_eq!(per_class, tally, "{at}");
            assert!(per_class.values().all(|&n| n > 0), "{at}: zero entry in {per_class:?}");
            assert_eq!(per_class.values().sum::<u64>(), outcome.instructions, "{at}");
            for (&class, &n) in &per_class {
                assert_eq!(machine.stats().class_count(class), n, "{at}: {class}");
            }
        }
    }
}

#[test]
fn metric_structural_invariants_suite_wide() {
    for w in suite() {
        let profiler = {
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            Instrumenter::new()
                .select(Selection::RegisterDefining)
                .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut p)
                .unwrap();
            p
        };
        for m in profiler.metrics() {
            let name = w.name();
            assert!(m.executions > 0, "{name}: dead tracker");
            assert!((0.0..=1.0 + 1e-9).contains(&m.inv_top1), "{name}");
            assert!(m.inv_top1 <= m.inv_topn + 1e-9, "{name}");
            assert!(m.inv_topn <= m.inv_alln.unwrap() + 1e-9, "{name}");
            assert!(m.inv_all1.unwrap() <= m.inv_alln.unwrap() + 1e-9, "{name}");
            assert!((0.0..=1.0 + 1e-9).contains(&m.lvp), "{name}");
            assert!((0.0..=1.0 + 1e-9).contains(&m.pct_zero), "{name}");
            let distinct = m.distinct.unwrap();
            assert!(distinct >= 1 && distinct <= m.executions, "{name}");
            // A single distinct value forces full invariance, and vice versa.
            if distinct == 1 {
                assert!((m.inv_all1.unwrap() - 1.0).abs() < 1e-9, "{name}");
            }
            if (m.inv_all1.unwrap() - 1.0).abs() < 1e-12 {
                assert_eq!(distinct, 1, "{name}");
            }
        }
        let agg = profiler.aggregate();
        assert!(agg.inv_top1 <= agg.inv_topn + 1e-9);
        assert!(agg.executions > 0);
    }
}

#[test]
fn profiling_is_deterministic() {
    let w = value_profiling::workloads::Workload::by_name("m88ksim").unwrap();
    let run = || {
        let mut p = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::RegisterDefining)
            .run(w.program(), w.machine_config(DataSet::Train), BUDGET, &mut p)
            .unwrap();
        p.metrics()
    };
    assert_eq!(run(), run());
}

#[test]
fn convergent_tracks_full_profile() {
    for w in suite() {
        let mut full = InstructionProfiler::new(TrackerConfig::default());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut full)
            .unwrap();
        let mut conv =
            ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut conv)
            .unwrap();

        let frac = conv.overall_profile_fraction();
        assert!(frac > 0.0 && frac <= 1.0, "{}: fraction {frac}", w.name());
        let cmp = compare(&full.metrics(), &conv.metrics());
        assert_eq!(cmp.only_one_side, 0, "{}: same instruction sets", w.name());
        assert!(
            cmp.mean_abs_inv_diff < 0.15,
            "{}: convergent drifted {:.3} from the full profile",
            w.name(),
            cmp.mean_abs_inv_diff
        );
        // Totals must match the full profile's executions exactly.
        for (f, c) in full.metrics().iter().zip(conv.stats()) {
            assert_eq!(f.executions, c.total, "{}", w.name());
            assert!(c.profiled <= c.total, "{}", w.name());
        }
        // Convention: every sampling profiler reports metrics with
        // `executions` reweighted to the TRUE execution totals (profiled
        // counts live in `stats()`), so its aggregate weights match a
        // full profile's.
        for (f, c) in full.metrics().iter().zip(conv.metrics()) {
            assert_eq!(
                f.executions,
                c.executions,
                "{}: convergent metrics must report true totals",
                w.name()
            );
        }
        assert_eq!(
            full.aggregate().executions,
            conv.aggregate().executions,
            "{}: aggregate weights must match the full profile",
            w.name()
        );
    }
}

#[test]
fn outcomes_identical_with_and_without_instrumentation() {
    for w in suite() {
        let plain = w.run(DataSet::Test, BUDGET).unwrap();
        let mut p = InstructionProfiler::new(TrackerConfig::default());
        let instrumented = Instrumenter::new()
            .select(Selection::All)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut p)
            .unwrap();
        assert_eq!(plain, instrumented.outcome, "{}: observation changed behaviour", w.name());
    }
}

#[test]
fn profiler_state_usable_after_fault() {
    // A value profiler keeps the pre-fault profile when the run dies.
    use value_profiling::sim::SimError;
    let program = value_profiling::asm::assemble(
        r#"
        .text
        main:
            li r9, 10
        loop:
            addi r2, r0, 7
            addi r9, r9, -1
            bnz r9, loop
            li  r2, -8
            ldd r3, 0(r2)     # faults after the loop finished
            sys exit
        "#,
    )
    .unwrap();
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    let err = Instrumenter::new()
        .select(Selection::RegisterDefining)
        .run(&program, value_profiling::sim::MachineConfig::new(), 100_000, &mut profiler)
        .unwrap_err();
    assert!(matches!(err, SimError::Mem(_)));
    let constant = profiler
        .metrics()
        .into_iter()
        .find(|m| m.top_value == Some(7))
        .expect("loop body was profiled before the fault");
    assert_eq!(constant.executions, 10);
    assert!((constant.inv_top1 - 1.0).abs() < 1e-12);
}
