//! Predictor-harness invariants over real workload value streams.

use value_profiling::core::{track::TrackerConfig, InstructionProfiler};
use value_profiling::instrument::{Analysis, Instrumenter, Selection};
use value_profiling::predict::{
    evaluate, FilteredPredictor, HybridPredictor, LastValuePredictor, Predictor, StridePredictor,
    TwoLevelPredictor,
};
use value_profiling::workloads::{suite, DataSet, Workload};

fn stream_of(w: &Workload) -> Vec<(u32, u64)> {
    struct Collector(Vec<(u32, u64)>);
    impl Analysis for Collector {
        const VALUE_STREAM: bool = true;

        fn observe_values(&mut self, events: &[(u32, u64)]) {
            self.0.extend_from_slice(events);
        }
    }
    let mut c = Collector(Vec::new());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(w.program(), w.machine_config(DataSet::Test), 100_000_000, &mut c)
        .unwrap();
    c.0
}

#[test]
fn predictor_stats_account_for_every_event() {
    for w in suite() {
        let stream = stream_of(&w);
        for p in [
            &mut LastValuePredictor::new(256) as &mut dyn Predictor,
            &mut StridePredictor::new(256),
            &mut TwoLevelPredictor::new(),
            &mut HybridPredictor::new(LastValuePredictor::new(256), StridePredictor::new(256)),
        ] {
            let s = evaluate(p, stream.iter().copied());
            assert_eq!(s.total() as usize, stream.len(), "{} / {}", w.name(), p.name());
            assert!(s.hit_rate() <= 1.0 && s.precision() <= 1.0 && s.coverage() <= 1.0);
        }
    }
}

#[test]
fn lvp_hit_rate_matches_profiled_lvp_metric() {
    // A last-value predictor with ample table space and no confidence
    // gating differs from the LVP metric only through its 2-bit counters;
    // its hit rate must sit close to (and never wildly above) the
    // profiled LVP.
    for w in suite() {
        let stream = stream_of(&w);
        let mut profiler = InstructionProfiler::new(TrackerConfig::default());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), 100_000_000, &mut profiler)
            .unwrap();
        let lvp_metric = profiler.aggregate().lvp;
        let s = evaluate(&mut LastValuePredictor::new(4096), stream.iter().copied());
        assert!(
            s.hit_rate() <= lvp_metric + 0.02,
            "{}: predictor {:.3} vs metric {:.3}",
            w.name(),
            s.hit_rate(),
            lvp_metric
        );
        assert!(
            s.hit_rate() >= lvp_metric - 0.25,
            "{}: confidence gating cost too much ({:.3} vs {:.3})",
            w.name(),
            s.hit_rate(),
            lvp_metric
        );
    }
}

#[test]
fn filtering_never_increases_mispredictions() {
    for w in suite() {
        let stream = stream_of(&w);
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Train), 100_000_000, &mut profiler)
            .unwrap();
        let unfiltered = evaluate(&mut LastValuePredictor::new(1024), stream.iter().copied());
        let filtered = evaluate(
            &mut FilteredPredictor::from_profile(
                LastValuePredictor::new(1024),
                &profiler.metrics(),
                0.5,
            ),
            stream.iter().copied(),
        );
        assert!(
            filtered.mispredictions <= unfiltered.mispredictions,
            "{}: filtering must not add mispredictions",
            w.name()
        );
        assert!(filtered.hits <= unfiltered.hits, "{}", w.name());
    }
}
