//! Value prediction guided by value profiles (the paper's §II.A use case):
//! compare predictor families on real workload load streams, then show how
//! profile-based filtering rescues a small predictor table from aliasing.
//!
//! Run with: `cargo run --example value_prediction`

use value_profiling::core::{track::TrackerConfig, InstructionProfiler};
use value_profiling::instrument::{Analysis, Instrumenter, Selection};
use value_profiling::predict::{
    evaluate, FilteredPredictor, HybridPredictor, LastValuePredictor, Predictor, StridePredictor,
    TwoLevelPredictor,
};
use value_profiling::workloads::{suite, DataSet};

/// Collects the (pc, value) stream of all profiled loads.
#[derive(Default)]
struct StreamCollector(Vec<(u32, u64)>);

impl Analysis for StreamCollector {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        self.0.extend_from_slice(events);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "program", "lvp%", "stride%", "2level%", "hybrid%", "lvp-misp%", "filt-hit%", "filt-misp%"
    );

    for w in suite() {
        // Gather the load value stream and, separately, a training profile.
        let mut collector = StreamCollector::default();
        Instrumenter::new().select(Selection::LoadsOnly).run(
            w.program(),
            w.machine_config(DataSet::Test),
            100_000_000,
            &mut collector,
        )?;
        let stream = collector.0;

        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new().select(Selection::LoadsOnly).run(
            w.program(),
            w.machine_config(DataSet::Train), // profile on the OTHER input
            100_000_000,
            &mut profiler,
        )?;

        let stats = |p: &mut dyn Predictor| evaluate(p, stream.iter().copied());
        let hit = |p: &mut dyn Predictor| stats(p).hit_rate() * 100.0;
        let lvp_stats = stats(&mut LastValuePredictor::new(1024));
        let stride = hit(&mut StridePredictor::new(1024));
        let two = hit(&mut TwoLevelPredictor::new());
        let hybrid =
            hit(&mut HybridPredictor::new(StridePredictor::new(1024), TwoLevelPredictor::new()));
        // Gabbay & Mendelson's use of profiles: only predict instructions
        // the *train-input* profile classified last-value predictable.
        // Coverage drops, but costly mispredictions collapse.
        let filt_stats = stats(&mut FilteredPredictor::from_profile(
            LastValuePredictor::new(1024),
            &profiler.metrics(),
            0.5,
        ));
        let total = lvp_stats.total().max(1) as f64;

        println!(
            "{:<10} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>10.1} {:>10.1} {:>10.1}",
            w.name(),
            lvp_stats.hit_rate() * 100.0,
            stride,
            two,
            hybrid,
            lvp_stats.mispredictions as f64 / total * 100.0,
            filt_stats.hit_rate() * 100.0,
            filt_stats.mispredictions as f64 / total * 100.0,
        );
    }

    println!("\nHybrids dominate single predictors (the Wang & Franklin shape).");
    println!("Filtering on a train-input profile keeps most of LVP's hits while");
    println!("collapsing its mispredictions — the paper's proposed use of value");
    println!("profiles for prediction, and proof the profile transfers across inputs.");
    Ok(())
}
