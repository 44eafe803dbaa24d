//! The paper's experiments, E1–E17: one function per table or figure,
//! registered in [`ALL`] and run by `vprof experiment <E#|all>`.
//!
//! Each experiment returns an [`ExpReport`]: the human-readable table text
//! plus the telemetry records behind it. Every experiment renders over the
//! workload slice it is given, so each table is reproducible under test
//! (`tests/golden.rs` pins all of them) and every number a report carries
//! machine-readably lands in `telemetry.jsonl` too.
//!
//! Determinism contract: every record and every table line is
//! byte-identical across runs and across `--jobs` settings. No experiment
//! takes a wall-clock timing; those belong to the `perfbench` harness.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use vp_core::{
    aggregate, compare, correlation, group_by_class, invariance_histogram, render_metric_table,
    report::row, temporal::TemporalProfiler, track::TrackerConfig, ConvergentConfig,
    ConvergentProfiler, EntityMetrics, FullProfile, InstructionProfiler, MemoryProfiler,
    ParamProfiler, ParamSlot, Policy, ReportRow, SampleStrategy, SampledProfiler, TnvTable,
};
use vp_instrument::{parallel_map, Analysis, Instrumenter, Selection};
use vp_isa::OpClass;
use vp_obs::telemetry::record;
use vp_obs::{CounterId, Counts, Json};
use vp_predict::{
    collect_pathed_stream, evaluate_pathed, FilteredPredictor, HybridPredictor, LastValuePredictor,
    Predictor, PredictorStats, StridePredictor, TwoLevelPredictor,
};
use vp_sim::stats::quantile_table;
use vp_sim::{Cfg, InputSet, Machine, MachineConfig};
use vp_specialize::{
    demo, find_candidates, specialize, specialize_all, specialize_multi, Candidate,
    CandidateOptions, MultiCandidate,
};
use vp_workloads::{DataSet, Workload};

use crate::{all_instr_profile, load_profile, value_stream, SuiteRunner, BUDGET};

/// One experiment's output: the report text `vprof experiment` prints and
/// the telemetry records (schema-versioned, see [`vp_obs::telemetry`])
/// that carry the same numbers machine-readably.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpReport {
    /// The rendered human-readable report (tables included).
    pub text: String,
    /// Telemetry records mirroring the report's numbers.
    pub records: Vec<Json>,
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `E1` … `E17`: the index of DESIGN.md §5 and EXPERIMENTS.md.
    pub id: &'static str,
    /// Short name; the experiment's golden files are
    /// `tests/golden/exp_<name>.txt` and `.jsonl`.
    pub name: &'static str,
    /// Renders the report over a workload slice with up to `jobs` worker
    /// threads. Experiments that run serially ignore `jobs`.
    pub run: fn(&[Workload], usize) -> ExpReport,
}

/// Every experiment, in E-order.
pub const ALL: &[Experiment] = &[
    Experiment { id: "E1", name: "benchmarks", run: benchmarks },
    Experiment { id: "E2", name: "loads", run: |ws, _| loads(ws) },
    Experiment { id: "E3", name: "all_instrs", run: |ws, _| all_instrs(ws) },
    Experiment { id: "E4", name: "inv_histogram", run: |ws, _| inv_histogram(ws) },
    Experiment { id: "E5", name: "by_class", run: |ws, _| by_class(ws) },
    Experiment { id: "E6", name: "tnv_policy", run: |ws, _| tnv_policy(ws) },
    Experiment { id: "E7", name: "convergent", run: |ws, _| convergent(ws) },
    Experiment { id: "E8", name: "train_test", run: train_test },
    Experiment { id: "E9", name: "memory", run: |ws, _| memory(ws) },
    Experiment { id: "E10", name: "params", run: |ws, _| params(ws) },
    Experiment { id: "E11", name: "bb_quantile", run: |ws, _| bb_quantile(ws) },
    Experiment { id: "E12", name: "overhead", run: |ws, _| overhead(ws) },
    Experiment { id: "E13", name: "specialize", run: |ws, _| specialize_study(ws) },
    Experiment { id: "E14", name: "predict", run: |ws, _| predict(ws) },
    Experiment { id: "E15", name: "path", run: |ws, _| path(ws) },
    Experiment { id: "E16", name: "temporal", run: |ws, _| temporal(ws) },
    Experiment { id: "E17", name: "multiway", run: |_, _| multiway() },
];

/// The experiment with id `id` (`E7`).
pub fn by_id(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

fn heading_line(text: &mut String, id: &str, title: &str) {
    let _ = writeln!(text, "==== {id}: {title} ====");
}

/// E1 — Table III.1: the benchmark suite, its data sets and dynamic
/// instruction counts. `jobs` fans the workload runs out over worker
/// threads; the report is identical either way.
pub fn benchmarks(workloads: &[Workload], jobs: usize) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E1", "benchmark programs and data sets (Table III.1)");
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>14} {:>14} description",
        "program", "static size", "test Kinstrs", "train Kinstrs"
    );
    let rows = parallel_map(jobs, workloads, |w| {
        let test = w.run(DataSet::Test, BUDGET).expect("test run").instructions;
        let train = w.run(DataSet::Train, BUDGET).expect("train run").instructions;
        (test, train)
    });
    let mut records =
        vec![record("experiment", "E1", vec![("workloads", Json::U64(workloads.len() as u64))])];
    for (w, (test, train)) in workloads.iter().zip(rows) {
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>14.1} {:>14.1} {}",
            w.name(),
            w.program().len(),
            test as f64 / 1_000.0,
            train as f64 / 1_000.0,
            w.description()
        );
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E1".to_string())),
                ("static_size", Json::U64(w.program().len() as u64)),
                ("test_instructions", Json::U64(test)),
                ("train_instructions", Json::U64(train)),
            ],
        ));
    }
    ExpReport { text, records }
}

/// E2 — the load-value profile table: per benchmark, `LVP`, `Inv-Top(1)`,
/// `Inv-Top(N)` (TNV estimate), `Inv-All` (exact), `%zero` and `Diff(L/I)`
/// over all load instructions, execution-weighted.
///
/// Paper shape: load values are highly invariant on average (roughly half
/// of dynamic loads covered by the top value), `Inv-Top` tracks `Inv-All`
/// closely, and LVP understates invariance when values interleave.
pub fn loads(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E2", "load value profiles (test input)");
    let rows: Vec<ReportRow> = workloads
        .iter()
        .map(|w| ReportRow {
            label: w.name().to_string(),
            aggregate: load_profile(w, DataSet::Test).aggregate(),
        })
        .collect();
    let table = render_metric_table("loads, execution-weighted (values in %)", &rows);
    let _ = writeln!(text, "{table}");
    ExpReport { text, records: Vec::new() }
}

/// E3 — the all-instructions value profile: the same metric table as E2
/// but over *every* register-defining instruction, the paper's broader
/// profiling universe.
///
/// Paper shape: aggregate invariance is lower than for loads alone
/// (address arithmetic and loop counters vary), yet a substantial fraction
/// of all dynamic instructions still produce their top value.
pub fn all_instrs(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E3", "all register-defining instruction value profiles (test input)");
    let rows: Vec<ReportRow> = workloads
        .iter()
        .map(|w| ReportRow {
            label: w.name().to_string(),
            aggregate: all_instr_profile(w, DataSet::Test).aggregate(),
        })
        .collect();
    let table =
        render_metric_table("all defining instructions, execution-weighted (values in %)", &rows);
    let _ = writeln!(text, "{table}");
    ExpReport { text, records: Vec::new() }
}

fn histogram_lines(text: &mut String, title: &str, buckets: [f64; 10]) {
    let _ = writeln!(text, "{title}");
    for (i, weight) in buckets.iter().enumerate() {
        let bar = "#".repeat((weight * 60.0).round() as usize);
        let _ = writeln!(
            text,
            "  {:>3}-{:<4} {:>6.1}% {bar}",
            i * 10,
            format!("{}%", (i + 1) * 10),
            weight * 100.0
        );
    }
    let _ = writeln!(text);
}

/// E4 — the invariance-distribution figures: for loads and for all
/// defining instructions, the fraction of dynamic executions whose
/// instruction falls into each 10%-wide `Inv-Top(1)` bucket.
///
/// Paper shape: the distribution is strongly bimodal — big masses in the
/// 0–10% bucket (varying instructions) and the 90–100% bucket (invariant
/// ones), with little in between. That bimodality is what makes
/// "semi-invariant" a usable classification.
pub fn inv_histogram(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E4", "invariance distribution (execution-weighted, suite-wide)");
    let mut load_metrics = Vec::new();
    let mut all_metrics = Vec::new();
    for w in workloads {
        load_metrics.extend(load_profile(w, DataSet::Test).metrics());
        all_metrics.extend(all_instr_profile(w, DataSet::Test).metrics());
    }
    histogram_lines(
        &mut text,
        "loads: fraction of dynamic executions per Inv-Top(1) bucket",
        invariance_histogram(&load_metrics, |m| m.inv_top1),
    );
    histogram_lines(
        &mut text,
        "all defining instructions: fraction per Inv-Top(1) bucket",
        invariance_histogram(&all_metrics, |m| m.inv_top1),
    );
    histogram_lines(
        &mut text,
        "loads: fraction per Inv-Top(N) bucket (whole TNV table)",
        invariance_histogram(&load_metrics, |m| m.inv_topn),
    );
    ExpReport { text, records: Vec::new() }
}

/// E5 — invariance by instruction class: the paper's per-opcode-type
/// breakdown of value invariance and last-value predictability.
///
/// Paper shape: loads and logic/compare results are the most invariant
/// classes; plain integer ALU (dominated by address arithmetic and loop
/// counters) is the least; multiplies and FP sit in between.
pub fn by_class(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E5", "value invariance by instruction class (suite-wide, test input)");
    let mut per_class: BTreeMap<OpClass, Vec<EntityMetrics>> = BTreeMap::new();
    for w in workloads {
        let profiler = all_instr_profile(w, DataSet::Test);
        for (class, ms) in group_by_class(w.program(), &profiler.metrics()) {
            per_class.entry(class).or_default().extend(ms);
        }
    }
    let _ = writeln!(
        text,
        "{:<10} {:>14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "class", "execs", "LVP%", "InvT1%", "InvTN%", "InvA1%", "%zero"
    );
    for (class, metrics) in &per_class {
        let a = aggregate(metrics);
        let _ = writeln!(
            text,
            "{:<10} {:>14} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            class.name(),
            a.executions,
            a.lvp * 100.0,
            a.inv_top1 * 100.0,
            a.inv_topn * 100.0,
            a.inv_all1.unwrap_or(0.0) * 100.0,
            a.pct_zero * 100.0,
        );
    }
    ExpReport { text, records: Vec::new() }
}

fn policy_error(streams: &[Vec<u64>], capacity: usize, policy: Policy, n: usize) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0u64;
    for stream in streams {
        let mut tnv = TnvTable::new(capacity, policy);
        let mut full = FullProfile::new();
        for &v in stream {
            tnv.observe(v);
            full.observe(v);
        }
        let err = (tnv.inv_top(n) - full.inv_all(n)).abs();
        weighted += err * stream.len() as f64;
        total += stream.len() as u64;
    }
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

/// E6 — TNV replacement-policy accuracy across table sizes and policies:
/// execution-weighted mean `|Inv-Top(N) - Inv-All(N)|`, suite-wide, plus
/// the LFU lock-in stress case.
///
/// Streams are collected per PC into a sorted map, so the error sums run
/// in a deterministic order (summing f64 in hash-map order used to make
/// the low digits run-dependent).
pub fn tnv_policy(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E6", "TNV replacement policy accuracy (|Inv-Top(N) - Inv-All(N)|)");

    // Gather per-load value streams across the suite, in (workload, pc)
    // order so every float accumulation below is order-stable.
    let mut streams: Vec<Vec<u64>> = Vec::new();
    for w in workloads {
        let mut per_pc: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (pc, v) in value_stream(w, DataSet::Test, Selection::LoadsOnly) {
            per_pc.entry(pc).or_default().push(v);
        }
        streams.extend(per_pc.into_values());
    }
    let total_values: usize = streams.iter().map(Vec::len).sum();
    let _ = writeln!(text, "{} load value streams, {} total values\n", streams.len(), total_values);
    let mut records = vec![record(
        "experiment",
        "E6",
        vec![
            ("workloads", Json::U64(workloads.len() as u64)),
            ("streams", Json::U64(streams.len() as u64)),
            ("values", Json::U64(total_values as u64)),
        ],
    )];

    let _ = writeln!(text, "{:<26} {:>8} {:>8} {:>8} {:>8}", "policy", "N=2", "N=4", "N=8", "N=16");
    type PolicyFactory = Box<dyn Fn(usize) -> Policy>;
    let configs: Vec<(String, PolicyFactory)> = vec![
        (
            "lfu-clear (paper)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear { steady: cap / 2, clear_interval: 2000 }),
        ),
        (
            "lfu-clear (interval 500)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear { steady: cap / 2, clear_interval: 500 }),
        ),
        (
            "lfu-clear (steady 1/4)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear {
                steady: (cap / 4).max(1),
                clear_interval: 2000,
            }),
        ),
        ("lfu".to_string(), Box::new(|_| Policy::Lfu)),
        ("lru".to_string(), Box::new(|_| Policy::Lru)),
    ];
    for (name, make) in &configs {
        let errs: Vec<f64> = [2usize, 4, 8, 16]
            .iter()
            .map(|&cap| policy_error(&streams, cap, make(cap), cap))
            .collect();
        let cells: Vec<String> = errs.iter().map(|e| format!("{e:8.4}")).collect();
        let _ = writeln!(text, "{:<26} {}", name, cells.join(" "));
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E6".to_string())),
                ("err_n2", Json::F64(errs[0])),
                ("err_n4", Json::F64(errs[1])),
                ("err_n8", Json::F64(errs[2])),
                ("err_n16", Json::F64(errs[3])),
            ],
        ));
    }

    // The stress case the clearing policy exists for (the LFU lock-in
    // pathology): an early phase fills the table with moderately hot
    // values; afterwards a new value dominates but arrives interleaved
    // with one-off noise values. Under plain LFU every noise miss evicts
    // the newcomer (it is always the minimum-count entry), so the new hot
    // value can never accumulate. Clearing the bottom part gives it free
    // slots and a full interval to out-count the stale steady entries.
    let _ =
        writeln!(text, "\nLFU lock-in stress: 4 early values x500, then 90% value 9 + 10% noise:");
    let mut stress: Vec<u64> = Vec::new();
    for i in 0..2_000u64 {
        stress.push(1 + i % 4);
    }
    for i in 0..48_000u64 {
        stress.push(if i % 10 == 9 { 1_000 + i } else { 9 });
    }
    let exact = 0.9 * 48_000.0 / 50_000.0 * 100.0;
    for (name, policy) in [
        ("lfu-clear", Policy::LfuClear { steady: 2, clear_interval: 2000 }),
        ("lfu", Policy::Lfu),
        ("lru", Policy::Lru),
    ] {
        let mut tnv = TnvTable::new(4, policy);
        for &v in &stress {
            tnv.observe(v);
        }
        let _ = writeln!(
            text,
            "  {:<10} top value {:?} (true top is 9), Inv-Top(1) {:5.1}% (exact {exact:.1}%)",
            name,
            tnv.top_value(),
            tnv.inv_top(1) * 100.0
        );
        let mut events = Counts::new();
        tnv.events().add_to(&mut events);
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E6-stress".to_string())),
                ("top_value", tnv.top_value().map_or(Json::Null, Json::U64)),
                ("inv_top1", Json::F64(tnv.inv_top(1))),
                ("events", events.to_json()),
            ],
        ));
    }
    ExpReport { text, records }
}

fn run_convergent(w: &Workload, config: ConvergentConfig) -> ConvergentProfiler {
    let mut profiler = ConvergentProfiler::new(TrackerConfig::default(), config);
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
        .expect("convergent run");
    profiler
}

/// E7 — the convergent profiler: overhead (fraction of executions
/// profiled) and accuracy (invariance error versus the full profile), per
/// benchmark, plus a sweep over sampler aggressiveness and an ablation
/// against flat sampling at a matched budget.
pub fn convergent(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E7", "convergent profiler: overhead and accuracy vs full profiling");
    let _ = writeln!(
        text,
        "{:<10} {:>10} {:>10} {:>12} {:>12}",
        "program", "full inv%", "conv inv%", "profiled%", "mean|diff|"
    );
    let mut records =
        vec![record("experiment", "E7", vec![("workloads", Json::U64(workloads.len() as u64))])];
    for w in workloads {
        let full = load_profile(w, DataSet::Test);
        let conv = run_convergent(w, ConvergentConfig::default());
        let cmp = compare(&full.metrics(), &conv.metrics());
        let _ = writeln!(
            text,
            "{:<10} {:>10.1} {:>10.1} {:>11.1}% {:>12.4}",
            w.name(),
            full.aggregate().inv_top1 * 100.0,
            conv.aggregate().inv_top1 * 100.0,
            conv.overall_profile_fraction() * 100.0,
            cmp.mean_abs_inv_diff,
        );
        let mut events = Counts::new();
        conv.events().add_to(&mut events);
        conv.tnv_events().add_to(&mut events);
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E7".to_string())),
                ("full_inv_top1", Json::F64(full.aggregate().inv_top1)),
                ("conv_inv_top1", Json::F64(conv.aggregate().inv_top1)),
                ("profile_fraction", Json::F64(conv.overall_profile_fraction())),
                ("mean_abs_inv_diff", Json::F64(cmp.mean_abs_inv_diff)),
                ("events", events.to_json()),
            ],
        ));
    }

    let _ = writeln!(text, "\nsampler sweep (suite means): burst length x backoff aggressiveness");
    let _ = writeln!(text, "{:<26} {:>12} {:>12}", "configuration", "profiled%", "mean|diff|");
    let sweeps = [
        (
            "burst 500, skip 1k, x2",
            ConvergentConfig {
                burst: 500,
                initial_skip: 1_000,
                backoff: 2.0,
                ..ConvergentConfig::default()
            },
        ),
        ("burst 200, skip 2k, x4", ConvergentConfig::default()),
        (
            "burst 100, skip 4k, x8",
            ConvergentConfig {
                burst: 100,
                initial_skip: 4_000,
                backoff: 8.0,
                ..ConvergentConfig::default()
            },
        ),
        (
            "burst 50, skip 8k, x16",
            ConvergentConfig {
                burst: 50,
                initial_skip: 8_000,
                backoff: 16.0,
                ..ConvergentConfig::default()
            },
        ),
    ];
    for (name, config) in sweeps {
        let mut profiled = 0.0;
        let mut err = 0.0;
        for w in workloads {
            let full = load_profile(w, DataSet::Test);
            let conv = run_convergent(w, config);
            profiled += conv.overall_profile_fraction();
            err += compare(&full.metrics(), &conv.metrics()).mean_abs_inv_diff;
        }
        let n = workloads.len() as f64;
        let _ = writeln!(text, "{:<26} {:>11.1}% {:>12.4}", name, profiled / n * 100.0, err / n);
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E7-sweep".to_string())),
                ("profile_fraction", Json::F64(profiled / n)),
                ("mean_abs_inv_diff", Json::F64(err / n)),
            ],
        ));
    }

    // Ablation: the convergent sampler against CPI-style flat sampling
    // (Anderson et al. [1]) at a matched profiling budget. The convergent
    // profiler spends its budget where profiles have NOT converged, so at
    // equal profiled fractions it should be at least as accurate.
    let _ = writeln!(text, "\nablation vs flat sampling (suite means):");
    let _ = writeln!(text, "{:<26} {:>12} {:>12}", "scheme", "profiled%", "mean|diff|");
    let mut conv_frac = 0.0;
    let mut conv_err = 0.0;
    for w in workloads {
        let full = load_profile(w, DataSet::Test);
        let conv = run_convergent(w, ConvergentConfig::default());
        conv_frac += conv.overall_profile_fraction();
        conv_err += compare(&full.metrics(), &conv.metrics()).mean_abs_inv_diff;
    }
    conv_frac /= workloads.len() as f64;
    conv_err /= workloads.len() as f64;
    let _ = writeln!(
        text,
        "{:<26} {:>11.1}% {:>12.4}",
        "convergent (default)",
        conv_frac * 100.0,
        conv_err
    );
    records.push(record(
        "measure",
        "convergent (default)",
        vec![
            ("exp", Json::Str("E7-ablation".to_string())),
            ("profile_fraction", Json::F64(conv_frac)),
            ("mean_abs_inv_diff", Json::F64(conv_err)),
        ],
    ));

    // Match the flat samplers' period to the convergent profiler's spend.
    let period = (1.0 / conv_frac).round().max(1.0) as u64;
    for (name, strategy) in [
        (format!("periodic 1/{period}"), SampleStrategy::Periodic { period }),
        (format!("random   1/{period}"), SampleStrategy::Random { period }),
    ] {
        let mut frac = 0.0;
        let mut err = 0.0;
        for w in workloads {
            let full = load_profile(w, DataSet::Test);
            let mut sampled = SampledProfiler::new(TrackerConfig::default(), strategy);
            Instrumenter::new()
                .select(Selection::LoadsOnly)
                .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut sampled)
                .expect("sampled run");
            frac += sampled.overall_profile_fraction();
            err += compare(&full.metrics(), &sampled.metrics()).mean_abs_inv_diff;
        }
        let n = workloads.len() as f64;
        let _ = writeln!(text, "{:<26} {:>11.1}% {:>12.4}", name, frac / n * 100.0, err / n);
        records.push(record(
            "measure",
            &name,
            vec![
                ("exp", Json::Str("E7-ablation".to_string())),
                ("profile_fraction", Json::F64(frac / n)),
                ("mean_abs_inv_diff", Json::F64(err / n)),
            ],
        ));
    }
    ExpReport { text, records }
}

/// E8 — Table V.5: load-value profiles on the *test* versus *train*
/// inputs, side by side, plus cross-input stability statistics.
///
/// Paper shape (confirming Wall \[38\] for value profiles): per-benchmark
/// metrics are very similar across inputs, per-instruction invariance is
/// strongly correlated, and the profiled top value usually agrees — which
/// is what makes profile-guided specialization on a training input sound.
///
/// `jobs` runs the per-workload profiling on worker threads; each
/// workload/input profile is produced by one profiler instance, so the
/// report is identical to a serial run.
pub fn train_test(workloads: &[Workload], jobs: usize) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E8", "test vs train data sets (Table V.5)");
    let per_workload = parallel_map(jobs, workloads, |w| {
        (load_profile(w, DataSet::Train).metrics(), load_profile(w, DataSet::Test).metrics())
    });
    for (w, (train, test)) in workloads.iter().zip(&per_workload) {
        let rows = [row("train", train), row("test", test)];
        let table = render_metric_table(&format!("{}: loads by data set", w.name()), &rows);
        let _ = writeln!(text, "{table}");
        let c = compare(train, test);
        let _ = writeln!(
            text,
            "  common sites {}  inv-corr {:+.3}  lvp-corr {:+.3}  mean|inv diff| {:.4}  top-value agreement {:.0}%\n",
            c.common,
            c.inv_correlation,
            c.lvp_correlation,
            c.mean_abs_inv_diff,
            c.top_value_agreement * 100.0
        );
    }

    // Pooled cross-input stability over ALL register-defining instructions
    // of the slice: per-site (train, test) invariance pairs. This is the
    // statistic behind "profiles transfer across inputs" — single-load
    // kernels make per-program correlations degenerate, the pool does not.
    let mut train_inv = Vec::new();
    let mut test_inv = Vec::new();
    let mut agree = 0usize;
    let full = parallel_map(jobs, workloads, |w| {
        (all_instr_profile(w, DataSet::Train), all_instr_profile(w, DataSet::Test))
    });
    for (train_p, test_p) in &full {
        let train = train_p.metrics();
        let test = test_p.metrics();
        let test_by_id: HashMap<u64, _> = test.iter().map(|m| (m.id, m)).collect();
        for m in &train {
            if let Some(t) = test_by_id.get(&m.id) {
                train_inv.push(m.inv_top1);
                test_inv.push(t.inv_top1);
                if m.top_value.is_some() && m.top_value == t.top_value {
                    agree += 1;
                }
            }
        }
    }
    let sites = train_inv.len().max(1) as f64;
    let mean_diff = train_inv.iter().zip(&test_inv).map(|(a, b)| (a - b).abs()).sum::<f64>();
    let _ = writeln!(text, "pooled over all register-defining sites of the suite:");
    let _ = writeln!(text, "  sites                  {}", train_inv.len());
    let _ = writeln!(text, "  inv-top1 correlation   {:+.3}", correlation(&train_inv, &test_inv));
    let _ = writeln!(text, "  mean |inv diff|        {:.4}", mean_diff / sites);
    let _ = writeln!(text, "  top-value agreement    {:.1}%", agree as f64 / sites * 100.0);

    // Combined-input profile: merging the train profiler into the test
    // profiler gives one profile describing both runs — the shard-merge
    // semantics of `InstructionProfiler::merge` (exact scalar counters,
    // TNV under-estimates).
    let _ = writeln!(text, "\ncombined train+test load profiles (merged shards):");
    let combined_rows: Vec<_> = full
        .into_iter()
        .zip(workloads)
        .map(|((train_p, test_p), w)| {
            let mut merged = test_p;
            merged.merge(train_p);
            row(w.name(), &merged.metrics())
        })
        .collect();
    let table = render_metric_table("all register-defining sites, both inputs", &combined_rows);
    let _ = writeln!(text, "{table}");

    // The suite runner reports the test input with the same machinery.
    let suite_profile = SuiteRunner::new().jobs(jobs).run_workloads(workloads, DataSet::Test);
    let (pool, agg) = suite_profile.pooled();
    let _ = writeln!(
        text,
        "suite runner cross-check [test loads]: {} sites pooled, inv-top1 {:.1}%",
        pool.len(),
        agg.inv_top1 * 100.0
    );
    ExpReport { text, records: Vec::new() }
}

/// E9 — memory-location value profiles (the thesis extension): invariance
/// of the values *stored* to each memory word, per benchmark, plus each
/// benchmark's hottest locations.
///
/// Paper shape: memory locations are even more invariant than load
/// instructions on several programs (a location written by one store site
/// inherits its invariance; shared locations mix), and a small number of
/// hot locations dominate the store traffic.
///
/// The one `run` record carries the summed TNV and drop counters, so
/// `vprof stats` can surface stores dropped at the location cap.
pub fn memory(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E9", "memory location value profiles (stored values, test input)");
    let mut rows = Vec::new();
    let mut hot_lines = Vec::new();
    let mut events = Counts::new();
    for w in workloads {
        let mut profiler = MemoryProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::MemoryOps)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
            .expect("memory profile run");
        rows.push(row(w.name(), &profiler.metrics()));
        profiler.tnv_events().add_to(&mut events);
        events.add(CounterId::MemDropped, profiler.dropped());
        if profiler.dropped() > 0 {
            eprintln!(
                "warning: {}: {} stores dropped at the location cap — rows are incomplete",
                w.name(),
                profiler.dropped()
            );
        }
        let hottest: Vec<String> = profiler
            .hottest(3)
            .into_iter()
            .map(|m| {
                format!("{:#x} (stores {}, inv {:.0}%)", m.id, m.executions, m.inv_top1 * 100.0)
            })
            .collect();
        hot_lines.push(format!(
            "{:<10} {:>6} locations; hottest: {}",
            w.name(),
            profiler.locations(),
            hottest.join(", ")
        ));
    }
    let table = render_metric_table("memory locations, store-weighted (values in %)", &rows);
    let _ = writeln!(text, "{table}");
    let _ = writeln!(text, "location counts and hot spots:");
    for line in hot_lines {
        let _ = writeln!(text, "  {line}");
    }
    let records = vec![record(
        "run",
        "exp-memory",
        vec![("tool", Json::Str("exp-memory".to_string())), ("events", events.to_json())],
    )];
    ExpReport { text, records }
}

/// E10 — procedure parameter and return-value profiles: invariance of the
/// argument registers and returns of every declared procedure, per
/// benchmark. Only workloads with procedures (`perl`, `vortex`) get rows.
///
/// Paper shape: many procedures are called with nearly constant arguments
/// (here: `vortex`'s query tag is fully invariant, `perl`'s hash argument
/// varies), making arguments prime specialization hooks.
pub fn params(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E10", "procedure parameter / return value profiles (test input)");
    let _ = writeln!(
        text,
        "{:<10} {:<12} {:<8} {:>9} {:>8} {:>8} {:>8}",
        "program", "procedure", "slot", "execs", "InvT1%", "LVP%", "distinct"
    );
    for w in workloads {
        let mut profiler = ParamProfiler::new(TrackerConfig::with_full(), 2);
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
            .expect("param profile run");
        let procs = w.program().procedures();
        for p in profiler.metrics() {
            if p.metrics.executions == 0 {
                continue;
            }
            let name = procs.get(p.proc_index).map_or("?", |pr| pr.name.as_str());
            let slot = match p.slot {
                ParamSlot::Arg(i) => format!("arg{i}"),
                ParamSlot::Ret => "ret".to_string(),
            };
            let _ = writeln!(
                text,
                "{:<10} {:<12} {:<8} {:>9} {:>8.1} {:>8.1} {:>8}",
                w.name(),
                name,
                slot,
                p.metrics.executions,
                p.metrics.inv_top1 * 100.0,
                p.metrics.lvp * 100.0,
                p.metrics.distinct.unwrap_or(0),
            );
        }
    }
    let _ = writeln!(text, "\n(only benchmarks with non-main procedures appear: calls are the");
    let _ = writeln!(text, "instrumentation points, exactly as with ATOM's procedure hooks)");
    ExpReport { text, records: Vec::new() }
}

/// E11 — Table IV.1: the basic-block quantile table. For each benchmark,
/// the number (and fraction) of hottest static basic blocks needed to
/// cover 50/90/99/100% of dynamic execution.
///
/// Paper shape: execution is extremely concentrated — a small fraction of
/// static blocks covers the vast majority of dynamic execution, which is
/// why profiling effort (and specialization) can focus on few sites.
pub fn bb_quantile(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E11", "basic block quantile table (Table IV.1, test input)");
    let coverages = [0.5, 0.9, 0.99, 1.0];
    let _ = writeln!(
        text,
        "{:<10} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "program", "blocks", "50%", "90%", "99%", "100%"
    );
    for w in workloads {
        let mut machine =
            Machine::new(w.program().clone(), w.machine_config(DataSet::Test)).expect("machine");
        machine.run(BUDGET).expect("run");
        let cfg = Cfg::build(w.program());
        let counts = cfg.block_counts(machine.stats().per_instr());
        let cells: Vec<String> = quantile_table(&counts, &coverages)
            .iter()
            .map(|r| format!("{} ({:.0}%)", r.blocks, r.block_fraction * 100.0))
            .collect();
        let _ = writeln!(
            text,
            "{:<10} {:>8} {:>14} {:>14} {:>14} {:>14}",
            w.name(),
            cfg.blocks().len(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
        );
    }
    let _ = writeln!(text, "\ncells: hottest blocks needed (as % of executed static blocks)");
    ExpReport { text, records: Vec::new() }
}

/// Runs `w` on its test input with `analysis` attached; returns the
/// executed instructions and the analysis events fired.
fn run_with<A: Analysis>(w: &Workload, selection: Selection, analysis: &mut A) -> (u64, u64) {
    let run = Instrumenter::new()
        .select(selection)
        .run(w.program(), w.machine_config(DataSet::Test), BUDGET, analysis)
        .expect("instrumented run");
    (run.outcome.instructions, run.counts.total())
}

/// E12 — profiling overhead: analysis events per instruction (exact and
/// machine-independent: the cause of the paper's slowdowns) for full load
/// profiling, full all-instruction profiling and the convergent profiler,
/// plus the memory footprint comparison. Wall-clock slowdown is
/// perfbench's to measure (its `e12.slowdown_*` rows), so every line here
/// is deterministic.
pub fn overhead(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E12", "profiling overhead: events per instruction and footprint");
    let _ = writeln!(
        text,
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "program", "instrs", "ld ev/i", "all ev/i", "conv ev/i", "conv prof%"
    );
    let mut records =
        vec![record("experiment", "E12", vec![("workloads", Json::U64(workloads.len() as u64))])];
    let mut tnv_bytes = Vec::with_capacity(workloads.len());
    for w in workloads {
        let mut load = InstructionProfiler::new(TrackerConfig::default());
        let (instrs, load_events) = run_with(w, Selection::LoadsOnly, &mut load);
        let mut all = InstructionProfiler::new(TrackerConfig::default());
        let (_, all_events) = run_with(w, Selection::RegisterDefining, &mut all);
        tnv_bytes.push(all.footprint_bytes());
        let mut conv =
            ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
        let (_, conv_events) = run_with(w, Selection::RegisterDefining, &mut conv);
        let conv_fraction = conv.overall_profile_fraction();

        let per = |e: u64| e as f64 / instrs as f64;
        let _ = writeln!(
            text,
            "{:<10} {:>10} {:>9.3} {:>9.3} {:>9.3} {:>9.1}%",
            w.name(),
            instrs,
            per(load_events),
            per(all_events),
            per(conv_events),
            conv_fraction * 100.0,
        );
        let mode = |events: u64| {
            Json::obj(vec![
                ("events", Json::U64(events)),
                ("events_per_instr", Json::F64(per(events))),
            ])
        };
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E12".to_string())),
                ("instructions", Json::U64(instrs)),
                ("load", mode(load_events)),
                ("all", mode(all_events)),
                ("conv", mode(conv_events)),
                ("conv_profile_fraction", Json::F64(conv_fraction)),
            ],
        ));
    }

    // Space: the TNV table's constant-footprint claim vs the exact
    // histogram whose size scales with distinct values.
    let _ = writeln!(text, "\nprofile memory footprint (all-instruction profile):");
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>14} {:>8}",
        "program", "TNV bytes", "full-hist bytes", "ratio"
    );
    for (w, tnv_only) in workloads.iter().zip(tnv_bytes) {
        let with_full = {
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            run_with(w, Selection::RegisterDefining, &mut p);
            p.footprint_bytes()
        };
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>14} {:>7.1}x",
            w.name(),
            tnv_only,
            with_full,
            with_full as f64 / tnv_only as f64
        );
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E12-footprint".to_string())),
                ("tnv_bytes", Json::U64(tnv_only as u64)),
                ("full_hist_bytes", Json::U64(with_full as u64)),
            ],
        ));
    }

    let _ =
        writeln!(text, "\nev/i = analysis events per executed instruction (exact overhead cause).");
    let _ =
        writeln!(text, "The convergent profiler still *sees* each event but skips the TNV work;");
    let _ = writeln!(text, "`conv prof%` is the fraction of executions fully profiled.");
    let _ = writeln!(
        text,
        "Wall-clock slowdown: perfbench `--workload live-suite --trace 1`, rows e12.slowdown_*."
    );
    ExpReport { text, records }
}

/// E13 — the code-specialization case study (thesis Chapter X): profile
/// the m88ksim-style kernel, specialize its semi-invariant configuration
/// load, and measure dynamic-instruction speedup across invariance levels;
/// then apply the same pipeline to every benchmark of the slice, profiled
/// on its own input (self) and on the other one (cross).
///
/// Paper shape: solid speedups at high invariance that decay as the value
/// gets perturbed more often, with the candidate filter refusing to
/// specialize below its invariance bar; behaviour is bit-identical in all
/// cases (the guard).
pub fn specialize_study(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E13", "code specialization on semi-invariant values");
    let _ = writeln!(text, "kernel sweep (20k iterations, perturbation period varied):");
    let _ = writeln!(
        text,
        "{:>10} {:>10} {:>12} {:>12} {:>9} {:>6}",
        "perturb", "inv-top1%", "base", "special", "speedup", "exact"
    );
    let program = demo::program();
    for period in [0u64, 1000, 200, 50, 10, 3] {
        let input = demo::input(20_000, period);
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(&program, MachineConfig::new().input(input.clone()), BUDGET, &mut profiler)
            .expect("profile");
        let inv =
            profiler.metrics_for(demo::config_load_index(&program)).map_or(0.0, |m| m.inv_top1);
        let candidates =
            find_candidates(&program, &profiler.metrics(), CandidateOptions::default());
        let label = if period == 0 { "never".into() } else { format!("1/{period}") };
        if candidates.is_empty() {
            let _ = writeln!(
                text,
                "{label:>10} {:>10.1} {:>12} {:>12} {:>9} {:>6}",
                inv * 100.0,
                "-",
                "-",
                "skipped",
                "-"
            );
            continue;
        }
        let specialized = specialize_all(&program, &candidates).expect("specialize");
        let report =
            vp_specialize::evaluate(&program, &specialized, &input, BUDGET).expect("evaluate");
        let _ = writeln!(
            text,
            "{label:>10} {:>10.1} {:>12} {:>12} {:>8.3}x {:>6}",
            inv * 100.0,
            report.base_instructions,
            report.specialized_instructions,
            report.speedup(),
            if report.equivalent { "yes" } else { "NO" },
        );
    }

    let _ = writeln!(text, "\nsuite-wide automatic specialization:");
    let _ = writeln!(text, "  self  = profiled and measured on the test input");
    let _ = writeln!(text, "  cross = profiled on train, measured on test (values must transfer)");
    let _ = writeln!(
        text,
        "{:<10} {:>6} {:>13} {:>13} {:>6}",
        "program", "cands", "self speedup", "cross speedup", "exact"
    );
    for w in workloads {
        let mut speedups: Vec<Option<f64>> = Vec::new();
        let mut cands = 0usize;
        let mut exact = true;
        for profile_ds in [DataSet::Test, DataSet::Train] {
            let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
            Instrumenter::new()
                .select(Selection::LoadsOnly)
                .run(w.program(), w.machine_config(profile_ds), BUDGET, &mut profiler)
                .expect("profile");
            let candidates =
                find_candidates(w.program(), &profiler.metrics(), CandidateOptions::default());
            if profile_ds == DataSet::Test {
                cands = candidates.len();
            }
            if candidates.is_empty() {
                speedups.push(None);
                continue;
            }
            let specialized = specialize_all(w.program(), &candidates).expect("specialize");
            let report =
                vp_specialize::evaluate(w.program(), &specialized, w.input(DataSet::Test), BUDGET)
                    .expect("evaluate");
            exact &= report.equivalent;
            speedups.push(Some(report.speedup()));
        }
        let cell = |v: &Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}x"));
        let _ = writeln!(
            text,
            "{:<10} {:>6} {:>13} {:>13} {:>6}",
            w.name(),
            cands,
            cell(&speedups[0]),
            cell(&speedups[1]),
            if exact { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(text, "\nThe cross column is value-level transfer: the guard holds the train");
    let _ = writeln!(text, "input's top value and runs on the test input. Only m88ksim has a");
    let _ = writeln!(text, "candidate, and its configuration word is the same on both data sets,");
    let _ = writeln!(text, "so its cross speedup equals its self speedup. Were the value");
    let _ = writeln!(text, "input-dependent, the guard would miss and leave only its overhead,");
    let _ = writeln!(text, "which is why the guard is mandatory.");
    ExpReport { text, records: Vec::new() }
}

/// E14 — value prediction and profile-guided filtering (paper §II.A
/// context): hit rates of the predictor families of refs \[17, 27, 34, 39\]
/// on the load streams, and the effect of filtering a last-value predictor
/// with a train-input value profile.
///
/// Paper/reference shape (Wang & Franklin): hybrid > stride ≈ two-level >
/// LVP on average; profile filtering trades a little coverage for a large
/// cut in mispredictions.
pub fn predict(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E14", "value predictors on load streams; profile-guided filtering");
    let _ = writeln!(
        text,
        "{:<10} {:>7} {:>8} {:>8} {:>9} {:>9} | {:>9} {:>9} {:>10}",
        "program",
        "lvp%",
        "stride%",
        "2level%",
        "hyb(l,s)%",
        "hyb(s,2)%",
        "lvp-misp%",
        "filt-misp%",
        "filt-hit%"
    );
    let mut sums = [0.0f64; 8];
    for w in workloads {
        let stream = value_stream(w, DataSet::Test, Selection::LoadsOnly);
        let profile = load_profile(w, DataSet::Train);
        let stats = |p: &mut dyn Predictor| -> PredictorStats {
            vp_predict::evaluate(p, stream.iter().copied())
        };
        let lvp = stats(&mut LastValuePredictor::new(1024));
        let stride = stats(&mut StridePredictor::new(1024));
        let two = stats(&mut TwoLevelPredictor::new());
        let hyb_ls = stats(&mut HybridPredictor::new(
            LastValuePredictor::new(1024),
            StridePredictor::new(1024),
        ));
        let hyb_s2 =
            stats(&mut HybridPredictor::new(StridePredictor::new(1024), TwoLevelPredictor::new()));
        let filt = stats(&mut FilteredPredictor::from_profile(
            LastValuePredictor::new(1024),
            &profile.metrics(),
            0.5,
        ));
        let total = lvp.total().max(1) as f64;
        let cells = [
            lvp.hit_rate() * 100.0,
            stride.hit_rate() * 100.0,
            two.hit_rate() * 100.0,
            hyb_ls.hit_rate() * 100.0,
            hyb_s2.hit_rate() * 100.0,
            lvp.mispredictions as f64 / total * 100.0,
            filt.mispredictions as f64 / total * 100.0,
            filt.hit_rate() * 100.0,
        ];
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
        predictor_row(&mut text, w.name(), cells);
    }
    let n = workloads.len() as f64;
    predictor_row(&mut text, "mean", sums.map(|s| s / n));
    let _ =
        writeln!(text, "\nfilter = only predict loads whose TRAIN-input profile has LVP >= 0.5");
    ExpReport { text, records: Vec::new() }
}

fn predictor_row(text: &mut String, label: &str, c: [f64; 8]) {
    let _ = writeln!(
        text,
        "{:<10} {:>7.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} | {:>9.1} {:>9.1} {:>10.1}",
        label, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
    );
}

/// The E15 kernel: one procedure called from two sites, each with a
/// site-constant argument.
const PATH_KERNEL: &str = r#"
    .text
    main:
        li r9, 5000
    loop:
        andi r12, r9, 1
        bz   r12, even
        li   a0, 10
        call f
        j    next
    even:
        li   a0, 20
        call f
    next:
        addi r9, r9, -1
        bnz  r9, loop
        sys  exit
    .proc f
    f:
        add  v0, a0, a0     # 20 or 40, fully determined by the call site
        ret
    .endp
"#;

/// E15 (extension) — path-sensitive value prediction, the thesis's
/// future-work item: index last-value prediction by `(pc, path history)`
/// à la Young & Smith \[40\], which the thesis singles out as "especially
/// beneficial for procedures called from several locations".
///
/// Expected shape: a large win on the multi-call-site kernel (the value is
/// a function of the path), small-to-none on the suite's mostly
/// single-path hot loops — with no regression anywhere.
pub fn path(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E15", "path-sensitive last-value prediction (extension)");
    let _ =
        writeln!(text, "{:<22} {:>10} {:>10} {:>10}", "program", "events", "lvp hit%", "path hit%");
    let program = vp_asm::assemble(PATH_KERNEL).expect("kernel assembles");
    let target = program.procedure("f").expect("f").range.start;
    let stream = collect_pathed_stream(
        &program,
        MachineConfig::new(),
        BUDGET,
        Selection::Custom([target].into_iter().collect()),
        16,
    )
    .expect("kernel stream");
    let mut rows = vec![("two-site kernel", evaluate_pathed(&stream))];
    for w in workloads {
        let stream = collect_pathed_stream(
            w.program(),
            w.machine_config(DataSet::Test),
            BUDGET,
            Selection::LoadsOnly,
            16,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        rows.push((w.name(), evaluate_pathed(&stream)));
    }
    for (label, (path_hits, blind_hits, total)) in rows {
        let _ = writeln!(
            text,
            "{:<22} {:>10} {:>10.1} {:>10.1}",
            label,
            total,
            blind_hits as f64 / total.max(1) as f64 * 100.0,
            path_hits as f64 / total.max(1) as f64 * 100.0
        );
    }
    let _ = writeln!(text, "\npath hit% uses a (pc, 16-bit path history) table; lvp hit% the same");
    let _ =
        writeln!(text, "table with the path pinned to zero. The kernel's procedure argument is");
    let _ = writeln!(text, "perfectly path-determined; suite loads are mostly path-independent.");
    ExpReport { text, records: Vec::new() }
}

/// E16 (extension) — invariance over time: interval profiles that expose
/// program phases. A phase-wise invariant instruction looks semi-invariant
/// to a whole-run profile but fully invariant within each phase — the case
/// the TNV clearing policy and re-specialization exist for.
pub fn temporal(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    heading_line(&mut text, "E16", "interval profiles: invariance over time (extension)");
    let _ = writeln!(
        text,
        "{:<10} {:>7} {:>12} {:>14} {:>8}",
        "program", "loads", "whole-run%", "within-window%", "phases"
    );
    for w in workloads {
        let mut temporal = TemporalProfiler::new(TrackerConfig::default(), 500);
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut temporal)
            .expect("temporal run");
        let mut full = InstructionProfiler::new(TrackerConfig::default());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut full)
            .expect("full run");

        // Report the load with the largest gap between windowed and
        // whole-run invariance (the most phase-like load).
        let best = full
            .metrics()
            .into_iter()
            .map(|m| {
                let idx = m.id as u32;
                (temporal.windowed_invariance(idx), m.inv_top1, temporal.phase_count(idx))
            })
            .max_by(|a, b| (a.0 - a.1).total_cmp(&(b.0 - b.1)));
        if let Some((windowed, whole, phases)) = best {
            let _ = writeln!(
                text,
                "{:<10} {:>7} {:>11.1}% {:>13.1}% {:>8}",
                w.name(),
                full.profiled_instructions(),
                whole * 100.0,
                windowed * 100.0,
                phases,
            );
        }
    }
    let _ = writeln!(text, "\nRows show each program's most phase-like load: within-window");
    let _ = writeln!(text, "invariance far above whole-run invariance with a small phase count");
    let _ = writeln!(text, "means the value is a per-phase constant (gcc's mode word: three");
    let _ = writeln!(text, "phases, ~100% within each, ~33% overall).");
    ExpReport { text, records: Vec::new() }
}

/// The E17 kernel: a bimodal load (60% one value, 40% another) feeding a
/// long pure chain — the distribution where multi-way wins.
const MULTIWAY_KERNEL: &str = r#"
    .data
    which: .quad 0
    vals:  .quad 80, 120
    .text
    main:
        la  r10, which
        la  r11, vals
        li  r9, 20000
        li  r18, 0
    loop:
        ldd  r12, 0(r10)
        addi r12, r12, 1
        remi r12, r12, 5
        std  r12, 0(r10)
        slti r13, r12, 3
        xori r13, r13, 1
        slli r13, r13, 3
        add  r13, r13, r11
        ldd  r2, 0(r13)      # bimodal load: 80 (60%) or 120 (40%)
        srli r3, r2, 2
        muli r3, r3, 7
        addi r3, r3, 3
        xori r3, r3, 44
        slli r4, r3, 1
        add  r5, r4, r3
        srli r5, r5, 1
        andi r5, r5, 2047
        muli r5, r5, 13
        addi r5, r5, 29
        xori r5, r5, 333
        srli r5, r5, 1
        add  r18, r18, r5
        addi r9, r9, -1
        bnz  r9, loop
        andi a0, r18, 255
        sys  exit
"#;

/// E17 (extension) — multi-way specialization on the top-k TNV values:
/// the payoff of keeping N values per entity instead of one. On a bimodal
/// load (60/40 between two values), a one-way guard covers 60% of
/// executions; a two-way dispatch covers all of them. Runs on its own
/// kernel, not on the suite.
pub fn multiway() -> ExpReport {
    fn run(p: &vp_asm::Program) -> (i64, u64) {
        let config = MachineConfig::new().input(InputSet::empty());
        let out = Machine::new(p.clone(), config).unwrap().run(BUDGET).unwrap();
        (out.exit_code, out.instructions)
    }

    let mut text = String::new();
    heading_line(&mut text, "E17", "multi-way specialization on top-k TNV values (extension)");
    let program = vp_asm::assemble(MULTIWAY_KERNEL).expect("kernel assembles");
    let load_index = program
        .code()
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_load())
        .map(|(i, _)| i as u32)
        .nth(1)
        .expect("bimodal load");

    // Profile to recover the top values and their combined invariance.
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(&program, MachineConfig::new(), BUDGET, &mut profiler)
        .expect("profile");
    let tracker = profiler.tracker(load_index).expect("profiled");
    let top: Vec<u64> = tracker.tnv().top(2).iter().map(|e| e.value).collect();
    let metrics = profiler.metrics_for(load_index).expect("metrics");
    let _ = writeln!(
        text,
        "bimodal load @{load_index}: Inv-Top(1) {:.1}%, Inv-Top(2) {:.1}%, top values {:?}\n",
        metrics.inv_top1 * 100.0,
        tracker.inv_top(2) * 100.0,
        top
    );

    let (base_code, base) = run(&program);
    let _ =
        writeln!(text, "{:<22} {:>12} {:>9} {:>6}", "variant", "instructions", "speedup", "exact");
    let _ = writeln!(text, "{:<22} {:>12} {:>9} {:>6}", "baseline", base, "1.000x", "yes");
    let one = specialize(
        &program,
        &Candidate {
            load_index,
            value: top[0],
            invariance: metrics.inv_top1,
            executions: metrics.executions,
        },
    )
    .expect("one-way");
    let two = specialize_multi(
        &program,
        &MultiCandidate {
            load_index,
            values: top.clone(),
            invariance: tracker.inv_top(2),
            executions: metrics.executions,
        },
    )
    .expect("two-way");
    for (label, variant) in [("one-way (top-1)", one), ("two-way (top-2)", two)] {
        let (code, n) = run(&variant);
        let _ = writeln!(
            text,
            "{:<22} {:>12} {:>8.3}x {:>6}",
            label,
            n,
            base as f64 / n as f64,
            if code == base_code { "yes" } else { "NO" }
        );
    }
    let _ =
        writeln!(text, "\nThe two-way dispatch converts the 40%-of-executions slow path of the");
    let _ = writeln!(text, "one-way guard into a second folded fast path — the use case for which");
    let _ = writeln!(text, "the TNV table retains N values rather than one.");
    ExpReport { text, records: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_workloads::suite;

    #[test]
    fn registry_lists_e1_to_e17_in_order() {
        for (i, exp) in ALL.iter().enumerate() {
            assert_eq!(exp.id, format!("E{}", i + 1));
        }
        assert_eq!(by_id("E12").map(|e| e.name), Some("overhead"));
        assert!(by_id("E18").is_none());
    }

    #[test]
    fn benchmarks_deterministic_across_jobs() {
        let ws = suite();
        let a = benchmarks(&ws[..3], 1);
        let b = benchmarks(&ws[..3], 4);
        assert_eq!(a, b);
        assert_eq!(a.records.len(), 4);
    }

    #[test]
    fn tnv_policy_deterministic() {
        let ws = suite();
        let a = tnv_policy(&ws[..2]);
        let b = tnv_policy(&ws[..2]);
        assert_eq!(a, b, "policy errors must not depend on hash-map iteration order");
        assert!(a.text.contains("lfu-clear (paper)"));
    }

    #[test]
    fn overhead_is_deterministic() {
        let ws = suite();
        assert_eq!(overhead(&ws[..2]), overhead(&ws[..2]));
    }
}
