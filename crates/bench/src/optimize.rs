//! The `vprof optimize` driver: train-profile-driven specialization over
//! suite workloads, evaluated on the test input.
//!
//! The suite profiling pass (any [`ProfileMode`](crate::ProfileMode),
//! through [`SuiteRunner`](crate::SuiteRunner) so `--jobs`/`--workers`,
//! the governor and the fault machinery all apply) supplies
//! per-load metrics on the *train* input. This module turns those metrics
//! into a [`ProgramOptimize`] per workload via the program-level pipeline
//! in `vp-specialize`, then renders the cross-input report: a
//! deterministic text table, ordered-JSON telemetry records and a durable
//! CRC-footered artifact.
//!
//! Everything emitted here is parallelism-invariant: suite metrics are
//! identical across `--jobs`/`--workers` by construction, and the
//! planning/specialization/evaluation steps all run deterministically in
//! the parent process — so the report and telemetry are byte-identical
//! across those settings (golden- and CI-verified).

use std::path::Path;

use vp_core::durable::{crc32, write_atomic, FOOTER_PREFIX};
use vp_obs::telemetry::record;
use vp_obs::{CounterId, Counts, Json};
use vp_specialize::{
    optimize_program, tracker_top_values, OptimizeOptions, ProgramOptimize, SiteOutcome,
};
use vp_workloads::{DataSet, Workload};

use crate::suite::SuiteOutcome;
use crate::{load_profile, BUDGET};

/// How many TNV values the exact extraction pass offers the planner per
/// site (the planner still caps the guard chain at its own `max_ways`).
const TOP_VALUE_POOL: usize = 8;

/// Configuration of one optimize run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// Input the profile was gathered on.
    pub train: DataSet,
    /// Input original and specialized programs are evaluated on.
    pub test: DataSet,
    /// Program-level pipeline thresholds.
    pub options: OptimizeOptions,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            train: DataSet::Train,
            test: DataSet::Test,
            options: OptimizeOptions { budget: BUDGET, ..OptimizeOptions::default() },
        }
    }
}

/// One workload's optimize outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOptimize {
    /// Workload name.
    pub name: &'static str,
    /// The program-level pipeline result on the test input.
    pub result: ProgramOptimize,
}

impl WorkloadOptimize {
    /// Optimize-level event counters for this workload.
    pub fn events(&self) -> Counts {
        let mut c = Counts::new();
        c.add(CounterId::GuardHits, self.result.guard_hits());
        c.add(CounterId::GuardMisses, self.result.guard_misses());
        c.add(CounterId::SitesSpecialized, self.result.sites.len() as u64);
        c.add(CounterId::CandidatesRejected, self.result.rejected.len() as u64);
        c
    }
}

/// The whole suite's optimize results, in canonical suite order.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Profile input.
    pub train: DataSet,
    /// Evaluation input.
    pub test: DataSet,
    /// Profiling mode label of the suite pass (e.g. `full`, `adaptive`).
    pub mode: String,
    /// One entry per profiled workload.
    pub workloads: Vec<WorkloadOptimize>,
}

/// Runs the optimize pipeline over a completed suite profiling pass.
///
/// `outcome` must come from a [`SuiteRunner`](crate::SuiteRunner) run on
/// `cfg.train`; quarantined workloads are simply absent from the report,
/// like they are from the profile. Each workload gets one extra exact
/// profiling pass on the train input to extract the top TNV values the
/// multi-way planner considers.
///
/// # Errors
///
/// Returns a message naming the workload when a program no longer
/// resolves or an evaluation run faults.
pub fn optimize_from_outcome(
    outcome: &SuiteOutcome,
    workloads: &[Workload],
    mode: &str,
    cfg: &OptimizeConfig,
) -> Result<OptimizeReport, String> {
    let mut results = Vec::with_capacity(outcome.profile.workloads.len());
    for wp in &outcome.profile.workloads {
        let workload = workloads
            .iter()
            .find(|w| w.name() == wp.name)
            .ok_or_else(|| format!("{}: workload not in the suite", wp.name))?;
        // Exact value extraction: the suite pass may have run a sampling
        // profiler whose metrics drive *selection*; the guard chain wants
        // the precise top values, so take one full pass on train.
        let exact = load_profile(workload, cfg.train);
        let top = |index: u32| {
            exact.tracker(index).map(|t| tracker_top_values(t, TOP_VALUE_POOL)).unwrap_or_default()
        };
        let result = optimize_program(
            workload.program(),
            &wp.metrics,
            &top,
            workload.input(cfg.test),
            &cfg.options,
        )
        .map_err(|e| format!("{}: {e}", wp.name))?;
        results.push(WorkloadOptimize { name: wp.name, result });
    }
    Ok(OptimizeReport {
        train: cfg.train,
        test: cfg.test,
        mode: mode.to_string(),
        workloads: results,
    })
}

impl OptimizeReport {
    /// Total optimize-level event counters across the suite.
    pub fn events(&self) -> Counts {
        let mut total = Counts::new();
        for w in &self.workloads {
            total.merge(&w.events());
        }
        total
    }

    /// Whether every specialized workload stayed output-equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.workloads.iter().all(|w| w.result.eval.equivalent)
    }

    /// Renders the deterministic report text: the per-workload table, the
    /// specialized-site detail, and the rejection detail. No wall times,
    /// no parallelism-dependent fields.
    pub fn render(&self) -> String {
        let mut out = format!(
            "==== optimize: train-profile-driven specialization ({} -> {}, mode {}) ====\n\n",
            self.train.name(),
            self.test.name(),
            self.mode
        );
        out.push_str(&format!(
            "{:<16} {:>14} {:>14} {:>8} {:>6} {:>9} {:>7}  {}\n",
            "workload",
            "base instrs",
            "spec instrs",
            "reduct%",
            "sites",
            "rejected",
            "hit%",
            "equivalent"
        ));
        for w in &self.workloads {
            let r = &w.result;
            let hits = r.guard_hits();
            let misses = r.guard_misses();
            let hit_rate = if hits + misses > 0 {
                format!("{:.1}", hits as f64 / (hits + misses) as f64 * 100.0)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<16} {:>14} {:>14} {:>8.2} {:>6} {:>9} {:>7}  {}\n",
                w.name,
                r.eval.base_instructions,
                r.eval.specialized_instructions,
                r.eval.reduction_pct(),
                r.sites.len(),
                r.rejected.len(),
                hit_rate,
                r.eval.equivalent
            ));
        }
        let specialized: Vec<(&str, &SiteOutcome)> = self
            .workloads
            .iter()
            .flat_map(|w| w.result.sites.iter().map(move |s| (w.name, s)))
            .collect();
        if !specialized.is_empty() {
            out.push_str("\nsites:\n");
            for (name, s) in specialized {
                let values: Vec<String> = s.site.values.iter().map(|v| format!("{v:#x}")).collect();
                out.push_str(&format!(
                    "  {:<16} @{:<5} values [{}]  inv {:.1}%  execs {}  hits {}  misses {}\n",
                    name,
                    s.site.load_index,
                    values.join(", "),
                    s.invariance * 100.0,
                    s.executions,
                    s.guards.hits,
                    s.guards.misses
                ));
            }
        }
        let rejected: Vec<(&str, &vp_specialize::RejectedCandidate)> = self
            .workloads
            .iter()
            .flat_map(|w| w.result.rejected.iter().map(move |r| (w.name, r)))
            .collect();
        if !rejected.is_empty() {
            out.push_str("\nrejected:\n");
            for (name, r) in rejected {
                out.push_str(&format!(
                    "  {:<16} @{:<5} {:<17} inv {:.1}%  execs {}\n",
                    name,
                    r.load_index,
                    r.reason.name(),
                    r.invariance * 100.0,
                    r.executions
                ));
            }
        }
        out
    }

    /// The durable report artifact: [`render`](Self::render) plus the
    /// `#vp-crc32` integrity footer over the body (same convention as
    /// profile TSVs), with the workload count as the row count.
    pub fn render_durable(&self) -> String {
        let body = self.render();
        format!("{body}{FOOTER_PREFIX} {:08x} {}\n", crc32(body.as_bytes()), self.workloads.len())
    }

    /// Writes the durable artifact atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic write.
    pub fn write_report(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.render_durable().as_bytes())
    }

    /// Builds the telemetry records of the run: one `run` record with the
    /// suite-wide totals, then one `optimize` record per workload with
    /// the cross-input evaluation, guard accounting, and per-site /
    /// per-rejection detail. Deliberately carries no `jobs`/`workers`
    /// field and no wall times: the records are identical
    /// however the profiling pass was parallelized.
    pub fn optimize_records(&self, tool: &str) -> Vec<Json> {
        let total_base: u64 = self.workloads.iter().map(|w| w.result.eval.base_instructions).sum();
        let total_spec: u64 =
            self.workloads.iter().map(|w| w.result.eval.specialized_instructions).sum();
        let mut records = vec![record(
            "run",
            tool,
            vec![
                ("tool", Json::Str(tool.to_string())),
                ("dataset", Json::Str(self.test.name().to_string())),
                ("train", Json::Str(self.train.name().to_string())),
                ("mode", Json::Str(self.mode.clone())),
                ("workloads", Json::U64(self.workloads.len() as u64)),
                ("base_instructions", Json::U64(total_base)),
                ("specialized_instructions", Json::U64(total_spec)),
                ("events", self.events().to_json()),
            ],
        )];
        for w in &self.workloads {
            let r = &w.result;
            let sites: Vec<Json> = r
                .sites
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("load_index", Json::U64(u64::from(s.site.load_index))),
                        (
                            "values",
                            Json::Arr(s.site.values.iter().map(|&v| Json::U64(v)).collect()),
                        ),
                        ("invariance", Json::F64(s.invariance)),
                        ("train_executions", Json::U64(s.executions)),
                        ("hits", Json::U64(s.guards.hits)),
                        ("misses", Json::U64(s.guards.misses)),
                        ("hit_rate", Json::F64(s.guards.hit_rate())),
                    ])
                })
                .collect();
            let rejected: Vec<Json> = r
                .rejected
                .iter()
                .map(|rej| {
                    Json::obj(vec![
                        ("load_index", Json::U64(u64::from(rej.load_index))),
                        ("reason", Json::Str(rej.reason.name().to_string())),
                        ("train_executions", Json::U64(rej.executions)),
                    ])
                })
                .collect();
            records.push(record(
                "optimize",
                w.name,
                vec![
                    ("train", Json::Str(self.train.name().to_string())),
                    ("dataset", Json::Str(self.test.name().to_string())),
                    ("mode", Json::Str(self.mode.clone())),
                    ("base_instructions", Json::U64(r.eval.base_instructions)),
                    ("specialized_instructions", Json::U64(r.eval.specialized_instructions)),
                    ("reduction_pct", Json::F64(r.eval.reduction_pct())),
                    ("equivalent", Json::Bool(r.eval.equivalent)),
                    ("sites", Json::U64(r.sites.len() as u64)),
                    ("rejected", Json::U64(r.rejected.len() as u64)),
                    ("guard_hits", Json::U64(r.guard_hits())),
                    ("guard_misses", Json::U64(r.guard_misses())),
                    ("events", w.events().to_json()),
                    ("site_detail", Json::Arr(sites)),
                    ("rejected_detail", Json::Arr(rejected)),
                ],
            ));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteRunner;
    use vp_obs::telemetry::{mask_volatile, parse_jsonl, to_jsonl};
    use vp_workloads::suite;

    fn small_report() -> OptimizeReport {
        let ws = &suite()[..3];
        let outcome = SuiteRunner::new().try_run_workloads(ws, DataSet::Train);
        assert!(outcome.is_clean());
        optimize_from_outcome(&outcome, ws, "full", &OptimizeConfig::default()).unwrap()
    }

    #[test]
    fn report_is_deterministic_and_jobs_invariant() {
        let ws = &suite()[..3];
        let serial = SuiteRunner::new().try_run_workloads(ws, DataSet::Train);
        let parallel = SuiteRunner::new().jobs(4).try_run_workloads(ws, DataSet::Train);
        let cfg = OptimizeConfig::default();
        let a = optimize_from_outcome(&serial, ws, "full", &cfg).unwrap();
        let b = optimize_from_outcome(&parallel, ws, "full", &cfg).unwrap();
        assert_eq!(a.render_durable(), b.render_durable());
        assert_eq!(
            to_jsonl(&a.optimize_records("optimize")),
            to_jsonl(&b.optimize_records("optimize"))
        );
    }

    #[test]
    fn records_parse_and_carry_guard_rates() {
        let report = small_report();
        let records = report.optimize_records("optimize");
        let text = to_jsonl(&records);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), report.workloads.len() + 1);
        assert_eq!(parsed[0].get("kind").unwrap().as_str(), Some("run"));
        for rec in &parsed[1..] {
            assert_eq!(rec.get("kind").unwrap().as_str(), Some("optimize"));
            assert!(rec.get("equivalent").is_some());
            assert!(rec.get("guard_hits").is_some());
            // Masking is the identity: nothing volatile is emitted.
            assert_eq!(&mask_volatile(rec), rec);
        }
    }

    #[test]
    fn durable_footer_verifies() {
        let report = small_report();
        let durable = report.render_durable();
        let body = report.render();
        assert!(durable.starts_with(&body));
        let footer = durable.strip_prefix(&body).unwrap();
        assert!(footer.starts_with(FOOTER_PREFIX));
        let crc = format!("{:08x}", crc32(body.as_bytes()));
        assert!(footer.contains(&crc), "{footer}");
    }
}
