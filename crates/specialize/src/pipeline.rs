//! The optimize pipeline: plan → specialize → guarded re-evaluation.
//!
//! This module closes the loop the paper builds toward (ch. VI): given a
//! load-value profile gathered on a *train* input, pick the semi-invariant
//! sites worth specializing, build guard chains in front of folded fast
//! paths (more than one value where the profiled distribution justifies
//! extra guards), and re-run original vs specialized on an unseen *test*
//! input, accounting every guard hit and miss. Everything here is
//! deterministic: same program + same profile + same input → identical
//! plan, identical code, identical report.
//!
//! The driver that profiles whole suite workloads and renders reports
//! lives in `vp-bench`; this module is pure program-level machinery.

use vp_asm::Program;
use vp_core::{track::ValueTracker, EntityMetrics};
use vp_isa::Instruction;
use vp_sim::{InputSet, Machine, MachineConfig, SimError};

use crate::eval::{evaluate, GuardStats, GuardedReport, SpeedupReport};
use crate::transform::{
    estimate, specialize_all, Candidate, CandidateOptions, GuardSite, SpecializeError,
};

/// Options controlling the optimize pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeOptions {
    /// Thresholds a site must clear to be specialized at all.
    pub candidates: CandidateOptions,
    /// Maximum guards per site (1 = one value per site).
    pub max_ways: usize,
    /// Minimum share of a site's executions a secondary TNV value must
    /// hold to earn its own guard (the guard chain taxes every miss, so
    /// rare values do not pay for themselves).
    pub min_way_share: f64,
    /// Instruction budget for each evaluation run.
    pub budget: u64,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            candidates: CandidateOptions::default(),
            max_ways: 2,
            min_way_share: 0.15,
            budget: 100_000_000,
        }
    }
}

/// Extracts a tracker's `(value, count)` pairs, most frequent first —
/// exact from the full profile when kept, ranked TNV entries (an
/// under-count) otherwise. This is the `top_values` source suite drivers
/// hand to [`plan_candidates`]/[`optimize_program`].
pub fn tracker_top_values(tracker: &ValueTracker, n: usize) -> Vec<(u64, u64)> {
    if let Some(full) = tracker.full() {
        return full.top(n);
    }
    tracker.tnv().entries().take(n).collect()
}

/// Why the planner passed on a profiled load site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Executions below `min_executions`.
    Cold,
    /// `Inv-Top(1)` below `min_invariance`.
    LowInvariance,
    /// The profile kept no top value for the site.
    NoTopValue,
    /// The fold would not remove enough instructions to pay for the guard.
    UnprofitableFold,
    /// The entity id does not name a load instruction.
    NotALoad,
    /// The program uses the guard scratch register; nothing can be
    /// specialized.
    ScratchInUse,
}

impl RejectReason {
    /// Stable snake_case name used in reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Cold => "cold",
            RejectReason::LowInvariance => "low_invariance",
            RejectReason::NoTopValue => "no_top_value",
            RejectReason::UnprofitableFold => "unprofitable_fold",
            RejectReason::NotALoad => "not_a_load",
            RejectReason::ScratchInUse => "scratch_in_use",
        }
    }
}

/// A load site the planner considered and passed on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectedCandidate {
    /// Entity id (instruction index) of the load.
    pub load_index: u32,
    /// Why it was rejected.
    pub reason: RejectReason,
    /// Profiled execution count.
    pub executions: u64,
    /// Profiled `Inv-Top(1)`.
    pub invariance: f64,
}

/// The planner's verdict over a whole profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePlan {
    /// Sites to specialize, hottest first. Values per site are ordered
    /// most frequent first.
    pub selected: Vec<Candidate>,
    /// Sites considered and rejected, in entity-id order.
    pub rejected: Vec<RejectedCandidate>,
}

/// Selects specialization candidates from a load-value profile, recording
/// a reason for every site it passes on.
///
/// `metrics` must come from an
/// [`InstructionProfiler`](vp_core::InstructionProfiler) run (entity ids
/// are instruction indices). Each site's first guard value is its
/// `metrics` entry's `top_value`. `top_values` maps a load's instruction
/// index to profiled `(value, count)` pairs, most frequent first; it only
/// offers the secondary guards, which go to values whose own fold is
/// profitable and whose share clears `min_way_share`, up to `max_ways`
/// values per site. A `top_values` that returns nothing plans one value
/// per site.
pub fn plan_candidates(
    program: &Program,
    metrics: &[EntityMetrics],
    top_values: &dyn Fn(u32) -> Vec<(u64, u64)>,
    options: &OptimizeOptions,
) -> CandidatePlan {
    let mut considered: Vec<(u32, &EntityMetrics)> =
        metrics.iter().filter_map(|m| u32::try_from(m.id).ok().map(|index| (index, m))).collect();
    considered.sort_by_key(|&(index, _)| index);

    let mut selected = Vec::new();
    let mut rejected = Vec::new();
    let opts = &options.candidates;
    for (index, m) in considered {
        let mut reject = |reason| {
            rejected.push(RejectedCandidate {
                load_index: index,
                reason,
                executions: m.executions,
                invariance: m.inv_top1,
            });
        };
        let is_load = matches!(
            program.code().get(index as usize),
            Some(Instruction::Load { .. } | Instruction::LoadSigned { .. })
        );
        if !is_load {
            reject(RejectReason::NotALoad);
            continue;
        }
        if m.executions < opts.min_executions {
            reject(RejectReason::Cold);
            continue;
        }
        if m.inv_top1 < opts.min_invariance {
            reject(RejectReason::LowInvariance);
            continue;
        }
        let Some(primary) = m.top_value else {
            reject(RejectReason::NoTopValue);
            continue;
        };
        let profitable = |value: u64| {
            estimate(program, index, value)
                .is_some_and(|fold| fold.folded >= opts.min_folded && fold.emitted < fold.consumed)
        };
        if !profitable(primary) {
            reject(RejectReason::UnprofitableFold);
            continue;
        }
        // Secondary guards: top-k TNV values that individually clear the
        // share threshold AND fold profitably on their own.
        let mut values = vec![primary];
        for (value, count) in top_values(index) {
            if values.len() >= options.max_ways.max(1) {
                break;
            }
            if values.contains(&value) {
                continue;
            }
            let share = if m.executions == 0 { 0.0 } else { count as f64 / m.executions as f64 };
            if share >= options.min_way_share && profitable(value) {
                values.push(value);
            }
        }
        selected.push(Candidate {
            load_index: index,
            values,
            invariance: m.inv_top1,
            executions: m.executions,
        });
    }
    selected.sort_by(|a, b| b.executions.cmp(&a.executions).then(a.load_index.cmp(&b.load_index)));
    CandidatePlan { selected, rejected }
}

/// Outcome for one specialized site after the test-input evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteOutcome {
    /// Where the guards ended up and which values they test.
    pub site: GuardSite,
    /// Profiled `Inv-Top(1)` on the train input.
    pub invariance: f64,
    /// Profiled executions on the train input.
    pub executions: u64,
    /// Guard hit/miss totals measured on the test input.
    pub guards: GuardStats,
}

/// The full program-level pipeline result.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramOptimize {
    /// Specialized sites with guard accounting, hottest (by train
    /// profile) first.
    pub sites: Vec<SiteOutcome>,
    /// Sites rejected by the planner, in entity-id order.
    pub rejected: Vec<RejectedCandidate>,
    /// Original-vs-specialized instruction counts and equivalence on the
    /// evaluation input.
    pub eval: SpeedupReport,
}

impl ProgramOptimize {
    /// Total guard hits across all sites.
    pub fn guard_hits(&self) -> u64 {
        self.sites.iter().map(|s| s.guards.hits).sum()
    }

    /// Total guard misses across all sites.
    pub fn guard_misses(&self) -> u64 {
        self.sites.iter().map(|s| s.guards.misses).sum()
    }
}

/// Runs the program-level pipeline: plan candidates from the train-input
/// profile, specialize, and evaluate original vs specialized on `input`
/// (normally the *test* input) with guard accounting.
///
/// The pipeline is total over [`SpecializeError`]: a program that cannot
/// be specialized (it uses the scratch register, say) demotes every
/// selected site to a rejection and reports an identity evaluation rather
/// than failing, so suite drivers can run it over arbitrary workloads.
///
/// # Errors
///
/// Propagates emulator faults from the evaluation runs.
pub fn optimize_program(
    program: &Program,
    metrics: &[EntityMetrics],
    top_values: &dyn Fn(u32) -> Vec<(u64, u64)>,
    input: &InputSet,
    options: &OptimizeOptions,
) -> Result<ProgramOptimize, SimError> {
    let mut plan = plan_candidates(program, metrics, top_values, options);

    if plan.selected.is_empty() {
        let eval = identity_eval(program, input, options.budget)?;
        return Ok(ProgramOptimize { sites: Vec::new(), rejected: plan.rejected, eval });
    }

    match specialize_all(program, &plan.selected) {
        Ok((specialized, sites)) => {
            let GuardedReport { speedup, guards } =
                evaluate(program, &specialized, &sites, input, options.budget)?;
            let outcomes = sites
                .into_iter()
                .zip(&plan.selected)
                .zip(guards)
                .map(|((site, cand), stats)| SiteOutcome {
                    site,
                    invariance: cand.invariance,
                    executions: cand.executions,
                    guards: stats,
                })
                .collect();
            Ok(ProgramOptimize { sites: outcomes, rejected: plan.rejected, eval: speedup })
        }
        Err(err) => {
            // Demote everything we picked and fall back to the original
            // program: the report stays honest (zero sites, reasons named).
            let reason = match err {
                SpecializeError::ScratchInUse => RejectReason::ScratchInUse,
                SpecializeError::NotALoad { .. } => RejectReason::NotALoad,
                SpecializeError::ProgramTooLarge => RejectReason::UnprofitableFold,
            };
            for c in &plan.selected {
                plan.rejected.push(RejectedCandidate {
                    load_index: c.load_index,
                    reason,
                    executions: c.executions,
                    invariance: c.invariance,
                });
            }
            plan.rejected.sort_by_key(|r| r.load_index);
            let eval = identity_eval(program, input, options.budget)?;
            Ok(ProgramOptimize { sites: Vec::new(), rejected: plan.rejected, eval })
        }
    }
}

/// Runs the original program once and reports it against itself.
fn identity_eval(
    program: &Program,
    input: &InputSet,
    budget: u64,
) -> Result<SpeedupReport, SimError> {
    let cfg = MachineConfig::new().input(input.clone());
    let mut machine = Machine::new(program.clone(), cfg)?;
    let out = machine.run(budget)?;
    Ok(SpeedupReport {
        base_instructions: out.instructions,
        specialized_instructions: out.instructions,
        equivalent: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use vp_core::{track::TrackerConfig, InstructionProfiler};
    use vp_instrument::{Instrumenter, Selection};

    fn profile(program: &Program, input: &InputSet) -> InstructionProfiler {
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(program, MachineConfig::new().input(input.clone()), 100_000_000, &mut profiler)
            .unwrap();
        profiler
    }

    fn top_values_of(profiler: &InstructionProfiler) -> impl Fn(u32) -> Vec<(u64, u64)> + '_ {
        move |index| profiler.tracker(index).map(|t| tracker_top_values(t, 8)).unwrap_or_default()
    }

    #[test]
    fn demo_kernel_optimizes_end_to_end() {
        let program = demo::program();
        let train = demo::input(2_000, 0);
        let test = demo::input(2_000, 200);
        let profiler = profile(&program, &train);
        let metrics = profiler.metrics();
        let out = optimize_program(
            &program,
            &metrics,
            &top_values_of(&profiler),
            &test,
            &OptimizeOptions::default(),
        )
        .unwrap();
        assert_eq!(out.sites.len(), 1);
        assert!(out.eval.equivalent);
        assert!(out.eval.specialized_instructions < out.eval.base_instructions);
        let g = out.sites[0].guards;
        assert!(g.hits > 0);
        assert!(g.misses > 0, "the perturbed test input must miss sometimes");
        assert_eq!(out.guard_hits() + out.guard_misses(), g.hits + g.misses);
    }

    #[test]
    fn planner_names_rejection_reasons() {
        let program = demo::program();
        let train = demo::input(2_000, 0);
        let profiler = profile(&program, &train);
        let metrics = profiler.metrics();

        // An impossible invariance bar rejects the hot site as
        // low-invariance and selects nothing.
        let strict = OptimizeOptions {
            candidates: CandidateOptions { min_invariance: 1.1, ..CandidateOptions::default() },
            ..OptimizeOptions::default()
        };
        let plan = plan_candidates(&program, &metrics, &top_values_of(&profiler), &strict);
        assert!(plan.selected.is_empty());
        assert!(plan.rejected.iter().any(|r| r.reason == RejectReason::LowInvariance));

        // A prohibitive execution floor marks them cold instead.
        let cold = OptimizeOptions {
            candidates: CandidateOptions {
                min_executions: u64::MAX,
                ..CandidateOptions::default()
            },
            ..OptimizeOptions::default()
        };
        let plan = plan_candidates(&program, &metrics, &top_values_of(&profiler), &cold);
        assert!(plan.selected.is_empty());
        assert!(plan.rejected.iter().all(|r| r.reason == RejectReason::Cold));
    }

    #[test]
    fn scratch_using_program_demotes_to_rejections() {
        let program = vp_asm::assemble(
            r#"
            .data
            x: .quad 7
            .text
            main:
                la  r31, x
                li  r9, 200
            loop:
                ldd  r2, 0(r31)
                srli r3, r2, 1
                muli r3, r3, 5
                addi r3, r3, 1
                addi r9, r9, -1
                bnz  r9, loop
                andi a0, r3, 255
                sys  exit
            "#,
        )
        .unwrap();
        let input = InputSet::empty();
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(&program, MachineConfig::new().input(input.clone()), 100_000_000, &mut profiler)
            .unwrap();
        let metrics = profiler.metrics();
        let out = optimize_program(
            &program,
            &metrics,
            &|index| profiler.tracker(index).map(|t| tracker_top_values(t, 8)).unwrap_or_default(),
            &input,
            &OptimizeOptions::default(),
        )
        .unwrap();
        assert!(out.sites.is_empty());
        assert!(out.rejected.iter().any(|r| r.reason == RejectReason::ScratchInUse));
        assert!(out.eval.equivalent);
        assert_eq!(out.eval.base_instructions, out.eval.specialized_instructions);
    }
}
