//! Specialization speedup evaluation with guard hit/miss accounting.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use vp_asm::Program;
use vp_instrument::{Analysis, Instrumenter, Selection};
use vp_sim::{InputSet, InstrEvent, Machine, MachineConfig, SimError};

use crate::transform::GuardSite;

/// Side-by-side result of running the original and specialized programs on
/// the same input.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Dynamic instructions of the original program.
    pub base_instructions: u64,
    /// Dynamic instructions of the specialized program.
    pub specialized_instructions: u64,
    /// Whether exit codes and outputs matched (they must).
    pub equivalent: bool,
}

impl SpeedupReport {
    /// Speedup in dynamic instructions (>1 means the specialization won).
    pub fn speedup(&self) -> f64 {
        if self.specialized_instructions == 0 {
            return 0.0;
        }
        self.base_instructions as f64 / self.specialized_instructions as f64
    }

    /// Percentage of dynamic instructions removed (negative if the guard
    /// overhead dominated).
    pub fn reduction_pct(&self) -> f64 {
        if self.base_instructions == 0 {
            return 0.0;
        }
        (self.base_instructions as f64 - self.specialized_instructions as f64)
            / self.base_instructions as f64
            * 100.0
    }
}

/// Guard hit/miss totals for one specialized load site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardStats {
    /// Instruction index of the original load.
    pub load_index: u32,
    /// Executions that matched one of the site's guarded values.
    pub hits: u64,
    /// Executions that fell through every guard to the slow path.
    pub misses: u64,
}

impl GuardStats {
    /// Fraction of site executions that took a fast path.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// [`SpeedupReport`] with per-site guard accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedReport {
    /// The side-by-side instruction counts and equivalence verdict.
    pub speedup: SpeedupReport,
    /// Guard hit/miss totals per specialized site, in `sites` order.
    pub guards: Vec<GuardStats>,
}

/// Watches the guard branches of specialized sites: a taken conditional is
/// a hit; a fall-through on the *last* guard of a site's chain means every
/// guard missed and the slow path runs.
struct GuardWatcher {
    /// guard instruction index → (site slot, is-last-in-chain).
    map: BTreeMap<u32, (usize, bool)>,
    stats: Vec<GuardStats>,
}

impl Analysis for GuardWatcher {
    fn after_instr(&mut self, _machine: &Machine, event: &InstrEvent) {
        if let (Some(&(slot, last)), Some(taken)) = (self.map.get(&event.index), event.taken) {
            if taken {
                self.stats[slot].hits += 1;
            } else if last {
                self.stats[slot].misses += 1;
            }
        }
    }
}

/// Runs `original` and `specialized` on `input` and reports the dynamic
/// instruction counts, an output-equivalence check and per-site guard
/// hit/miss totals. The specialized program runs under instrumentation
/// that selects exactly the guard branches of `sites` (the sites
/// [`specialize_all`](crate::specialize_all) returned); instrumentation
/// observes the same execution the plain machine would run, so
/// instruction counts and outputs are unaffected.
///
/// # Errors
///
/// Propagates emulator faults from either run.
pub fn evaluate(
    original: &Program,
    specialized: &Program,
    sites: &[GuardSite],
    input: &InputSet,
    budget: u64,
) -> Result<GuardedReport, SimError> {
    let cfg = MachineConfig::new().input(input.clone());
    let mut base = Machine::new(original.clone(), cfg.clone())?;
    let base_out = base.run(budget)?;

    let mut watcher = GuardWatcher {
        map: sites
            .iter()
            .enumerate()
            .flat_map(|(slot, site)| {
                let last = site.guard_indices.len().saturating_sub(1);
                site.guard_indices.iter().enumerate().map(move |(k, &g)| (g, (slot, k == last)))
            })
            .collect(),
        stats: sites
            .iter()
            .map(|s| GuardStats { load_index: s.load_index, hits: 0, misses: 0 })
            .collect(),
    };
    let selected: BTreeSet<u32> = watcher.map.keys().copied().collect();
    let run = Instrumenter::new().select(Selection::Custom(selected)).run(
        specialized,
        cfg,
        budget,
        &mut watcher,
    )?;
    let fast_out = run.outcome;

    Ok(GuardedReport {
        speedup: SpeedupReport {
            base_instructions: base_out.instructions,
            specialized_instructions: fast_out.instructions,
            equivalent: base_out.exit_code == fast_out.exit_code
                && base_out.output == fast_out.output,
        },
        guards: watcher.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_arithmetic() {
        let r = SpeedupReport {
            base_instructions: 200,
            specialized_instructions: 100,
            equivalent: true,
        };
        assert!((r.speedup() - 2.0).abs() < 1e-12);
        assert!((r.reduction_pct() - 50.0).abs() < 1e-12);
        let degenerate =
            SpeedupReport { base_instructions: 0, specialized_instructions: 0, equivalent: true };
        assert_eq!(degenerate.speedup(), 0.0);
        assert_eq!(degenerate.reduction_pct(), 0.0);
    }

    #[test]
    fn evaluate_identical_programs() {
        let p = vp_asm::assemble(".text\nmain: li a0, 1\n sys exit\n").unwrap();
        let r = evaluate(&p, &p, &[], &InputSet::empty(), 1000).unwrap();
        assert!(r.speedup.equivalent);
        assert!((r.speedup.speedup() - 1.0).abs() < 1e-12);
        assert!(r.guards.is_empty());
    }

    #[test]
    fn guarded_eval_counts_hits_and_misses_exactly() {
        use crate::demo;
        use crate::transform::{specialize_all, Candidate};

        let program = demo::program();
        let iterations = 1_000;
        let period = 100;
        let input = demo::input(iterations, period);
        let candidate = Candidate {
            load_index: demo::config_load_index(&program),
            values: vec![0x1234], // the demo kernel's base configuration value
            invariance: 1.0,
            executions: iterations,
        };
        let (specialized, sites) = specialize_all(&program, &[candidate]).unwrap();
        let report = evaluate(&program, &specialized, &sites, &input, 100_000_000).unwrap();
        assert!(report.speedup.equivalent);
        assert_eq!(report.guards.len(), 1);
        let g = report.guards[0];
        // The load runs once per iteration; every guard outcome is a hit
        // or a miss, and exactly the perturbed iterations (i % period == 0
        // for 0 < i < iterations) miss.
        assert_eq!(g.hits + g.misses, iterations);
        assert_eq!(g.misses, (iterations - 1) / period);
        assert!(g.hit_rate() > 0.98);

        // Instrumentation must not change the measured execution.
        let cfg = MachineConfig::new().input(input);
        let plain = Machine::new(specialized, cfg).unwrap().run(100_000_000).unwrap();
        assert_eq!(plain.instructions, report.speedup.specialized_instructions);
    }
}
