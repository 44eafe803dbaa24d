//! The specialization transform: a chain of run-time guards in front of
//! folded fast paths for a semi-invariant load.
//!
//! For a candidate load `ld rD, off(rB)` at index `i`, guarded on the
//! values `V1 … Vk` (most frequent first):
//!
//! ```text
//! site i:   j  tramp                       (replaces the load)
//! tramp:    ld rD, off(rB)                 (the original load)
//!           li r31, V1 ; beq rD, r31, fast1
//!           ...
//!           li r31, Vk ; beq rD, r31, fastk
//!           j  i+1                         (slow path: resume)
//! fast1:    <region folded with rD = V1> ; j resume
//! ...
//! fastk:    <region folded with rD = Vk> ; j resume
//! ```
//!
//! A chain of one value is the classic one-way guard: `ld`, the guard
//! constant, `beq rD, r31, +1` over the slow-path jump, `j i+1`, the
//! folded fast path and `j resume` (the instruction after the region).
//!
//! The fast path is the load's basic-block suffix constant-folded against
//! its value (see [`crate::fold`]), materializing only registers that are
//! live at the resume point. Executions whose value is in no guard pay the
//! chain; hot executions skip the folded computation — the paper's
//! specialization trade-off, measurable in dynamic instructions. The TNV
//! table keeps the top *N* values of an entity so that the chain can cover
//! more than the most frequent one: on a load that is 60 % one value and
//! 40 % another, one guard covers 60 % of executions and two cover all of
//! them (experiment E17).

use std::fmt;

use vp_asm::Program;
use vp_isa::{BranchCond, Instruction, Reg};

use crate::fold::{fold_region, materialize};
use crate::liveness::Liveness;

/// The register the generated guards use for their comparison constants.
/// Programs to be specialized must not use it (checked by
/// [`specialize_all`]).
pub const SCRATCH: Reg = Reg::R31;

/// A specialization candidate: a load site and the values to guard on.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Instruction index of the load.
    pub load_index: u32,
    /// Values to build fast paths for, most frequent first.
    pub values: Vec<u64>,
    /// Profiled invariance of the load (the planner records
    /// `Inv-Top(1)`).
    pub invariance: f64,
    /// Profiled execution count of the load.
    pub executions: u64,
}

/// Options controlling candidate selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateOptions {
    /// Minimum `Inv-Top(1)` for a load to qualify (the paper specializes
    /// on *semi-invariant* entities; 0.8–0.99 is the useful band).
    pub min_invariance: f64,
    /// Minimum dynamic executions (don't specialize cold code).
    pub min_executions: u64,
    /// Minimum number of instructions the fold must eliminate for the
    /// guard to pay for itself.
    pub min_folded: usize,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions { min_invariance: 0.85, min_executions: 100, min_folded: 2 }
    }
}

/// Errors of the specialization transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecializeError {
    /// The candidate index does not hold a load instruction, or the
    /// candidate has no value to guard on.
    NotALoad {
        /// The offending instruction index.
        index: u32,
    },
    /// The program already uses the scratch register the guard needs.
    ScratchInUse,
    /// The program is too large to append a trampoline.
    ProgramTooLarge,
}

impl fmt::Display for SpecializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecializeError::NotALoad { index } => {
                write!(f, "instruction {index} is not a load")
            }
            SpecializeError::ScratchInUse => {
                write!(f, "program uses the scratch register {SCRATCH}")
            }
            SpecializeError::ProgramTooLarge => write!(f, "program too large to specialize"),
        }
    }
}

impl std::error::Error for SpecializeError {}

/// Where a specialization transform placed its runtime guards.
///
/// Guard indices are instruction indices of the conditional `beq`
/// instructions in the appended trampoline, one per specialized value.
/// Later transforms only append code and overwrite their own load site,
/// so indices recorded by earlier transforms stay valid across a chained
/// [`specialize_all`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardSite {
    /// Instruction index of the original (now redirected) load.
    pub load_index: u32,
    /// The values the guards test, in chain order.
    pub values: Vec<u64>,
    /// Instruction indices of the guard branches, in chain order. The
    /// slow path is taken iff the *last* guard falls through.
    pub guard_indices: Vec<u32>,
}

/// Cost estimate of specializing one load site (see [`estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldEstimate {
    /// Original instructions the foldable region covers.
    pub consumed: usize,
    /// Instructions the fast path would execute instead.
    pub emitted: usize,
    /// Original instructions whose execution the fast path avoids.
    pub folded: usize,
}

impl FoldEstimate {
    /// Instructions saved per fast-path execution: the slow path runs the
    /// region plus a jump back; the fast path runs the emitted sequence
    /// plus a resume jump.
    pub fn net_gain(&self) -> i64 {
        self.consumed as i64 - self.emitted as i64
    }
}

/// Estimates the cost/benefit of specializing the load at `load_index` on
/// `value`, without transforming anything. Returns `None` if the index
/// does not hold a load.
pub fn estimate(program: &Program, load_index: u32, value: u64) -> Option<FoldEstimate> {
    let (_, rd, resume) = load_site(program, load_index)?;
    let liveness = Liveness::compute(program);
    let fold =
        fold_region(program.code(), load_index as usize + 1, rd, value, liveness.live_at(resume));
    Some(FoldEstimate { consumed: fold.consumed, emitted: fold.emitted.len(), folded: fold.folded })
}

/// The load at `index`, its destination register and the resume point
/// (the first instruction after the foldable region that follows it), or
/// `None` if `index` does not hold a load.
fn load_site(program: &Program, index: u32) -> Option<(Instruction, Reg, u32)> {
    let code = program.code();
    let load = *code.get(index as usize)?;
    let rd = match load {
        Instruction::Load { rd, .. } | Instruction::LoadSigned { rd, .. } => rd,
        _ => return None,
    };
    let region = code[index as usize + 1..]
        .iter()
        .take_while(|i| !i.is_control_transfer() && !matches!(i, Instruction::Sys { .. }))
        .count();
    Some((load, rd, index + 1 + region as u32))
}

/// Applies one specialization, returning the transformed program.
///
/// # Errors
///
/// Same conditions as [`specialize_all`].
pub fn specialize(program: &Program, candidate: &Candidate) -> Result<Program, SpecializeError> {
    specialize_all(program, std::slice::from_ref(candidate)).map(|(p, _)| p)
}

/// Applies a list of candidates, each on the result of the previous
/// transform, reporting where each transform placed its guard chain (in
/// the order of `candidates`). Sites are transformed from the last load
/// to the first: a later site's `j trampoline` then ends the foldable
/// region of an earlier site in the same basic block, so no fast path
/// copies a later selected load unspecialized and jumps past its guard.
/// Candidates at the same load site are rejected by the `NotALoad`
/// check, since the first transform replaces the load. The
/// scratch-register check runs once against the input program: later
/// transforms legitimately read the scratch writes of earlier trampolines
/// (each writes it before its only read).
///
/// # Errors
///
/// Fails when a candidate is not a load or has no values, the program
/// uses the scratch register [`SCRATCH`], or jump targets would overflow.
pub fn specialize_all(
    program: &Program,
    candidates: &[Candidate],
) -> Result<(Program, Vec<GuardSite>), SpecializeError> {
    if !candidates.is_empty() && uses_scratch(program) {
        return Err(SpecializeError::ScratchInUse);
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(candidates[i].load_index));
    let mut current = program.clone();
    let mut sites = Vec::with_capacity(candidates.len());
    for i in order {
        let (next, site) = specialize_site(&current, &candidates[i])?;
        current = next;
        sites.push((i, site));
    }
    sites.sort_by_key(|&(i, _)| i);
    Ok((current, sites.into_iter().map(|(_, site)| site).collect()))
}

/// Builds one guard chain (see the module docs for the layout), without
/// the scratch-register check.
fn specialize_site(
    program: &Program,
    candidate: &Candidate,
) -> Result<(Program, GuardSite), SpecializeError> {
    let not_a_load = SpecializeError::NotALoad { index: candidate.load_index };
    if candidate.values.is_empty() {
        return Err(not_a_load);
    }
    let (load, rd, resume) = load_site(program, candidate.load_index).ok_or(not_a_load)?;
    let code = program.code();
    let index = candidate.load_index as usize;
    let live = Liveness::compute(program).live_at(resume);

    let mut new_code = code.to_vec();
    let trampoline = new_code.len() as u32;
    new_code.push(load);

    // Guard chain. Branch displacements depend on downstream sizes, so lay
    // out the guards with placeholder displacements and patch each one as
    // its fast path is appended.
    let mut guard_starts = Vec::new();
    for &value in &candidate.values {
        materialize(SCRATCH, value, &mut new_code);
        guard_starts.push(new_code.len());
        new_code.push(Instruction::Branch { cond: BranchCond::Eq, rs: rd, rt: SCRATCH, disp: 0 });
    }
    new_code.push(Instruction::Jump { target: candidate.load_index + 1 }); // slow path

    for (&value, &guard_at) in candidate.values.iter().zip(&guard_starts) {
        let disp = new_code.len() as i64 - (guard_at as i64 + 1);
        let disp = i16::try_from(disp).map_err(|_| SpecializeError::ProgramTooLarge)?;
        new_code[guard_at] =
            Instruction::Branch { cond: BranchCond::Eq, rs: rd, rt: SCRATCH, disp };
        new_code.extend(fold_region(code, index + 1, rd, value, live).emitted);
        new_code.push(Instruction::Jump { target: resume });
    }

    if new_code.len() >= (1 << 26) {
        return Err(SpecializeError::ProgramTooLarge);
    }
    new_code[index] = Instruction::Jump { target: trampoline };

    let site = GuardSite {
        load_index: candidate.load_index,
        values: candidate.values.clone(),
        guard_indices: guard_starts.iter().map(|&g| g as u32).collect(),
    };
    Ok((
        Program::from_parts(
            new_code,
            program.data().to_vec(),
            program.symbols().clone(),
            program.procedures().to_vec(),
            program.entry(),
        ),
        site,
    ))
}

fn uses_scratch(program: &Program) -> bool {
    program
        .code()
        .iter()
        .any(|i| i.source_registers().contains(&SCRATCH) || i.dest_register() == Some(SCRATCH))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use vp_isa::AluOp;
    use vp_sim::{InputSet, Machine, MachineConfig};

    /// A kernel with a semi-invariant load feeding a foldable chain.
    fn kernel() -> Program {
        vp_asm::assemble(
            r#"
            .data
            config: .quad 80
            .text
            main:
                la  r10, config
                li  r9, 1000
                li  r18, 0
            loop:
                ldd  r2, 0(r10)      # semi-invariant load
                srli r3, r2, 3
                andi r3, r3, 1023
                muli r4, r3, 37
                addi r4, r4, 11
                xori r5, r4, 90
                slli r6, r5, 2
                add  r7, r6, r4
                srli r8, r7, 1
                add  r18, r18, r8    # r18 unknown: chain ends here
                addi r9, r9, -1
                bnz  r9, loop
                andi a0, r18, 255
                sys  exit
            "#,
        )
        .unwrap()
    }

    fn load_index(p: &Program) -> u32 {
        p.code().iter().position(|i| i.is_load()).unwrap() as u32
    }

    fn candidate(load_index: u32, values: &[u64]) -> Candidate {
        Candidate { load_index, values: values.to_vec(), invariance: 1.0, executions: 1000 }
    }

    /// Exit code and dynamic instruction count of a run with no input.
    fn run(p: &Program) -> (i64, u64) {
        let mut m = Machine::new(p.clone(), MachineConfig::new().input(InputSet::empty())).unwrap();
        let out = m.run(10_000_000).unwrap();
        (out.exit_code, out.instructions)
    }

    #[test]
    fn one_value_chain_has_the_documented_layout() {
        let program = kernel();
        let i = load_index(&program);
        let (specialized, sites) = specialize_all(&program, &[candidate(i, &[80])]).unwrap();

        let n = program.code().len();
        let t = n as u32;
        let (code, new) = specialized.code().split_at(n);
        // The site jumps to the trampoline; nothing else in the original
        // code changes.
        assert_eq!(code[i as usize], Instruction::Jump { target: t });
        for (k, (a, b)) in program.code().iter().zip(code).enumerate() {
            if k != i as usize {
                assert_eq!(a, b, "instruction {k}");
            }
        }
        // r2 = 80 folds the chain to r8 = 780 (needed by the unknown
        // accumulate); the loop counter update survives; the region ends
        // at `bnz`, the resume point.
        let addi = |rd, rs, imm| Instruction::AluImm { op: AluOp::Add, rd, rs, imm };
        let resume = i + 11;
        assert_eq!(
            new,
            [
                program.code()[i as usize],
                addi(SCRATCH, Reg::R0, 80),
                Instruction::Branch { cond: BranchCond::Eq, rs: Reg::R2, rt: SCRATCH, disp: 1 },
                Instruction::Jump { target: i + 1 },
                addi(Reg::R8, Reg::R0, 780),
                Instruction::Alu { op: AluOp::Add, rd: Reg::R18, rs: Reg::R18, rt: Reg::R8 },
                addi(Reg::R9, Reg::R9, -1),
                Instruction::Jump { target: resume },
            ]
        );
        assert!(matches!(program.code()[resume as usize], Instruction::Branch { .. }));
        assert_eq!(
            sites,
            [GuardSite { load_index: i, values: vec![80], guard_indices: vec![t + 2] }]
        );
        assert_eq!(specialized.data(), program.data());
    }

    #[test]
    fn specialized_program_is_equivalent_and_faster() {
        let program = kernel();
        let specialized = specialize(&program, &candidate(load_index(&program), &[80])).unwrap();
        let (base_code, base_n) = run(&program);
        let (fast_code, fast_n) = run(&specialized);
        assert_eq!(base_code, fast_code);
        assert!(fast_n < base_n, "specialized {fast_n} should beat base {base_n}");
    }

    #[test]
    fn guard_falls_back_when_value_changes() {
        // Specialize on the WRONG value: the guard must route every
        // iteration through the slow path, and results must still match.
        let program = kernel();
        let specialized = specialize(&program, &candidate(load_index(&program), &[9999])).unwrap();
        let (base_code, base_n) = run(&program);
        let (slow_code, slow_n) = run(&specialized);
        assert_eq!(base_code, slow_code);
        assert!(slow_n > base_n, "guard adds overhead");
    }

    #[test]
    fn rejects_non_loads_empty_chains_and_scratch_users() {
        let program = kernel();
        assert_eq!(
            specialize(&program, &candidate(0, &[1])).unwrap_err(),
            SpecializeError::NotALoad { index: 0 }
        );
        let i = load_index(&program);
        assert_eq!(
            specialize(&program, &candidate(i, &[])).unwrap_err(),
            SpecializeError::NotALoad { index: i }
        );

        let scratchy = vp_asm::assemble(
            ".data\nx: .quad 1\n.text\nmain: la r31, x\n ldd r2, 0(r31)\n sys exit\n",
        )
        .unwrap();
        let c = candidate(load_index(&scratchy), &[1]);
        assert_eq!(specialize(&scratchy, &c).unwrap_err(), SpecializeError::ScratchInUse);
    }

    #[test]
    fn planner_selects_the_invariant_load() {
        use crate::pipeline::{plan_candidates, OptimizeOptions};
        use vp_core::{track::TrackerConfig, InstructionProfiler};
        use vp_instrument::{Instrumenter, Selection};
        let program = kernel();
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(&program, MachineConfig::new(), 10_000_000, &mut profiler)
            .unwrap();
        let one_way = OptimizeOptions { max_ways: 1, ..OptimizeOptions::default() };
        let plan = plan_candidates(&program, &profiler.metrics(), &|_| Vec::new(), &one_way);
        assert_eq!(plan.selected.len(), 1);
        assert_eq!(plan.selected[0].load_index, load_index(&program));
        assert_eq!(plan.selected[0].values, vec![80]);
        assert!(plan.selected[0].invariance > 0.99);

        // Raising the invariance bar above 1.0 rejects everything.
        let strict = OptimizeOptions {
            candidates: CandidateOptions { min_invariance: 1.1, ..CandidateOptions::default() },
            ..one_way
        };
        let plan = plan_candidates(&program, &profiler.metrics(), &|_| Vec::new(), &strict);
        assert!(plan.selected.is_empty());
    }

    #[test]
    fn two_way_beats_one_way_on_bimodal_loads() {
        let program = demo::bimodal_program(1_000);
        let load = demo::bimodal_load_index(&program);
        let (base_code, base_n) = run(&program);

        let one_way = specialize(&program, &candidate(load, &[80])).unwrap();
        let (one_code, one_n) = run(&one_way);
        assert_eq!(base_code, one_code);

        let two_way = specialize(&program, &candidate(load, &[80, 120])).unwrap();
        let (two_code, two_n) = run(&two_way);
        assert_eq!(base_code, two_code, "two-way must preserve behaviour");

        assert!(one_n < base_n, "one-way should win: {one_n} vs {base_n}");
        assert!(two_n < one_n, "two-way should beat one-way: {two_n} vs {one_n}");
    }

    #[test]
    fn unmatched_values_fall_through_to_slow_path() {
        let program = demo::bimodal_program(1_000);
        let load = demo::bimodal_load_index(&program);
        let (base_code, base_n) = run(&program);
        let wrong = specialize(&program, &candidate(load, &[1, 2, 3])).unwrap();
        let (code, n) = run(&wrong);
        assert_eq!(base_code, code);
        assert!(n > base_n, "three dead guards cost instructions");
    }

    #[test]
    fn error_display() {
        assert!(SpecializeError::NotALoad { index: 3 }.to_string().contains("3"));
        assert!(SpecializeError::ScratchInUse.to_string().contains("r31"));
    }
}
