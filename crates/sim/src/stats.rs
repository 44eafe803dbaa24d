//! Execution statistics: dynamic counts per instruction, per opcode class,
//! and the basic-block quantile summary of the paper's Table IV.1.

use std::collections::BTreeMap;

use vp_isa::{Instruction, OpClass};

/// Dynamic execution counts collected by a [`Machine`](crate::Machine).
///
/// The emulator counts executions per instruction and nothing else; the
/// total and the per-class counts are derived from those counts and each
/// instruction's static [`class`](Instruction::class) when read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    per_instr: Vec<u64>,
    classes: Vec<OpClass>,
}

impl ExecStats {
    /// Creates zeroed statistics for a program whose text is `code`.
    pub fn new(code: &[Instruction]) -> ExecStats {
        ExecStats {
            per_instr: vec![0; code.len()],
            classes: code.iter().map(|i| i.class()).collect(),
        }
    }

    /// Records one execution of the instruction at `index`.
    #[inline]
    pub fn record(&mut self, index: u32) {
        self.per_instr[index as usize] += 1;
    }

    /// Total dynamic instruction count.
    pub fn total(&self) -> u64 {
        self.per_instr.iter().sum()
    }

    /// Execution count of the instruction at `index`.
    pub fn count(&self, index: u32) -> u64 {
        self.per_instr.get(index as usize).copied().unwrap_or(0)
    }

    /// Per-instruction execution counts, indexed by instruction index.
    pub fn per_instr(&self) -> &[u64] {
        &self.per_instr
    }

    /// Dynamic count per opcode class. Classes that never executed are
    /// absent.
    pub fn per_class(&self) -> BTreeMap<OpClass, u64> {
        let mut per_class = BTreeMap::new();
        for (&class, &count) in self.classes.iter().zip(&self.per_instr) {
            if count > 0 {
                *per_class.entry(class).or_insert(0) += count;
            }
        }
        per_class
    }

    /// Dynamic count for one class (0 if never executed).
    pub fn class_count(&self, class: OpClass) -> u64 {
        self.per_class().get(&class).copied().unwrap_or(0)
    }
}

/// One row of the basic-block quantile table (paper Table IV.1): the
/// smallest fraction of *static* blocks that covers `coverage` of the
/// dynamic execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileRow {
    /// Target dynamic-execution coverage in `\[0, 1\]`.
    pub coverage: f64,
    /// Number of hottest blocks needed.
    pub blocks: usize,
    /// Those blocks as a fraction of all executed static blocks.
    pub block_fraction: f64,
}

/// Computes the basic-block quantile table from per-block dynamic counts.
///
/// `block_counts` holds one dynamic execution count per static basic block.
/// Returns one [`QuantileRow`] per requested coverage level. Blocks that
/// never executed are excluded from the denominator, matching the paper's
/// convention of reporting over *executed* blocks.
///
/// ```
/// let rows = vp_sim::stats::quantile_table(&[100, 50, 25, 25, 0], &[0.5, 1.0]);
/// assert_eq!(rows[0].blocks, 1);   // the hottest block covers 100/200
/// assert_eq!(rows[1].blocks, 4);
/// ```
pub fn quantile_table(block_counts: &[u64], coverages: &[f64]) -> Vec<QuantileRow> {
    let mut counts: Vec<u64> = block_counts.iter().copied().filter(|&c| c > 0).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let executed = counts.len();
    coverages
        .iter()
        .map(|&coverage| {
            if total == 0 {
                return QuantileRow { coverage, blocks: 0, block_fraction: 0.0 };
            }
            let threshold = coverage * total as f64;
            let mut acc = 0u64;
            let mut blocks = 0usize;
            for &c in &counts {
                if acc as f64 >= threshold {
                    break;
                }
                acc += c;
                blocks += 1;
            }
            QuantileRow { coverage, blocks, block_fraction: blocks as f64 / executed as f64 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use vp_isa::{MemWidth, Reg, Syscall};

    use super::*;

    #[test]
    fn record_and_query() {
        let code = [
            Instruction::Nop,
            Instruction::Sys { call: Syscall::Exit },
            Instruction::Load { rd: Reg::R1, base: Reg::R2, offset: 0, width: MemWidth::D },
        ];
        let mut s = ExecStats::new(&code);
        s.record(0);
        s.record(0);
        s.record(2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.count(1), 0);
        assert_eq!(s.count(99), 0);
        assert_eq!(s.class_count(OpClass::IntAlu), 2);
        assert_eq!(s.class_count(OpClass::Load), 1);
        assert_eq!(s.class_count(OpClass::FpAlu), 0);
        // The never-executed `sys` is absent, not a zero entry.
        assert_eq!(s.class_count(OpClass::Sys), 0);
        let expected = BTreeMap::from([(OpClass::IntAlu, 2), (OpClass::Load, 1)]);
        assert_eq!(s.per_class(), expected);
        assert_eq!(s.per_instr(), &[2, 0, 1]);
    }

    #[test]
    fn quantiles_simple() {
        // 4 executed blocks: 100, 50, 25, 25 (total 200); one dead block.
        let rows = quantile_table(&[100, 50, 25, 25, 0], &[0.5, 0.75, 0.875, 1.0]);
        assert_eq!(rows[0].blocks, 1);
        assert_eq!(rows[1].blocks, 2);
        assert_eq!(rows[2].blocks, 3);
        assert_eq!(rows[3].blocks, 4);
        assert!((rows[3].block_fraction - 1.0).abs() < 1e-12);
        assert!((rows[0].block_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quantiles_empty() {
        let rows = quantile_table(&[], &[0.9]);
        assert_eq!(rows[0].blocks, 0);
        let rows = quantile_table(&[0, 0], &[0.9]);
        assert_eq!(rows[0].blocks, 0);
    }

    #[test]
    fn quantiles_skewed() {
        // One block dominating: 90% coverage needs just that block.
        let rows = quantile_table(&[900, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10], &[0.9]);
        assert_eq!(rows[0].blocks, 1);
    }
}
