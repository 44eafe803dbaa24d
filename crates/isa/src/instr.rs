//! The [`Instruction`] type and its classification helpers.

use crate::op::{AluOp, BranchCond, FpOp, MemWidth, OpClass, Syscall};
use crate::reg::Reg;

/// One decoded VP64 instruction.
///
/// Instructions are fixed-width (32-bit words, see [`crate::INSTR_BYTES`]);
/// [`Instruction::encode`] and [`Instruction::decode`] convert to and from
/// the binary form. Branch and jump displacements are measured in
/// *instruction words* relative to the instruction after the branch.
///
/// ```
/// use vp_isa::{Instruction, MemWidth, OpClass, Reg};
///
/// let ld = Instruction::Load { rd: Reg::R5, base: Reg::SP, offset: 16, width: MemWidth::D };
/// assert_eq!(ld.class(), OpClass::Load);
/// assert_eq!(ld.dest_register(), Some(Reg::R5));
/// assert!(ld.is_register_defining());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Load `width` bytes from `base + offset`, zero-extended, into `rd`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
        /// Access width.
        width: MemWidth,
    },
    /// Load with sign extension (`ldbs`, `ldhs`, `ldws`).
    LoadSigned {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
        /// Access width (B, H or W; D needs no extension).
        width: MemWidth,
    },
    /// Store the low `width` bytes of `rs` to `base + offset`.
    Store {
        /// Source register holding the value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
        /// Access width.
        width: MemWidth,
    },
    /// Register-register ALU operation: `rd = rs <op> rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Register-immediate ALU operation: `rd = rs <op> sext(imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Sign-extended 16-bit immediate.
        imm: i16,
    },
    /// Load upper immediate: `rd = imm << 16` (zero elsewhere).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Immediate placed in bits 16..32.
        imm: u16,
    },
    /// Floating-point operation on f64 bit patterns: `rd = rs <op> rt`.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source (ignored by conversions).
        rt: Reg,
    },
    /// Conditional branch: if `cond(rs, rt)`, `pc += 4 + disp*4`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compared register.
        rs: Reg,
        /// Second compared register.
        rt: Reg,
        /// Word displacement relative to the next instruction.
        disp: i16,
    },
    /// Unconditional jump to absolute instruction index `target`.
    Jump {
        /// Absolute target, in instruction words from the text base.
        target: u32,
    },
    /// Jump-and-link: `ra = pc + 4`, then jump to `target`.
    Jal {
        /// Absolute target, in instruction words from the text base.
        target: u32,
    },
    /// Indirect jump to the byte address in `rs` (used for returns and
    /// indirect dispatch — the C++-style indirect calls the paper discusses).
    Jr {
        /// Register holding the target byte address.
        rs: Reg,
    },
    /// Indirect jump-and-link: `rd = pc + 4`, jump to address in `rs`.
    Jalr {
        /// Link register (receives return address).
        rd: Reg,
        /// Register holding the target byte address.
        rs: Reg,
    },
    /// System call.
    Sys {
        /// Which call to perform.
        call: Syscall,
    },
    /// No operation.
    Nop,
}

impl Instruction {
    /// The opcode class, matching the paper's per-class breakdown.
    pub fn class(self) -> OpClass {
        match self {
            Instruction::Load { .. } | Instruction::LoadSigned { .. } => OpClass::Load,
            Instruction::Store { .. } => OpClass::Store,
            Instruction::Alu { op, .. } | Instruction::AluImm { op, .. } => op.class(),
            Instruction::Lui { .. } => OpClass::IntAlu,
            Instruction::Fp { .. } => OpClass::FpAlu,
            Instruction::Branch { .. } => OpClass::Branch,
            Instruction::Jump { .. }
            | Instruction::Jal { .. }
            | Instruction::Jr { .. }
            | Instruction::Jalr { .. } => OpClass::Jump,
            Instruction::Sys { .. } => OpClass::Sys,
            Instruction::Nop => OpClass::IntAlu,
        }
    }

    /// The architectural destination register, if the instruction writes
    /// one. `Jal` writes `ra`; syscalls that produce a value write `v0`.
    pub fn dest_register(self) -> Option<Reg> {
        match self {
            Instruction::Load { rd, .. }
            | Instruction::LoadSigned { rd, .. }
            | Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Lui { rd, .. }
            | Instruction::Fp { rd, .. }
            | Instruction::Jalr { rd, .. } => Some(rd),
            Instruction::Jal { .. } => Some(Reg::RA),
            Instruction::Sys { call } if call.defines_v0() => Some(Reg::V0),
            _ => None,
        }
    }

    /// Whether the paper's value profiler would profile this instruction:
    /// it computes a value into a register other than the hard-wired zero.
    ///
    /// Control-transfer link writes (`jal`/`jalr`) are *excluded*, as the
    /// paper profiles value-producing computation, not return addresses.
    pub fn is_register_defining(self) -> bool {
        if matches!(
            self,
            Instruction::Jal { .. } | Instruction::Jalr { .. } | Instruction::Sys { .. }
        ) {
            return false;
        }
        self.dest_register().is_some_and(|r| !r.is_zero())
    }

    /// Whether this is a load (the paper's headline profiling target).
    pub fn is_load(self) -> bool {
        matches!(self, Instruction::Load { .. } | Instruction::LoadSigned { .. })
    }

    /// Source registers read by the instruction (up to 2).
    pub fn source_registers(self) -> Vec<Reg> {
        match self {
            Instruction::Load { base, .. } | Instruction::LoadSigned { base, .. } => vec![base],
            Instruction::Store { rs, base, .. } => vec![rs, base],
            Instruction::Alu { rs, rt, .. } => vec![rs, rt],
            Instruction::AluImm { rs, .. } => vec![rs],
            Instruction::Lui { .. } => vec![],
            Instruction::Fp { op, rs, rt, .. } => {
                if op.uses_rt() {
                    vec![rs, rt]
                } else {
                    vec![rs]
                }
            }
            Instruction::Branch { rs, rt, .. } => vec![rs, rt],
            Instruction::Jump { .. } | Instruction::Jal { .. } => vec![],
            Instruction::Jr { rs } | Instruction::Jalr { rs, .. } => vec![rs],
            Instruction::Sys { .. } => vec![Reg::A0],
            Instruction::Nop => vec![],
        }
    }

    /// Whether the instruction can redirect control flow.
    pub fn is_control_transfer(self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. }
                | Instruction::Jump { .. }
                | Instruction::Jal { .. }
                | Instruction::Jr { .. }
                | Instruction::Jalr { .. }
        ) || matches!(self, Instruction::Sys { call: Syscall::Exit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_registers() {
        let ld = Instruction::Load { rd: Reg::R3, base: Reg::SP, offset: 0, width: MemWidth::D };
        assert_eq!(ld.dest_register(), Some(Reg::R3));
        let st = Instruction::Store { rs: Reg::R3, base: Reg::SP, offset: 0, width: MemWidth::D };
        assert_eq!(st.dest_register(), None);
        let jal = Instruction::Jal { target: 0 };
        assert_eq!(jal.dest_register(), Some(Reg::RA));
        let sys = Instruction::Sys { call: Syscall::GetInput };
        assert_eq!(sys.dest_register(), Some(Reg::V0));
        let exit = Instruction::Sys { call: Syscall::Exit };
        assert_eq!(exit.dest_register(), None);
    }

    #[test]
    fn register_defining_excludes_links_and_zero_writes() {
        assert!(!Instruction::Jal { target: 0 }.is_register_defining());
        assert!(!Instruction::Jalr { rd: Reg::R2, rs: Reg::R3 }.is_register_defining());
        assert!(!Instruction::Sys { call: Syscall::GetInput }.is_register_defining());
        let to_zero = Instruction::Alu { op: AluOp::Add, rd: Reg::R0, rs: Reg::R1, rt: Reg::R2 };
        assert!(!to_zero.is_register_defining());
        let normal = Instruction::Alu { op: AluOp::Add, rd: Reg::R9, rs: Reg::R1, rt: Reg::R2 };
        assert!(normal.is_register_defining());
        let ld = Instruction::Load { rd: Reg::R9, base: Reg::SP, offset: 8, width: MemWidth::W };
        assert!(ld.is_register_defining());
        assert!(ld.is_load());
    }

    #[test]
    fn classes() {
        assert_eq!(
            Instruction::LoadSigned { rd: Reg::R1, base: Reg::R2, offset: 0, width: MemWidth::B }
                .class(),
            OpClass::Load
        );
        assert_eq!(Instruction::Lui { rd: Reg::R1, imm: 5 }.class(), OpClass::IntAlu);
        assert_eq!(
            Instruction::Fp { op: FpOp::FAdd, rd: Reg::R1, rs: Reg::R2, rt: Reg::R3 }.class(),
            OpClass::FpAlu
        );
        assert_eq!(Instruction::Jr { rs: Reg::RA }.class(), OpClass::Jump);
        assert_eq!(Instruction::Nop.class(), OpClass::IntAlu);
    }

    #[test]
    fn control_transfer_flags() {
        assert!(Instruction::Branch { cond: BranchCond::Eq, rs: Reg::R1, rt: Reg::R2, disp: -1 }
            .is_control_transfer());
        assert!(Instruction::Jump { target: 4 }.is_control_transfer());
        assert!(Instruction::Sys { call: Syscall::Exit }.is_control_transfer());
        assert!(!Instruction::Sys { call: Syscall::PutInt }.is_control_transfer());
    }

    #[test]
    fn source_registers() {
        let st = Instruction::Store { rs: Reg::R3, base: Reg::R4, offset: 0, width: MemWidth::D };
        assert_eq!(st.source_registers(), vec![Reg::R3, Reg::R4]);
        let cvt = Instruction::Fp { op: FpOp::CvtIF, rd: Reg::R1, rs: Reg::R2, rt: Reg::R3 };
        assert_eq!(cvt.source_registers(), vec![Reg::R2]);
        let lui = Instruction::Lui { rd: Reg::R1, imm: 1 };
        assert!(lui.source_registers().is_empty());
    }
}
