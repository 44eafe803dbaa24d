//! Operation kinds: ALU ops, FP ops, branch conditions, memory widths,
//! syscalls and the opcode *classes* used by the paper's per-class tables.

use std::fmt;

/// Integer ALU operations (register-register or register-immediate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Wrapping 64-bit addition.
    Add,
    /// Wrapping 64-bit subtraction.
    Sub,
    /// Wrapping 64-bit (low half) multiplication.
    Mul,
    /// Signed division. Division by zero yields 0 (the emulator's defined
    /// semantics; real hardware would trap).
    Div,
    /// Signed remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Bitwise not-or.
    Nor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less-than, signed: `rd = (rs < rt) as u64`.
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Seq,
        AluOp::Sne,
    ];

    /// Mnemonic for the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Seq => "seq",
            AluOp::Sne => "sne",
        }
    }

    /// The paper's opcode class this operation falls into:
    /// add/sub are plain integer ALU, shifts and logic and compares are their
    /// own classes, and mul/div/rem form the long-latency class.
    pub fn class(self) -> OpClass {
        match self {
            AluOp::Add | AluOp::Sub => OpClass::IntAlu,
            AluOp::Mul | AluOp::Div | AluOp::Rem => OpClass::MulDiv,
            AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor => OpClass::Logic,
            AluOp::Sll | AluOp::Srl | AluOp::Sra => OpClass::Shift,
            AluOp::Slt | AluOp::Sltu | AluOp::Seq | AluOp::Sne => OpClass::Compare,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Floating-point operations. Operands and results are `f64` bit patterns
/// held in the integer register file (as on the Alpha, where FP registers
/// were profiled through the same 64-bit value domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpOp {
    /// `rd = rs + rt` (f64).
    FAdd,
    /// `rd = rs - rt` (f64).
    FSub,
    /// `rd = rs * rt` (f64).
    FMul,
    /// `rd = rs / rt` (f64).
    FDiv,
    /// `rd = (rs < rt) as u64` (f64 compare, integer result).
    FCmpLt,
    /// Convert signed integer in `rs` to f64 bits.
    CvtIF,
    /// Convert f64 bits in `rs` to a signed integer (truncating; NaN -> 0).
    CvtFI,
}

impl FpOp {
    /// All FP operations, in encoding order.
    pub const ALL: [FpOp; 7] =
        [FpOp::FAdd, FpOp::FSub, FpOp::FMul, FpOp::FDiv, FpOp::FCmpLt, FpOp::CvtIF, FpOp::CvtFI];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::FAdd => "fadd",
            FpOp::FSub => "fsub",
            FpOp::FMul => "fmul",
            FpOp::FDiv => "fdiv",
            FpOp::FCmpLt => "fcmplt",
            FpOp::CvtIF => "cvtif",
            FpOp::CvtFI => "cvtfi",
        }
    }

    /// Whether the operation uses the second source register `rt`.
    pub fn uses_rt(self) -> bool {
        !matches!(self, FpOp::CvtIF | FpOp::CvtFI)
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Branch conditions (compare two registers, PC-relative displacement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchCond {
    /// Branch if `rs == rt`.
    Eq,
    /// Branch if `rs != rt`.
    Ne,
    /// Branch if `rs < rt`, signed.
    Lt,
    /// Branch if `rs >= rt`, signed.
    Ge,
    /// Branch if `rs < rt`, unsigned.
    Ltu,
    /// Branch if `rs >= rt`, unsigned.
    Geu,
}

impl BranchCond {
    /// All branch conditions, in encoding order.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two 64-bit register values.
    ///
    /// ```
    /// use vp_isa::BranchCond;
    /// assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
    /// assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
    /// ```
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes (halfword).
    H,
    /// 4 bytes (word).
    W,
    /// 8 bytes (doubleword).
    D,
}

impl MemWidth {
    /// All widths, in encoding order.
    pub const ALL: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Suffix used in load/store mnemonics (`ldb`, `sth`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
            MemWidth::D => "d",
        }
    }
}

/// System calls, invoked by the `sys` instruction. Arguments are taken from
/// the argument registers (`a0`, ...), results land in `v0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Syscall {
    /// Terminate the program; exit code in `a0`.
    Exit,
    /// Print the signed integer in `a0` to the run's output buffer.
    PutInt,
    /// Print the low byte of `a0` as a character.
    PutChar,
    /// Read the next value of the run's input stream into `v0`.
    /// Returns 0 once the stream is exhausted.
    GetInput,
}

impl Syscall {
    /// All syscalls, in encoding order.
    pub const ALL: [Syscall; 4] =
        [Syscall::Exit, Syscall::PutInt, Syscall::PutChar, Syscall::GetInput];

    /// Assembly mnemonic (used as the `sys` operand).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Syscall::Exit => "exit",
            Syscall::PutInt => "putint",
            Syscall::PutChar => "putchar",
            Syscall::GetInput => "getinput",
        }
    }

    /// Whether the syscall writes the return-value register `v0`.
    pub fn defines_v0(self) -> bool {
        matches!(self, Syscall::GetInput)
    }
}

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Instruction classes used to break invariance results down by opcode
/// type, mirroring the paper's per-class value-profile tables (loads,
/// integer ALU, shift, logic, compare/set, multiply/divide, floating point,
/// control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Memory loads (the paper's primary target).
    Load,
    /// Memory stores (profiled for the *memory location* study).
    Store,
    /// Plain integer arithmetic (add/sub, address arithmetic, `lui`).
    IntAlu,
    /// Shifts.
    Shift,
    /// Bitwise logic.
    Logic,
    /// Compare / set instructions producing 0 or 1.
    Compare,
    /// Multiplies, divides and remainders.
    MulDiv,
    /// Floating-point arithmetic and conversions.
    FpAlu,
    /// Conditional branches (no destination register).
    Branch,
    /// Unconditional jumps, calls and returns.
    Jump,
    /// System calls.
    Sys,
}

impl OpClass {
    /// All classes in display order.
    pub const ALL: [OpClass; 11] = [
        OpClass::Load,
        OpClass::Store,
        OpClass::IntAlu,
        OpClass::Shift,
        OpClass::Logic,
        OpClass::Compare,
        OpClass::MulDiv,
        OpClass::FpAlu,
        OpClass::Branch,
        OpClass::Jump,
        OpClass::Sys,
    ];

    /// Human-readable class name as used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::IntAlu => "int-alu",
            OpClass::Shift => "shift",
            OpClass::Logic => "logic",
            OpClass::Compare => "compare",
            OpClass::MulDiv => "mul-div",
            OpClass::FpAlu => "fp-alu",
            OpClass::Branch => "branch",
            OpClass::Jump => "jump",
            OpClass::Sys => "sys",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_classes() {
        assert_eq!(AluOp::Add.class(), OpClass::IntAlu);
        assert_eq!(AluOp::Mul.class(), OpClass::MulDiv);
        assert_eq!(AluOp::Sll.class(), OpClass::Shift);
        assert_eq!(AluOp::Xor.class(), OpClass::Logic);
        assert_eq!(AluOp::Slt.class(), OpClass::Compare);
    }

    #[test]
    fn branch_eval_signed_vs_unsigned() {
        let neg1 = u64::MAX;
        assert!(BranchCond::Lt.eval(neg1, 0));
        assert!(!BranchCond::Ge.eval(neg1, 0));
        assert!(BranchCond::Geu.eval(neg1, 0));
        assert!(!BranchCond::Ltu.eval(neg1, 0));
        assert!(BranchCond::Eq.eval(7, 7));
        assert!(BranchCond::Ne.eval(7, 8));
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::ALL.map(MemWidth::bytes), [1, 2, 4, 8]);
    }

    #[test]
    fn mnemonics_unique() {
        let mut names: Vec<&str> = AluOp::ALL.iter().map(|o| o.mnemonic()).collect();
        names.extend(FpOp::ALL.iter().map(|o| o.mnemonic()));
        names.extend(BranchCond::ALL.iter().map(|c| c.mnemonic()));
        names.extend(Syscall::ALL.iter().map(|s| s.mnemonic()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate mnemonic");
    }

    #[test]
    fn syscall_v0_definition() {
        assert!(Syscall::GetInput.defines_v0());
        assert!(!Syscall::Exit.defines_v0());
        assert!(!Syscall::PutInt.defines_v0());
    }
}
