//! The execution engine: register file, fetch/decode/execute loop and the
//! per-instruction event stream the instrumentation layer consumes.

use std::fmt;

use vp_asm::{Program, DATA_BASE};
use vp_isa::{AluOp, FpOp, Instruction, MemWidth, Reg, Syscall, Value, INSTR_BYTES};

use crate::input::{InputCursor, InputSet};
use crate::memory::{MemFault, Memory};
use crate::stats::ExecStats;

/// Configuration for a [`Machine`].
///
/// Build one with [`MachineConfig::new`] and the chainable setters:
///
/// ```
/// use vp_sim::{InputSet, MachineConfig};
///
/// let cfg = MachineConfig::new()
///     .memory_size(1 << 22)
///     .input(InputSet::named("train", vec![1, 2, 3]));
/// assert_eq!(cfg.memory_bytes(), 1 << 22);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    memory_size: usize,
    input: InputSet,
}

impl MachineConfig {
    /// Default configuration: 8 MiB of memory, empty input.
    pub fn new() -> MachineConfig {
        MachineConfig { memory_size: 8 << 20, input: InputSet::empty() }
    }

    /// Sets the memory size in bytes (must exceed the data segment end).
    pub fn memory_size(mut self, bytes: usize) -> MachineConfig {
        self.memory_size = bytes;
        self
    }

    /// Sets the input data set consumed by `sys getinput`.
    pub fn input(mut self, input: InputSet) -> MachineConfig {
        self.input = input;
        self
    }

    /// Configured memory size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.memory_size
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::new()
    }
}

/// A memory access performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub address: u64,
    /// Value read (zero/sign-extended) or stored.
    pub value: Value,
    /// True for stores.
    pub store: bool,
    /// Access width.
    pub width: MemWidth,
}

/// Everything one executed instruction did — the event stream on which all
/// profiling is built. This is the emulator-level analogue of the data ATOM
/// hands to analysis routines instrumented "after" an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrEvent {
    /// Instruction index that executed.
    pub index: u32,
    /// The instruction itself.
    pub instr: Instruction,
    /// Register written and the value it received, if any.
    pub dest: Option<(Reg, Value)>,
    /// Memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// For conditional branches, whether the branch was taken.
    pub taken: Option<bool>,
    /// Index of the next instruction to execute.
    pub next_index: u32,
}

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Exit code passed to `sys exit`.
    pub exit_code: i64,
    /// Dynamic instruction count of the run.
    pub instructions: u64,
    /// Bytes written through `putint`/`putchar`.
    pub output: Vec<u8>,
}

impl RunOutcome {
    /// The program's output as UTF-8 text (lossy).
    pub fn output_text(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// Errors the emulator can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A load or store faulted.
    Mem(MemFault),
    /// The program counter left the text section.
    PcOutOfRange {
        /// The faulting instruction index.
        index: u32,
    },
    /// An indirect jump targeted a misaligned or out-of-range byte address.
    BadJumpTarget {
        /// The faulting byte address.
        address: u64,
    },
    /// The instruction budget was exhausted before `sys exit`.
    BudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The data segment does not fit in configured memory.
    ImageTooLarge {
        /// Bytes needed to load the program.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(fault) => fault.fmt(f),
            SimError::PcOutOfRange { index } => write!(f, "pc out of range: {index}"),
            SimError::BadJumpTarget { address } => write!(f, "bad jump target {address:#x}"),
            SimError::BudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            SimError::ImageTooLarge { needed, available } => {
                write!(f, "program image needs {needed} bytes, memory has {available}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<MemFault> for SimError {
    fn from(fault: MemFault) -> SimError {
        SimError::Mem(fault)
    }
}

/// The VP64 virtual machine.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_sim::{Machine, MachineConfig};
///
/// let program = vp_asm::assemble(
///     ".text\nmain: li r4, 3\n addi r4, r4, 4\n sys exit\n",
/// )?;
/// let mut machine = Machine::new(program, MachineConfig::new())?;
/// let outcome = machine.run(1_000)?;
/// assert_eq!(outcome.exit_code, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    regs: [Value; Reg::COUNT],
    pc: u32,
    memory: Memory,
    input: InputCursor,
    output: Vec<u8>,
    exited: Option<i64>,
    stats: ExecStats,
}

impl Machine {
    /// Loads `program` into a fresh machine.
    ///
    /// The data image is copied to [`DATA_BASE`]; the stack pointer starts
    /// at the top of memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ImageTooLarge`] if memory cannot hold the data
    /// segment.
    pub fn new(program: Program, config: MachineConfig) -> Result<Machine, SimError> {
        let mut memory = Memory::new(config.memory_size);
        let needed = DATA_BASE + program.data().len() as u64;
        if needed > memory.size() {
            return Err(SimError::ImageTooLarge { needed, available: memory.size() });
        }
        memory.write_bytes(DATA_BASE, program.data())?;
        let mut regs = [0; Reg::COUNT];
        regs[Reg::SP.index()] = memory.size() & !0xf;
        let pc = program.entry();
        let stats = ExecStats::new(program.code());
        Ok(Machine {
            program,
            regs,
            pc,
            memory,
            input: InputCursor::new(&InputSet::empty()),
            output: Vec::new(),
            exited: None,
            stats,
        }
        .with_input_from(config.input))
    }

    fn with_input_from(mut self, input: InputSet) -> Machine {
        self.input = InputCursor::new(&input);
        self
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current value of a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> Value {
        self.regs[r.index()]
    }

    /// Sets a register (writes to `r0` are ignored, as in hardware).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: Value) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Exit code, once the program has executed `sys exit`.
    pub fn exit_code(&self) -> Option<i64> {
        self.exited
    }

    /// Executes a single instruction and reports what it did.
    ///
    /// This is the one step body: it is compiled into every
    /// [`run_with`](Machine::run_with) loop, the bare run's and each
    /// instrumented run's alike, so that the event it returns never
    /// leaves registers and the hook reads what the step just computed.
    ///
    /// # Errors
    ///
    /// Propagates memory faults, control-flow violations and PC escapes.
    #[inline(always)]
    pub fn step(&mut self) -> Result<InstrEvent, SimError> {
        let index = self.pc;
        let instr =
            *self.program.code().get(index as usize).ok_or(SimError::PcOutOfRange { index })?;
        let mut dest = None;
        let mut mem = None;
        let mut taken = None;
        let mut next = index + 1;

        match instr {
            Instruction::Nop => {}
            Instruction::Alu { op, rd, rs, rt } => {
                let v = alu_eval(op, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
                dest = Some((rd, self.reg(rd)));
            }
            Instruction::AluImm { op, rd, rs, imm } => {
                // Logic immediates are zero-extended (like MIPS andi/ori),
                // which the assembler's `li`/`la` expansions rely on; all
                // other immediates are sign-extended.
                let b = match op {
                    AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor => imm as u16 as u64,
                    _ => imm as i64 as u64,
                };
                let v = alu_eval(op, self.reg(rs), b);
                self.set_reg(rd, v);
                dest = Some((rd, self.reg(rd)));
            }
            Instruction::Lui { rd, imm } => {
                self.set_reg(rd, u64::from(imm) << 16);
                dest = Some((rd, self.reg(rd)));
            }
            Instruction::Fp { op, rd, rs, rt } => {
                let v = fp_eval(op, self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
                dest = Some((rd, self.reg(rd)));
            }
            Instruction::Load { rd, base, offset, width } => {
                let address = self.reg(base).wrapping_add(offset as i64 as u64);
                let value = self.memory.read(address, width)?;
                self.set_reg(rd, value);
                dest = Some((rd, self.reg(rd)));
                mem = Some(MemAccess { address, value, store: false, width });
            }
            Instruction::LoadSigned { rd, base, offset, width } => {
                let address = self.reg(base).wrapping_add(offset as i64 as u64);
                let value = self.memory.read_signed(address, width)?;
                self.set_reg(rd, value);
                dest = Some((rd, self.reg(rd)));
                mem = Some(MemAccess { address, value, store: false, width });
            }
            Instruction::Store { rs, base, offset, width } => {
                let address = self.reg(base).wrapping_add(offset as i64 as u64);
                let value = self.reg(rs);
                self.memory.write(address, width, value)?;
                mem = Some(MemAccess { address, value, store: true, width });
            }
            Instruction::Branch { cond, rs, rt, disp } => {
                let t = cond.eval(self.reg(rs), self.reg(rt));
                taken = Some(t);
                if t {
                    next = index.wrapping_add(1).wrapping_add(disp as i32 as u32);
                }
            }
            Instruction::Jump { target } => next = target,
            Instruction::Jal { target } => {
                self.set_reg(Reg::RA, u64::from(index + 1) * INSTR_BYTES);
                next = target;
            }
            Instruction::Jr { rs } => next = self.indirect_target(self.reg(rs))?,
            Instruction::Jalr { rd, rs } => {
                let target = self.indirect_target(self.reg(rs))?;
                self.set_reg(rd, u64::from(index + 1) * INSTR_BYTES);
                next = target;
            }
            Instruction::Sys { call } => {
                dest = self.sys(call);
                if self.exited.is_some() {
                    next = index; // park the pc
                }
            }
        }

        self.stats.record(index);
        self.pc = next;
        Ok(InstrEvent { index, instr, dest, mem, taken, next_index: next })
    }

    /// Executes a system call and returns the register it wrote, if any.
    /// Out of line: it is rare, and `putint` formats text.
    #[inline(never)]
    fn sys(&mut self, call: Syscall) -> Option<(Reg, Value)> {
        match call {
            Syscall::Exit => self.exited = Some(self.reg(Reg::A0) as i64),
            Syscall::PutInt => {
                let text = format!("{}", self.reg(Reg::A0) as i64);
                self.output.extend_from_slice(text.as_bytes());
                self.output.push(b'\n');
            }
            Syscall::PutChar => self.output.push(self.reg(Reg::A0) as u8),
            Syscall::GetInput => {
                let v = self.input.next_value();
                self.set_reg(Reg::V0, v);
                return Some((Reg::V0, v));
            }
        }
        None
    }

    #[inline]
    fn indirect_target(&self, address: u64) -> Result<u32, SimError> {
        if !address.is_multiple_of(INSTR_BYTES)
            || address / INSTR_BYTES >= self.program.len() as u64
        {
            return Err(SimError::BadJumpTarget { address });
        }
        Ok((address / INSTR_BYTES) as u32)
    }

    /// Runs until `sys exit` or until `budget` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the program does not exit in
    /// time, plus any fault [`step`](Machine::step) can produce.
    pub fn run(&mut self, budget: u64) -> Result<RunOutcome, SimError> {
        self.run_with(budget, |_, _| {})
    }

    /// Runs like [`run`](Machine::run), invoking `hook` after every
    /// instruction with the machine state (post-execution) and the
    /// instruction's event. This is the attachment point the
    /// instrumentation layer builds on.
    ///
    /// The outcome takes the machine's output buffer rather than copying
    /// it, so the output of a finished run is reported once.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Machine::run).
    pub fn run_with<H>(&mut self, budget: u64, mut hook: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Machine, &InstrEvent),
    {
        let mut executed = 0u64;
        while self.exited.is_none() {
            if executed >= budget {
                return Err(SimError::BudgetExhausted { budget });
            }
            let event = self.step()?;
            executed += 1;
            hook(self, &event);
        }
        Ok(RunOutcome {
            exit_code: self.exited.unwrap_or(0),
            instructions: executed,
            output: std::mem::take(&mut self.output),
        })
    }
}

/// Evaluates an integer ALU operation exactly as the emulator does.
/// Exposed so program transformers (the specializer's constant folder) can
/// fold instructions with bit-identical semantics.
#[inline]
pub fn alu_eval(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                (a as i64).wrapping_rem(b as i64) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Nor => !(a | b),
        AluOp::Sll => a << (b & 63),
        AluOp::Srl => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Seq => u64::from(a == b),
        AluOp::Sne => u64::from(a != b),
    }
}

/// Evaluates a floating-point operation exactly as the emulator does.
/// See [`alu_eval`].
#[inline]
pub fn fp_eval(op: FpOp, a: u64, b: u64) -> u64 {
    let x = f64::from_bits(a);
    let y = f64::from_bits(b);
    match op {
        FpOp::FAdd => (x + y).to_bits(),
        FpOp::FSub => (x - y).to_bits(),
        FpOp::FMul => (x * y).to_bits(),
        FpOp::FDiv => (x / y).to_bits(),
        FpOp::FCmpLt => u64::from(x < y),
        FpOp::CvtIF => (a as i64 as f64).to_bits(),
        FpOp::CvtFI => {
            if x.is_nan() {
                0
            } else {
                // Clamp to the representable range, truncating toward zero.
                x.clamp(i64::MIN as f64, i64::MAX as f64).trunc() as i64 as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> RunOutcome {
        let program = vp_asm::assemble(src).expect("assemble");
        let mut m = Machine::new(program, MachineConfig::new()).expect("machine");
        m.run(1_000_000).expect("run")
    }

    fn run_src_with_input(src: &str, input: Vec<u64>) -> RunOutcome {
        let program = vp_asm::assemble(src).expect("assemble");
        let cfg = MachineConfig::new().input(InputSet::named("t", input));
        let mut m = Machine::new(program, cfg).expect("machine");
        m.run(1_000_000).expect("run")
    }

    #[test]
    fn arithmetic_loop() {
        // sum 1..=10 = 55
        let out = run_src(
            r#"
            .text
            main:
                li r1, 0       # sum
                li r2, 10      # i
            loop:
                add r1, r1, r2
                addi r2, r2, -1
                bnz r2, loop
                mov a0, r1
                sys exit
            "#,
        );
        assert_eq!(out.exit_code, 55);
    }

    #[test]
    fn memory_and_data_segment() {
        let out = run_src(
            r#"
            .data
            nums: .quad 10, 20, 30
            .text
            main:
                la  r1, nums
                ldd r2, 0(r1)
                ldd r3, 8(r1)
                ldd r4, 16(r1)
                add r5, r2, r3
                add r5, r5, r4
                std r5, 0(r1)
                ldd a0, 0(r1)
                sys exit
            "#,
        );
        assert_eq!(out.exit_code, 60);
    }

    #[test]
    fn procedure_call_and_stack() {
        // double(x) = x + x, called twice
        let out = run_src(
            r#"
            .text
            main:
                li  a0, 5
                call double
                mov a0, v0
                call double
                mov a0, v0
                sys exit
            .proc double
            double:
                add v0, a0, a0
                ret
            .endp
            "#,
        );
        assert_eq!(out.exit_code, 20);
    }

    #[test]
    fn recursion_factorial() {
        let out = run_src(
            r#"
            .text
            main:
                li a0, 5
                call fact
                mov a0, v0
                sys exit
            .proc fact
            fact:
                addi sp, sp, -16
                std  ra, 0(sp)
                std  a0, 8(sp)
                li   v0, 1
                bz   a0, base
                addi a0, a0, -1
                call fact
                ldd  a0, 8(sp)
                mul  v0, v0, a0
            base:
                ldd  ra, 0(sp)
                addi sp, sp, 16
                ret
            .endp
            "#,
        );
        assert_eq!(out.exit_code, 120);
    }

    #[test]
    fn input_and_output() {
        let out = run_src_with_input(
            r#"
            .text
            main:
                sys getinput
                mov a0, v0
                sys putint
                sys getinput
                mov a0, v0
                sys putchar
                li a0, 0
                sys exit
            "#,
            vec![42, 65],
        );
        assert_eq!(out.output_text(), "42\nA");
    }

    #[test]
    fn indirect_jump_table() {
        let out = run_src(
            r#"
            .data
            tab: .quad h0, h1
            .text
            main:
                li  r1, 1          # select handler 1
                la  r2, tab
                slli r3, r1, 3
                add r2, r2, r3
                ldd r4, 0(r2)
                jr  r4
            h0:
                li a0, 10
                sys exit
            h1:
                li a0, 11
                sys exit
            "#,
        );
        assert_eq!(out.exit_code, 11);
    }

    #[test]
    fn fp_operations() {
        let out = run_src(
            r#"
            .text
            main:
                li r1, 3
                li r2, 4
                cvtif r3, r1
                cvtif r4, r2
                fmul  r5, r3, r4
                cvtfi a0, r5
                sys exit
            "#,
        );
        assert_eq!(out.exit_code, 12);
    }

    #[test]
    fn division_semantics() {
        assert_eq!(alu_eval(AluOp::Div, 7, 0), 0);
        assert_eq!(alu_eval(AluOp::Rem, 7, 0), 7);
        assert_eq!(alu_eval(AluOp::Div, (-7i64) as u64, 2), (-3i64) as u64);
        assert_eq!(alu_eval(AluOp::Div, i64::MIN as u64, u64::MAX), i64::MIN as u64);
        assert_eq!(alu_eval(AluOp::Sra, (-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn fp_cvt_edge_cases() {
        assert_eq!(fp_eval(FpOp::CvtFI, f64::NAN.to_bits(), 0), 0);
        assert_eq!(fp_eval(FpOp::CvtFI, f64::INFINITY.to_bits(), 0), i64::MAX as u64);
        assert_eq!(fp_eval(FpOp::CvtFI, (-2.9f64).to_bits(), 0), (-2i64) as u64);
    }

    #[test]
    fn budget_exhaustion() {
        let program = vp_asm::assemble(".text\nmain: j main\n").unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        assert_eq!(m.run(100), Err(SimError::BudgetExhausted { budget: 100 }));
    }

    #[test]
    fn zero_register_is_immutable() {
        let out = run_src(
            r#"
            .text
            main:
                addi r0, r0, 7
                mov  a0, r0
                sys exit
            "#,
        );
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn bad_indirect_target() {
        let program = vp_asm::assemble(".text\nmain: li r1, 3\n jr r1\n").unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        assert!(matches!(m.run(100), Err(SimError::BadJumpTarget { address: 3 })));
    }

    #[test]
    fn memory_fault_surfaces() {
        let program = vp_asm::assemble(".text\nmain: li r1, -8\n ldd r2, 0(r1)\n").unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        assert!(matches!(m.run(100), Err(SimError::Mem(_))));
    }

    #[test]
    fn stack_top_stores_and_unwritten_gap_reads_zero() {
        let program = vp_asm::assemble(
            r#"
            .text
            main:
                ldd  r3, -4096(sp)     # past the highest byte written
                li   r1, 77
                std  r1, -8(sp)        # the top word of memory
                ldd  r2, -8(sp)
                ldd  r4, -4096(sp)     # in the gap the store zero-filled
                ldd  r5, 0(sp)         # exactly at memory_size
                sys exit
            "#,
        )
        .unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        let size = m.memory().size();
        assert_eq!(m.reg(Reg::SP), size);
        let fault = MemFault { address: size, size: 8, store: false };
        assert_eq!(m.run(100), Err(SimError::Mem(fault)));
        assert_eq!((m.reg(Reg::R2), m.reg(Reg::R3), m.reg(Reg::R4)), (77, 0, 0));
        assert_eq!(m.memory().read(size - 8, MemWidth::D), Ok(77));
        assert_eq!(m.memory().read(DATA_BASE + (1 << 20), MemWidth::D), Ok(0));
    }

    #[test]
    fn run_with_hook_sees_every_event() {
        let program =
            vp_asm::assemble(".text\nmain: li r1, 2\n add r2, r1, r1\n sys exit\n").unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        let mut dests = Vec::new();
        m.run_with(100, |_, ev| {
            if let Some((r, v)) = ev.dest {
                dests.push((r, v));
            }
        })
        .unwrap();
        assert_eq!(dests, vec![(Reg::R1, 2), (Reg::R2, 4)]);
    }

    #[test]
    fn stats_accumulate() {
        let program =
            vp_asm::assemble(".text\nmain: li r1, 2\n add r2, r1, r1\n sys exit\n").unwrap();
        let mut m = Machine::new(program, MachineConfig::new()).unwrap();
        let out = m.run(100).unwrap();
        assert_eq!(out.instructions, 3);
        assert_eq!(m.stats().total(), 3);
    }
}
