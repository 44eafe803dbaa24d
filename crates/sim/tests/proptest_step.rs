//! Property tests: the emulator's step, as compiled into
//! `Machine::run_with`, against a naive reference interpreter, for random
//! straight-line programs of ALU, ALU-immediate, `lui`, FP, load,
//! signed-load and store instructions ending in `sys exit`.
//!
//! The programs' base registers point into the data image, just below
//! and across `DATA_BASE`, across the image's end (the written end of a
//! fresh machine), into the top 64 bytes of memory and out of range, so
//! the loads and stores cross every edge of the emulator's memory. The
//! reference keeps memory as a sparse byte map (as in
//! `proptest_memory.rs`) and assembles each access byte by byte. It
//! takes the values of the ALU and FP operations from `alu_eval` and
//! `fp_eval`, which `proptest_alu.rs` checks against their own
//! reference; everything else (operand and immediate decoding, the
//! register file, addressing, faults, the event stream, the budget and
//! the per-instruction counts) it computes itself.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use vp_asm::{Program, DATA_BASE};
use vp_isa::{AluOp, FpOp, Instruction, MemWidth, Reg, Syscall};
use vp_sim::{
    alu_eval, fp_eval, InstrEvent, Machine, MachineConfig, MemAccess, MemFault, RunOutcome,
    SimError,
};

/// Memory size of every generated machine: the default layout.
fn memory_size() -> u64 {
    MachineConfig::new().memory_bytes() as u64
}

/// Base registers: only the prologue writes them, so every access
/// lands near the address it was drawn for. The last one points out of
/// range and is drawn rarely, so that most programs run a while before
/// they fault.
const BASES: std::ops::RangeInclusive<usize> = 1..=8;
/// Registers the body's ALU and load instructions write.
const DESTS: std::ops::RangeInclusive<usize> = 9..=20;

fn reg(i: usize) -> Reg {
    Reg::from_index(i).expect("register index below 32")
}

fn arb_width() -> impl Strategy<Value = MemWidth> {
    (0usize..4).prop_map(|i| MemWidth::ALL[i])
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
}

fn arb_fp_op() -> impl Strategy<Value = FpOp> {
    (0usize..FpOp::ALL.len()).prop_map(|i| FpOp::ALL[i])
}

/// A destination: mostly a body register, sometimes the zero register.
fn arb_dest() -> impl Strategy<Value = Reg> {
    prop_oneof![9 => DESTS.prop_map(reg), 1 => Just(Reg::R0)]
}

/// A source: any register the program has set, or `r0`.
fn arb_src() -> impl Strategy<Value = Reg> {
    (0..=*DESTS.end()).prop_map(reg)
}

fn arb_base() -> impl Strategy<Value = Reg> {
    prop_oneof![12 => (*BASES.start()..*BASES.end()).prop_map(reg), 1 => Just(reg(*BASES.end()))]
}

fn arb_offset() -> impl Strategy<Value = i16> {
    -8i16..=8
}

fn arb_instr() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        2 => (arb_alu_op(), arb_dest(), arb_src(), arb_src())
            .prop_map(|(op, rd, rs, rt)| Instruction::Alu { op, rd, rs, rt }),
        2 => (arb_alu_op(), arb_dest(), arb_src(), any::<i16>())
            .prop_map(|(op, rd, rs, imm)| Instruction::AluImm { op, rd, rs, imm }),
        1 => (arb_dest(), any::<u16>()).prop_map(|(rd, imm)| Instruction::Lui { rd, imm }),
        1 => (arb_fp_op(), arb_dest(), arb_src(), arb_src())
            .prop_map(|(op, rd, rs, rt)| Instruction::Fp { op, rd, rs, rt }),
        3 => (arb_dest(), arb_base(), arb_offset(), arb_width())
            .prop_map(|(rd, base, offset, width)| Instruction::Load { rd, base, offset, width }),
        2 => (arb_dest(), arb_base(), arb_offset(), arb_width()).prop_map(
            |(rd, base, offset, width)| Instruction::LoadSigned { rd, base, offset, width }
        ),
        3 => (arb_src(), arb_base(), arb_offset(), arb_width())
            .prop_map(|(rs, base, offset, width)| Instruction::Store { rs, base, offset, width }),
    ]
}

/// Where a base register points.
#[derive(Debug, Clone, Copy)]
enum Anchor {
    /// At byte `k % len` of the data image (`DATA_BASE` if it is empty).
    Image(u64),
    /// `k` bytes below `DATA_BASE`, so wide accesses straddle it.
    Below(u64),
    /// `d` bytes from the image's end: the written end of a fresh machine.
    ImageEnd(i64),
    /// `k` bytes below the top of memory.
    Top(u64),
    /// `k` bytes past the top of memory.
    Past(u64),
    /// `2^64 - k`: far out of range.
    Negative(u64),
}

/// An anchor in range (an access there may still run past the top).
fn arb_anchor() -> impl Strategy<Value = Anchor> {
    prop_oneof![
        3 => any::<u64>().prop_map(Anchor::Image),
        2 => (1u64..=16).prop_map(Anchor::Below),
        2 => (-8i64..=8).prop_map(Anchor::ImageEnd),
        2 => (1u64..=64).prop_map(Anchor::Top),
    ]
}

fn arb_out_of_range() -> impl Strategy<Value = Anchor> {
    prop_oneof![(0u64..32).prop_map(Anchor::Past), (1u64..=0x8000).prop_map(Anchor::Negative),]
}

/// One generated program and how far it may run.
#[derive(Debug, Clone)]
struct Case {
    data: Vec<u8>,
    anchors: Vec<Anchor>,
    body: Vec<Instruction>,
    /// `None` runs to `sys exit`; otherwise the run's budget.
    budget: Option<u64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(any::<u8>(), 0..=64),
        prop::collection::vec(arb_anchor(), BASES.count() - 1),
        arb_out_of_range(),
        prop::collection::vec(arb_instr(), 1..40),
        prop_oneof![3 => Just(None), 1 => (0u64..70).prop_map(Some)],
    )
        .prop_map(|(data, mut anchors, out_of_range, body, budget)| {
            anchors.push(out_of_range);
            Case { data, anchors, body, budget }
        })
}

impl Case {
    fn address(&self, anchor: Anchor) -> u64 {
        let (image, size) = (self.data.len() as u64, memory_size());
        match anchor {
            Anchor::Image(k) => DATA_BASE + k.checked_rem(image).unwrap_or(0),
            Anchor::Below(k) => DATA_BASE - k,
            Anchor::ImageEnd(d) => (DATA_BASE + image).wrapping_add_signed(d),
            Anchor::Top(k) => size - k,
            Anchor::Past(k) => size + k,
            Anchor::Negative(k) => k.wrapping_neg(),
        }
    }

    /// The prologue that loads the base registers, the body, and
    /// `sys exit`. Addresses below 2^32 take `lui` and `ori`; the far
    /// ones take `addi` from `r0`.
    fn code(&self) -> Vec<Instruction> {
        let mut code = Vec::new();
        for (i, &anchor) in BASES.zip(&self.anchors) {
            let (rd, v) = (reg(i), self.address(anchor));
            if let Ok(low) = u32::try_from(v) {
                code.push(Instruction::Lui { rd, imm: (low >> 16) as u16 });
                let imm = low as u16 as i16;
                code.push(Instruction::AluImm { op: AluOp::Or, rd, rs: rd, imm });
            } else {
                let imm = i16::try_from(v as i64).expect("anchor is 2^64 - k, k <= 0x8000");
                code.push(Instruction::AluImm { op: AluOp::Add, rd, rs: Reg::R0, imm });
            }
        }
        code.extend_from_slice(&self.body);
        code.push(Instruction::Sys { call: Syscall::Exit });
        code
    }

    fn budget(&self) -> u64 {
        self.budget.unwrap_or(1_000)
    }
}

/// What a run produced: every event, the outcome, the per-instruction
/// counts and the final register file.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<InstrEvent>,
    result: Result<RunOutcome, SimError>,
    counts: Vec<u64>,
    regs: Vec<u64>,
}

fn emulate(case: &Case) -> Trace {
    let program = Program::from_parts(case.code(), case.data.clone(), BTreeMap::new(), vec![], 0);
    let mut machine = Machine::new(program, MachineConfig::new()).expect("image fits");
    let mut events = Vec::new();
    let result = machine.run_with(case.budget(), |_, event| events.push(*event));
    Trace {
        events,
        result,
        counts: machine.stats().per_instr().to_vec(),
        regs: (0..Reg::COUNT).map(|i| machine.reg(reg(i))).collect(),
    }
}

/// The reference machine: a register array and a sparse byte map in
/// which every unwritten byte reads as 0.
struct Reference {
    size: u64,
    regs: [u64; Reg::COUNT],
    bytes: HashMap<u64, u8>,
}

impl Reference {
    fn fault(&self, address: u64, width: MemWidth, store: bool) -> Option<MemFault> {
        let size = width.bytes();
        match address.checked_add(size) {
            Some(end) if end <= self.size => None,
            _ => Some(MemFault { address, size, store }),
        }
    }

    fn load(&self, address: u64, width: MemWidth) -> Result<u64, MemFault> {
        if let Some(fault) = self.fault(address, width, false) {
            return Err(fault);
        }
        let mut value = 0u64;
        for i in (0..width.bytes()).rev() {
            value = value << 8 | u64::from(self.bytes.get(&(address + i)).copied().unwrap_or(0));
        }
        Ok(value)
    }

    fn store(&mut self, address: u64, width: MemWidth, value: u64) -> Result<(), MemFault> {
        if let Some(fault) = self.fault(address, width, true) {
            return Err(fault);
        }
        for i in 0..width.bytes() {
            self.bytes.insert(address + i, (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Writes `rd` (never `r0`) and returns the event's destination.
    fn set(&mut self, rd: Reg, value: u64) -> Option<(Reg, u64)> {
        if rd != Reg::R0 {
            self.regs[rd.index()] = value;
        }
        Some((rd, self.regs[rd.index()]))
    }
}

fn sign_extend(value: u64, width: MemWidth) -> u64 {
    let unused = 64 - 8 * width.bytes();
    (((value << unused) as i64) >> unused) as u64
}

fn reference(case: &Case) -> Trace {
    let code = case.code();
    let mut r = Reference { size: memory_size(), regs: [0; Reg::COUNT], bytes: HashMap::new() };
    r.regs[Reg::SP.index()] = r.size & !0xf;
    for (address, &b) in (DATA_BASE..).zip(&case.data) {
        r.bytes.insert(address, b);
    }
    let mut counts = vec![0u64; code.len()];
    let mut events = Vec::new();
    let budget = case.budget();
    let mut pc = 0u32;
    let result = loop {
        if events.len() as u64 >= budget {
            break Err(SimError::BudgetExhausted { budget });
        }
        let instr = code[pc as usize];
        let (mut dest, mut mem) = (None, None);
        let mut next = pc + 1;
        match instr {
            Instruction::Alu { op, rd, rs, rt } => {
                dest = r.set(rd, alu_eval(op, r.regs[rs.index()], r.regs[rt.index()]));
            }
            Instruction::AluImm { op, rd, rs, imm } => {
                let logic = matches!(op, AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor);
                let b = if logic { u64::from(imm as u16) } else { i64::from(imm) as u64 };
                dest = r.set(rd, alu_eval(op, r.regs[rs.index()], b));
            }
            Instruction::Lui { rd, imm } => dest = r.set(rd, u64::from(imm) << 16),
            Instruction::Fp { op, rd, rs, rt } => {
                dest = r.set(rd, fp_eval(op, r.regs[rs.index()], r.regs[rt.index()]));
            }
            Instruction::Load { rd, base, offset, width }
            | Instruction::LoadSigned { rd, base, offset, width } => {
                let address = r.regs[base.index()].wrapping_add(i64::from(offset) as u64);
                let raw = match r.load(address, width) {
                    Ok(raw) => raw,
                    Err(fault) => break Err(SimError::Mem(fault)),
                };
                let value = match instr {
                    Instruction::LoadSigned { .. } => sign_extend(raw, width),
                    _ => raw,
                };
                dest = r.set(rd, value);
                mem = Some(MemAccess { address, value, store: false, width });
            }
            Instruction::Store { rs, base, offset, width } => {
                let address = r.regs[base.index()].wrapping_add(i64::from(offset) as u64);
                let value = r.regs[rs.index()];
                if let Err(fault) = r.store(address, width, value) {
                    break Err(SimError::Mem(fault));
                }
                mem = Some(MemAccess { address, value, store: true, width });
            }
            Instruction::Sys { call: Syscall::Exit } => next = pc,
            other => unreachable!("not generated: {other:?}"),
        }
        counts[pc as usize] += 1;
        events.push(InstrEvent { index: pc, instr, dest, mem, taken: None, next_index: next });
        if next == pc {
            let exit_code = r.regs[Reg::A0.index()] as i64;
            let instructions = events.len() as u64;
            break Ok(RunOutcome { exit_code, instructions, output: Vec::new() });
        }
        pc = next;
    };
    Trace { events, result, counts, regs: r.regs.to_vec() }
}

proptest! {
    #[test]
    fn step_matches_reference_interpreter(case in arb_case()) {
        prop_assert_eq!(emulate(&case), reference(&case));
    }
}
