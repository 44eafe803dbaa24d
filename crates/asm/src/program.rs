//! The [`Program`] produced by the assembler: code, initial data image,
//! symbol table and procedure table.
//!
//! The procedure table plays the role of the symbol-table information ATOM
//! used on Alpha executables: it is what lets the instrumentation layer
//! iterate `program → procedures → basic blocks → instructions`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use vp_isa::{Instruction, INSTR_BYTES};

/// Byte address where the data segment is loaded in the emulator's memory.
/// Text addresses (as produced by `jal`/`jr` link values and `la` on code
/// labels) live below this base, so the two never collide.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Which segment a symbol points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Code: symbol value is an instruction *byte* address (`index * 4`).
    Text,
    /// Data: symbol value is an absolute byte address (`DATA_BASE + off`).
    Data,
}

/// A labelled location in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbol {
    /// Segment the symbol lives in.
    pub section: Section,
    /// Absolute byte address (see [`Section`] for the address space).
    pub address: u64,
}

/// A procedure: a named, contiguous range of instructions, declared in
/// assembly with `.proc name` / `.endp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// Instruction-index range `[start, end)` within [`Program::code`].
    pub range: Range<u32>,
}

impl Procedure {
    /// Whether the given instruction index belongs to this procedure.
    pub fn contains(&self, index: u32) -> bool {
        self.range.contains(&index)
    }

    /// Entry byte address of the procedure.
    pub fn entry_address(&self) -> u64 {
        u64::from(self.range.start) * INSTR_BYTES
    }
}

/// An assembled program: the executable object the emulator loads and the
/// instrumentation layer queries.
#[derive(Debug, Clone, Default)]
pub struct Program {
    code: Vec<Instruction>,
    data: Vec<u8>,
    symbols: BTreeMap<String, Symbol>,
    procedures: Vec<Procedure>,
    entry: u32,
}

impl Program {
    /// Builds a program from raw parts. Intended for the assembler and for
    /// program transformers (e.g. the specializer); most users obtain
    /// programs from [`vp_asm::assemble`](fn@crate::assemble).
    pub fn from_parts(
        code: Vec<Instruction>,
        data: Vec<u8>,
        symbols: BTreeMap<String, Symbol>,
        procedures: Vec<Procedure>,
        entry: u32,
    ) -> Program {
        Program { code, data, symbols, procedures, entry }
    }

    /// The instruction sequence (index = word address / 4).
    pub fn code(&self) -> &[Instruction] {
        &self.code
    }

    /// Initial data image, loaded at [`DATA_BASE`].
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Symbol table (labels).
    pub fn symbols(&self) -> &BTreeMap<String, Symbol> {
        &self.symbols
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name).copied()
    }

    /// Declared procedures, in program order.
    pub fn procedures(&self) -> &[Procedure] {
        &self.procedures
    }

    /// Finds the procedure containing an instruction index.
    pub fn procedure_at(&self, index: u32) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.contains(index))
    }

    /// Finds a procedure by name.
    pub fn procedure(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name == name)
    }

    /// Entry instruction index (the `main` label if present, else 0).
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Returns a copy with one instruction replaced (used by program
    /// transformers). Panics if `index` is out of range.
    pub fn with_replaced(&self, index: usize, instr: Instruction) -> Program {
        let mut p = self.clone();
        p.code[index] = instr;
        p
    }

    /// Encodes the code section to binary words (the on-disk object format).
    pub fn encode_text(&self) -> Vec<u32> {
        self.code.iter().map(|i| i.encode()).collect()
    }
}

impl fmt::Display for Program {
    /// Disassembly listing with procedure headers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (idx, instr) in self.code.iter().enumerate() {
            if let Some(p) = self.procedures.iter().find(|p| p.range.start == idx as u32) {
                writeln!(f, "{}:", p.name)?;
            }
            writeln!(f, "  {idx:6}: {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::Reg;

    fn tiny() -> Program {
        let code = vec![
            Instruction::AluImm { op: vp_isa::AluOp::Add, rd: Reg::R1, rs: Reg::R0, imm: 1 },
            Instruction::Jr { rs: Reg::RA },
        ];
        let procs = vec![Procedure { name: "main".into(), range: 0..2 }];
        Program::from_parts(code, vec![1, 2, 3], BTreeMap::new(), procs, 0)
    }

    #[test]
    fn accessors() {
        let p = tiny();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.data(), &[1, 2, 3]);
        assert_eq!(p.entry(), 0);
        assert_eq!(p.procedure("main").unwrap().range, 0..2);
        assert_eq!(p.procedure_at(1).unwrap().name, "main");
        assert!(p.procedure_at(2).is_none());
    }

    #[test]
    fn procedure_entry_address() {
        let p = Procedure { name: "f".into(), range: 5..9 };
        assert_eq!(p.entry_address(), 20);
        assert!(p.contains(5));
        assert!(p.contains(8));
        assert!(!p.contains(9));
    }

    #[test]
    fn with_replaced() {
        let p = tiny();
        let q = p.with_replaced(0, Instruction::Nop);
        assert_eq!(q.code()[0], Instruction::Nop);
        assert_eq!(p.code()[0], tiny().code()[0]);
    }

    #[test]
    fn display_listing() {
        let text = tiny().to_string();
        assert!(text.contains("main:"));
        assert!(text.contains("jr r30"));
    }
}
