//! The [`Program`] produced by the assembler: code, initial data image,
//! symbol table and procedure table.
//!
//! The procedure table plays the role of the symbol-table information ATOM
//! used on Alpha executables: it is what lets the instrumentation layer
//! iterate `program → procedures → basic blocks → instructions`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use vp_isa::Instruction;

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
    #[inline]
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
    }

    #[test]
    fn procedure_contains_its_range() {
        let p = Procedure { name: "f".into(), range: 5..9 };
        assert!(p.contains(5));
        assert!(p.contains(8));
        assert!(!p.contains(9));
    }

    #[test]
    fn display_listing() {
        let text = tiny().to_string();
        assert!(text.contains("main:"));
        assert!(text.contains("jr r30"));
    }
}
