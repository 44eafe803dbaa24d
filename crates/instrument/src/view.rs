//! Static program queries: the `program → procedure → basic block →
//! instruction` hierarchy ATOM exposed to instrumentation tools.

use vp_asm::{Procedure, Program};
use vp_isa::Instruction;
use vp_sim::Cfg;

/// A reference to one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrRef {
    /// Instruction index in the program text.
    pub index: u32,
    /// The instruction.
    pub instr: Instruction,
}

/// A procedure of a [`ProgramView`]'s program.
#[derive(Debug, Clone)]
pub struct ProcView<'p> {
    proc: &'p Procedure,
    program: &'p Program,
}

impl<'p> ProcView<'p> {
    /// Procedure name.
    pub fn name(&self) -> &str {
        &self.proc.name
    }

    /// The underlying procedure record.
    pub fn procedure(&self) -> &Procedure {
        self.proc
    }

    /// Instructions of the procedure, in order.
    pub fn instructions(&self) -> impl Iterator<Item = InstrRef> + '_ {
        let code = self.program.code();
        self.proc.range.clone().map(move |index| InstrRef { index, instr: code[index as usize] })
    }
}

/// The static view of a program, built once and queried many times — the
/// equivalent of ATOM's instrumentation-time object queries.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_instrument::ProgramView;
///
/// let program = vp_asm::assemble(
///     ".text\n.proc main\nmain: li r1, 1\n sys exit\n.endp\n",
/// )?;
/// let view = ProgramView::new(&program);
/// let main = view.procedures().next().unwrap();
/// assert_eq!(main.name(), "main");
/// assert_eq!(main.instructions().count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramView<'p> {
    program: &'p Program,
    cfg: Cfg,
}

impl<'p> ProgramView<'p> {
    /// Builds the view (discovers basic blocks).
    pub fn new(program: &'p Program) -> ProgramView<'p> {
        ProgramView { program, cfg: Cfg::build(program) }
    }

    /// The underlying program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The discovered control-flow structure.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Iterates over declared procedures.
    pub fn procedures(&self) -> impl Iterator<Item = ProcView<'p>> + '_ {
        self.program.procedures().iter().map(move |proc| ProcView { proc, program: self.program })
    }

    /// Iterates over every static instruction.
    pub fn instructions(&self) -> impl Iterator<Item = InstrRef> + 'p {
        self.program
            .code()
            .iter()
            .enumerate()
            .map(|(i, &instr)| InstrRef { index: i as u32, instr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        vp_asm::assemble(
            r#"
            .data
            x: .quad 5
            .text
            main:
                la  r1, x
                ldd r2, 0(r1)
                call f
                sys exit
            .proc f
            f:
                add r3, r2, r2
                ret
            .endp
            "#,
        )
        .unwrap()
    }

    #[test]
    fn hierarchy() {
        let p = sample();
        let view = ProgramView::new(&p);
        let procs: Vec<_> = view.procedures().collect();
        assert_eq!(procs.len(), 1);
        assert_eq!(procs[0].name(), "f");
        assert_eq!(procs[0].instructions().count(), 2);
        assert_eq!(procs[0].procedure().name, "f");
    }

    #[test]
    fn instruction_filters() {
        let p = sample();
        let view = ProgramView::new(&p);
        assert_eq!(view.instructions().count(), p.len());
        assert_eq!(view.program().len(), p.len());
        assert!(!view.cfg().blocks().is_empty());
    }
}
