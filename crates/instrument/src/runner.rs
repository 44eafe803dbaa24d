//! Running programs with analyses attached.

use vp_asm::Program;
use vp_isa::{Instruction, Reg, Value};
use vp_sim::{ExecStats, InstrEvent, Machine, MachineConfig, MemAccess, RunOutcome, SimError};

use crate::plan::Selection;

/// Events per value-stream block: 1024 `(index, value)` pairs, 16 KiB.
/// Large enough that the per-block call vanishes, small enough that the
/// block stays in L1 while the analysis consumes it.
pub const VALUE_BLOCK: usize = 1024;

/// Instructions between two cooperative cancellation points of a run:
/// frequent enough that a hung (e.g. fault-injected) workload is cut
/// loose within milliseconds, rare enough to vanish from the run.
const CANCEL_EVERY: u64 = 4096;

/// An analysis tool: the instrumentation-time code of an ATOM tool.
///
/// All callbacks have empty default bodies, so an analysis implements only
/// the events it cares about. Callbacks receive the [`Machine`] *after* the
/// instruction executed (ATOM's "instrument after" point, which is where
/// the paper reads destination register values).
///
/// # Value-stream analyses
///
/// An analysis that reads nothing but each selected instruction's
/// destination value sets [`VALUE_STREAM`](Analysis::VALUE_STREAM). The
/// runner then buffers the `(instruction index, value)` pair of every
/// selected instruction that writes a register, in program order, and
/// hands the buffer to [`observe_values`](Analysis::observe_values) in
/// blocks of [`VALUE_BLOCK`] events, so emulation and analysis no longer
/// alternate on every instruction. The stream is never reordered,
/// partitioned or deduplicated: for an ungated analysis the concatenated
/// blocks are exactly the sequence a per-instruction `after_instr` would
/// have seen. The last, partial block is delivered before
/// [`Instrumenter::run`] returns, on success and on every error, so a run
/// that faults leaves the analysis holding exactly the values of the
/// instructions before the fault. Such an analysis receives no
/// `after_instr`, `on_load` or `on_store` calls; [`EventCounts`] are
/// unchanged. Procedure callbacks still fire as the calls happen, so they
/// are not ordered against the buffered values.
///
/// # Skip-gated value streams
///
/// A value-stream analysis that also sets [`SKIP_GATE`](Analysis::SKIP_GATE)
/// can switch its probe off per instruction. The runner keeps one skip
/// count per static instruction, all 0 at the start of a run. After each
/// full block, [`request_skips`](Analysis::request_skips) may raise the
/// counts; while an instruction's count is above 0, the runner drops that
/// instruction's register-writing executions without buffering them,
/// one per decrement. After the last block, on success and on every
/// error, [`return_skips`](Analysis::return_skips) hands back the counts
/// the run did not consume. The blocks are then the per-event sequence
/// minus exactly the dropped executions: an analysis that counts a drop
/// when it asks for it and uncounts the returned ones ends the run as if
/// it had seen every execution. No execution of an instruction arrives
/// while its count is above 0. Procedure callbacks and [`EventCounts`]
/// do not depend on the gate.
pub trait Analysis {
    /// Whether the analysis consumes the value stream in blocks through
    /// [`observe_values`](Analysis::observe_values) instead of the
    /// per-instruction callbacks. The runner branches on this constant,
    /// so the choice costs nothing at run time.
    const VALUE_STREAM: bool = false;

    /// Receives the next block of the value stream, in program order:
    /// one `(instruction index, destination value)` pair per selected
    /// instruction that wrote a register. Called only when
    /// [`VALUE_STREAM`](Analysis::VALUE_STREAM) is set.
    fn observe_values(&mut self, events: &[(u32, Value)]) {
        let _ = events;
    }

    /// Whether the analysis gates its value stream with per-instruction
    /// skip counts (see [the trait docs](Analysis#skip-gated-value-streams)).
    /// Read only when [`VALUE_STREAM`](Analysis::VALUE_STREAM) is set. Like
    /// `VALUE_STREAM` it is a constant, so an ungated analysis's loop
    /// carries no trace of the gate.
    const SKIP_GATE: bool = false;

    /// Called after each full block of a gated value stream. `skip` holds
    /// one count per static instruction; the runner drops as many of an
    /// instruction's next register-writing executions as its count says.
    /// An instruction that had an execution in the block just delivered
    /// has a count of 0.
    fn request_skips(&mut self, skip: &mut [u32]) {
        let _ = skip;
    }

    /// Called once at the end of a gated run, after the last block, with
    /// the counts the run did not consume: the executions that were
    /// requested but never happened.
    fn return_skips(&mut self, unconsumed: &[u32]) {
        let _ = unconsumed;
    }

    /// Called after every *selected* instruction executes (not for a
    /// value-stream analysis).
    fn after_instr(&mut self, machine: &Machine, event: &InstrEvent) {
        let _ = (machine, event);
    }

    /// Called after every selected load with its effective address/value
    /// (not for a value-stream analysis).
    fn on_load(&mut self, machine: &Machine, index: u32, access: &MemAccess) {
        let _ = (machine, index, access);
    }

    /// Called after every selected store with its effective address/value
    /// (not for a value-stream analysis).
    fn on_store(&mut self, machine: &Machine, index: u32, access: &MemAccess) {
        let _ = (machine, index, access);
    }

    /// Called when control enters a declared procedure via `jal`/`jalr`.
    /// `args` are the four argument registers at entry.
    fn on_proc_entry(&mut self, machine: &Machine, proc_index: usize, args: [Value; 4]) {
        let _ = (machine, proc_index, args);
    }

    /// Called when a procedure entered via `on_proc_entry` returns.
    /// `ret` is the return-value register `v0` at the return point.
    fn on_proc_exit(&mut self, machine: &Machine, proc_index: usize, ret: Value) {
        let _ = (machine, proc_index, ret);
    }
}

/// Counts of analysis invocations — the exact measure of profiling
/// overhead used in experiment E12 (the paper reported slowdowns of its
/// ATOM tools; the event counts are the machine-independent cause).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Selected instruction executions: `after_instr` invocations, or
    /// for a value-stream analysis the instructions it was offered.
    pub instr_events: u64,
    /// Selected loads (`on_load` invocations, or for a value-stream
    /// analysis the loads among its offered instructions).
    pub load_events: u64,
    /// Selected stores, counted like `load_events`.
    pub store_events: u64,
    /// `on_proc_entry` invocations.
    pub entry_events: u64,
    /// `on_proc_exit` invocations.
    pub exit_events: u64,
}

impl EventCounts {
    /// Total analysis invocations of any kind.
    pub fn total(&self) -> u64 {
        self.instr_events
            + self.load_events
            + self.store_events
            + self.entry_events
            + self.exit_events
    }
}

/// Result of an instrumented run.
#[derive(Debug, Clone)]
pub struct InstrumentedRun {
    /// The program's own outcome.
    pub outcome: RunOutcome,
    /// How many analysis events fired.
    pub counts: EventCounts,
    /// Dynamic execution statistics of the run.
    pub stats: ExecStats,
}

/// Configures and executes instrumented runs (the ATOM driver).
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use vp_instrument::{Analysis, Instrumenter, Selection};
///
/// struct Nothing;
/// impl Analysis for Nothing {}
///
/// let program = vp_asm::assemble(".text\nmain: sys exit\n")?;
/// let run = Instrumenter::new()
///     .select(Selection::None)
///     .run(&program, vp_sim::MachineConfig::new(), 100, &mut Nothing)?;
/// assert_eq!(run.counts.total(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Instrumenter {
    selection: Selection,
    procedures: bool,
}

impl Instrumenter {
    /// A new instrumenter that selects all instructions and does not
    /// instrument procedures.
    pub fn new() -> Instrumenter {
        Instrumenter { selection: Selection::All, procedures: false }
    }

    /// Sets which instructions receive `after_instr`/`on_load`/`on_store`.
    pub fn select(mut self, selection: Selection) -> Instrumenter {
        self.selection = selection;
        self
    }

    /// Enables procedure entry/exit instrumentation.
    pub fn with_procedures(mut self, yes: bool) -> Instrumenter {
        self.procedures = yes;
        self
    }

    /// Runs `program` under `config` with `analysis` attached, for at most
    /// `budget` instructions.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the emulator (including budget
    /// exhaustion).
    pub fn run<A: Analysis>(
        &self,
        program: &Program,
        config: MachineConfig,
        budget: u64,
        analysis: &mut A,
    ) -> Result<InstrumentedRun, SimError> {
        let selected = self.selection.resolve(program);
        let mut machine = Machine::new(program.clone(), config)?;
        let mut counts = EventCounts::default();
        // Shadow call stack: (procedure index, expected return instruction).
        let mut call_stack: Vec<(usize, u32)> = Vec::new();
        let procs = self.procedures;
        // A value-stream analysis's pending block; never allocated for the
        // others, where `A::VALUE_STREAM` folds every use of it away.
        let mut block: Vec<(u32, Value)> =
            Vec::with_capacity(if A::VALUE_STREAM { VALUE_BLOCK } else { 0 });
        // A gated analysis's per-instruction skip counts, beside `selected`.
        let gated = A::VALUE_STREAM && A::SKIP_GATE;
        let mut skip: Vec<u32> = vec![0; if gated { selected.len() } else { 0 }];

        // The step is compiled into the hook's loop, so the hook must stay
        // cheap. The run goes in slices of `CANCEL_EVERY` instructions with
        // a cancellation point between them, so the hook counts nothing.
        // It holds copies of the slices and flags it reads, so they stay
        // in the loop's registers. Its rare work (a full block, a call or
        // return under procedure instrumentation) is out of line and
        // takes the event's fields by value, so no event is stored to
        // memory unless the analysis reads it through a callback.
        let mut left = budget;
        let outcome = loop {
            let slice = left.min(CANCEL_EVERY);
            let (selected, block, skip) = (&selected[..], &mut block, &mut skip[..]);
            let (call_stack, counts, analysis) = (&mut call_stack, &mut counts, &mut *analysis);
            let hook = move |m: &Machine, event: &InstrEvent| {
                if selected.get(event.index as usize).copied().unwrap_or(false) {
                    if A::VALUE_STREAM {
                        if let Some((_, value)) = event.dest {
                            // `skip` covers the code, as `selected` does.
                            if gated && skip[event.index as usize] > 0 {
                                skip[event.index as usize] -= 1;
                            } else {
                                block.push((event.index, value));
                                if block.len() == VALUE_BLOCK {
                                    flush_block(analysis, block, skip);
                                }
                            }
                        }
                    } else {
                        analysis.after_instr(m, event);
                        if let Some(access) = &event.mem {
                            if access.store {
                                analysis.on_store(m, event.index, access);
                            } else {
                                analysis.on_load(m, event.index, access);
                            }
                        }
                    }
                }
                let call_or_return = matches!(
                    event.instr,
                    Instruction::Jal { .. } | Instruction::Jalr { .. } | Instruction::Jr { .. }
                );
                if procs && call_or_return {
                    let (instr, index, next) = (event.instr, event.index, event.next_index);
                    track_procedures(m, instr, index, next, call_stack, counts, analysis);
                }
            };
            match machine.run_with(slice, hook) {
                Ok(mut outcome) => {
                    outcome.instructions += budget - left;
                    break Ok(outcome);
                }
                Err(SimError::BudgetExhausted { .. }) if left > slice => {
                    left -= slice;
                    crate::cancel::checkpoint();
                }
                Err(SimError::BudgetExhausted { .. }) => {
                    break Err(SimError::BudgetExhausted { budget })
                }
                Err(e) => break Err(e),
            }
        };
        // The partial block goes out on every return path, faults and
        // budget exhaustion included, before the error propagates; then a
        // gated analysis takes back the skips the run did not consume.
        if !block.is_empty() {
            analysis.observe_values(&block);
        }
        if gated {
            analysis.return_skips(&skip);
        }
        let outcome = outcome?;

        let stats = machine.stats().clone();
        count_selected(program.code(), &selected, stats.per_instr(), &mut counts);
        Ok(InstrumentedRun { outcome, counts, stats })
    }
}

/// Hands a full value block to the analysis, then lets a gated analysis
/// raise its skip counts. Out of line: it runs once per [`VALUE_BLOCK`]
/// events.
#[cold]
#[inline(never)]
fn flush_block<A: Analysis>(analysis: &mut A, block: &mut Vec<(u32, Value)>, skip: &mut [u32]) {
    analysis.observe_values(block);
    block.clear();
    if A::SKIP_GATE {
        analysis.request_skips(skip);
    }
}

/// Adds the selected instructions' executions, and the loads and stores
/// among them, to `counts`. Each is a fixed function of the per-instruction
/// execution counts and the static program, so it is summed once here
/// rather than counted on every event.
fn count_selected(
    code: &[Instruction],
    selected: &[bool],
    per_instr: &[u64],
    counts: &mut EventCounts,
) {
    for ((instr, &on), &n) in code.iter().zip(selected).zip(per_instr) {
        if !on {
            continue;
        }
        counts.instr_events += n;
        if instr.is_load() {
            counts.load_events += n;
        } else if matches!(instr, Instruction::Store { .. }) {
            counts.store_events += n;
        }
    }
}

/// Fires the procedure callbacks of the call or return `instr` at
/// `index`, which continued at `next`. Out of line and given the event's
/// fields by value, so that the run loop neither carries this code nor
/// stores each event to memory for it.
#[inline(never)]
fn track_procedures<A: Analysis>(
    machine: &Machine,
    instr: Instruction,
    index: u32,
    next: u32,
    call_stack: &mut Vec<(usize, u32)>,
    counts: &mut EventCounts,
    analysis: &mut A,
) {
    let program = machine.program();
    match instr {
        Instruction::Jal { .. } | Instruction::Jalr { .. } => {
            if let Some(pos) = program.procedures().iter().position(|p| p.range.start == next) {
                let args = [
                    machine.reg(Reg::A0),
                    machine.reg(Reg::A1),
                    machine.reg(Reg::A2),
                    machine.reg(Reg::A3),
                ];
                call_stack.push((pos, index + 1));
                counts.entry_events += 1;
                analysis.on_proc_entry(machine, pos, args);
            }
        }
        Instruction::Jr { .. } => {
            if let Some(&(proc, ret_to)) = call_stack.last() {
                if ret_to == next {
                    call_stack.pop();
                    counts.exit_events += 1;
                    analysis.on_proc_exit(machine, proc, machine.reg(Reg::V0));
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALL_PROGRAM: &str = r#"
        .data
        x: .quad 7
        .text
        main:
            li  a0, 3
            call triple
            la  r8, x
            ldd r2, 0(r8)
            std r2, 0(r8)
            mov a0, v0
            sys exit
        .proc triple
        triple:
            add v0, a0, a0
            add v0, v0, a0
            ret
        .endp
    "#;

    #[derive(Default)]
    struct Recorder {
        instrs: Vec<u32>,
        loads: Vec<(u32, u64)>,
        stores: Vec<(u32, u64)>,
        entries: Vec<(usize, [u64; 4])>,
        exits: Vec<(usize, u64)>,
    }

    impl Analysis for Recorder {
        fn after_instr(&mut self, _m: &Machine, ev: &InstrEvent) {
            self.instrs.push(ev.index);
        }
        fn on_load(&mut self, _m: &Machine, index: u32, a: &MemAccess) {
            self.loads.push((index, a.value));
        }
        fn on_store(&mut self, _m: &Machine, index: u32, a: &MemAccess) {
            self.stores.push((index, a.value));
        }
        fn on_proc_entry(&mut self, _m: &Machine, p: usize, args: [u64; 4]) {
            self.entries.push((p, args));
        }
        fn on_proc_exit(&mut self, _m: &Machine, p: usize, ret: u64) {
            self.exits.push((p, ret));
        }
    }

    fn program() -> Program {
        vp_asm::assemble(CALL_PROGRAM).unwrap()
    }

    #[test]
    fn full_instrumentation_sees_everything() {
        let p = program();
        let mut rec = Recorder::default();
        let run = Instrumenter::new()
            .with_procedures(true)
            .run(&p, MachineConfig::new(), 10_000, &mut rec)
            .unwrap();
        assert_eq!(run.outcome.exit_code, 9);
        assert_eq!(rec.instrs.len() as u64, run.outcome.instructions);
        assert_eq!(rec.loads, vec![(4, 7)]);
        assert_eq!(rec.stores, vec![(5, 7)]);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].0, 0);
        assert_eq!(rec.entries[0].1[0], 3);
        assert_eq!(rec.exits, vec![(0, 9)]);
        assert_eq!(run.counts.entry_events, 1);
        assert_eq!(run.counts.exit_events, 1);
        assert_eq!(run.counts.load_events, 1);
        assert_eq!(run.counts.store_events, 1);
        assert!(run.counts.total() > 4);
    }

    #[test]
    fn loads_only_selection() {
        let p = program();
        let mut rec = Recorder::default();
        let run = Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(&p, MachineConfig::new(), 10_000, &mut rec)
            .unwrap();
        assert_eq!(rec.instrs.len(), 1);
        assert_eq!(rec.loads.len(), 1);
        assert!(rec.stores.is_empty()); // stores not selected
        assert!(rec.entries.is_empty()); // procedures off
        assert_eq!(run.counts.instr_events, 1);
    }

    #[test]
    fn none_selection_costs_nothing() {
        let p = program();
        let mut rec = Recorder::default();
        let run = Instrumenter::new()
            .select(Selection::None)
            .run(&p, MachineConfig::new(), 10_000, &mut rec)
            .unwrap();
        assert_eq!(run.counts.total(), 0);
        assert!(rec.instrs.is_empty());
        assert_eq!(run.outcome.exit_code, 9);
        assert_eq!(run.stats.total(), run.outcome.instructions);
    }

    /// Receives the value stream in blocks and nothing else.
    struct Blocks;

    impl Analysis for Blocks {
        const VALUE_STREAM: bool = true;
    }

    #[test]
    fn derived_counts_match_the_callbacks_on_the_suite() {
        for w in vp_workloads::suite() {
            let p = w.program();
            let every_third = (0..p.len() as u32).step_by(3).collect();
            let selections = [
                Selection::All,
                Selection::LoadsOnly,
                Selection::RegisterDefining,
                Selection::MemoryOps,
                Selection::Custom(every_third),
                Selection::None,
            ];
            for selection in selections {
                for procedures in [false, true] {
                    let at = format!("{} {selection:?} procedures={procedures}", w.name());
                    let ins =
                        Instrumenter::new().select(selection.clone()).with_procedures(procedures);
                    let cfg = || w.machine_config(vp_workloads::DataSet::Test);
                    let mut rec = Recorder::default();
                    let run = ins.run(p, cfg(), 100_000_000, &mut rec).unwrap();
                    let callbacks = EventCounts {
                        instr_events: rec.instrs.len() as u64,
                        load_events: rec.loads.len() as u64,
                        store_events: rec.stores.len() as u64,
                        entry_events: rec.entries.len() as u64,
                        exit_events: rec.exits.len() as u64,
                    };
                    assert_eq!(run.counts, callbacks, "{at}");
                    // A value-stream analysis is offered the same events.
                    let blocks = ins.run(p, cfg(), 100_000_000, &mut Blocks).unwrap();
                    assert_eq!(blocks.counts, callbacks, "{at}");
                }
            }
        }
    }

    #[test]
    fn recursive_procedure_tracking() {
        let src = r#"
            .text
            main:
                li a0, 3
                call down
                mov a0, v0
                sys exit
            .proc down
            down:
                addi sp, sp, -16
                std  ra, 0(sp)
                mov  v0, a0
                bz   a0, out
                addi a0, a0, -1
                call down
            out:
                ldd  ra, 0(sp)
                addi sp, sp, 16
                ret
            .endp
        "#;
        let p = vp_asm::assemble(src).unwrap();
        let mut rec = Recorder::default();
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(&p, MachineConfig::new(), 10_000, &mut rec)
            .unwrap();
        assert_eq!(rec.entries.len(), 4); // down(3), down(2), down(1), down(0)
        assert_eq!(rec.exits.len(), 4);
        assert_eq!(rec.entries[0].1[0], 3);
        assert_eq!(rec.entries[3].1[0], 0);
    }
}
