//! Failure injection: instrumented runs that fault must surface the fault
//! and leave the analysis with exactly the events that happened before it.

use vp_instrument::{Analysis, Instrumenter, Selection, VALUE_BLOCK};
use vp_sim::{InstrEvent, Machine, MachineConfig, SimError};

#[derive(Default)]
struct Counter(u64);

impl Analysis for Counter {
    fn after_instr(&mut self, _m: &Machine, _ev: &InstrEvent) {
        self.0 += 1;
    }
}

#[test]
fn memory_fault_mid_run() {
    // Third instruction faults (load far out of bounds via negative base).
    let program =
        vp_asm::assemble(".text\nmain: li r1, 1\n li r2, -8\n ldd r3, 0(r2)\n sys exit\n").unwrap();
    let mut counter = Counter::default();
    let err =
        Instrumenter::new().run(&program, MachineConfig::new(), 1000, &mut counter).unwrap_err();
    assert!(matches!(err, SimError::Mem(_)), "{err}");
    // The two successful instructions were observed; the faulting one not.
    assert_eq!(counter.0, 2);
}

#[test]
fn budget_exhaustion_mid_run() {
    let program = vp_asm::assemble(".text\nmain: j main\n").unwrap();
    let mut counter = Counter::default();
    let err =
        Instrumenter::new().run(&program, MachineConfig::new(), 50, &mut counter).unwrap_err();
    assert_eq!(err, SimError::BudgetExhausted { budget: 50 });
    assert_eq!(counter.0, 50, "every executed instruction was observed");
}

#[test]
fn pc_escape_is_reported() {
    // Fall off the end of the text section (no sys exit).
    let program = vp_asm::assemble(".text\nmain: li r1, 1\n").unwrap();
    let mut counter = Counter::default();
    let err =
        Instrumenter::new().run(&program, MachineConfig::new(), 1000, &mut counter).unwrap_err();
    assert!(matches!(err, SimError::PcOutOfRange { .. }), "{err}");
}

#[test]
fn bad_indirect_jump_is_reported() {
    let program = vp_asm::assemble(".text\nmain: li r1, 6\n jr r1\n sys exit\n").unwrap();
    let mut counter = Counter::default();
    let err =
        Instrumenter::new().run(&program, MachineConfig::new(), 1000, &mut counter).unwrap_err();
    assert!(matches!(err, SimError::BadJumpTarget { address: 6 }), "{err}");
}

#[test]
fn image_too_large_is_reported() {
    let program = vp_asm::assemble(".data\nbuf: .space 64\n.text\nmain: sys exit\n").unwrap();
    let mut counter = Counter::default();
    let err = Instrumenter::new()
        .run(&program, MachineConfig::new().memory_size(1024), 1000, &mut counter)
        .unwrap_err();
    assert!(matches!(err, SimError::ImageTooLarge { .. }), "{err}");
    assert_eq!(counter.0, 0, "nothing executed");
}

/// Records the value stream through the runner's block path.
#[derive(Default)]
struct BlockRecorder {
    events: Vec<(u32, u64)>,
    blocks: usize,
}

impl Analysis for BlockRecorder {
    const VALUE_STREAM: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        assert!(!events.is_empty() && events.len() <= VALUE_BLOCK, "{} events", events.len());
        self.events.extend_from_slice(events);
        self.blocks += 1;
    }
}

/// Records the same stream one `after_instr` call at a time.
#[derive(Default)]
struct EventRecorder(Vec<(u32, u64)>);

impl Analysis for EventRecorder {
    fn after_instr(&mut self, _m: &Machine, ev: &InstrEvent) {
        if let Some((_, value)) = ev.dest {
            self.0.push((ev.index, value));
        }
    }
}

/// Runs `program` with both recorders and returns the block recorder,
/// after checking that both runs stop with the same error and the same
/// counts, and that the block recorder holds exactly the per-event stream.
fn record_both(program: &vp_asm::Program, budget: u64) -> (BlockRecorder, SimError) {
    let ins = Instrumenter::new().select(Selection::RegisterDefining);
    let mut blocks = BlockRecorder::default();
    let mut reference = EventRecorder::default();
    let err = ins.run(program, MachineConfig::new(), budget, &mut blocks).unwrap_err();
    let ref_err = ins.run(program, MachineConfig::new(), budget, &mut reference).unwrap_err();
    assert_eq!(err, ref_err);
    assert_eq!(blocks.events, reference.0, "the blocks are the per-event stream, in order");
    (blocks, err)
}

#[test]
fn value_stream_holds_exactly_the_events_before_a_fault() {
    // 1500 iterations of two register writes, then a load that faults:
    // just under three blocks of values precede the fault.
    let program = vp_asm::assemble(
        ".text\nmain: li r9, 1500\nloop: addi r1, r1, 3\n addi r9, r9, -1\n bnz r9, loop\n \
         li r2, -8\n ldd r3, 0(r2)\n sys exit\n",
    )
    .unwrap();
    let (rec, err) = record_both(&program, 1_000_000);
    assert!(matches!(err, SimError::Mem(_)), "{err}");
    assert_eq!(rec.events.len(), 1 + 2 * 1500 + 1);
    assert!(rec.events.len() > 2 * VALUE_BLOCK);
    assert_eq!(rec.blocks, rec.events.len().div_ceil(VALUE_BLOCK));
    assert_eq!(rec.events.last(), Some(&(4, u64::MAX - 7)), "`li r2, -8` is the last value");
}

#[test]
fn value_stream_is_flushed_at_budget_exhaustion_on_every_block_boundary() {
    // `addi` writes a register and `j` does not, so a budget of `2n - 1`
    // instructions stops after exactly `n` values.
    let program = vp_asm::assemble(".text\nmain: addi r1, r1, 1\n j main\n").unwrap();
    for n in [VALUE_BLOCK - 1, VALUE_BLOCK, VALUE_BLOCK + 1] {
        let budget = 2 * n as u64 - 1;
        let (rec, err) = record_both(&program, budget);
        assert_eq!(err, SimError::BudgetExhausted { budget });
        assert_eq!(rec.events.len(), n);
        assert_eq!(rec.blocks, n.div_ceil(VALUE_BLOCK), "n = {n}");
        assert!(rec.events.iter().enumerate().all(|(i, &e)| e == (0, i as u64 + 1)));
    }
}

/// A skip-gated value-stream recorder: after every block it asks the
/// runner to drop the next `n` register-writing executions of each
/// instruction in that block. It records what it was delivered, what it
/// asked for, what came back, and every procedure callback.
struct GatedRecorder {
    n: u32,
    events: Vec<(u32, u64)>,
    block: Vec<u32>,
    requested: u64,
    returned: Option<Vec<u32>>,
    procs: Vec<(bool, usize, u64)>,
}

impl GatedRecorder {
    fn new(n: u32) -> GatedRecorder {
        GatedRecorder {
            n,
            events: Vec::new(),
            block: Vec::new(),
            requested: 0,
            returned: None,
            procs: Vec::new(),
        }
    }
}

impl Analysis for GatedRecorder {
    const VALUE_STREAM: bool = true;
    const SKIP_GATE: bool = true;

    fn observe_values(&mut self, events: &[(u32, u64)]) {
        assert!(self.returned.is_none(), "no block after the hand-back");
        self.events.extend_from_slice(events);
        self.block = events.iter().map(|&(pc, _)| pc).collect();
    }

    fn request_skips(&mut self, skip: &mut [u32]) {
        self.block.sort_unstable();
        self.block.dedup();
        for &pc in &self.block {
            assert_eq!(skip[pc as usize], 0, "pc {pc} ran in the block, so nothing is pending");
            skip[pc as usize] = self.n;
            self.requested += u64::from(self.n);
        }
    }

    fn return_skips(&mut self, unconsumed: &[u32]) {
        assert!(self.returned.replace(unconsumed.to_vec()).is_none(), "handed back once");
    }

    fn on_proc_entry(&mut self, _m: &Machine, proc_index: usize, args: [u64; 4]) {
        self.procs.push((true, proc_index, args[0]));
    }

    fn on_proc_exit(&mut self, _m: &Machine, proc_index: usize, ret: u64) {
        self.procs.push((false, proc_index, ret));
    }
}

/// What a gated recorder asking for `n` skips per block must see of the
/// per-event `stream`: the delivered events and the unconsumed counts,
/// computed by dropping events from the stream by hand.
fn gate_model(stream: &[(u32, u64)], n: u32, code_len: usize) -> (Vec<(u32, u64)>, Vec<u32>) {
    let mut skip = vec![0u32; code_len];
    let (mut delivered, mut block) = (Vec::new(), Vec::new());
    for &(pc, value) in stream {
        if skip[pc as usize] > 0 {
            skip[pc as usize] -= 1;
            continue;
        }
        block.push((pc, value));
        if block.len() == VALUE_BLOCK {
            for &(pc, _) in &block {
                skip[pc as usize] = n;
            }
            delivered.append(&mut block);
        }
    }
    delivered.append(&mut block);
    (delivered, skip)
}

/// Runs `program` gated and per event, checks that both stop with the same
/// result and that the gated recorder holds exactly the model's events and
/// got back exactly the model's unconsumed counts, and returns it with the
/// run's error.
fn record_gated(program: &vp_asm::Program, budget: u64, n: u32) -> (GatedRecorder, SimError) {
    let ins = Instrumenter::new().select(Selection::RegisterDefining);
    let mut gated = GatedRecorder::new(n);
    let mut reference = EventRecorder::default();
    let err = ins.run(program, MachineConfig::new(), budget, &mut gated).unwrap_err();
    let ref_err = ins.run(program, MachineConfig::new(), budget, &mut reference).unwrap_err();
    assert_eq!(err, ref_err);
    let (delivered, unconsumed) = gate_model(&reference.0, n, program.code().len());
    assert_eq!(gated.events, delivered, "dropped executions are never delivered");
    let returned = gated.returned.clone().expect("the run handed the counts back");
    assert_eq!(returned, unconsumed, "the exact unconsumed counts come back");
    let pending: u64 = returned.iter().map(|&c| u64::from(c)).sum();
    let dropped = gated.requested - pending;
    assert_eq!(gated.events.len() as u64 + dropped, reference.0.len() as u64);
    (gated, err)
}

#[test]
fn gated_stream_hands_back_pending_skips_at_a_memory_fault() {
    // As above: just under three blocks of values, then a faulting load.
    // Each instruction asks for more skips than the loop has left.
    let program = vp_asm::assemble(
        ".text\nmain: li r9, 1500\nloop: addi r1, r1, 3\n addi r9, r9, -1\n bnz r9, loop\n \
         li r2, -8\n ldd r3, 0(r2)\n sys exit\n",
    )
    .unwrap();
    let (rec, err) = record_gated(&program, 1_000_000, 5_000);
    assert!(matches!(err, SimError::Mem(_)), "{err}");
    let returned = rec.returned.unwrap();
    // The first block is `li r9` and 1023 loop values: `addi r1` ran 512
    // times and `addi r9` 511. Every later loop execution was dropped.
    assert_eq!(&returned[1..3], &[5_000 - (1500 - 512), 5_000 - (1500 - 511)]);
    assert_eq!(rec.events.len(), VALUE_BLOCK + 1, "the first block, then `li r2`");
}

#[test]
fn gated_stream_hands_back_pending_skips_at_a_pc_escape() {
    // Falls off the end of the text after the loop, with skips pending.
    let program = vp_asm::assemble(
        ".text\nmain: li r9, 1500\nloop: addi r1, r1, 3\n addi r9, r9, -1\n bnz r9, loop\n \
         li r2, 5\n",
    )
    .unwrap();
    let (rec, err) = record_gated(&program, 1_000_000, 700);
    assert!(matches!(err, SimError::PcOutOfRange { .. }), "{err}");
    assert!(rec.returned.unwrap().iter().any(|&c| c > 0), "skips were pending at the escape");
}

#[test]
fn gated_stream_hands_back_pending_skips_at_budget_exhaustion() {
    // One register-writing instruction: a budget of `2v - 1` offers `v`
    // values. The first full block asks for 5 skips.
    let program = vp_asm::assemble(".text\nmain: addi r1, r1, 1\n j main\n").unwrap();
    for v in [VALUE_BLOCK - 1, VALUE_BLOCK, VALUE_BLOCK + 1] {
        let budget = 2 * v as u64 - 1;
        let (rec, err) = record_gated(&program, budget, 5);
        assert_eq!(err, SimError::BudgetExhausted { budget });
        let consumed = v.saturating_sub(VALUE_BLOCK) as u32;
        let expected = if v < VALUE_BLOCK { 0 } else { 5 - consumed };
        assert_eq!(rec.returned.unwrap(), vec![expected, 0], "v = {v}");
        assert_eq!(rec.events.len(), v.min(VALUE_BLOCK), "v = {v}");
    }
}

#[test]
fn gating_changes_neither_event_counts_nor_procedure_callbacks() {
    // A loop calling a procedure whose register writes are gated.
    let program = vp_asm::assemble(
        ".text\nmain: li r9, 3000\nloop: mov a0, r9\n call triple\n addi r9, r9, -1\n \
         bnz r9, loop\n li a0, 0\n sys exit\n.proc triple\ntriple: add v0, a0, a0\n \
         add v0, v0, a0\n ret\n.endp\n",
    )
    .unwrap();
    let ins = Instrumenter::new().select(Selection::All).with_procedures(true);
    let mut gated = GatedRecorder::new(1_000);
    let mut ungated = GatedRecorder::new(0);
    let run = ins.run(&program, MachineConfig::new(), 1_000_000, &mut gated).unwrap();
    let ref_run = ins.run(&program, MachineConfig::new(), 1_000_000, &mut ungated).unwrap();
    assert_eq!(run.outcome, ref_run.outcome);
    assert_eq!(run.counts, ref_run.counts, "EventCounts do not depend on the gate");
    assert!(gated.events.len() < ungated.events.len() / 2, "the gate dropped executions");
    assert_eq!(gated.procs.len(), 2 * 3000);
    assert_eq!(gated.procs, ungated.procs, "procedure callbacks fire for gated executions");
    assert_eq!(run.counts.entry_events, 3000);
    assert_eq!(run.counts.exit_events, 3000);
}
