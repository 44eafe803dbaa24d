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
