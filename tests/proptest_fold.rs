//! Property test: specialization preserves behaviour on *randomly
//! generated* programs.
//!
//! For arbitrary pure ALU chains consuming a loaded value, the guarded
//! fast path built by `vp-specialize` (constant folding + liveness-pruned
//! materialization + guard) must produce bit-identical results — whether
//! the guard value is correct or wrong.

use proptest::prelude::*;
use value_profiling::sim::{InputSet, Machine, MachineConfig};
use value_profiling::specialize::{estimate, specialize, Candidate};

/// One generated chain instruction: register-immediate or register-register
/// ALU over the scratch registers r2..=r7.
#[derive(Debug, Clone)]
enum ChainOp {
    Imm { op: &'static str, rd: u8, rs: u8, imm: i16 },
    Reg { op: &'static str, rd: u8, rs: u8, rt: u8 },
}

const OPS: [&str; 16] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "nor", "sll", "srl", "sra", "slt",
    "sltu", "seq", "sne",
];

fn arb_chain_op() -> impl Strategy<Value = ChainOp> {
    let reg = 2u8..8;
    prop_oneof![
        (0usize..OPS.len(), reg.clone(), reg.clone(), any::<i16>())
            .prop_map(|(o, rd, rs, imm)| ChainOp::Imm { op: OPS[o], rd, rs, imm }),
        (0usize..OPS.len(), reg.clone(), reg.clone(), reg)
            .prop_map(|(o, rd, rs, rt)| ChainOp::Reg { op: OPS[o], rd, rs, rt }),
    ]
}

fn render(ops: &[ChainOp]) -> String {
    ops.iter()
        .map(|op| match op {
            ChainOp::Imm { op, rd, rs, imm } => format!("            {op}i r{rd}, r{rs}, {imm}"),
            ChainOp::Reg { op, rd, rs, rt } => format!("            {op} r{rd}, r{rs}, r{rt}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn build_program(chain: &[ChainOp], loaded_value: u64) -> value_profiling::asm::Program {
    // The chain runs in a loop; all scratch registers are folded into the
    // exit code, so any folding error is observable.
    let src = format!(
        r#"
        .data
        x: .quad {loaded_value}
        .text
        main:
            la  r8, x
            li  r9, 10
        loop:
            ldd r2, 0(r8)
{}
            xor r20, r2, r3
            xor r20, r20, r4
            xor r20, r20, r5
            xor r20, r20, r6
            xor r20, r20, r7
            add r21, r21, r20
            addi r9, r9, -1
            bnz r9, loop
            andi a0, r21, 255
            sys exit
        "#,
        render(chain)
    );
    value_profiling::asm::assemble(&src).expect("generated program assembles")
}

fn run(program: &value_profiling::asm::Program) -> (i64, u64) {
    let mut m = Machine::new(program.clone(), MachineConfig::new().input(InputSet::empty()))
        .expect("machine");
    let out = m.run(1_000_000).expect("run");
    (out.exit_code, out.instructions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Specializing on the value the load actually produces keeps the
    /// result identical and never executes more instructions than the
    /// always-slow-path (wrong-value) variant.
    #[test]
    fn specialization_preserves_random_chains(
        chain in prop::collection::vec(arb_chain_op(), 1..12),
        value in any::<u64>(),
    ) {
        let program = build_program(&chain, value);
        let load_index = program
            .code()
            .iter()
            .position(|i| i.is_load())
            .expect("has load") as u32;
        let (base_code, _) = run(&program);

        let right = Candidate { load_index, values: vec![value], invariance: 1.0, executions: 10 };
        let specialized = specialize(&program, &right).expect("specialize");
        let (spec_code, _) = run(&specialized);
        prop_assert_eq!(base_code, spec_code, "fast path changed the result");

        let wrong = Candidate {
            load_index,
            values: vec![value.wrapping_add(1)],
            invariance: 1.0,
            executions: 10,
        };
        let slow = specialize(&program, &wrong).expect("specialize wrong");
        let (slow_code, _) = run(&slow);
        prop_assert_eq!(base_code, slow_code, "slow path changed the result");
    }

    /// Whenever the cost estimate predicts a net gain (the condition the
    /// planner enforces), the fast path really does run fewer
    /// instructions than the guard-missing slow path.
    #[test]
    fn estimate_predicts_fast_path_cost(
        chain in prop::collection::vec(arb_chain_op(), 2..12),
        value in any::<u64>(),
    ) {
        let program = build_program(&chain, value);
        let load_index =
            program.code().iter().position(|i| i.is_load()).expect("has load") as u32;
        let est = estimate(&program, load_index, value).expect("is a load");
        prop_assert!(est.consumed >= chain.len(), "region covers the chain");
        let right = Candidate { load_index, values: vec![value], invariance: 1.0, executions: 10 };
        let wrong = Candidate {
            load_index,
            values: vec![value.wrapping_add(1)],
            invariance: 1.0,
            executions: 10,
        };
        let (_, fast) = run(&specialize(&program, &right).expect("specialize"));
        let (_, slow) = run(&specialize(&program, &wrong).expect("specialize wrong"));
        if est.net_gain() > 0 {
            prop_assert!(fast < slow, "estimated gain {} but fast {fast} >= slow {slow}", est.net_gain());
        }
        if est.net_gain() < 0 {
            prop_assert!(fast > slow, "estimated loss {} but fast {fast} <= slow {slow}", est.net_gain());
        }
    }
}
