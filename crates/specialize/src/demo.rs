//! The specialization demonstration kernels used by experiments E13 and
//! E17.
//!
//! [`program`] is modelled on the paper's m88ksim case study: a
//! simulator-style loop reloads a configuration word from memory on every
//! iteration and decodes against it through a chain of pure ALU
//! operations. The input stream can occasionally rewrite the
//! configuration, making the load *semi*-invariant with a controllable
//! invariance level.
//!
//! [`bimodal_program`] has a load that alternates between two values,
//! the distribution where a guard chain of two values beats one.

use vp_asm::Program;
use vp_sim::InputSet;

/// The kernel's assembly source.
pub fn source() -> String {
    r#"
    .data
    config: .quad 0x1234
    .text
    .proc main
    main:
        la   r10, config
        sys  getinput             # N = iterations
        mov  r9, v0
        li   r18, 0               # checksum
    loop:
        bz   r9, done
        sys  getinput             # 0 = keep config, else new config value
        bz   v0, keep
        std  v0, 0(r10)
    keep:
        ldd  r2, 0(r10)           # the semi-invariant configuration load
        srli r3, r2, 3            # ... feeding a pure decode chain
        andi r3, r3, 1023
        muli r4, r3, 37
        addi r4, r4, 11
        xori r5, r4, 0x5a
        slli r6, r5, 2
        add  r7, r6, r4
        srli r8, r7, 1
        add  r18, r18, r8         # accumulate (r18 varies)
        addi r9, r9, -1
        j    loop
    done:
        andi a0, r18, 255
        sys  exit
    .endp
    "#
    .to_string()
}

/// Assembles the kernel.
///
/// # Panics
///
/// Panics if the built-in source fails to assemble (covered by tests).
pub fn program() -> Program {
    vp_asm::assemble(&source()).expect("demo kernel assembles")
}

/// Builds an input with `iterations` loop trips where the configuration is
/// *perturbed* every `change_period` iterations (0 = never): set to a fresh
/// value for one iteration, then restored to the base configuration.
/// Smaller periods mean lower load invariance (roughly `1 - 1/period`).
pub fn input(iterations: u64, change_period: u64) -> InputSet {
    const BASE_CONFIG: u64 = 0x1234;
    let mut values = vec![iterations];
    for i in 0..iterations {
        if change_period != 0 && i > 0 && i % change_period == 0 {
            values.push(0x4000 + i); // transient perturbation
        } else if change_period != 0 && i > 0 && i % change_period == 1 {
            values.push(BASE_CONFIG); // restore the base configuration
        } else {
            values.push(0); // keep
        }
    }
    InputSet::named(format!("demo-p{change_period}"), values)
}

/// Instruction index of the configuration load in [`program`].
///
/// # Panics
///
/// Panics if the kernel unexpectedly has no load (covered by tests).
pub fn config_load_index(program: &Program) -> u32 {
    program.code().iter().position(|i| i.is_load()).expect("kernel has a load") as u32
}

/// The E17 kernel, run for `iterations` loop trips: a bimodal load (80
/// on 60 % of executions, 120 on 40 %) feeding a long pure chain.
///
/// # Panics
///
/// Panics if the built-in source fails to assemble (covered by tests).
pub fn bimodal_program(iterations: u64) -> Program {
    vp_asm::assemble(&format!(
        r#"
    .data
    which: .quad 0
    vals:  .quad 80, 120
    .text
    main:
        la  r10, which
        la  r11, vals
        li  r9, {iterations}
        li  r18, 0
    loop:
        ldd  r12, 0(r10)     # flip `which` with duty cycle 3:2
        addi r12, r12, 1
        remi r12, r12, 5
        std  r12, 0(r10)
        slti r13, r12, 3
        xori r13, r13, 1
        slli r13, r13, 3
        add  r13, r13, r11
        ldd  r2, 0(r13)      # the bimodal load: 80 (60%) or 120 (40%)
        srli r3, r2, 2
        muli r3, r3, 7
        addi r3, r3, 3
        xori r3, r3, 44
        slli r4, r3, 1
        add  r5, r4, r3
        srli r5, r5, 1
        andi r5, r5, 2047
        muli r5, r5, 13
        addi r5, r5, 29
        xori r5, r5, 333
        srli r5, r5, 1
        add  r18, r18, r5
        addi r9, r9, -1
        bnz  r9, loop
        andi a0, r18, 255
        sys  exit
    "#
    ))
    .expect("bimodal kernel assembles")
}

/// Instruction index of the bimodal load in [`bimodal_program`] (the
/// loop's second load, after the one that reads `which`).
///
/// # Panics
///
/// Panics if the kernel unexpectedly has fewer than two loads.
pub fn bimodal_load_index(program: &Program) -> u32 {
    program.code().iter().enumerate().filter(|(_, i)| i.is_load()).nth(1).expect("bimodal load").0
        as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{Machine, MachineConfig};

    #[test]
    fn kernel_runs() {
        let p = program();
        let cfg = MachineConfig::new().input(input(500, 0));
        let out = Machine::new(p, cfg).unwrap().run(1_000_000).unwrap();
        assert!(out.instructions > 500 * 10);
    }

    #[test]
    fn change_period_controls_invariance() {
        use vp_core::{track::TrackerConfig, InstructionProfiler};
        use vp_instrument::{Instrumenter, Selection};
        let p = program();
        let idx = config_load_index(&p);
        let inv_of = |period: u64| {
            let mut prof = InstructionProfiler::new(TrackerConfig::with_full());
            Instrumenter::new()
                .select(Selection::LoadsOnly)
                .run(&p, MachineConfig::new().input(input(2_000, period)), 10_000_000, &mut prof)
                .unwrap();
            prof.metrics_for(idx).unwrap().inv_all1.unwrap()
        };
        let never = inv_of(0);
        let rare = inv_of(200);
        let often = inv_of(5);
        assert!(never > 0.999, "never: {never}");
        assert!(rare > 0.95 && rare < never, "rare: {rare}");
        assert!(often < rare, "often: {often}, rare: {rare}");
    }
}
