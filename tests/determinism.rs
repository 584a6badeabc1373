//! Determinism of the debugger: identical seeds must yield bit-for-bit
//! identical reports across repeated runs, across the serial/parallel
//! switch, and across thread counts (`RAYON_NUM_THREADS`).
//!
//! The parallel ensemble engine seeds every noisy trajectory from
//! `(seed, breakpoint, shot)` alone, so scheduling must never leak into
//! the statistics.

use qdb::algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb::algos::Gf2m;
use qdb::circuit::{GateSink, Program};
use qdb::core::{DebugReport, Debugger, EnsembleConfig};
use qdb::sim::NoiseModel;

fn noisy_bell_program() -> Program {
    let mut p = Program::new();
    let q = p.alloc_register("q", 2);
    let anc = p.alloc_register("anc", 1);
    p.h(q.bit(0));
    p.cx(q.bit(0), q.bit(1));
    let a = qdb::circuit::QReg::new("a", vec![q.bit(0)]);
    let b = qdb::circuit::QReg::new("b", vec![q.bit(1)]);
    p.assert_entangled(&a, &b);
    let anc_view = qdb::circuit::QReg::new("anc_view", vec![anc.bit(0)]);
    p.assert_product(&a, &anc_view);
    p
}

fn config() -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(128)
        .with_seed(0x00D5_EAD5)
        .with_noise(NoiseModel::depolarizing(0.01).with_readout_flip(0.02))
}

fn assert_identical(a: &DebugReport, b: &DebugReport, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report counts differ");
    for (x, y) in a.reports().iter().zip(b.reports()) {
        assert_eq!(x.index, y.index, "{what}");
        assert_eq!(x.verdict, y.verdict, "{what}: verdict at {}", x.index);
        assert_eq!(x.exact, y.exact, "{what}: exact verdict at {}", x.index);
        assert_eq!(x.shots, y.shots, "{what}");
        assert_eq!(x.dof, y.dof, "{what}: dof at {}", x.index);
        assert_eq!(
            x.p_value.to_bits(),
            y.p_value.to_bits(),
            "{what}: p-value at {} ({} vs {})",
            x.index,
            x.p_value,
            y.p_value
        );
        assert_eq!(
            x.statistic.to_bits(),
            y.statistic.to_bits(),
            "{what}: statistic at {}",
            x.index
        );
    }
    assert_eq!(
        a.to_string(),
        b.to_string(),
        "{what}: rendered reports differ"
    );
}

/// One test covers every determinism axis so the `RAYON_NUM_THREADS`
/// mutation cannot race a sibling test in this binary.
#[test]
fn debug_reports_are_bit_for_bit_reproducible() {
    for program in [noisy_bell_program(), {
        let field = Gf2m::standard(3);
        grover_program(
            &field,
            6,
            GroverStyle::Manual,
            optimal_iterations(field.order()),
        )
        .0
    }] {
        // Axis 1: repeated runs of the same configuration.
        let first = Debugger::new(config()).run(&program).unwrap();
        let second = Debugger::new(config()).run(&program).unwrap();
        assert_identical(&first, &second, "repeated runs");

        // Axis 2: serial vs parallel execution paths.
        let serial = Debugger::new(config().with_parallel(false))
            .run(&program)
            .unwrap();
        assert_identical(&first, &serial, "serial vs parallel");

        // Axis 3: one worker thread vs the default pool. The rayon
        // shim re-reads RAYON_NUM_THREADS per call, so this exercises
        // the single-thread scheduling path in-process.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let one_thread = Debugger::new(config()).run(&program);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_identical(&first, &one_thread.unwrap(), "RAYON_NUM_THREADS=1");
    }
}

/// Different seeds must actually change the ensemble (guards against a
/// seed that is silently ignored, which would make the determinism
/// assertions above vacuous).
#[test]
fn different_seeds_produce_different_ensembles() {
    let program = noisy_bell_program();
    let a = Debugger::new(config().with_seed(1)).run(&program).unwrap();
    let b = Debugger::new(config().with_seed(2)).run(&program).unwrap();
    let bits_a: Vec<u64> = a.reports().iter().map(|r| r.p_value.to_bits()).collect();
    let bits_b: Vec<u64> = b.reports().iter().map(|r| r.p_value.to_bits()).collect();
    assert_ne!(bits_a, bits_b, "seed must steer the ensemble");
}
