//! Quickstart: debug a Bell-state program with statistical assertions.
//!
//! Reproduces Figure 1 of the paper: create a Bell pair, assert that the
//! two measured qubits are entangled, and inspect the contingency-table
//! statistics behind the verdict.
//!
//! Run with: `cargo run --release --example quickstart`

use qdb::circuit::{GateSink, Program, QReg};
use qdb::core::{Debugger, EnsembleConfig};
use qdb::stats::ContingencyTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Write the program (the paper's Figure 1 circuit). -------------
    let mut program = Program::new();
    let q = program.alloc_register("q", 2);
    program.h(q.bit(0)); // superposition (B)
    program.cx(q.bit(0), q.bit(1)); // entanglement (C)

    // Quantum breakpoint: assert m0 and m1 will be correlated (D).
    let m0 = QReg::new("m0", vec![q.bit(0)]);
    let m1 = QReg::new("m1", vec![q.bit(1)]);
    program.assert_entangled(&m0, &m1);

    // --- Debug it. ------------------------------------------------------
    // The paper's smallest ensembles are 16 shots; use 64 here.
    let config = EnsembleConfig::default().with_shots(64).with_seed(2019);
    let debugger = Debugger::new(config);
    let report = debugger.run(&program)?;

    println!("{report}");
    assert!(report.all_passed(), "the Bell pair must test as entangled");

    // --- Peek under the hood: the contingency table itself. -------------
    let ensemble = debugger.runner().run_breakpoint(&program, 0)?;
    let pairs = ensemble
        .outcomes
        .iter()
        .map(|&o| (m0.value_of(o), m1.value_of(o)));
    let table = ContingencyTable::from_pairs(pairs);
    println!("Contingency table of (m0, m1) over 64 shots:");
    println!("{table}");
    let result = table.independence_test()?;
    println!(
        "chi-square = {:.3}, dof = {}, p = {:.2e}  →  {}",
        result.statistic,
        result.dof,
        result.p_value,
        if result.dependent(0.05) {
            "dependent: qubits were entangled"
        } else {
            "independent: no entanglement detected"
        }
    );
    Ok(())
}
