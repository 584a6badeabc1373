//! Non-Clifford assertion checking at 30–60 qubits on the sparse backend.
//!
//! The dense statevector backend caps at 26 qubits, and the stabilizer
//! tableau only speaks Clifford — it cannot apply a T gate or a
//! controlled swap. But many of the programs worth debugging at scale
//! are *structured*: a Shor-style modular-exponentiation cascade keeps
//! the state spread over at most `2^counting` basis states no matter
//! how wide the work register is. The sparse backend stores exactly
//! those amplitudes, so its cost scales with the live support instead
//! of `2ⁿ` — and `BackendChoice::Auto` routes wide small-support
//! non-Clifford programs there automatically.
//!
//! Run with: `cargo run --release --example sparse_scale`

use std::time::Instant;

use qdb::algos::sparse::{
    coherent_fault_repetition_code_program, phase_drift_repetition_code_program,
    shor_style_period_program,
};
use qdb::core::{BackendChoice, Debugger, EnsembleConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Auto inspects the compiled plan: past the dense ceiling, a
    // program whose branching-gate count keeps the support small is
    // routed to the sparse tier; nothing downstream changes.
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_seed(2019)
        .with_backend(BackendChoice::Auto);
    let debugger = Debugger::new(config.clone());

    // --- 34-qubit Shor-style period finding. -----------------------------
    // A 5-qubit counting register drives controlled multiply-by-2
    // permutations of a 28-qubit work register: thousands of
    // controlled swaps, yet never more than 2⁵ live amplitudes.
    let period = shor_style_period_program(5, 28);
    let wall = Instant::now();
    let report = debugger.run(&period)?;
    println!(
        "34-qubit period finding ({} gates) checked in {:?}:",
        period.circuit().len(),
        wall.elapsed()
    );
    println!("{report}");
    assert!(report.all_passed());

    // The statevector backend cannot even allocate this program — and
    // the tableau rejects it as non-Clifford.
    let dense = Debugger::new(config.with_backend(BackendChoice::Statevector));
    let err = dense.run(&period).expect_err("2^34 amplitudes ≈ 256 GiB");
    println!("statevector backend, same program: {err}\n");

    // --- A coherent fault a bit-flip code is blind to. -------------------
    // rz drifts a data qubit's phase inside a 33-qubit repetition code:
    // the syndrome stays dark and every assertion passes — phase errors
    // are exactly what this code cannot see.
    let drift = phase_drift_repetition_code_program(17, 8, 0.9);
    let report = debugger.run(&drift)?;
    println!(
        "distance-17 repetition code, rz(0.9) phase drift: {}/{} assertions passed",
        report.len() - report.failures().len(),
        report.len(),
    );
    assert!(report.all_passed());

    // --- And one it hunts down. ------------------------------------------
    // ry(π/2) leaks half the amplitude into flipped branches: the
    // syndrome-0 claim fails decisively, statistically and exactly.
    let buggy = coherent_fault_repetition_code_program(17, 8, std::f64::consts::FRAC_PI_2);
    let report = debugger.run(&buggy)?;
    let failure = report.first_failure().expect("the fault must be caught");
    println!("same code, coherent ry(π/2) fault on data qubit 8:");
    println!("  first failing assertion: {failure}");
    Ok(())
}
