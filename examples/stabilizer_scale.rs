//! Assertion checking at 100+ qubits on the stabilizer backend.
//!
//! The dense statevector backend caps at 26 qubits (2²⁶ amplitudes ≈
//! 1 GiB); a 100-qubit register would need 2¹⁰⁰. But the circuits the
//! paper debugs most — GHZ ladders, teleportation, error-correcting
//! codes — are pure Clifford, and the Aaronson–Gottesman tableau
//! simulates those in polynomial time. With
//! `BackendChoice::Auto` the debugger routes Clifford programs there
//! automatically: the same `Program`, the same assertions, the same
//! reports, at qubit counts no dense simulator can touch.
//!
//! Run with: `cargo run --release --example stabilizer_scale`

use std::time::Instant;

use qdb::algos::clifford::{
    faulty_repetition_code_program, ghz_program, teleportation_chain_program,
};
use qdb::algos::PauliFault;
use qdb::core::{BackendChoice, Debugger, EnsembleConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Auto picks the stabilizer tableau for Clifford programs and the
    // dense statevector for everything else; nothing downstream changes.
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_seed(2019)
        .with_backend(BackendChoice::Auto);
    let debugger = Debugger::new(config.clone());

    // --- A 100-qubit GHZ ladder. ----------------------------------------
    let ghz = ghz_program(100);
    let wall = Instant::now();
    let report = debugger.run(&ghz)?;
    println!(
        "100-qubit GHZ ladder ({} gates) checked in {:?}:",
        ghz.circuit().len(),
        wall.elapsed()
    );
    println!("{report}");
    assert!(report.all_passed());

    // The statevector backend cannot even allocate this program.
    let dense = Debugger::new(config.with_backend(BackendChoice::Statevector));
    let err = dense.run(&ghz).expect_err("2^100 amplitudes cannot exist");
    println!("statevector backend, same program: {err}\n");

    // --- Teleport a payload across 49 hops (99 qubits). ------------------
    let chain = teleportation_chain_program(49);
    let wall = Instant::now();
    let report = debugger.run(&chain)?;
    println!(
        "49-hop teleportation chain: {}/{} assertions passed in {:?}\n",
        report.len() - report.failures().len(),
        report.len(),
        wall.elapsed()
    );
    assert!(report.all_passed());

    // --- Hunt an injected fault in a distance-51 repetition code. --------
    // The program claims its syndrome register reads 0; the injected
    // bit-flip on data qubit 20 makes the very first assertion fail,
    // and the failing syndrome localizes the bug.
    let buggy = faulty_repetition_code_program(51, PauliFault::X(20));
    let report = debugger.run(&buggy)?;
    let failure = report.first_failure().expect("the fault must be caught");
    println!("distance-51 repetition code with an undiagnosed X fault:");
    println!("  first failing assertion: {failure}");
    let observed: Vec<u64> = report.reports()[0]
        .histogram
        .iter()
        .map(|(value, _)| value)
        .collect();
    println!(
        "  observed syndrome value(s): {observed:?} (ancillas 19 and 20 lit = {})",
        (1u64 << 19) | (1u64 << 20),
    );
    Ok(())
}
