//! Write a quantum program as Scaffold-like *source text* — the way the
//! paper's listings are written — parse it, and debug it with
//! statistical assertions.
//!
//! Run with: `cargo run --release --example scaffold_source`

use qdb::circuit::parse_scaffold;
use qdb::core::{Debugger, EnsembleConfig};

/// Listing 1 of the paper, transcribed with a hand-inlined 4-qubit QFT
/// (H + controlled rotations + swaps) and its inverse.
const LISTING_1: &str = r"
    // Test harness for quantum Fourier transform (paper, Listing 1)
    qbit reg[4];

    // initialize quantum variable to 5 = 0b0101
    PrepZ(reg[0], 1); PrepZ(reg[1], 0);
    PrepZ(reg[2], 1); PrepZ(reg[3], 0);

    // precondition for QFT:
    assert_classical(reg, 4, 5);

    // QFT(4, reg)
    H(reg[3]);
    cRz(reg[2], reg[3], pi/2); cRz(reg[1], reg[3], pi/4); cRz(reg[0], reg[3], pi/8);
    H(reg[2]);
    cRz(reg[1], reg[2], pi/2); cRz(reg[0], reg[2], pi/4);
    H(reg[1]);
    cRz(reg[0], reg[1], pi/2);
    H(reg[0]);
    Swap(reg[0], reg[3]); Swap(reg[1], reg[2]);

    // postcondition for QFT & precondition for iQFT:
    assert_superposition(reg, 4);

    // iQFT(4, reg)
    Swap(reg[1], reg[2]); Swap(reg[0], reg[3]);
    H(reg[0]);
    cRz(reg[0], reg[1], -pi/2);
    H(reg[1]);
    cRz(reg[0], reg[2], -pi/4); cRz(reg[1], reg[2], -pi/2);
    H(reg[2]);
    cRz(reg[0], reg[3], -pi/8); cRz(reg[1], reg[3], -pi/4); cRz(reg[2], reg[3], -pi/2);
    H(reg[3]);

    // postcondition for iQFT:
    assert_classical(reg, 4, 5);
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_scaffold(LISTING_1)?;
    println!(
        "parsed {} instructions, {} registers, {} assertions from Scaffold source\n",
        program.circuit().len(),
        program.registers().len(),
        program.breakpoints().len()
    );

    let report =
        Debugger::new(EnsembleConfig::default().with_shots(1024).with_seed(2)).run(&program)?;
    println!("{report}");
    assert!(report.all_passed(), "Listing 1 must pass end to end");
    println!("Listing 1 passes: QFT → superposition → iQFT → classical 5 again.");
    Ok(())
}
