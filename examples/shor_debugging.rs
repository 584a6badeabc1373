//! The paper's §4 centerpiece: bring up Shor's algorithm for N = 15
//! from unit tests to integration test, catching each bug type with the
//! designated assertion along the way.
//!
//! Run with: `cargo run --release --example shor_debugging`

use qdb::algos::harnesses::{
    listing1_qft_harness, listing3_cadd_harness, listing4_modmul_harness, Listing4Params,
};
use qdb::algos::modular::ControlRouting;
use qdb::algos::shor::{classical, shor_program, ShorConfig};
use qdb::algos::AdderVariant;
use qdb::core::{Debugger, EnsembleConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let debugger = Debugger::new(EnsembleConfig::default().with_shots(256).with_seed(7));

    // --- Unit test 1: the QFT (Listing 1). ------------------------------
    println!("== Listing 1: QFT test harness (value 5, width 4) ==");
    let report = debugger.run(&listing1_qft_harness(4, 5, false))?;
    println!("{report}");
    assert!(report.all_passed());

    // --- Unit test 2: the controlled adder (Listings 2–3). --------------
    println!("== Listing 3: controlled adder, 12 + 13 = 25 ==");
    let report = debugger.run(&listing3_cadd_harness(5, 12, 13, AdderVariant::Correct))?;
    println!("{report}");
    assert!(report.all_passed());

    println!("== Listing 3 with Table 1's flipped-rotation bug ==");
    let report = debugger.run(&listing3_cadd_harness(
        5,
        12,
        13,
        AdderVariant::AnglesFlipped,
    ))?;
    println!("{report}");
    let failure = report.first_failure().expect("the bug must be caught");
    println!(
        "→ caught at breakpoint #{}: {} (p = {:.4})\n",
        failure.index, failure.label, failure.p_value
    );

    // --- Unit test 3: the modular multiplier (Listing 4). ---------------
    println!("== Listing 4: controlled modular multiplier ==");
    let (program, _) = listing4_modmul_harness(Listing4Params::paper());
    let report = debugger.run(&program)?;
    println!("{report}");
    assert!(report.all_passed());

    println!("== Listing 4 with the mis-routed control (bug type 4) ==");
    let (program, _) = listing4_modmul_harness(Listing4Params::paper().with_routing_bug());
    let report = debugger.run(&program)?;
    println!("{report}");
    assert!(!report.all_passed());

    // --- Integration test: the full Shor pipeline (Figure 2). -----------
    println!("== Full Shor integration test (N = 15, a = 7) ==");
    let config = ShorConfig::paper_n15();
    let (program, layout) = shor_program(&config, ControlRouting::Correct, &Vec::new());
    let report = debugger.run(&program)?;
    println!("{report}");
    assert!(report.all_passed());

    // Sample the output register and post-process classically.
    let final_bp = program.breakpoints().len() - 1;
    let ensemble = debugger.runner().run_breakpoint(&program, final_bp)?;
    let mut order = None;
    for &outcome in &ensemble.outcomes {
        let y = layout.upper.value_of(outcome);
        if let Some(r) = classical::order_from_measurement(
            y,
            config.upper_bits as u32,
            config.base,
            config.modulus,
        ) {
            order = Some(r);
            break;
        }
    }
    let r = order.expect("some shot reveals the order");
    let (f1, f2) =
        classical::factors_from_order(config.base, r, config.modulus).expect("order 4 splits 15");
    println!(
        "measured order r = {r}  →  {} = {f1} × {f2}",
        config.modulus
    );
    assert_eq!((f1, f2), (3, 5));
    Ok(())
}
