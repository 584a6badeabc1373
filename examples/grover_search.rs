//! Grover's database search (§5.1 of the paper): find the square root
//! of a number in GF(2³), comparing Table 4's two coding styles and
//! letting the assertions validate the superposition precondition and
//! the clean uncomputation.
//!
//! Run with: `cargo run --release --example grover_search`

use qdb::algos::gf2::Gf2m;
use qdb::algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb::core::{Debugger, EnsembleConfig};
use qdb::stats::Histogram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let field = Gf2m::standard(3);
    let target = 5u64;
    let answer = field.sqrt(target);
    println!("Searching GF(2^3) for x with x² = {target}; unique answer is x = {answer}.\n");

    let iterations = optimal_iterations(field.order());
    let debugger = Debugger::new(EnsembleConfig::default().with_shots(512).with_seed(51));

    for style in [GroverStyle::Manual, GroverStyle::Scoped] {
        println!("== {style:?} amplitude amplification (Table 4) ==");
        let (program, layout) = grover_program(&field, target, style, iterations);
        let report = debugger.run(&program)?;
        println!("{report}");
        assert!(report.all_passed(), "all assertions must pass");

        // Measure the final search register distribution.
        let last = program.breakpoints().len() - 1;
        let ensemble = debugger.runner().run_breakpoint(&program, last)?;
        let hist: Histogram = ensemble
            .outcomes
            .iter()
            .map(|&o| layout.q.value_of(o))
            .collect();
        println!("search-register outcomes after {iterations} iterations:");
        println!("{hist}");
        let mode = hist.mode().expect("nonempty ensemble");
        println!("most frequent outcome: {mode} (expected {answer})\n");
        assert_eq!(mode, answer);
    }
    Ok(())
}
