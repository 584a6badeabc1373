//! Walk the paper's full §4 bug taxonomy: inject each of the six bug
//! types and show that the designated assertion catches it at the
//! expected breakpoint.
//!
//! Run with: `cargo run --release --example bug_hunt`

use qdb::algos::harnesses::BugType;
use qdb::core::{Debugger, EnsembleConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let debugger = Debugger::new(EnsembleConfig::default().with_shots(512).with_seed(46));

    println!(
        "{:<32} {:<40} {:<10} p-value",
        "bug type", "catching assertion", "caught?"
    );
    println!("{}", "-".repeat(100));
    for bug in BugType::all() {
        let (program, expected_index) = bug.demonstration();
        let report = debugger.run(&program)?;
        let failure = report
            .first_failure()
            .unwrap_or_else(|| panic!("{bug:?} was not caught"));
        assert_eq!(
            failure.index, expected_index,
            "{bug:?} caught at the wrong breakpoint"
        );
        println!(
            "{:<32} {:<40} #{:<9} {:.2e}",
            format!("{bug:?}"),
            bug.catching_assertion(),
            failure.index,
            failure.p_value
        );
    }
    println!("\nAll six bug types from the paper's taxonomy were caught.");
    Ok(())
}
