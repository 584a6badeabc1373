//! The execution governor: deadline-bound a session, keep the partial
//! report, resume with a fresh budget.
//!
//! Every ensemble session runs under a `RunBudget` — wall-clock
//! deadline, resident-memory ceiling, and a clonable `CancelToken` —
//! polled by all three engines at op-batch granularity. A tripped
//! budget never discards completed work: the session surfaces
//! `CoreError::Interrupted` whose `PartialReport` holds bit-identical
//! verdicts for every breakpoint finished before the trip and
//! `Verdict::Unevaluated` markers for the rest.
//!
//! This example arms a 10 ms deadline over a deliberately heavy
//! 18-qubit sweep (far more than 10 ms of dense gate work), prints the
//! partial report the trip leaves behind, then *resumes*: the same
//! configuration with the budget swapped for an unlimited one re-runs
//! to completion, and the evaluated prefix of the interrupted session
//! is asserted bit-identical to the full report's prefix.
//!
//! Run with: `cargo run --release --example governor`

use std::time::Duration;

use qdb::circuit::{GateSink, Program, QReg};
use qdb::core::{CoreError, EnsembleConfig, EnsembleRunner, RunBudget, Verdict};

/// An 18-qubit staircase: enough dense amplitude work (~256k amplitudes
/// per gate) that the full sweep takes well over 10 ms, with a
/// breakpoint after every layer so a mid-sweep trip has both an
/// evaluated prefix and an unevaluated tail to show.
fn heavy_program() -> Program {
    const N: usize = 18;
    const LAYERS: usize = 10;
    let mut p = Program::new();
    let r = p.alloc_register("r", N);
    let probe = QReg::new("probe", vec![r.bit(0), r.bit(1)]);
    // A cheap opening segment (two gates) so the 10 ms deadline has a
    // real chance to land *between* breakpoints — an evaluated prefix
    // plus an unevaluated tail, not an all-marker partial.
    p.h(r.bit(0));
    p.h(r.bit(1));
    p.assert_superposition(&probe);
    p.h(r.bit(0));
    p.h(r.bit(1));
    for _layer in 0..LAYERS {
        for i in 0..N {
            p.h(r.bit(i));
        }
        for i in 0..N - 1 {
            p.cx(r.bit(i), r.bit(i + 1));
        }
        // Undo the layer so the probe register is in a known flat
        // superposition at every breakpoint regardless of depth.
        for i in (0..N - 1).rev() {
            p.cx(r.bit(i), r.bit(i + 1));
        }
        for i in (2..N).rev() {
            p.h(r.bit(i));
        }
        p.assert_superposition(&probe);
        for i in 0..2 {
            p.h(r.bit(i));
        }
    }
    p
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = heavy_program();
    let total = program.breakpoints().len();

    // --- A session bounded to 10 ms of wall clock. ----------------------
    let bounded = EnsembleConfig::default()
        .with_shots(64)
        .with_seed(11)
        // A tight alpha keeps the seven honest flat-superposition
        // assertions from tripping on sampling noise.
        .with_alpha(1e-6)
        .with_budget(RunBudget::default().with_deadline(Duration::from_millis(10)));
    let interrupted = match EnsembleRunner::new(bounded.clone()).check_program(&program) {
        Err(CoreError::Interrupted { cause, partial }) => {
            println!("session interrupted: {cause}");
            println!(
                "evaluated {}/{} breakpoints before the deadline:",
                partial.completed, total
            );
            println!("{partial}");
            *partial
        }
        Ok(_) => unreachable!("18 qubits × 10 layers cannot sweep inside 10 ms"),
        Err(other) => return Err(other.into()),
    };
    assert_eq!(
        interrupted.reports.len(),
        total,
        "the partial spans every breakpoint"
    );
    assert!(interrupted
        .unevaluated_reports()
        .iter()
        .all(|r| r.verdict == Verdict::Unevaluated));

    // --- Resume: same configuration, fresh unlimited budget. ------------
    // `with_budget` clones the rest of the config, so the re-run draws
    // the exact same ensembles; a service layer would do this after
    // re-scheduling the session with a bigger time slice.
    let full =
        EnsembleRunner::new(bounded.with_budget(RunBudget::unlimited())).check_program(&program)?;
    println!("resumed session evaluated all {} breakpoints", full.len());

    // The trip lost no work and corrupted none: the prefix the bounded
    // session completed is bit-for-bit the full report's prefix.
    assert_eq!(
        interrupted.completed_reports(),
        &full[..interrupted.completed],
        "evaluated prefix must be bit-identical after resume"
    );
    assert!(
        full.iter().all(|r| r.verdict == Verdict::Pass),
        "every layer leaves the probe in a flat superposition"
    );
    println!(
        "prefix of {} evaluated report(s) verified bit-identical",
        interrupted.completed
    );
    Ok(())
}
