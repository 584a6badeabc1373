//! Stabilizer-backend scaling: Clifford assertion checking far past the
//! dense simulator's allocation limit.
//!
//! The dense statevector needs `2ⁿ` amplitudes — at 64 qubits that is
//! 2⁶⁴ complex numbers, i.e. unallocatable — while the tableau needs
//! `O(n²)` *bits*. This bench checks complete assertion-annotated
//! programs (build + sweep + every statistical and exact check) at
//! 64–256 qubits and, before any timing, asserts on every run that
//!
//! * the statevector backend really cannot run the workload (its
//!   allocation guard rejects it),
//! * the stabilizer backend's verdicts match the statevector's on the
//!   identical 12-qubit slice of the same scenario family,
//! * every assertion passes, the sweep does `O(G)` tableau gate
//!   applications, and the 64-qubit end-to-end session finishes in
//!   under a second on one core.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::clifford::{ghz_program, repetition_code_program, teleportation_chain_program};
use qdb_algos::PauliFault;
use qdb_core::{BackendChoice, EnsembleConfig, EnsembleRunner, Verdict};

const QUBIT_COUNTS: [usize; 3] = [64, 128, 256];

fn config(backend: BackendChoice) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(128)
        .with_seed(6)
        .with_parallel(false) // single-core numbers: the claim is algorithmic
        .with_backend(backend)
}

/// The scenario suite at a given scale: GHZ ladder, teleportation
/// chain, and a fault-diagnosing repetition code, sized to ≈ `qubits`.
fn scenarios(qubits: usize) -> Vec<(String, qdb_circuit::Program)> {
    vec![
        (format!("ghz/{qubits}"), ghz_program(qubits - 1)), // +1 ancilla
        (
            format!("teleport/{qubits}"),
            teleportation_chain_program((qubits - 1) / 2),
        ),
        (
            format!("repetition/{qubits}"),
            // Distance caps at 65: the syndrome register must fit a u64
            // classical assertion.
            repetition_code_program(
                qubits.div_ceil(2).min(65),
                Some(PauliFault::X((qubits / 5).min(64))),
            ),
        ),
    ]
}

fn bench_stabilizer_scale(c: &mut Criterion) {
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        let would_run = QUBIT_COUNTS
            .iter()
            .flat_map(|&n| scenarios(n))
            .any(|(label, _)| format!("stabilizer_scale/{label}").contains(f.as_str()));
        if !would_run {
            return;
        }
    }

    // Cross-check 1: at 12 qubits (where both engines run) the two
    // backends must reach identical verdicts on the same scenarios.
    for (label, program) in scenarios(12) {
        let dense = EnsembleRunner::new(config(BackendChoice::Statevector))
            .check_program(&program)
            .expect("dense session");
        let tableau = EnsembleRunner::new(config(BackendChoice::Stabilizer))
            .check_program(&program)
            .expect("tableau session");
        assert_eq!(dense.len(), tableau.len(), "{label}");
        for (d, t) in dense.iter().zip(&tableau) {
            assert_eq!(d.verdict, t.verdict, "{label}: {d} vs {t}");
            assert_eq!(d.exact, t.exact, "{label}");
        }
    }

    // Cross-check 2: the dense backend cannot even start the 64-qubit
    // flagship, and the stabilizer session must clear it in < 1 s on
    // one core with every assertion (statistical and exact) passing.
    let flagship = ghz_program(64);
    assert!(
        EnsembleRunner::new(config(BackendChoice::Statevector))
            .check_program(&flagship)
            .is_err(),
        "a 64-qubit statevector should be unallocatable"
    );
    // Cross-check 3: the sweep really is O(G) on the tableau — the
    // gate counter at the last checkpoint equals the gate count of the
    // longest prefix, exactly as on the dense backend.
    let plan = flagship.compile(qdb_core::OptLevel::Specialize);
    let checkpoints = qdb_core::SweepRunner::new(config(BackendChoice::Stabilizer))
        .walk_backend::<qdb_core::StabilizerState, _>(&flagship, &plan, |_, bp, tab| {
            Ok((bp.position as u64, tab.gate_ops()))
        })
        .expect("tableau walk");
    for (position, gate_ops) in &checkpoints {
        assert_eq!(gate_ops, position, "sweep must apply each gate once");
    }

    let wall = Instant::now();
    let reports = EnsembleRunner::new(config(BackendChoice::Stabilizer))
        .check_program(&flagship)
        .expect("stabilizer session");
    let elapsed = wall.elapsed();
    for r in &reports {
        assert_eq!(r.verdict, Verdict::Pass, "{r}");
        assert_eq!(r.exact, Some(Verdict::Pass), "{r}");
    }
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "64-qubit GHZ end-to-end took {elapsed:?} (must be < 1 s on one core)"
    );
    println!(
        "stabilizer_scale: 64-qubit GHZ end-to-end (build + sweep + {} assertions) in {elapsed:?}",
        reports.len()
    );

    let mut group = c.benchmark_group("stabilizer_scale");
    group.sample_size(10);
    for qubits in QUBIT_COUNTS {
        for (label, program) in scenarios(qubits) {
            let runner = EnsembleRunner::new(config(BackendChoice::Stabilizer));
            let reports = runner.check_program(&program).expect("session");
            assert!(
                reports.iter().all(|r| r.passed()),
                "{label}: a scenario assertion failed"
            );
            criterion::record_metric(
                &format!("stabilizer_scale/{label}"),
                "gates",
                program.circuit().len() as f64,
            );
            group.bench_with_input(BenchmarkId::from_parameter(&label), &(), |bencher, ()| {
                bencher.iter(|| runner.check_program(&program).expect("session"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_stabilizer_scale);
criterion_main!(benches);
