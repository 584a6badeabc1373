//! Sparse-backend scaling: *non-Clifford* assertion checking past the
//! dense simulator's allocation limit.
//!
//! The dense statevector needs `2ⁿ` amplitudes and the Clifford tableau
//! cannot represent a T gate or a controlled-swap at all; the sparse
//! amplitude map costs `O(support)` per gate, so structured
//! non-Clifford programs whose support stays exponentially small run at
//! 30–60 qubits on commodity memory. This bench checks complete
//! assertion-annotated sessions (build + sweep + every statistical and
//! exact check) at 34–56 qubits and, before any timing, asserts on
//! every run that
//!
//! * the statevector backend really cannot start the workload (its
//!   resolution-time capacity guard rejects it),
//! * the sparse backend's verdicts match the statevector's on the
//!   identical ≤ 12-qubit slice of the same scenario family,
//! * the sweep applies each compiled op exactly once and the live
//!   support never exceeds the plan's `2^support_log2_bound` estimate,
//! * a planted 56-qubit coherent fault is still *caught* (verdicts stay
//!   decisive at scale, not just cheap),
//! * the 34-qubit end-to-end flagship finishes in seconds on one core.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::sparse::{
    coherent_fault_repetition_code_program, phase_drift_repetition_code_program,
    shor_style_period_program,
};
use qdb_core::{BackendChoice, EnsembleConfig, EnsembleRunner, Verdict};
use qdb_sim::SparseState;

const QUBIT_COUNTS: [usize; 3] = [34, 44, 56];

/// Counting-register width for the period-finding scenarios: support
/// never exceeds `2^COUNTING` basis states regardless of total width.
const COUNTING: usize = 5;

fn config(backend: BackendChoice) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(128)
        .with_seed(6)
        .with_parallel(false) // single-core numbers: the claim is algorithmic
        .with_backend(backend)
}

/// The scenario suite at a given scale: Shor-style period finding over
/// permutation arithmetic and a phase-drifted repetition code, sized to
/// ≈ `qubits`.
fn scenarios(qubits: usize) -> Vec<(String, qdb_circuit::Program)> {
    let distance = qubits.div_ceil(2); // the code uses 2·distance − 1
    vec![
        (
            format!("period/{qubits}"),
            shor_style_period_program(COUNTING, qubits - COUNTING - 1),
        ),
        (
            format!("phase-drift/{qubits}"),
            phase_drift_repetition_code_program(distance, distance / 2, 0.9),
        ),
    ]
}

/// Sweep a program on the sparse backend, asserting O(G) gate
/// application, and return `(compiled ops, peak live support)`.
fn sparse_profile(program: &qdb_circuit::Program) -> (u64, usize) {
    let plan = program.compile(qdb_core::OptLevel::Specialize);
    let checkpoints = qdb_core::SweepRunner::new(config(BackendChoice::Sparse))
        .walk_backend::<SparseState, _>(program, &plan, |_, bp, sparse| {
            Ok((bp.position as u64, sparse.gate_ops(), sparse.max_support()))
        })
        .expect("sparse walk");
    let mut ops = 0;
    let mut peak = 1;
    for (position, gate_ops, max_support) in &checkpoints {
        assert_eq!(gate_ops, position, "sweep must apply each gate once");
        ops = ops.max(*gate_ops);
        peak = peak.max(*max_support);
    }
    assert!(
        peak <= 1 << plan.support_log2_bound().min(60),
        "live support {peak} exceeded the plan's 2^{} estimate",
        plan.support_log2_bound()
    );
    (ops, peak)
}

fn bench_sparse_scale(c: &mut Criterion) {
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        let would_run = QUBIT_COUNTS
            .iter()
            .flat_map(|&n| scenarios(n))
            .any(|(label, _)| format!("sparse_scale/{label}").contains(f.as_str()));
        if !would_run {
            return;
        }
    }

    // Cross-check 1: at ≤ 12 qubits (where both engines run) the dense
    // and sparse backends must reach identical verdicts on the same
    // scenario family.
    for (label, program) in scenarios(12) {
        let dense = EnsembleRunner::new(config(BackendChoice::Statevector))
            .check_program(&program)
            .expect("dense session");
        let sparse = EnsembleRunner::new(config(BackendChoice::Sparse))
            .check_program(&program)
            .expect("sparse session");
        assert_eq!(dense.len(), sparse.len(), "{label}");
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.verdict, s.verdict, "{label}: {d} vs {s}");
            assert_eq!(d.exact, s.exact, "{label}");
        }
    }

    // Cross-check 2: the dense backend cannot even start the 34-qubit
    // flagship — and under Auto the sparse tier clears it end to end,
    // every assertion (statistical and exact) passing, in seconds on
    // one core.
    let flagship = shor_style_period_program(COUNTING, 28);
    assert!(
        EnsembleRunner::new(config(BackendChoice::Statevector))
            .check_program(&flagship)
            .is_err(),
        "a 34-qubit statevector should be unallocatable"
    );
    let (_, flagship_peak) = sparse_profile(&flagship);
    assert!(
        flagship_peak <= 1 << COUNTING,
        "period-finding support should be bounded by the counting register"
    );

    let wall = Instant::now();
    let reports = EnsembleRunner::new(config(BackendChoice::Auto))
        .check_program(&flagship)
        .expect("sparse session");
    let elapsed = wall.elapsed();
    for r in &reports {
        assert_eq!(r.verdict, Verdict::Pass, "{r}");
        assert_eq!(r.exact, Some(Verdict::Pass), "{r}");
    }
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "34-qubit period finding end-to-end took {elapsed:?} (must be < 5 s on one core)"
    );
    println!(
        "sparse_scale: 34-qubit period finding end-to-end (build + sweep + {} assertions) in {elapsed:?}",
        reports.len()
    );

    // Cross-check 3: scale does not blunt the debugger — a coherent
    // ry(π/2) fault planted in a 56-qubit repetition code is caught
    // decisively by both the statistical and the exact check.
    let hunted = coherent_fault_repetition_code_program(28, 13, std::f64::consts::FRAC_PI_2);
    let hunted_reports = EnsembleRunner::new(config(BackendChoice::Auto))
        .check_program(&hunted)
        .expect("hunted session");
    assert_eq!(
        hunted_reports[0].verdict,
        Verdict::Fail,
        "{}",
        hunted_reports[0]
    );
    assert_eq!(hunted_reports[0].exact, Some(Verdict::Fail));

    let mut group = c.benchmark_group("sparse_scale");
    group.sample_size(10);
    for qubits in QUBIT_COUNTS {
        for (label, program) in scenarios(qubits) {
            let runner = EnsembleRunner::new(config(BackendChoice::Sparse));
            let reports = runner.check_program(&program).expect("session");
            assert!(
                reports.iter().all(|r| r.passed()),
                "{label}: a scenario assertion failed"
            );
            let (ops, peak_support) = sparse_profile(&program);
            criterion::record_metric(&format!("sparse_scale/{label}"), "ops", ops as f64);
            criterion::record_metric(
                &format!("sparse_scale/{label}"),
                "peak_support",
                peak_support as f64,
            );
            group.bench_with_input(BenchmarkId::from_parameter(&label), &(), |bencher, ()| {
                bencher.iter(|| runner.check_program(&program).expect("session"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sparse_scale);
criterion_main!(benches);
