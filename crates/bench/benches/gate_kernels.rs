//! Compiled gate kernels vs the interpreted reference path.
//!
//! The interpreted path (`Circuit::apply_to`) rebuilds every gate
//! matrix (`sin`/`cos` per rotation application) and routes controlled
//! gates and swaps through mask-filtering scans of the full index
//! space. The compiled path (`CompiledCircuit`, default
//! `OptLevel::Specialize`) precomputes each matrix once and dispatches
//! to kernels that enumerate only the control-satisfying subspace.
//!
//! This bench pins a rotation/Toffoli-heavy circuit, proves the two
//! paths agree (value-identical state, bit-identical probabilities,
//! equal gate counts) and that the compiled path provably does less
//! index work, then times both. **In full measurement mode the ≥2×
//! wall-clock claim is asserted, not just reported** (single-core; no
//! parallelism is involved in either path). The opt-in fused plan is
//! also timed, cross-checked at approximate equality.
//!
//! A second case, `shor_n15_classes`, splits one pass over the 13-qubit
//! Shor N = 15 plan (paper §4.6) by kernel class — diagonal,
//! anti-diagonal, general with a real matrix, general with a complex
//! matrix, swap — and reports µs per op and ms per pass for each, so
//! the next kernel change can be sized from data. It first checks that
//! the compiled pass matches the interpreted one (value-identical
//! state, bit-identical probabilities). Timings are recorded, never
//! asserted; smoke mode records only the op census.

use criterion::{criterion_group, criterion_main, Criterion};
use qdb_algos::shor::{shor_program, ShorConfig};
use qdb_algos::ControlRouting;
use qdb_circuit::{Circuit, GateSink, OptLevel};
use qdb_sim::{KernelOp, SimBackend, SimOp, State};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NUM_QUBITS: usize = 12;
const NUM_GATES: usize = 600;

/// Deterministic pseudo-random circuit shaped like the paper's
/// arithmetic kernels: dominated by phase rotations (QFT-style `cphase`
/// / `ccphase` ladders), Toffolis, and Fredkin swaps, with enough `h`
/// to keep every amplitude populated.
fn rotation_toffoli_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(0xC0DE5);
    let mut c = Circuit::new(NUM_QUBITS);
    for q in 0..NUM_QUBITS {
        c.h(q);
    }
    for _ in 0..NUM_GATES - NUM_QUBITS {
        let a = rng.gen_range(0..NUM_QUBITS);
        let b = (a + rng.gen_range(1..NUM_QUBITS)) % NUM_QUBITS;
        let mut e = rng.gen_range(0..NUM_QUBITS);
        while e == a || e == b {
            e = (e + 1) % NUM_QUBITS;
        }
        let theta = rng.gen_range(-3.0..3.0);
        match rng.gen_range(0..12u8) {
            0 => c.rz(a, theta),
            1 => c.t(a),
            2 => c.x(a),
            3..=5 => c.cphase(a, b, theta),
            6 | 7 => c.ccphase(a, b, e, theta),
            8 | 9 => c.ccx(a, b, e),
            _ => c.cswap(a, b, e),
        }
    }
    c
}

/// Median per-iteration seconds over `samples` timed batches.
fn time_median(samples: usize, iters: usize, mut routine: impl FnMut()) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                routine();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

fn bench_gate_kernels(c: &mut Criterion) {
    // Respect criterion's positional filter: a `cargo bench foo` run
    // aimed at some other bench must not pay for our cross-checks. The
    // filter is matched against every label we would run (as the
    // harness itself would), not just the group name, so
    // `cargo bench … gate_kernels compiled` still runs.
    let labels = [
        "gate_kernels/interpreted",
        "gate_kernels/compiled",
        "gate_kernels/fused",
    ];
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        if !labels.iter().any(|label| label.contains(f.as_str())) {
            return;
        }
    }
    let measured = std::env::args().skip(1).any(|arg| arg == "--bench");

    let circuit = rotation_toffoli_circuit();
    let plan = circuit.compile(OptLevel::Specialize);
    let fused = circuit.compile(OptLevel::Fuse);
    let (diag, anti, general, swaps) = plan.kernel_census();
    println!(
        "gate_kernels: {} gates on {NUM_QUBITS} qubits → kernels: \
         {diag} diagonal, {anti} anti-diagonal, {general} general, {swaps} swap \
         ({} fused ops)",
        circuit.len(),
        fused.ops().len(),
    );

    // The speedup claim is only honest if the paths agree exactly.
    let mut reference = State::zero(NUM_QUBITS);
    circuit.apply_to(&mut reference);
    let mut compiled = State::zero(NUM_QUBITS);
    plan.apply_to(&mut compiled);
    assert_eq!(compiled, reference, "compiled path diverged");
    for (p, q) in compiled
        .probabilities()
        .iter()
        .zip(&reference.probabilities())
    {
        assert_eq!(p.to_bits(), q.to_bits(), "probability bits diverged");
    }
    assert_eq!(compiled.gate_ops(), reference.gate_ops());
    let mut fused_state = State::zero(NUM_QUBITS);
    fused.apply_to(&mut fused_state);
    assert!(
        fused_state.approx_eq(&reference, 1e-9),
        "fused path beyond tolerance"
    );

    // And the index-work claim is checked, not assumed.
    let interpreted_work = reference.index_ops();
    let compiled_work = compiled.index_ops();
    assert!(
        compiled_work * 2 <= interpreted_work,
        "compiled index work {compiled_work} not ≤ half of {interpreted_work}"
    );
    println!(
        "gate_kernels: index work {compiled_work} (compiled) vs {interpreted_work} \
         (interpreted), {:.1}x less",
        interpreted_work as f64 / compiled_work as f64
    );
    criterion::record_metric("gate_kernels/compiled", "index_ops", compiled_work as f64);
    criterion::record_metric(
        "gate_kernels/interpreted",
        "index_ops",
        interpreted_work as f64,
    );

    // Wall-clock contract: ≥2× at the default opt level on one core.
    // Asserted only under `--bench` (smoke mode runs everything once,
    // so there is nothing meaningful to time).
    if measured {
        let mut scratch = State::zero(NUM_QUBITS);
        let interpreted_s = time_median(15, 4, || {
            scratch = State::zero(NUM_QUBITS);
            circuit.apply_to(&mut scratch);
        });
        let compiled_s = time_median(15, 4, || {
            scratch = State::zero(NUM_QUBITS);
            plan.apply_to(&mut scratch);
        });
        let speedup = interpreted_s / compiled_s;
        println!(
            "gate_kernels: {:.3} ms (interpreted) vs {:.3} ms (compiled): {speedup:.2}x",
            interpreted_s * 1e3,
            compiled_s * 1e3,
        );
        criterion::record_metric("gate_kernels/compiled", "speedup_vs_interpreted", speedup);
        assert!(
            speedup >= 2.0,
            "compiled kernels must be ≥2x the interpreted path, got {speedup:.2}x"
        );
    }

    let mut group = c.benchmark_group("gate_kernels");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(circuit.len() as u64));
    group.bench_function("interpreted", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(NUM_QUBITS);
            circuit.apply_to(&mut s);
            s
        });
    });
    group.bench_function("compiled", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(NUM_QUBITS);
            plan.apply_to(&mut s);
            s
        });
    });
    group.bench_function("fused", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(NUM_QUBITS);
            fused.apply_to(&mut s);
            s
        });
    });
    group.finish();
}

/// The kernel classes `shor_n15_classes` reports, in table order.
const CLASSES: [&str; 5] = [
    "diagonal",
    "antidiagonal",
    "general_real",
    "general_complex",
    "swap",
];

/// Index into [`CLASSES`]: the kernel an op runs, with the dense 2×2
/// split by whether every matrix entry is real.
fn class_of(op: &SimOp) -> usize {
    match op.kernel() {
        KernelOp::Diagonal { .. } => 0,
        KernelOp::AntiDiagonal { .. } => 1,
        KernelOp::General(m) if m.0.iter().flatten().all(|e| e.im == 0.0) => 2,
        KernelOp::General(_) => 3,
        KernelOp::Swap { .. } => 4,
    }
}

fn bench_shor_classes(c: &mut Criterion) {
    const LABEL: &str = "gate_kernels/shor_n15_classes";
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if filter.as_deref().is_some_and(|f| !LABEL.contains(f)) {
        return;
    }
    let measured = std::env::args().skip(1).any(|arg| arg == "--bench");

    let (program, _) = shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    );
    let plan = program.compile(OptLevel::Specialize);
    let n = plan.num_qubits();
    let mut by_class: [Vec<SimOp>; 5] = Default::default();
    for op in plan.ops() {
        by_class[class_of(op.sim_op())].push(op.sim_op().clone());
    }

    // The timings only mean something if the compiled kernels compute
    // what the interpreted reference does on this plan.
    let mut reference = State::zero(n);
    program.circuit().apply_to(&mut reference);
    let mut compiled = State::zero(n);
    plan.apply_to(&mut compiled);
    assert_eq!(compiled, reference, "shor_n15 compiled path diverged");
    for (p, q) in compiled
        .probabilities()
        .iter()
        .zip(&reference.probabilities())
    {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "shor_n15 probability bits diverged"
        );
    }

    let workers = qdb_bench::effective_workers();
    println!(
        "gate_kernels shor_n15_classes: {} ops on {n} qubits ({workers} workers)",
        plan.ops().len()
    );
    criterion::record_metric(LABEL, "workers", workers as f64);
    criterion::record_metric(LABEL, "ops", plan.ops().len() as f64);
    for (name, ops) in CLASSES.iter().zip(&by_class) {
        criterion::record_metric(LABEL, &format!("ops_{name}"), ops.len() as f64);
    }

    if measured {
        // Time each class's ops back to back on the plan's own output
        // state: every kernel is unitary, so repeated passes keep the
        // amplitudes in range and the cost per op is what a pass pays.
        let mut state = compiled.clone();
        let pass_s = time_median(15, 4, || plan.apply_to(&mut state));
        println!(
            "  {:<16} {:>5} {:>8} {:>8} {:>6}",
            "class", "ops", "µs/op", "ms/pass", "share"
        );
        let mut classes_s = 0.0;
        for (name, ops) in CLASSES.iter().zip(&by_class) {
            if ops.is_empty() {
                println!("  {name:<16} {:>5}", 0);
                continue;
            }
            let class_s = time_median(15, 4, || {
                for op in ops {
                    state.apply_op(op);
                }
            });
            classes_s += class_s;
            let us_per_op = class_s * 1e6 / ops.len() as f64;
            println!(
                "  {name:<16} {:>5} {us_per_op:>8.2} {:>8.3} {:>5.0}%",
                ops.len(),
                class_s * 1e3,
                100.0 * class_s / pass_s
            );
            criterion::record_metric(LABEL, &format!("us_per_op_{name}"), us_per_op);
        }
        println!(
            "  {:<16} {:>5} {:>8} {:>8.3} (classes sum to {:.3})",
            "pass",
            plan.ops().len(),
            "",
            pass_s * 1e3,
            classes_s * 1e3
        );
        criterion::record_metric(LABEL, "pass_ms", pass_s * 1e3);
    }

    let mut group = c.benchmark_group("gate_kernels");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(plan.ops().len() as u64));
    group.bench_function("shor_n15_classes", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(n);
            plan.apply_to(&mut s);
            s
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gate_kernels, bench_shor_classes);
criterion_main!(benches);
