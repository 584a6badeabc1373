//! Device-noise sessions: T1/T2 calibration profiles lowered to
//! thermal-relaxation Kraus channels, run end-to-end through the
//! per-shot dense engine — timed, and cross-checked against the exact
//! channel on every run.
//!
//! Kraus noise cannot ride the trajectory tree (branch probabilities
//! depend on the state, so fault patterns cannot be presampled or
//! deduplicated), so this bench measures the cost of the honest
//! per-shot unraveling on realistic device scenarios:
//! [`DeviceProfile::transmon_like`] repetition codes with asymmetric
//! readout confusion.
//!
//! Every run — including `cargo test` smoke mode — cross-checks:
//!
//! * the differential oracle: averaged trajectories of the profile's
//!   worst-qubit channel reproduce the exact Kraus-summed density
//!   matrix within `5/√M`, with the analytic `ρ₀₀ = γ` decay anchor;
//! * Kraus routing: `Auto` reports are bit-identical to explicit
//!   `Statevector`, `Sweep` to `PerPrefix`, and no trajectory-tree
//!   census is reported (the tree never ran);
//! * the noise acts: noisy histograms differ from the noiseless run,
//!   yet realistic calibrations leave the code's verdicts standing.
//!
//! Under full `cargo bench` the per-gate damping rates and session
//! wall-clock land in `BENCH_results.json` so the perf trajectory
//! tracks the device-noise path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::device::{device_repetition_code, DeviceProfile};
use qdb_algos::PauliFault;
use qdb_circuit::Program;
use qdb_core::{
    AssertionReport, BackendChoice, EnsembleConfig, EnsembleRunner, ExecutionStrategy, Verdict,
};
use qdb_sim::{gates, Complex, NoiseChannel, NoiseModel, ReadoutError, State};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named device scenario: the profile plus its repetition-code
/// session.
fn cases() -> Vec<(&'static str, DeviceProfile, Program, EnsembleConfig)> {
    let clean = DeviceProfile::transmon_like(5);
    let (clean_program, clean_noise) = device_repetition_code(&clean, 3, None);
    let diagnosed = DeviceProfile::transmon_like(9);
    let (diag_program, diag_noise) = device_repetition_code(&diagnosed, 5, Some(PauliFault::X(2)));
    let config = |noise| {
        EnsembleConfig::default()
            .with_shots(256)
            .with_seed(7)
            .with_noise(noise)
    };
    vec![
        ("d3_clean", clean, clean_program, config(clean_noise)),
        ("d5_fault_x2", diagnosed, diag_program, config(diag_noise)),
    ]
}

fn assert_reports_bit_identical(a: &[AssertionReport], b: &[AssertionReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.verdict, y.verdict, "{what}");
        assert_eq!(x.statistic.to_bits(), y.statistic.to_bits(), "{what}");
        assert_eq!(x.p_value.to_bits(), y.p_value.to_bits(), "{what}");
        assert_eq!(x.exact, y.exact, "{what}");
        assert_eq!(x.histogram, y.histogram, "{what}");
    }
}

/// The differential oracle on the profile's worst-qubit channel:
/// `M` unraveled trajectories of `X|0⟩` followed by the channel must
/// average to the exact Kraus-summed density matrix within `5/√M`,
/// and the exact matrix must show the analytic decay `ρ₀₀ = γ`.
fn oracle_cross_check(name: &str, profile: &DeviceProfile) -> f64 {
    let channel = profile.channel_for(profile.worst_qubit());
    let (gamma, _) = profile.damping_rates(profile.worst_qubit());
    let ops = channel.kraus_operators();

    // Exact: Σᵢ Kᵢ|1⟩⟨1|Kᵢ† via unnormalized branch states.
    let mut exact = [[Complex::ZERO; 2]; 2];
    for op in &ops {
        let mut state = State::zero(1);
        state.apply_1q(0, &gates::x());
        state.apply_1q(0, op);
        let amps = state.amplitudes();
        for r in 0..2 {
            for c in 0..2 {
                exact[r][c] += amps[r] * amps[c].conj();
            }
        }
    }
    let trace = exact[0][0].re + exact[1][1].re;
    assert!((trace - 1.0).abs() < 1e-12, "{name}: exact trace {trace}");
    assert!(
        (exact[0][0].re - gamma).abs() < 1e-12,
        "{name}: ground-state population {} must equal γ = {gamma}",
        exact[0][0].re
    );

    // Monte-Carlo: the unraveler the sessions actually run.
    let trials = 2000;
    let mut rng = StdRng::seed_from_u64(17);
    let mut averaged = [[Complex::ZERO; 2]; 2];
    let weight = 1.0 / trials as f64;
    for _ in 0..trials {
        let mut state = State::zero(1);
        state.apply_1q(0, &gates::x());
        channel.apply(&mut state, 0, &mut rng);
        let amps = state.amplitudes();
        for r in 0..2 {
            for c in 0..2 {
                averaged[r][c] += (amps[r] * amps[c].conj()).scale(weight);
            }
        }
    }
    let tol = 5.0 / (trials as f64).sqrt();
    let mut dev = 0.0f64;
    for r in 0..2 {
        for c in 0..2 {
            dev = dev.max((averaged[r][c] - exact[r][c]).abs());
        }
    }
    assert!(
        dev < tol,
        "{name}: trajectory average deviates {dev:.4} from the exact channel (tol {tol:.4})"
    );
    dev
}

/// Routing and behavior cross-checks for one device session.
fn session_cross_check(name: &str, program: &Program, config: &EnsembleConfig) {
    // The profile lowered to a genuinely non-Pauli channel…
    let noise = config.noise.expect("device sessions are noisy");
    assert!(
        matches!(noise.gate_noise, Some(NoiseChannel::Kraus(_))),
        "{name}: T1/T2 rates must lower to a Kraus set"
    );
    assert!(
        noise.readout.p10 > noise.readout.p01,
        "{name}: asymmetric readout"
    );

    // …which Auto routes to the dense engine, bit-identically to an
    // explicit request, with no trajectory-tree census.
    let (auto, stats) = EnsembleRunner::new(config.clone())
        .check_program_stats(program)
        .expect("device session runs under Auto");
    assert!(stats.is_none(), "{name}: Kraus sessions bypass the tree");
    let dense = EnsembleRunner::new(config.with_backend(BackendChoice::Statevector))
        .check_program(program)
        .expect("explicit dense session");
    assert_reports_bit_identical(&auto, &dense, name);
    let per_prefix = EnsembleRunner::new(config.with_strategy(ExecutionStrategy::PerPrefix))
        .check_program(program)
        .expect("per-prefix session");
    assert_reports_bit_identical(&auto, &per_prefix, name);

    // The noise demonstrably acts (histograms shift against the
    // noiseless run)…
    let ideal = EnsembleRunner::new(EnsembleConfig::default().with_shots(256).with_seed(7))
        .check_program(program)
        .expect("noiseless session");
    assert!(
        auto.iter()
            .zip(&ideal)
            .any(|(n, i)| n.histogram != i.histogram),
        "{name}: device noise must perturb the outcome histograms"
    );
    assert!(
        ideal.iter().all(|r| r.verdict == Verdict::Pass),
        "{name}: the scenario is correct without noise"
    );
    // …and it splits the verdicts by assertion kind, the device-noise
    // signature the scenario pins: the exact-match syndrome assertion
    // has zero noise tolerance (a point-mass distribution — even the
    // handful of decay events thermal relaxation deals to 256 shots
    // breaks it, before readout confusion piles on), while the
    // entanglement assertion's correlation test absorbs both:
    assert_eq!(
        auto[0].verdict,
        Verdict::Fail,
        "{name}: device noise must break the exact syndrome match"
    );
    assert_eq!(
        auto[1].verdict,
        Verdict::Pass,
        "{name}: the entanglement correlation must survive device noise"
    );
    let damping_only = NoiseModel {
        gate_noise: noise.gate_noise,
        readout: ReadoutError::default(),
    };
    let damped = EnsembleRunner::new(config.with_noise(damping_only))
        .check_program(program)
        .expect("damping-only session");
    assert_eq!(
        damped[0].verdict,
        Verdict::Fail,
        "{name}: decay events alone already break the point-mass test"
    );
    assert_eq!(
        damped[1].verdict,
        Verdict::Pass,
        "{name}: damping-only entanglement check still passes"
    );
}

/// Median-of-three wall-clock for one full session.
fn time_session(runner: &EnsembleRunner, program: &Program) -> f64 {
    runner.check_program(program).expect("warm-up");
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(runner.check_program(program).expect("timed session"));
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[1]
}

fn bench_device_noise(c: &mut Criterion) {
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    let bench_mode = std::env::args().any(|arg| arg == "--bench");
    for (name, profile, program, config) in cases() {
        let group_name = format!("device_noise_{name}");
        if let Some(f) = &filter {
            if !group_name.contains(f.as_str()) {
                continue;
            }
        }
        // The oracle and routing cross-checks run on every invocation,
        // smoke mode included.
        let oracle_dev = oracle_cross_check(name, &profile);
        session_cross_check(name, &program, &config);

        if bench_mode {
            let session = time_session(&EnsembleRunner::new(config.clone()), &program);
            let (gamma, lambda) = profile.damping_rates(profile.worst_qubit());
            println!(
                "device_noise {name}: {:.1} ms/session (γ = {gamma:.2e}, λ = {lambda:.2e})",
                session * 1e3
            );
            let label = format!("{group_name}/session");
            criterion::record_metric(&label, "gamma_per_gate", gamma);
            criterion::record_metric(&label, "lambda_per_gate", lambda);
            criterion::record_metric(&label, "oracle_deviation", oracle_dev);
            criterion::record_metric(&label, "session_ms", session * 1e3);
        }

        let mut group = c.benchmark_group(group_name);
        group.sample_size(10);
        let runner = EnsembleRunner::new(config);
        group.bench_with_input(BenchmarkId::from_parameter("session"), &(), |b, ()| {
            b.iter(|| runner.check_program(&program).expect("session"));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_device_noise);
criterion_main!(benches);
