//! Backend routing for Kraus (beyond-Pauli) noise.
//!
//! A Kraus gate channel can only be unraveled on the dense statevector
//! (branch norms need amplitudes), so the runner's routing contract is:
//!
//! * `BackendChoice::Auto` sends Kraus-noise sessions to the dense
//!   engine — even for Clifford programs that would otherwise take the
//!   stabilizer tableau — and the noise demonstrably *acts* (it is
//!   never silently dropped);
//! * explicit `Stabilizer`/`Sparse` requests fail with a typed
//!   [`CoreError::BackendUnsupported`] at resolution time, before any
//!   simulation;
//! * past the dense qubit ceiling, `Auto` + Kraus fails with a typed
//!   error too (there is no engine left);
//! * the per-shot Kraus path honors the Sweep ≡ PerPrefix bit-identity
//!   contract, and Kraus sessions report no trajectory-tree census
//!   (the tree never runs for state-dependent branches).

use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{
    AssertionReport, BackendChoice, CoreError, EnsembleConfig, EnsembleRunner, ExecutionStrategy,
    Verdict,
};
use qdb_sim::{NoiseChannel, NoiseModel, ReadoutError};

/// A Bell-pair program asserting entanglement — Clifford, so `Auto`
/// would pick the stabilizer tableau if the noise allowed it.
fn bell_program() -> Program {
    let mut p = Program::new();
    let reg = p.alloc_register("q", 2);
    p.h(reg.bit(0));
    p.cx(reg.bit(0), reg.bit(1));
    let a = QReg::new("a", vec![reg.bit(0)]);
    let b = QReg::new("b", vec![reg.bit(1)]);
    p.assert_entangled(&a, &b);
    p
}

fn damping_model(gamma: f64) -> NoiseModel {
    NoiseModel {
        gate_noise: Some(NoiseChannel::amplitude_damping(gamma).unwrap()),
        readout: ReadoutError::default(),
    }
}

fn config(backend: BackendChoice, noise: NoiseModel) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(256)
        .with_seed(13)
        .with_backend(backend)
        .with_noise(noise)
}

fn assert_reports_bit_identical(a: &[AssertionReport], b: &[AssertionReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{what}");
        assert_eq!(x.test, y.test, "{what}");
        assert_eq!(x.statistic.to_bits(), y.statistic.to_bits(), "{what}");
        assert_eq!(x.dof, y.dof, "{what}");
        assert_eq!(x.p_value.to_bits(), y.p_value.to_bits(), "{what}");
        assert_eq!(x.verdict, y.verdict, "{what}");
        assert_eq!(x.exact, y.exact, "{what}");
        assert_eq!(x.histogram, y.histogram, "{what}");
    }
}

#[test]
fn auto_routes_kraus_to_dense_and_the_noise_acts() {
    let program = bell_program();
    // Noiseless baseline: the Bell pair is entangled.
    let ideal = EnsembleRunner::new(
        EnsembleConfig::default()
            .with_shots(256)
            .with_seed(13)
            .with_backend(BackendChoice::Auto),
    )
    .check_program(&program)
    .expect("ideal session runs");
    assert_eq!(ideal[0].verdict, Verdict::Pass, "Bell pair is entangled");

    // γ = 1 damping after every gate deterministically drains both
    // qubits to |0⟩: if the noise were silently dropped (the failure
    // mode this test pins), the verdict would still be Pass.
    let noisy = EnsembleRunner::new(config(BackendChoice::Auto, damping_model(1.0)))
        .check_program(&program)
        .expect("Auto must route the Kraus session to the dense engine");
    assert_eq!(
        noisy[0].verdict,
        Verdict::Fail,
        "full damping destroys entanglement — Kraus noise must actually act"
    );
    // Every outcome drained to |00⟩.
    assert_eq!(noisy[0].histogram.distinct(), 1);
    assert_eq!(noisy[0].histogram.mode(), Some(0));
}

#[test]
fn auto_is_bit_identical_to_explicit_statevector_for_kraus() {
    let program = bell_program();
    let noise = damping_model(0.3);
    let auto = EnsembleRunner::new(config(BackendChoice::Auto, noise))
        .check_program(&program)
        .unwrap();
    let dense = EnsembleRunner::new(config(BackendChoice::Statevector, noise))
        .check_program(&program)
        .unwrap();
    assert_reports_bit_identical(&auto, &dense, "Auto vs explicit Statevector");
}

#[test]
fn stabilizer_plus_kraus_is_refused_at_resolution_time() {
    let program = bell_program();
    let err = EnsembleRunner::new(config(BackendChoice::Stabilizer, damping_model(0.2)))
        .check_program(&program)
        .unwrap_err();
    match err {
        CoreError::BackendUnsupported { backend, reason } => {
            assert_eq!(backend, "stabilizer");
            assert!(
                reason.contains("Kraus"),
                "reason names the channel family: {reason}"
            );
        }
        other => panic!("expected BackendUnsupported, got {other:?}"),
    }
}

#[test]
fn sparse_plus_kraus_is_refused_at_resolution_time() {
    let program = bell_program();
    let err = EnsembleRunner::new(config(BackendChoice::Sparse, damping_model(0.2)))
        .check_program(&program)
        .unwrap_err();
    match err {
        CoreError::BackendUnsupported { backend, reason } => {
            assert_eq!(backend, "sparse");
            assert!(
                reason.contains("Kraus"),
                "reason names the channel family: {reason}"
            );
        }
        other => panic!("expected BackendUnsupported, got {other:?}"),
    }
}

#[test]
fn auto_plus_kraus_past_the_dense_ceiling_is_refused() {
    // A 30-qubit GHZ ladder: Clifford, so noiseless Auto would take the
    // tableau — but Kraus noise demands dense amplitudes and 30 > 26.
    let mut p = Program::new();
    let reg = p.alloc_register("q", 30);
    p.h(reg.bit(0));
    for i in 1..30 {
        p.cx(reg.bit(i - 1), reg.bit(i));
    }
    let probe = QReg::new("probe", vec![reg.bit(0)]);
    p.assert_superposition(&probe);

    let err = EnsembleRunner::new(config(BackendChoice::Auto, damping_model(0.1)))
        .check_program(&p)
        .unwrap_err();
    match err {
        CoreError::BackendUnsupported { backend, reason } => {
            assert_eq!(backend, "statevector");
            assert!(
                reason.contains("Kraus"),
                "reason names the channel family: {reason}"
            );
        }
        other => panic!("expected BackendUnsupported, got {other:?}"),
    }
}

#[test]
fn sweep_and_per_prefix_agree_bit_for_bit_under_kraus_noise() {
    let program = bell_program();
    for noise in [
        damping_model(0.05),
        NoiseModel {
            gate_noise: Some(NoiseChannel::phase_damping(0.1).unwrap()),
            readout: ReadoutError::asymmetric(0.02, 0.05),
        },
        NoiseModel {
            gate_noise: Some(NoiseChannel::thermal_relaxation(0.04, 0.08).unwrap()),
            readout: ReadoutError::default(),
        },
    ] {
        for parallel in [false, true] {
            let run = |strategy: ExecutionStrategy| {
                let config = EnsembleConfig::default()
                    .with_shots(128)
                    .with_seed(99)
                    .with_noise(noise)
                    .with_strategy(strategy)
                    .with_parallel(parallel);
                EnsembleRunner::new(config).check_program(&program).unwrap()
            };
            let sweep = run(ExecutionStrategy::Sweep);
            let reference = run(ExecutionStrategy::PerPrefix);
            assert_reports_bit_identical(
                &sweep,
                &reference,
                &format!("Sweep vs PerPrefix ({noise:?}, parallel={parallel})"),
            );
        }
    }
}

#[test]
fn kraus_sessions_report_no_trajectory_tree_census() {
    let program = bell_program();
    // Pauli noise under Sweep runs the tree and reports its census…
    let (_, stats) =
        EnsembleRunner::new(config(BackendChoice::Auto, NoiseModel::depolarizing(0.01)))
            .check_program_stats(&program)
            .unwrap();
    assert!(stats.is_some(), "Pauli Sweep sessions run the tree");
    // …a Kraus session must not pretend it ran one.
    let (_, stats) = EnsembleRunner::new(config(BackendChoice::Auto, damping_model(0.1)))
        .check_program_stats(&program)
        .unwrap();
    assert!(stats.is_none(), "Kraus sessions bypass the tree");
}

#[test]
fn zero_rate_damping_session_is_bit_identical_to_noiseless() {
    // `with_noise` normalizes a noiseless model away, so AD(0) sessions
    // take the ideal path — reports bit-identical to no noise at all.
    let program = bell_program();
    let ideal = EnsembleRunner::new(EnsembleConfig::default().with_shots(200).with_seed(5))
        .check_program(&program)
        .unwrap();
    let zero_noise = EnsembleRunner::new(
        EnsembleConfig::default()
            .with_shots(200)
            .with_seed(5)
            .with_noise(damping_model(0.0)),
    )
    .check_program(&program)
    .unwrap();
    assert_reports_bit_identical(&zero_noise, &ideal, "AD(0) vs noiseless");
}
