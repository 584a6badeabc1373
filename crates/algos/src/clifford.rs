//! Clifford-scale scenario builders: assertion-annotated programs made
//! entirely of stabilizer gates, so the whole bug-hunt workflow runs on
//! the polynomial-time tableau backend at qubit counts the dense
//! simulator cannot touch (hundreds of qubits instead of ≤ 26).
//!
//! Three families, each a staple of the debugging literature:
//!
//! * [`ghz_program`] — the GHZ ladder, the canonical "is my
//!   entanglement plumbing right?" circuit;
//! * [`teleportation_chain_program`] — repeated quantum teleportation
//!   in deferred-measurement (coherent) form, asserting the payload
//!   survives every hop;
//! * [`repetition_code_program`] / [`faulty_repetition_code_program`] —
//!   the bit-flip repetition code with an injectable Pauli fault, whose
//!   syndrome register either vindicates the program or pins the bug.
//!
//! Every builder works at any size: `ghz_program(100)` is a perfectly
//! reasonable request under
//! `qdb_core::BackendChoice::Auto`.
//!

use qdb_circuit::{GateSink as _, Program, QReg};

/// A single-qubit Pauli fault injected into a scenario — the "bug"
/// whose syndrome the assertions hunt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauliFault {
    /// A bit flip on the given data-qubit index.
    X(usize),
    /// A phase flip on the given data-qubit index (invisible to the
    /// bit-flip repetition code — asserting that is itself a lesson).
    Z(usize),
    /// A combined flip on the given data-qubit index.
    Y(usize),
}

impl PauliFault {
    /// The data-qubit index the fault strikes.
    #[must_use]
    pub fn qubit(&self) -> usize {
        match *self {
            PauliFault::X(q) | PauliFault::Z(q) | PauliFault::Y(q) => q,
        }
    }

    /// `true` when the fault flips the qubit in the computational basis
    /// (X or Y), i.e. is visible to a bit-flip code's syndrome.
    #[must_use]
    pub fn flips_bit(&self) -> bool {
        !matches!(self, PauliFault::Z(_))
    }

    fn inject(&self, p: &mut Program, data: &QReg) {
        match *self {
            PauliFault::X(q) => p.x(data.bit(q)),
            PauliFault::Z(q) => p.z(data.bit(q)),
            PauliFault::Y(q) => p.y(data.bit(q)),
        }
    }
}

/// The GHZ ladder on `n` qubits with the full assertion staircase:
/// classical zero before, end-to-end entanglement after, and an
/// untouched ancilla asserted unentangled throughout.
///
/// Layout: register `ghz` of `n` qubits plus a 1-qubit `anc`.
/// Assertions (in order): `ghz`'s low bits are classically 0; after the
/// `H` + CX ladder, the first and last qubits are entangled; the
/// ancilla is in a product state with the first qubit.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn ghz_program(n: usize) -> Program {
    assert!(n >= 2, "a GHZ state needs at least 2 qubits");
    let mut p = Program::new();
    let ghz = p.alloc_register("ghz", n);
    let anc = p.alloc_register("anc", 1);
    let probe = QReg::new("probe", ghz.qubits()[..n.min(4)].to_vec());
    p.assert_classical(&probe, 0);
    p.h(ghz.bit(0));
    for i in 1..n {
        p.cx(ghz.bit(i - 1), ghz.bit(i));
    }
    let first = QReg::new("first", vec![ghz.bit(0)]);
    let last = QReg::new("last", vec![ghz.bit(n - 1)]);
    p.assert_entangled(&first, &last);
    p.assert_product(&anc, &first);
    p
}

/// A teleportation chain in deferred-measurement form: the payload
/// qubit is prepared in `|1⟩` and teleported across `hops` Bell pairs,
/// with the classically-controlled X/Z corrections replaced by CX/CZ
/// from the "measured" qubits (the deferred-measurement principle keeps
/// the whole program Clifford and measurement-free).
///
/// Per hop the program asserts the fresh Bell pair really is entangled;
/// after the last hop it asserts the destination qubit reads classical
/// `1` — a payload-integrity check that fails loudly if any correction
/// is miswired.
///
/// Uses `1 + 2·hops` qubits.
///
/// # Panics
///
/// Panics if `hops == 0`.
#[must_use]
pub fn teleportation_chain_program(hops: usize) -> Program {
    assert!(hops > 0, "a teleportation chain needs at least one hop");
    let mut p = Program::new();
    let payload = p.alloc_register("payload", 1);
    p.x(payload.bit(0));
    p.assert_classical(&payload, 1);
    let mut source = payload.bit(0);
    for hop in 0..hops {
        let pair = p.alloc_register(format!("pair{hop}"), 2);
        let (a, b) = (pair.bit(0), pair.bit(1));
        p.h(a);
        p.cx(a, b);
        let share_a = QReg::new(format!("share{hop}a"), vec![a]);
        let share_b = QReg::new(format!("share{hop}b"), vec![b]);
        p.assert_entangled(&share_a, &share_b);
        // Bell measurement on (source, a), deferred: the outcomes stay
        // coherent and control the corrections directly.
        p.cx(source, a);
        p.h(source);
        p.cx(a, b); // X correction controlled by the "measured" a
        p.cz(source, b); // Z correction controlled by the "measured" source
        source = b;
    }
    let destination = QReg::new("destination", vec![source]);
    p.assert_classical(&destination, 1);
    p
}

/// The syndrome the `distance − 1` adjacent-pair parity checks of the
/// bit-flip repetition code report for an optional fault: ancilla `i`
/// compares data qubits `i` and `i + 1`, so a bit-flip on data qubit
/// `k` lights ancillas `k − 1` and `k` (one ancilla at the ends). A
/// phase-flip fault reports syndrome 0 — the bit-flip code cannot see
/// it.
#[must_use]
pub fn expected_syndrome(distance: usize, fault: Option<PauliFault>) -> u64 {
    let Some(fault) = fault else { return 0 };
    if !fault.flips_bit() {
        return 0;
    }
    let k = fault.qubit();
    let mut syndrome = 0u64;
    if k > 0 {
        syndrome |= 1 << (k - 1);
    }
    if k < distance - 1 {
        syndrome |= 1 << k;
    }
    syndrome
}

/// The distance-`distance` bit-flip repetition code protecting a GHZ
/// logical state, with an optional injected fault and a *correct*
/// syndrome assertion: prepare the logical `(|0…0⟩ + |1…1⟩)/√2`
/// codeword, optionally inject the fault, extract adjacent-pair
/// parities into `distance − 1` ancillas, and assert the syndrome
/// register classically equals [`expected_syndrome`]. The codeword's
/// end qubits are also asserted entangled (the logical state survives
/// syndrome extraction).
///
/// The program passes for every `fault` — it demonstrates that the
/// syndrome *diagnoses* the fault. Use
/// [`faulty_repetition_code_program`] for the failing variant that
/// *hunts* it.
///
/// Uses `2·distance − 1` qubits; any distance ≥ 2 works, including
/// sizes far beyond the dense backend.
///
/// # Panics
///
/// Panics if `distance < 2` or the fault names a qubit outside the
/// code, or if `distance > 65` (the syndrome register must fit a u64
/// classical assertion).
#[must_use]
pub fn repetition_code_program(distance: usize, fault: Option<PauliFault>) -> Program {
    build_repetition_code(distance, fault, expected_syndrome(distance, fault))
}

/// The repetition code with a fault the program author does *not* know
/// about: asserts syndrome 0, so a bit-flipping fault makes the
/// assertion fail — the statistical checker localizes the injected bug.
/// (A `Z` fault still passes: the bit-flip code is blind to it.)
///
/// # Panics
///
/// As [`repetition_code_program`].
#[must_use]
pub fn faulty_repetition_code_program(distance: usize, fault: PauliFault) -> Program {
    build_repetition_code(distance, Some(fault), 0)
}

fn build_repetition_code(
    distance: usize,
    fault: Option<PauliFault>,
    asserted_syndrome: u64,
) -> Program {
    assert!(distance >= 2, "repetition code needs distance ≥ 2");
    assert!(distance <= 65, "syndrome register must fit in a u64");
    if let Some(fault) = fault {
        assert!(fault.qubit() < distance, "fault outside the code block");
    }
    let mut p = Program::new();
    let data = p.alloc_register("data", distance);
    let syndrome = p.alloc_register("syndrome", distance - 1);
    // Logical (|0…0⟩ + |1…1⟩)/√2: the GHZ encoding of |+⟩_L.
    p.h(data.bit(0));
    for i in 1..distance {
        p.cx(data.bit(i - 1), data.bit(i));
    }
    if let Some(fault) = fault {
        fault.inject(&mut p, &data);
    }
    // Adjacent-pair parity extraction.
    for i in 0..distance - 1 {
        p.cx(data.bit(i), syndrome.bit(i));
        p.cx(data.bit(i + 1), syndrome.bit(i));
    }
    p.assert_classical(&syndrome, asserted_syndrome);
    let first = QReg::new("first", vec![data.bit(0)]);
    let last = QReg::new("last", vec![data.bit(distance - 1)]);
    p.assert_entangled(&first, &last);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_core::{BackendChoice, EnsembleConfig, EnsembleRunner, Verdict};

    fn runner(backend: BackendChoice) -> EnsembleRunner {
        EnsembleRunner::new(
            EnsembleConfig::default()
                .with_shots(256)
                .with_seed(6)
                .with_backend(backend),
        )
    }

    #[test]
    fn scenarios_are_clifford_only() {
        for p in [
            ghz_program(8),
            teleportation_chain_program(3),
            repetition_code_program(5, Some(PauliFault::X(2))),
            faulty_repetition_code_program(4, PauliFault::Y(0)),
        ] {
            assert!(p.compile(qdb_circuit::OptLevel::Specialize).is_clifford());
        }
    }

    #[test]
    fn ghz_passes_on_both_backends() {
        let p = ghz_program(6);
        for backend in [BackendChoice::Statevector, BackendChoice::Stabilizer] {
            let reports = runner(backend).check_program(&p).unwrap();
            assert_eq!(reports.len(), 3);
            for r in &reports {
                assert_eq!(r.verdict, Verdict::Pass, "{backend:?}: {r}");
                assert_eq!(r.exact, Some(Verdict::Pass), "{backend:?}: {r}");
            }
        }
    }

    #[test]
    fn ghz_scales_past_the_dense_limit() {
        let p = ghz_program(128);
        let reports = runner(BackendChoice::Auto).check_program(&p).unwrap();
        assert!(reports.iter().all(|r| r.passed()));
    }

    #[test]
    fn teleportation_preserves_the_payload() {
        for hops in [1, 2, 5] {
            let p = teleportation_chain_program(hops);
            let reports = runner(BackendChoice::Stabilizer).check_program(&p).unwrap();
            // 1 payload check + `hops` Bell checks + 1 destination check.
            assert_eq!(reports.len(), hops + 2);
            for r in &reports {
                assert_eq!(r.verdict, Verdict::Pass, "hops={hops}: {r}");
                assert_eq!(r.exact, Some(Verdict::Pass), "hops={hops}: {r}");
            }
        }
    }

    #[test]
    fn teleportation_matches_dense_at_small_size() {
        let p = teleportation_chain_program(2);
        let dense = runner(BackendChoice::Statevector)
            .check_program(&p)
            .unwrap();
        let tableau = runner(BackendChoice::Stabilizer).check_program(&p).unwrap();
        assert_eq!(dense.len(), tableau.len());
        for (d, t) in dense.iter().zip(&tableau) {
            assert_eq!(d.verdict, t.verdict);
            assert_eq!(d.exact, t.exact);
        }
    }

    #[test]
    fn syndromes_diagnose_injected_faults() {
        assert_eq!(expected_syndrome(5, None), 0);
        assert_eq!(expected_syndrome(5, Some(PauliFault::X(0))), 0b0001);
        assert_eq!(expected_syndrome(5, Some(PauliFault::X(2))), 0b0110);
        assert_eq!(expected_syndrome(5, Some(PauliFault::Y(4))), 0b1000);
        assert_eq!(expected_syndrome(5, Some(PauliFault::Z(2))), 0);
        for fault in [None, Some(PauliFault::X(1)), Some(PauliFault::Y(3))] {
            let p = repetition_code_program(5, fault);
            let reports = runner(BackendChoice::Stabilizer).check_program(&p).unwrap();
            for r in &reports {
                assert_eq!(r.verdict, Verdict::Pass, "fault {fault:?}: {r}");
            }
        }
    }

    #[test]
    fn undiagnosed_fault_is_hunted_down() {
        // A bit-flipping bug the author missed: the syndrome-0 claim fails.
        let p = faulty_repetition_code_program(5, PauliFault::X(2));
        let reports = runner(BackendChoice::Stabilizer).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Fail, "{}", reports[0]);
        assert_eq!(reports[0].exact, Some(Verdict::Fail));
        // …while a pure phase flip sails through: the bit-flip code is
        // blind to it (motivating real stabilizer codes).
        let p = faulty_repetition_code_program(5, PauliFault::Z(2));
        let reports = runner(BackendChoice::Stabilizer).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Pass, "{}", reports[0]);
    }

    #[test]
    fn large_repetition_code_runs_on_the_tableau() {
        let p = repetition_code_program(40, Some(PauliFault::X(17)));
        let reports = runner(BackendChoice::Auto).check_program(&p).unwrap();
        assert!(reports.iter().all(|r| r.passed()));
    }
}
