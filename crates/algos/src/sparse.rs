//! Sparse-scale scenario builders: assertion-annotated **non-Clifford**
//! programs whose state support stays exponentially small, so the whole
//! bug-hunt workflow runs on the sparse amplitude-map backend at
//! 30–60 qubits — past the dense simulator's 26-qubit ceiling, where
//! the Clifford-only tableau cannot follow either.
//!
//! Two families, mirroring the workloads the paper actually debugs:
//!
//! * [`shor_style_period_program`] — order finding for the multiply-by-2
//!   map mod `2^w − 1` (a cyclic bit rotation), the structural skeleton
//!   of Shor's modular exponentiation: a small counting register in
//!   uniform superposition drives controlled permutations of a wide
//!   work register. Support never exceeds `2^counting`.
//! * [`phase_drift_repetition_code_program`] /
//!   [`coherent_fault_repetition_code_program`] — the bit-flip
//!   repetition code of [`crate::clifford`] under *coherent* (rotation)
//!   faults rather than discrete Pauli flips: a phase drift the code is
//!   provably blind to, and a partial bit rotation the syndrome
//!   assertion hunts down statistically.
//!
//! Every builder works at any size: under
//! `qdb_core::BackendChoice::Auto` a 40-qubit period-finding program
//! routes to the sparse tier automatically.

use qdb_circuit::{GateSink as _, Program, QReg};

/// Rotate the work register's bits left by one position (multiply by 2
/// mod `2^w − 1`), conditioned on `control`: `w − 1` adjacent
/// controlled-swaps.
fn controlled_rotate_left(p: &mut Program, control: usize, work: &QReg) {
    let w = work.qubits().len();
    for i in (0..w - 1).rev() {
        p.cswap(control, work.bit(i), work.bit(i + 1));
    }
}

/// The inverse rotation (divide by 2 mod `2^w − 1`).
fn controlled_rotate_right(p: &mut Program, control: usize, work: &QReg) {
    let w = work.qubits().len();
    for i in 0..w - 1 {
        p.cswap(control, work.bit(i), work.bit(i + 1));
    }
}

/// Shor-style period finding for the multiply-by-2 map mod `2^w − 1`,
/// sized `counting + work + 1` qubits.
///
/// Doubling an integer mod `2^w − 1` rotates its `w`-bit representation
/// left by one, so the modular exponentiation
/// `|x⟩|1⟩ → |x⟩|2^x mod (2^w − 1)⟩` is a cascade of
/// counting-controlled bit rotations — exactly the structure of Shor's
/// circuit, with the arithmetic reduced to permutations. The state
/// support therefore never exceeds `2^counting` basis states no matter
/// how wide the work register is, which is what lets the sparse backend
/// check this at 30–60 qubits.
///
/// The assertion staircase (all pass):
///
/// 1. the counting register reads classical 0 before its Hadamards;
/// 2. after them, its low (≤ 4) qubits are in uniform superposition;
/// 3. after the controlled rotations, the first counting qubit is
///    entangled with a CX-copied ancilla (the counting register is no
///    longer classical);
/// 4. after uncomputing the rotations, the work register reads
///    classical 1 again — the permutation cascade round-trips exactly.
///
/// The program is non-Clifford (controlled swaps, a T phase), so
/// neither the dense backend (for `counting + work + 1 > 26`) nor the
/// tableau can run it: it exists to exercise the sparse tier.
///
/// # Panics
///
/// Panics if `counting == 0`, `work < 2`, or `work > 64` (the final
/// classical assertion packs the work register into a `u64`).
#[must_use]
pub fn shor_style_period_program(counting: usize, work: usize) -> Program {
    assert!(counting >= 1, "need at least one counting qubit");
    assert!(work >= 2, "need at least two work qubits");
    assert!(work <= 64, "the work register must fit a u64 assertion");
    let mut p = Program::new();
    let c = p.alloc_register("counting", counting);
    let w = p.alloc_register("work", work);
    let anc = p.alloc_register("anc", 1);
    let probe = QReg::new("cprobe", c.qubits()[..counting.min(4)].to_vec());
    p.assert_classical(&probe, 0);
    for i in 0..counting {
        p.h(c.bit(i));
    }
    p.t(c.bit(0)); // a non-Clifford phase, harmless to every assertion
    p.assert_superposition(&probe);
    // |x⟩|1⟩ → |x⟩|2^x mod (2^w − 1)⟩: counting bit i drives 2^i mod w
    // single-step rotations (the map has order w, so exponents reduce).
    p.x(w.bit(0));
    for i in 0..counting {
        let steps = (1usize << i.min(63)) % work;
        for _ in 0..steps {
            controlled_rotate_left(&mut p, c.bit(i), &w);
        }
    }
    // The counting register is now correlated with the work register;
    // a CX onto a fresh ancilla makes that decisively visible.
    p.cx(c.bit(0), anc.bit(0));
    let c0 = QReg::new("c0", vec![c.bit(0)]);
    p.assert_entangled(&c0, &anc);
    // Uncompute: the inverse rotations restore |1⟩ exactly, whatever
    // the counting register holds.
    for i in (0..counting).rev() {
        let steps = (1usize << i.min(63)) % work;
        for _ in 0..steps {
            controlled_rotate_right(&mut p, c.bit(i), &w);
        }
    }
    p.assert_classical(&w, 1);
    p
}

/// The repetition code under a coherent *phase* drift: GHZ-encode the
/// logical `|+⟩`, apply `rz(theta)` to one data qubit, extract the
/// adjacent-pair parities, and assert syndrome 0 — which **passes**:
/// a bit-flip code is blind to phase errors, coherent or not, and this
/// program demonstrates it with a non-Clifford fault the stabilizer
/// backend cannot even express. The codeword's end qubits are also
/// asserted entangled (the drift doesn't break the logical state).
///
/// Uses `2·distance − 1` qubits; support never exceeds 2 basis states,
/// so any distance runs on the sparse tier.
///
/// # Panics
///
/// Panics if `distance < 2`, `distance > 65`, or `data_qubit` is
/// outside the code block.
#[must_use]
pub fn phase_drift_repetition_code_program(
    distance: usize,
    data_qubit: usize,
    theta: f64,
) -> Program {
    build_coherent_repetition_code(distance, data_qubit, CoherentFault::PhaseDrift(theta))
}

/// The repetition code under a coherent *bit* rotation the author
/// missed: GHZ-encode, apply `ry(theta)` to one data qubit, extract
/// parities, and assert syndrome 0 — which **fails** for any
/// appreciable `theta`: the rotation leaks amplitude `sin²(theta/2)`
/// into flipped branches, the syndrome lights up in that fraction of
/// shots, and both the statistical and the exact check reject. This is
/// the paper's bug-hunting story with a fault that is *not* a discrete
/// Pauli — only a statistical assertion (or the exact cross-check) can
/// see a partial rotation.
///
/// # Panics
///
/// As [`phase_drift_repetition_code_program`].
#[must_use]
pub fn coherent_fault_repetition_code_program(
    distance: usize,
    data_qubit: usize,
    theta: f64,
) -> Program {
    build_coherent_repetition_code(distance, data_qubit, CoherentFault::BitRotation(theta))
}

enum CoherentFault {
    PhaseDrift(f64),
    BitRotation(f64),
}

fn build_coherent_repetition_code(
    distance: usize,
    data_qubit: usize,
    fault: CoherentFault,
) -> Program {
    assert!(distance >= 2, "repetition code needs distance ≥ 2");
    assert!(distance <= 65, "syndrome register must fit in a u64");
    assert!(data_qubit < distance, "fault outside the code block");
    let mut p = Program::new();
    let data = p.alloc_register("data", distance);
    let syndrome = p.alloc_register("syndrome", distance - 1);
    p.h(data.bit(0));
    for i in 1..distance {
        p.cx(data.bit(i - 1), data.bit(i));
    }
    match fault {
        CoherentFault::PhaseDrift(theta) => p.rz(data.bit(data_qubit), theta),
        CoherentFault::BitRotation(theta) => p.ry(data.bit(data_qubit), theta),
    }
    for i in 0..distance - 1 {
        p.cx(data.bit(i), syndrome.bit(i));
        p.cx(data.bit(i + 1), syndrome.bit(i));
    }
    p.assert_classical(&syndrome, 0);
    let first = QReg::new("first", vec![data.bit(0)]);
    let last = QReg::new("last", vec![data.bit(distance - 1)]);
    p.assert_entangled(&first, &last);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_core::{BackendChoice, EnsembleConfig, EnsembleRunner, Verdict};
    use std::f64::consts::FRAC_PI_2;

    fn runner(backend: BackendChoice) -> EnsembleRunner {
        EnsembleRunner::new(
            EnsembleConfig::default()
                .with_shots(256)
                .with_seed(6)
                .with_backend(backend),
        )
    }

    #[test]
    fn scenarios_are_non_clifford_but_sparse_friendly() {
        for p in [
            shor_style_period_program(3, 5),
            phase_drift_repetition_code_program(5, 2, 0.8),
            coherent_fault_repetition_code_program(5, 2, 0.8),
        ] {
            let plan = p.compile(qdb_circuit::OptLevel::Specialize);
            assert!(!plan.is_clifford());
            assert!(
                plan.support_log2_bound() <= 6,
                "support bound {} should stay tiny",
                plan.support_log2_bound()
            );
        }
    }

    #[test]
    fn period_program_passes_on_dense_and_sparse_alike() {
        // Small enough for the dense engine: both backends must agree.
        let p = shor_style_period_program(3, 5);
        let dense = runner(BackendChoice::Statevector)
            .check_program(&p)
            .unwrap();
        let sparse = runner(BackendChoice::Sparse).check_program(&p).unwrap();
        assert_eq!(dense.len(), 4);
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.verdict, Verdict::Pass, "{d}");
            assert_eq!(d.verdict, s.verdict);
            assert_eq!(d.exact, s.exact);
        }
    }

    #[test]
    fn period_program_scales_past_the_dense_limit() {
        // 5 + 28 + 1 = 34 qubits: Auto must route to the sparse tier
        // and every assertion must pass, statistically and exactly.
        let p = shor_style_period_program(5, 28);
        let reports = runner(BackendChoice::Auto).check_program(&p).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.verdict, Verdict::Pass, "{r}");
            assert_eq!(r.exact, Some(Verdict::Pass), "{r}");
        }
    }

    #[test]
    fn phase_drift_is_invisible_to_the_syndrome() {
        // 17 data + 16 syndrome = 33 qubits, non-Clifford fault: the
        // syndrome-0 assertion must still pass — the bit-flip code
        // cannot see a phase drift.
        let p = phase_drift_repetition_code_program(17, 8, 0.9);
        let reports = runner(BackendChoice::Auto).check_program(&p).unwrap();
        for r in &reports {
            assert_eq!(r.verdict, Verdict::Pass, "{r}");
            assert_eq!(r.exact, Some(Verdict::Pass), "{r}");
        }
    }

    #[test]
    fn coherent_bit_rotation_is_hunted_down() {
        // The same 33-qubit code under ry(π/2): half the shots light
        // the syndrome, so the syndrome-0 claim fails decisively on
        // both the statistical and the exact check.
        let p = coherent_fault_repetition_code_program(17, 8, FRAC_PI_2);
        let reports = runner(BackendChoice::Auto).check_program(&p).unwrap();
        assert_eq!(reports[0].verdict, Verdict::Fail, "{}", reports[0]);
        assert_eq!(reports[0].exact, Some(Verdict::Fail));
        // The logical state survives the fault: the ends stay
        // entangled (correlated), so the second assertion passes.
        assert_eq!(reports[1].verdict, Verdict::Pass, "{}", reports[1]);
    }
}
