//! Cross-trajectory packed replay: K sibling states in one SoA buffer.
//!
//! The trajectory-tree engine in `qdb-core` replays every unique noisy
//! trajectory from an ideal checkpoint. Sibling trajectories that fork
//! within a short suffix window replay *almost the same op sequence* —
//! only their fault Paulis differ — yet per-fork replay walks the
//! compiled plan (and the whole amplitude buffer) once per sibling.
//! A [`StatePack`] batches K such siblings into one structure-of-arrays
//! buffer with the **K lane amplitudes contiguous per basis index**
//! (`amps[index * width + lane]`), so one pass over the compiled plan
//! applies each op to all K states at once:
//!
//! * plan decode (op match, subspace setup) is amortized K-fold;
//! * every run of basis indices is a contiguous block of `run_len × K`
//!   complex numbers — one cache-friendly sweep instead of K strided
//!   ones;
//! * the inner loops are the same bounds-check-free slice zips the
//!   dense kernels use, now `K` times longer, which LLVM
//!   auto-vectorizes across the lane dimension.
//!
//! ## Equivalence contract
//!
//! A pack has no kernels of its own: [`StatePack::apply_op`] runs the
//! dense kernels' enumeration and per-pair arithmetic (the crate's
//! `PairOp`, defined once in [`crate::kernels`]) with each
//! amplitude index widened to a block of K lanes. The `(pair, lane)`
//! element at SoA offset `j·K + k` pairs with `j·K + k` of the partner
//! block exactly as element `j` pairs with `j` in the unpacked run, so
//! zipping the widened blocks preserves the per-lane pairing and
//! order. Per-lane faults are applied with
//! [`StatePack::apply_pauli_lane`], which mirrors [`State::apply_1q`]'s
//! dense loop bit for bit. Extracting a lane therefore yields
//! amplitudes bit-identical to replaying that trajectory alone on a
//! [`State`], by construction.

use crate::backend::SimOp;
use crate::complex::Complex;
use crate::kernels;
use crate::state::{Pauli, State};

/// K same-shape statevectors stored SoA: lane `k` of basis index `i`
/// lives at `amps[i * width + k]`.
///
/// Built by broadcasting a checkpoint [`State`] across all lanes
/// ([`StatePack::broadcast`] or, recycling a buffer,
/// [`StatePack::broadcast_into`]); driven by [`StatePack::apply_op`]
/// (all lanes) and [`StatePack::apply_pauli_lane`] (one lane);
/// harvested by [`StatePack::extract_lane_into`].
#[derive(Debug, Clone)]
pub struct StatePack {
    num_qubits: usize,
    width: usize,
    amps: Vec<Complex>,
    gate_ops: u64,
}

impl StatePack {
    /// A pack of `width` lanes, every lane an exact copy of `source`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn broadcast(source: &State, width: usize) -> Self {
        let mut pack = Self {
            num_qubits: 0,
            width: 0,
            amps: Vec::new(),
            gate_ops: 0,
        };
        pack.broadcast_into(source, width);
        pack
    }

    /// Re-initialize this pack as `width` copies of `source`, reusing
    /// the existing buffer when its capacity suffices (the pack-lease
    /// analogue of [`State::copy_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn broadcast_into(&mut self, source: &State, width: usize) {
        assert!(width > 0, "a state pack needs at least one lane");
        self.num_qubits = source.num_qubits();
        self.width = width;
        self.gate_ops = 0;
        let dim = source.dim();
        self.amps.clear();
        self.amps.reserve_exact(dim * width);
        for i in 0..dim {
            let a = source.amplitude(i);
            for _ in 0..width {
                self.amps.push(a);
            }
        }
    }

    /// Number of qubits per lane.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of lanes.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Amplitude-index dimension per lane, `2ⁿ`.
    #[must_use]
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Packed gate applications performed since the last broadcast
    /// (each [`apply_op`](StatePack::apply_op) counts once, not once
    /// per lane — the decode amortization the pack exists for).
    #[must_use]
    pub fn gate_ops(&self) -> u64 {
        self.gate_ops
    }

    /// Bytes of memory this pack holds resident (buffer capacity plus
    /// header) — what the execution governor's resident-byte budget
    /// polls during packed replay.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.amps.capacity() * std::mem::size_of::<Complex>()
    }

    /// Amplitude of basis index `i`, lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ dim()` or `k ≥ width()`.
    #[must_use]
    pub fn amplitude(&self, i: usize, k: usize) -> Complex {
        assert!(k < self.width, "lane {k} out of range");
        self.amps[i * self.width + k]
    }

    /// Copy lane `k`'s amplitudes into `dst`, which must have the same
    /// qubit count (the trajectory engine hands in a pooled state that
    /// was checked out at matching shape). `dst`'s instrumentation
    /// counters are left as they were.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ width()` or `dst.num_qubits() != num_qubits()`.
    pub fn extract_lane_into(&self, k: usize, dst: &mut State) {
        assert!(k < self.width, "lane {k} out of range");
        assert_eq!(
            dst.num_qubits(),
            self.num_qubits,
            "lane extraction into a mismatched state"
        );
        let width = self.width;
        for (i, out) in dst.amps_mut().iter_mut().enumerate() {
            *out = self.amps[i * width + k];
        }
    }

    /// Apply one lowered op to every lane — the packed analogue of
    /// [`SimBackend::apply_op`](crate::backend::SimBackend::apply_op)
    /// on [`State`]. The enumeration and the per-pair arithmetic are
    /// the dense kernels' own, with every amplitude index widened to
    /// its block of `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics if the op touches a qubit out of range or repeats one.
    pub fn apply_op(&mut self, op: &SimOp) {
        let (sub, pair_op) = kernels::lower(self.num_qubits, op);
        self.gate_ops += 1;
        pair_op.apply(&sub, &mut self.amps, self.width, 1);
    }

    /// Apply a single-qubit Pauli to **one lane** — the per-trajectory
    /// fault primitive of packed replay.
    ///
    /// Mirrors the dense path exactly: [`State`]'s
    /// `apply_pauli` lowers `p` to its full 2×2 matrix and walks
    /// [`State::apply_1q`]'s pair loop, so this does the same per-index
    /// walk with the same dense arithmetic, touching only lane `k`'s
    /// strided elements. Identity is a no-op, as on [`State`].
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ width()` or `q` is out of range.
    pub fn apply_pauli_lane(&mut self, k: usize, q: usize, p: Pauli) {
        assert!(k < self.width, "lane {k} out of range");
        assert!(
            q < self.num_qubits,
            "qubit {q} out of range for {}-qubit pack",
            self.num_qubits
        );
        if p == Pauli::I {
            return;
        }
        let m = p.matrix().0;
        let width = self.width;
        let mask = 1usize << q;
        let dim = self.dim();
        let mut base = 0usize;
        while base < dim {
            for i0 in base..base + mask {
                let i1 = i0 | mask;
                let a = self.amps[i0 * width + k];
                let b = self.amps[i1 * width + k];
                self.amps[i0 * width + k] = m[0][0] * a + m[0][1] * b;
                self.amps[i1 * width + k] = m[1][0] * a + m[1][1] * b;
            }
            base += mask << 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{KernelOp, SimBackend};
    use crate::gates;

    /// A fixed non-trivial 5-qubit checkpoint.
    fn checkpoint() -> State {
        let mut s = State::zero(5);
        for q in 0..5 {
            s.apply_1q(q, &gates::h());
        }
        s.apply_1q(2, &gates::t());
        s.apply_controlled_1q(&[0], 3, &gates::ry(0.41));
        s
    }

    fn ops() -> Vec<SimOp> {
        let t = gates::t().0;
        let y = gates::y().0;
        vec![
            SimOp::new(vec![], 1, KernelOp::General(gates::h())),
            SimOp::new(
                vec![0],
                2,
                KernelOp::Diagonal {
                    d0: t[0][0],
                    d1: t[1][1],
                },
            ),
            SimOp::new(
                vec![],
                4,
                KernelOp::AntiDiagonal {
                    a01: y[0][1],
                    a10: y[1][0],
                },
            ),
            SimOp::new(
                vec![3],
                0,
                KernelOp::AntiDiagonal {
                    a01: Complex::ONE,
                    a10: Complex::ONE,
                },
            ),
            SimOp::new(vec![1], 2, KernelOp::Swap { other: 4 }),
            SimOp::new(vec![], 3, KernelOp::General(gates::u3(0.3, -0.9, 1.7))),
            SimOp::new(vec![2], 4, KernelOp::General(gates::ry(0.77))),
            SimOp::new(vec![], 0, KernelOp::General(gates::h())),
        ]
    }

    fn assert_lane_bits(pack: &StatePack, k: usize, reference: &State) {
        for i in 0..reference.dim() {
            assert_eq!(
                pack.amplitude(i, k).re.to_bits(),
                reference.amplitude(i).re.to_bits(),
                "re mismatch lane {k} index {i}"
            );
            assert_eq!(
                pack.amplitude(i, k).im.to_bits(),
                reference.amplitude(i).im.to_bits(),
                "im mismatch lane {k} index {i}"
            );
        }
    }

    #[test]
    fn packed_ops_are_bit_identical_to_per_state_replay() {
        let source = checkpoint();
        let mut pack = StatePack::broadcast(&source, 3);
        let mut reference = source.clone();
        for op in ops() {
            pack.apply_op(&op);
            reference.apply_op(&op);
        }
        for k in 0..3 {
            assert_lane_bits(&pack, k, &reference);
        }
        assert_eq!(pack.gate_ops(), ops().len() as u64);
    }

    #[test]
    fn lane_faults_stay_confined_and_bit_identical() {
        let source = checkpoint();
        let mut pack = StatePack::broadcast(&source, 4);
        // Each lane gets a different fault sequence interleaved with
        // shared packed ops — the packed-replay access pattern.
        let shared = ops();
        let faults: [&[(usize, Pauli)]; 4] = [
            &[(0, Pauli::X)],
            &[(2, Pauli::Z), (4, Pauli::Y)],
            &[],
            &[(1, Pauli::Y)],
        ];
        let mut refs: Vec<State> = (0..4).map(|_| source.clone()).collect();
        for (oi, op) in shared.iter().enumerate() {
            pack.apply_op(op);
            for r in refs.iter_mut() {
                r.apply_op(op);
            }
            if oi == 1 {
                for (k, lane_faults) in faults.iter().enumerate() {
                    for &(q, p) in *lane_faults {
                        pack.apply_pauli_lane(k, q, p);
                        refs[k].apply_pauli(q, p);
                    }
                }
            }
        }
        for (k, r) in refs.iter().enumerate() {
            assert_lane_bits(&pack, k, r);
        }
    }

    #[test]
    fn extraction_round_trips_through_a_pooled_state() {
        let source = checkpoint();
        let mut pack = StatePack::broadcast(&source, 2);
        pack.apply_pauli_lane(1, 0, Pauli::X);
        let mut dst = State::zero(5);
        pack.extract_lane_into(0, &mut dst);
        assert_eq!(dst, source);
        pack.extract_lane_into(1, &mut dst);
        let mut flipped = source.clone();
        flipped.apply_pauli(0, Pauli::X);
        assert_eq!(dst, flipped);
    }

    #[test]
    fn broadcast_into_recycles_capacity() {
        let source = checkpoint();
        let mut pack = StatePack::broadcast(&source, 4);
        let cap = pack.resident_bytes();
        pack.broadcast_into(&source, 2);
        assert_eq!(pack.width(), 2);
        assert!(pack.resident_bytes() <= cap);
        assert_lane_bits(&pack, 0, &source);
        assert_lane_bits(&pack, 1, &source);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_width_pack_panics() {
        let _ = StatePack::broadcast(&checkpoint(), 0);
    }
}
