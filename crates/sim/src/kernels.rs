//! Specialized gate kernels and control-subspace enumeration.
//!
//! The generic entry points on [`State`] treat every gate the same way:
//! [`State::apply_controlled_1q`] scans half the basis indices and
//! discards the ones whose control bits don't match, and
//! [`State::swap`] / [`State::apply_controlled_swap`] scan all of them.
//! That is the right *reference* semantics, but the hot path of the
//! ensemble engine applies the same few gates millions of times, so this
//! module provides kernels specialized by the 2×2 matrix's sparsity
//! structure ([`classify`]) and by control count:
//!
//! * [`State::apply_diagonal`] — `diag(d₀, d₁)` gates (`z`, `s`, `t`,
//!   `rz`, `phase`): two scalar multiplies per pair, no cross terms;
//! * [`State::apply_antidiagonal`] — anti-diagonal gates (`x`, `y`):
//!   a pure amplitude permutation with per-branch phases;
//! * [`State::apply_1q_subspace`] — the dense 2×2 kernel, but touching
//!   only the control-satisfying subspace, with a real-coefficient
//!   path for matrices whose entries are all real (`h`, `ry`);
//! * [`State::apply_swap_subspace`] — (controlled) swap enumerating
//!   exactly the index pairs it exchanges.
//!
//! Every kernel *enumerates* the `2ⁿ⁻¹⁻ᶜ` (or `2ⁿ⁻²⁻ᶜ` for swaps)
//! indices it touches instead of filtering the full index space by mask
//! test: a Toffoli visits `2ⁿ⁻³` pairs instead of scanning `2ⁿ⁻¹`
//! candidates. [`State::index_ops`] counts exactly this difference.
//!
//! Enumeration is *run-based*: every bit position below the lowest
//! fixed (control or target) bit is free, so the touched indices come
//! in contiguous runs of length `2^lowest`. The kernels step from run
//! to run with the carry trick (`base = ((base | step) + 1) & !step`
//! where `step` pre-fills the fixed bits *and* the in-run bits with
//! ones) and sweep each run as a pair of contiguous slices. The slice
//! form matters: the inner loops are bounds-check-free iterator zips
//! over disjoint subslices, which LLVM auto-vectorizes — the serial
//! per-index carry chain they replace was latency-bound at a few
//! cycles per amplitude pair.
//!
//! The per-pair arithmetic of every kernel class is defined once, in
//! the crate's `PairOp`, and chosen once per op. The packed replay of
//! [`StatePack`](crate::pack::StatePack) runs the same enumeration and
//! the same `PairOp` with each amplitude index widened to its block of
//! lanes, so a packed lane is bit-identical to a solo replay by
//! construction.
//!
//! ## Equivalence contract
//!
//! Each kernel touches the same amplitude pairs as its generic
//! counterpart, in the same ascending order. The swap kernel and the
//! dense kernel on a matrix with any nonzero imaginary part perform
//! the *identical* arithmetic on each pair, so their results are
//! bit-for-bit identical to the generic path. The other kernels skip
//! products whose factor is a structural zero: the diagonal and
//! anti-diagonal kernels skip `m₀₁·b` when `m₀₁ = 0`, and the dense
//! kernel on a real matrix (every `im == 0.0`, `-0.0` included) skips
//! every `mᵢⱼ.im · a` term. Each skipped term is `(±0)·finite = ±0`,
//! and adding or subtracting it only ever normalizes the sign of an
//! exactly-zero component (`-0.0 + 0.0 = +0.0`). So their results are
//! **value-identical**: `==` holds on every component, hence [`State`]
//! equality holds and every probability is bit-identical, but a zero
//! amplitude component may carry the opposite sign. Further gates keep
//! that property, so no downstream computation — probabilities,
//! sampling, inner products, reports — can observe the difference;
//! only `to_bits` on an exactly-zero component can.
//!
//! ## Amplitude-parallel chunking
//!
//! When a state is opted in ([`State::set_intra_parallel`]), is at or
//! above [`INTRA_PAR_MIN_QUBITS`], and more than one rayon worker is
//! configured, each kernel partitions its *run space* into contiguous
//! chunks and dispatches them across workers
//! ([`rayon::dispatch_chunks`]). Runs are disjoint and every run's
//! work is self-contained (the same pairs, the same in-run order, the
//! same arithmetic as the serial loop — a chunk seeks to its first run
//! with `Subspace::base_at` and then steps with the identical carry
//! trick), so the amplitudes produced are **bit-for-bit identical at
//! any thread count**; only wall-clock changes. A serial call is the
//! same loop over one chunk holding every run.

use crate::backend::{KernelOp, SimOp};
use crate::complex::Complex;
use crate::gates::Matrix2;
use crate::state::State;

/// States below this many qubits never chunk their kernels: at
/// `2¹⁴ = 16384` amplitudes a full sweep is a few microseconds, which
/// thread dispatch overhead would swamp. At and above this threshold
/// (`2¹⁵` amplitudes, ½ MiB) chunking wins on multi-core hosts.
pub const INTRA_PAR_MIN_QUBITS: usize = 15;

/// The sparsity structure of a 2×2 unitary, used by the lowering layer
/// in `qdb-circuit` to pick a kernel once per compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixClass {
    /// Both off-diagonal entries are exactly zero (`z`, `s`, `t`, `rz`,
    /// `phase`, and their adjoints).
    Diagonal,
    /// Both diagonal entries are exactly zero (`x`, `y`).
    AntiDiagonal,
    /// No exploitable structure (`h`, generic rotations, fused runs).
    General,
}

/// Classify a 2×2 unitary by exact-zero structure.
///
/// The test is *exact* (`== 0.0`), which is what the named gate
/// constructors in [`gates`](crate::gates) produce; a matrix that is
/// merely numerically close to diagonal is classified [`General`] so
/// specialization never changes results.
///
/// [`General`]: MatrixClass::General
#[must_use]
pub fn classify(m: &Matrix2) -> MatrixClass {
    let m = &m.0;
    if m[0][1] == Complex::ZERO && m[1][0] == Complex::ZERO {
        MatrixClass::Diagonal
    } else if m[0][0] == Complex::ZERO && m[1][1] == Complex::ZERO {
        MatrixClass::AntiDiagonal
    } else {
        MatrixClass::General
    }
}

/// One op's per-pair arithmetic, chosen once per op from its matrix.
///
/// This is the single definition of what every specialized kernel does
/// to an amplitude pair: [`State`]'s kernels and
/// [`StatePack`](crate::pack::StatePack)'s packed replay both run it
/// through [`PairOp::apply`], so a packed lane and a solo replay
/// perform the same arithmetic by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairOp {
    /// `diag(1, d1)` (`s`, `t`, `phase`, every `cphase` / `ccphase` of
    /// the QFT ladders): the `|…0⟩` branch is untouched, so only the
    /// set branch is multiplied.
    Phase(Complex),
    /// `diag(d0, d1)`: one scalar multiply per amplitude.
    Diagonal(Complex, Complex),
    /// X-type gates (`x`, CNOT, Toffoli) and swaps: a pure amplitude
    /// permutation, no arithmetic at all.
    Exchange,
    /// `[[0, a01], [a10, 0]]`: a cross-swap with per-branch phases.
    AntiDiagonal(Complex, Complex),
    /// A dense 2×2 whose four entries all have `im == 0.0` (`h`, `ry`):
    /// 8 multiplies and 4 adds per pair, the same on both components.
    Real([[f64; 2]; 2]),
    /// Any other dense 2×2 (`u3`, `rx`, fused runs): the full complex
    /// product.
    Dense([[Complex; 2]; 2]),
}

impl PairOp {
    /// The arithmetic of `diag(d0, d1)`.
    pub(crate) fn diagonal(d0: Complex, d1: Complex) -> Self {
        if d0 == Complex::ONE {
            Self::Phase(d1)
        } else {
            Self::Diagonal(d0, d1)
        }
    }

    /// The arithmetic of `[[0, a01], [a10, 0]]`.
    pub(crate) fn antidiagonal(a01: Complex, a10: Complex) -> Self {
        if a01 == Complex::ONE && a10 == Complex::ONE {
            Self::Exchange
        } else {
            Self::AntiDiagonal(a01, a10)
        }
    }

    /// The arithmetic of a dense 2×2 `m`.
    pub(crate) fn dense(m: &Matrix2) -> Self {
        let m = m.0;
        if m.iter().flatten().all(|e| e.im == 0.0) {
            Self::Real([[m[0][0].re, m[0][1].re], [m[1][0].re, m[1][1].re]])
        } else {
            Self::Dense(m)
        }
    }

    /// Run this arithmetic over every run pair of `sub` in `amps`,
    /// each amplitude index standing for `lanes` contiguous values (1
    /// for a [`State`], the lane count for a pack). Chunks the run
    /// space across rayon workers when `workers > 1`; returns the
    /// number of chunks dispatched (0 when serial).
    ///
    /// Each arm hands its own closure to [`Subspace::for_each_pair`],
    /// so the choice is made once per op and every inner loop is a
    /// branch-free slice zip.
    #[inline]
    pub(crate) fn apply(
        self,
        sub: &Subspace,
        amps: &mut [Complex],
        lanes: usize,
        workers: usize,
    ) -> usize {
        match self {
            Self::Phase(d1) => sub.for_each_pair(amps, lanes, workers, move |_, run1| {
                for a in run1 {
                    *a = d1 * *a;
                }
            }),
            Self::Diagonal(d0, d1) => sub.for_each_pair(amps, lanes, workers, move |run0, run1| {
                for (a, b) in run0.iter_mut().zip(run1.iter_mut()) {
                    *a = d0 * *a;
                    *b = d1 * *b;
                }
            }),
            Self::Exchange => sub.for_each_pair(amps, lanes, workers, |run0, run1| {
                run0.swap_with_slice(run1);
            }),
            Self::AntiDiagonal(a01, a10) => {
                sub.for_each_pair(amps, lanes, workers, move |run0, run1| {
                    for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
                        let a = *x;
                        let b = *y;
                        *x = a01 * b;
                        *y = a10 * a;
                    }
                })
            }
            Self::Real(r) => sub.for_each_pair(amps, lanes, workers, move |run0, run1| {
                for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
                    let a = *x;
                    let b = *y;
                    *x = Complex::new(
                        r[0][0] * a.re + r[0][1] * b.re,
                        r[0][0] * a.im + r[0][1] * b.im,
                    );
                    *y = Complex::new(
                        r[1][0] * a.re + r[1][1] * b.re,
                        r[1][0] * a.im + r[1][1] * b.im,
                    );
                }
            }),
            Self::Dense(m) => sub.for_each_pair(amps, lanes, workers, move |run0, run1| {
                for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
                    let a = *x;
                    let b = *y;
                    *x = m[0][0] * a + m[0][1] * b;
                    *y = m[1][0] * a + m[1][1] * b;
                }
            }),
        }
    }
}

/// Lower `op` on an `n`-qubit state to the pairs it touches and the
/// arithmetic it does on each — the one op-to-kernel mapping shared by
/// [`State`] and [`StatePack`](crate::pack::StatePack).
///
/// # Panics
///
/// Panics if the op touches a qubit out of range or repeats one.
pub(crate) fn lower(n: usize, op: &SimOp) -> (Subspace, PairOp) {
    let (controls, target) = (op.controls(), op.target());
    match op.kernel() {
        KernelOp::Diagonal { d0, d1 } => (
            Subspace::controlled(n, controls, target),
            PairOp::diagonal(*d0, *d1),
        ),
        KernelOp::AntiDiagonal { a01, a10 } => (
            Subspace::controlled(n, controls, target),
            PairOp::antidiagonal(*a01, *a10),
        ),
        KernelOp::General(m) => (Subspace::controlled(n, controls, target), PairOp::dense(m)),
        KernelOp::Swap { other } => (
            Subspace::swap(n, controls, target, *other),
            PairOp::Exchange,
        ),
    }
}

/// The run-based enumeration of the amplitude pairs one kernel call
/// touches, over the `2ⁿ` basis indices of an `n`-qubit state.
///
/// The representatives are exactly the indices with every fixed
/// (control or target) bit zero, in ascending order; each one is
/// OR-ed with `first` to give the index of the pair's first amplitude,
/// and its partner sits `offset` above. All positions below the lowest
/// fixed bit are free, so the set decomposes into `runs` contiguous
/// runs of `run_len = 2^lowest` indices each. Successive run bases are
/// enumerated with the carry trick — `base = ((base | step) + 1) &
/// !step` with the fixed bits *and* the in-run low bits pre-filled
/// with ones, so the `+ 1` carries straight over both — three ALU ops
/// per run, while the run interiors are plain contiguous slices the
/// inner loops can zip over without bounds checks.
#[derive(Debug)]
pub(crate) struct Subspace {
    /// Carry-trick step mask: fixed bits plus the in-run low bits.
    step: usize,
    /// Bits OR-ed into every representative to give the pair's first
    /// index: the controls, plus the low target for a swap.
    first: usize,
    /// Distance from a pair's first index to its partner: the target
    /// mask, or `hi − lo` for a swap. Always `≥ run_len`, so a run
    /// and its partner run never overlap.
    offset: usize,
    /// Length of each contiguous run (`2^lowest_fixed_bit`).
    run_len: usize,
    /// Number of runs covering the subspace.
    runs: usize,
    /// Basis indices in the state (`2ⁿ`).
    dim: usize,
}

/// Panic unless `q` is a qubit of an `n`-qubit state.
fn check_qubit(n: usize, q: usize) {
    assert!(q < n, "qubit {q} out of range for {n}-qubit state");
}

/// Validate `controls` against the already-fixed bits and return their
/// mask.
fn control_mask(n: usize, controls: &[usize], fixed: usize) -> usize {
    let mut cmask = 0usize;
    for &c in controls {
        check_qubit(n, c);
        assert!(
            (fixed | cmask) & (1 << c) == 0,
            "qubit {c} used twice in one kernel call"
        );
        cmask |= 1 << c;
    }
    cmask
}

impl Subspace {
    /// Build the enumeration of the representatives with every bit of
    /// `fixed` clear over `2ⁿ` indices: `2ⁿ⁻¹⁻ᶜ` of them for
    /// single-target kernels, `2ⁿ⁻²⁻ᶜ` for swaps.
    fn new(n: usize, fixed: usize, first: usize, offset: usize) -> Self {
        let low = fixed.trailing_zeros() as usize;
        let run_len = 1usize << low;
        let dim = 1usize << n;
        Self {
            step: fixed | (run_len - 1),
            first,
            offset,
            run_len,
            runs: dim >> (fixed.count_ones() as usize + low),
            dim,
        }
    }

    /// The pairs of a single-target kernel on `target` of an `n`-qubit
    /// state, conditioned on every control being `|1⟩`.
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub(crate) fn controlled(n: usize, controls: &[usize], target: usize) -> Self {
        check_qubit(n, target);
        let tmask = 1usize << target;
        for &c in controls {
            assert!(c != target, "control {c} equals target");
        }
        let cmask = control_mask(n, controls, tmask);
        Self::new(n, cmask | tmask, cmask, tmask)
    }

    /// The index pairs a (controlled) swap of `a` and `b` exchanges:
    /// each representative has the low target set and the high one
    /// clear, and its partner the reverse.
    ///
    /// # Panics
    ///
    /// Panics if qubits are out of range, `a == b`, or a control
    /// overlaps a swap target.
    pub(crate) fn swap(n: usize, controls: &[usize], a: usize, b: usize) -> Self {
        check_qubit(n, a);
        check_qubit(n, b);
        assert!(a != b, "swap targets must differ");
        for &c in controls {
            assert!(c != a && c != b, "control {c} overlaps swap target");
        }
        let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
        let cmask = control_mask(n, controls, lo | hi);
        Self::new(n, cmask | lo | hi, cmask | lo, hi - lo)
    }

    /// Number of pairs enumerated (`runs × run_len`).
    pub(crate) fn pairs(&self) -> usize {
        self.runs * self.run_len
    }

    #[inline]
    fn next(&self, base: usize) -> usize {
        ((base | self.step) + 1) & !self.step
    }

    /// The base index of run `k` — the value `k` applications of
    /// [`next`](Subspace::next) reach from zero.
    ///
    /// The carry trick counts through the free (zero) bits of `step`
    /// in ascending position order, so run `k`'s base is `k` with its
    /// bits deposited into those positions. This lets a chunk worker
    /// seek straight to its first run instead of replaying the carry
    /// chain from zero.
    fn base_at(&self, mut k: usize) -> usize {
        let mut free = !self.step;
        let mut base = 0usize;
        while k != 0 {
            let bit = free & free.wrapping_neg();
            if k & 1 == 1 {
                base |= bit;
            }
            free &= !bit;
            k >>= 1;
        }
        base
    }

    /// Apply `body` to every `(first, partner)` run pair, each index
    /// scaled to a block of `lanes` contiguous values, chunking the run
    /// space across rayon workers when `workers > 1`. Returns the
    /// number of parallel chunks dispatched (0 when serial).
    ///
    /// The chunk *boundaries* are the only thing that varies with the
    /// worker count (a serial call is one chunk holding every run):
    /// every chunk seeks to its first run with [`Subspace::base_at`]
    /// and then steps with the carry trick, so each run sees the same
    /// base, the same slices, and the same per-pair arithmetic in the
    /// same in-run order — results are bit-for-bit identical across
    /// thread counts.
    #[inline]
    fn for_each_pair<F>(&self, amps: &mut [Complex], lanes: usize, workers: usize, body: F) -> usize
    where
        F: Fn(&mut [Complex], &mut [Complex]) + Sync,
    {
        let len = self.run_len * lanes;
        let offset = self.offset * lanes;
        assert_eq!(
            Some(amps.len()),
            self.dim.checked_mul(lanes),
            "amplitude buffer shape"
        );
        let shared = SharedAmps(amps.as_mut_ptr());
        let visit = |chunk: std::ops::Range<usize>| {
            let mut base = self.base_at(chunk.start);
            for _ in chunk {
                let start0 = (base | self.first) * lanes;
                // SAFETY: every pair index is below `dim`, so both runs
                // lie in the buffer checked above; the caller owns runs
                // `chunk` exclusively and the two runs of a pair are
                // disjoint (see `SharedAmps`).
                let run0 = unsafe { shared.run(start0, len) };
                let run1 = unsafe { shared.run(start0 + offset, len) };
                body(run0, run1);
                base = self.next(base);
            }
        };
        if workers > 1 && self.runs > 1 {
            rayon::dispatch_chunks(self.runs, visit)
        } else {
            visit(0..self.runs);
            0
        }
    }
}

/// Raw pointer to the amplitude buffer, shared across chunk workers
/// (a serial call uses it too, as the only worker).
///
/// Sharing is sound because the run enumeration is a *partition*: each
/// worker owns a disjoint contiguous range of run indices, every run is
/// visited by exactly one worker, and a run's slices never overlap any
/// other run's (run bases differ in bits at or above the lowest fixed
/// bit while each slice spans only the `run_len = 2^lowest` indices
/// below it; within a pair, the partner slice starts `offset ≥
/// run_len` above the first).
#[derive(Clone, Copy)]
struct SharedAmps(*mut Complex);

// SAFETY: the one field is a pointer into a `Complex` buffer (plain
// `Copy` data) that outlives every chunk; the partition above keeps
// the workers' accesses disjoint.
unsafe impl Send for SharedAmps {}
// SAFETY: as for `Send`: shared use only ever derives disjoint runs.
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    /// The contiguous run `[start, start + len)` as a mutable slice.
    ///
    /// # Safety
    ///
    /// `[start, start + len)` must be in bounds of the buffer and no
    /// other live reference (on any thread) may overlap it — which the
    /// run-disjointness argument above guarantees when each run is
    /// handed to exactly one worker.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn run<'a>(&self, start: usize, len: usize) -> &'a mut [Complex] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

impl State {
    /// Worker count the kernels may chunk over: 1 (serial) unless this
    /// state opted in via [`State::set_intra_parallel`], is at or above
    /// [`INTRA_PAR_MIN_QUBITS`], and rayon has more than one worker
    /// (`RAYON_NUM_THREADS` is re-read per call, as everywhere else in
    /// the workspace).
    fn kernel_workers(&self) -> usize {
        if self.intra_parallel() && self.num_qubits() >= INTRA_PAR_MIN_QUBITS {
            rayon::current_num_threads()
        } else {
            1
        }
    }

    /// Run `op` over the pairs of `sub`, counting one gate and one
    /// index op per pair.
    pub(crate) fn apply_pairs(&mut self, sub: &Subspace, op: PairOp) {
        self.record_gate_op();
        self.record_index_ops(sub.pairs() as u64);
        let workers = self.kernel_workers();
        let chunks = op.apply(sub, self.amps_mut(), 1, workers);
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }

    /// Apply `diag(d0, d1)` to `target`, conditioned on all `controls`
    /// being `|1⟩`: `2ⁿ⁻¹⁻ᶜ` pairs of scalar multiplies, no cross
    /// terms, no index filtering (see the
    /// [module docs](crate::kernels) for the equivalence contract).
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_diagonal(&mut self, controls: &[usize], target: usize, d0: Complex, d1: Complex) {
        let sub = Subspace::controlled(self.num_qubits(), controls, target);
        self.apply_pairs(&sub, PairOp::diagonal(d0, d1));
    }

    /// Apply the anti-diagonal gate `[[0, a01], [a10, 0]]` to `target`,
    /// conditioned on all `controls` being `|1⟩`: a pure cross-swap of
    /// each amplitude pair with per-branch phases (`x` is
    /// `a01 = a10 = 1`, `y` is `a01 = −i, a10 = i`).
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_antidiagonal(
        &mut self,
        controls: &[usize],
        target: usize,
        a01: Complex,
        a10: Complex,
    ) {
        let sub = Subspace::controlled(self.num_qubits(), controls, target);
        self.apply_pairs(&sub, PairOp::antidiagonal(a01, a10));
    }

    /// Apply a dense 2×2 unitary to `target`, conditioned on all
    /// `controls` being `|1⟩`, visiting only the control-satisfying
    /// subspace: `2ⁿ⁻¹⁻ᶜ` pairs instead of the `2ⁿ⁻¹` candidates
    /// [`State::apply_controlled_1q`] scans, and the same pairs.
    ///
    /// A complex matrix gets exactly that path's arithmetic
    /// (bit-for-bit identical results); a real one skips the
    /// zero-imaginary products (value-identical, see the
    /// [module docs](crate::kernels)).
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_1q_subspace(&mut self, controls: &[usize], target: usize, m: &Matrix2) {
        let sub = Subspace::controlled(self.num_qubits(), controls, target);
        self.apply_pairs(&sub, PairOp::dense(m));
    }

    /// Swap qubits `a` and `b`, conditioned on all `controls` being
    /// `|1⟩`, enumerating exactly the `2ⁿ⁻²⁻ᶜ` index pairs it
    /// exchanges (the generic [`State::swap`] /
    /// [`State::apply_controlled_swap`] scan all `2ⁿ` indices).
    ///
    /// Bit-for-bit identical to the generic path: the same disjoint
    /// transpositions are applied (in ascending order of the
    /// `bit_a = 1, bit_b = 0` representative).
    ///
    /// # Panics
    ///
    /// Panics if qubits are out of range, `a == b`, or a control
    /// overlaps a swap target.
    pub fn apply_swap_subspace(&mut self, controls: &[usize], a: usize, b: usize) {
        let sub = Subspace::swap(self.num_qubits(), controls, a, b);
        self.apply_pairs(&sub, PairOp::Exchange);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::state::State;

    /// A fixed non-trivial 4-qubit state with every amplitude nonzero.
    fn dense_state() -> State {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_1q(q, &gates::h());
            s.apply_1q(q, &gates::t());
        }
        s.apply_controlled_1q(&[0], 2, &gates::ry(0.37));
        s.apply_controlled_1q(&[3], 1, &gates::rx(-1.1));
        s.reset_gate_ops();
        s.reset_index_ops();
        s
    }

    fn assert_bits_identical(a: &State, b: &State) {
        for i in 0..a.dim() {
            assert_eq!(
                a.amplitude(i).re.to_bits(),
                b.amplitude(i).re.to_bits(),
                "re mismatch at {i}"
            );
            assert_eq!(
                a.amplitude(i).im.to_bits(),
                b.amplitude(i).im.to_bits(),
                "im mismatch at {i}"
            );
        }
    }

    #[test]
    fn classify_named_gates() {
        for g in [
            gates::z(),
            gates::s(),
            gates::sdg(),
            gates::t(),
            gates::tdg(),
            gates::rz(0.7),
            gates::phase(-0.3),
        ] {
            assert_eq!(classify(&g), MatrixClass::Diagonal);
        }
        assert_eq!(classify(&gates::x()), MatrixClass::AntiDiagonal);
        assert_eq!(classify(&gates::y()), MatrixClass::AntiDiagonal);
        for g in [gates::h(), gates::rx(0.4), gates::ry(1.2)] {
            assert_eq!(classify(&g), MatrixClass::General);
        }
        // rx(π) is anti-diagonal only up to numerically-exact zeros on
        // the diagonal: cos(π/2) is not exactly 0.0 in f64, so it must
        // stay General.
        assert_eq!(
            classify(&gates::rx(std::f64::consts::PI)),
            MatrixClass::General
        );
    }

    #[test]
    fn diagonal_kernel_matches_generic_values() {
        for controls in [vec![], vec![1], vec![1, 3]] {
            let g = gates::rz(0.9);
            let mut fast = dense_state();
            fast.apply_diagonal(&controls, 2, g.0[0][0], g.0[1][1]);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 2, &g);
            assert_eq!(fast, reference, "controls {controls:?}");
        }
    }

    #[test]
    fn antidiagonal_kernel_matches_generic_values() {
        for controls in [vec![], vec![0], vec![0, 3]] {
            let g = gates::y();
            let mut fast = dense_state();
            fast.apply_antidiagonal(&controls, 1, g.0[0][1], g.0[1][0]);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 1, &g);
            assert_eq!(fast, reference, "controls {controls:?}");
        }
    }

    #[test]
    fn subspace_dense_kernel_is_bit_identical() {
        for controls in [vec![], vec![0], vec![0, 1], vec![3, 0, 1]] {
            let g = gates::u3(0.3, 1.1, -0.4);
            let mut fast = dense_state();
            fast.apply_1q_subspace(&controls, 2, &g);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 2, &g);
            assert_bits_identical(&fast, &reference);
        }
    }

    /// Real matrices the dense kernel runs on its real path: `h` and
    /// `ry` (whose negated entries carry `im = -0.0`), a reflection with
    /// negative entries, and `h` rebuilt with every imaginary part
    /// `-0.0`.
    fn real_matrices() -> Vec<Matrix2> {
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let neg_im = |re: f64| Complex::new(re, -0.0);
        vec![
            gates::h(),
            gates::ry(0.83),
            gates::ry(-2.1),
            Matrix2([
                [Complex::real(-0.6), Complex::real(0.8)],
                [Complex::real(0.8), Complex::real(0.6)],
            ]),
            Matrix2([[neg_im(r), neg_im(r)], [neg_im(r), neg_im(-r)]]),
        ]
    }

    /// 4-qubit states with exact `+0.0` and `-0.0` components: basis
    /// states, an `h` layer on part of `|0000⟩`, and one whose zeros
    /// are all negative.
    fn signed_zero_states() -> Vec<State> {
        let mut layer = State::zero(4);
        for q in [0, 2] {
            layer.apply_1q(q, &gates::h());
        }
        let mut amps = vec![Complex::new(-0.0, -0.0); 16];
        amps[3] = Complex::new(-0.6, -0.0);
        amps[12] = Complex::new(-0.0, 0.8);
        vec![
            State::basis(4, 0).unwrap(),
            State::basis(4, 11).unwrap(),
            layer,
            State::from_amplitudes(amps).unwrap(),
        ]
    }

    #[test]
    fn real_matrices_take_the_real_path() {
        for m in real_matrices() {
            assert!(matches!(PairOp::dense(&m), PairOp::Real(_)), "{m:?}");
        }
        for m in [gates::u3(0.3, 1.1, -0.4), gates::rx(0.4)] {
            assert!(matches!(PairOp::dense(&m), PairOp::Dense(_)), "{m:?}");
        }
    }

    #[test]
    fn real_dense_kernel_is_value_identical() {
        for (si, start) in signed_zero_states().into_iter().enumerate() {
            for (controls, target) in [
                (vec![], 0),
                (vec![], 2),
                (vec![0], 1),
                (vec![3], 0),
                (vec![0, 3], 2),
            ] {
                // Each step compares against the reference evolved on
                // its own, so sign-of-zero differences may accumulate
                // across the sequence; values must never differ.
                let mut fast = start.clone();
                let mut reference = start.clone();
                for (mi, m) in real_matrices().iter().enumerate() {
                    fast.apply_1q_subspace(&controls, target, m);
                    reference.apply_controlled_1q(&controls, target, m);
                    let at = format!("state {si}, controls {controls:?}, matrix {mi}");
                    for i in 0..fast.dim() {
                        assert_eq!(fast.amplitude(i), reference.amplitude(i), "{at}, index {i}");
                    }
                    for (p, q) in fast.probabilities().iter().zip(&reference.probabilities()) {
                        assert_eq!(p.to_bits(), q.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn subspace_swap_is_bit_identical() {
        for controls in [vec![], vec![2], vec![2, 3]] {
            let mut fast = dense_state();
            fast.apply_swap_subspace(&controls, 0, 1);
            let mut reference = dense_state();
            if controls.is_empty() {
                reference.swap(0, 1);
            } else {
                reference.apply_controlled_swap(&controls, 0, 1);
            }
            assert_bits_identical(&fast, &reference);
        }
        // Reversed qubit order is the same operation.
        let mut ab = dense_state();
        ab.apply_swap_subspace(&[3], 0, 2);
        let mut ba = dense_state();
        ba.apply_swap_subspace(&[3], 2, 0);
        assert_bits_identical(&ab, &ba);
    }

    #[test]
    fn kernels_do_reduced_index_work() {
        // n = 4 (dim = 16). Generic controlled scan: 8 candidates
        // regardless of controls; subspace kernels shrink with each
        // control. Generic swap scans 16; subspace swap visits 4.
        let mut s = dense_state();
        s.apply_1q_subspace(&[], 0, &gates::h());
        assert_eq!(s.index_ops(), 8); // same as apply_1q: all pairs
        s.apply_1q_subspace(&[1], 0, &gates::h());
        assert_eq!(s.index_ops(), 8 + 4);
        s.apply_1q_subspace(&[1, 2], 0, &gates::h()); // Toffoli shape
        assert_eq!(s.index_ops(), 8 + 4 + 2);
        s.apply_diagonal(&[1, 2], 0, Complex::ONE, Complex::I);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2);
        s.apply_antidiagonal(&[3], 0, Complex::ONE, Complex::ONE);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4);
        s.apply_swap_subspace(&[], 0, 1);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4 + 4);
        s.apply_swap_subspace(&[2], 0, 1); // Fredkin shape
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4 + 4 + 2);
        assert_eq!(s.gate_ops(), 7);

        // The generic paths pay the full scan for the same gates.
        let mut generic = dense_state();
        generic.apply_controlled_1q(&[1, 2], 0, &gates::x());
        assert_eq!(generic.index_ops(), 8);
        generic.apply_controlled_swap(&[2], 0, 1);
        assert_eq!(generic.index_ops(), 8 + 16);
    }

    #[test]
    fn toffoli_truth_table_via_subspace() {
        for input in 0..8u64 {
            let mut s = State::basis(3, input).unwrap();
            s.apply_antidiagonal(&[0, 1], 2, Complex::ONE, Complex::ONE);
            let expected = if input & 0b11 == 0b11 {
                (input ^ 0b100) as usize
            } else {
                input as usize
            };
            assert!(
                (s.probability(expected) - 1.0).abs() < 1e-12,
                "input {input}"
            );
        }
    }

    /// Guards the `RAYON_NUM_THREADS` toggling below against the test
    /// harness running these tests concurrently.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn base_at_matches_carry_enumeration() {
        // (fixed, cmask) shapes: plain 1q targets at several positions,
        // controlled kernels, and a swap-style double-fixed mask, all
        // over a 2¹⁰ space.
        for (fixed, cmask) in [
            (0b1usize, 0usize),
            (0b100, 0),
            (1 << 9, 0),
            (0b10011, 0b10010),
            (0b1100000, 0b0100000),
            (0b0000110, 0),
        ] {
            let sub = Subspace::new(10, fixed, cmask, 0);
            let mut base = 0usize;
            for k in 0..sub.runs {
                assert_eq!(
                    sub.base_at(k),
                    base,
                    "run {k} of fixed {fixed:#b} cmask {cmask:#b}"
                );
                base = sub.next(base);
            }
        }
    }

    #[test]
    fn intra_parallel_kernels_are_bit_identical() {
        let _guard = ENV_LOCK.lock().unwrap();
        // 16 qubits is above INTRA_PAR_MIN_QUBITS, so with 4 workers
        // the opted-in state chunks every kernel.
        let drive = |s: &mut State| {
            for q in 0..16 {
                s.apply_1q_subspace(&[], q, &gates::h());
            }
            let t = gates::t();
            s.apply_diagonal(&[], 3, t.0[0][0], t.0[1][1]);
            let rz = gates::rz(0.9);
            s.apply_diagonal(&[5], 9, rz.0[0][0], rz.0[1][1]);
            s.apply_diagonal(&[2], 15, rz.0[0][0], rz.0[1][1]);
            s.apply_antidiagonal(&[1], 14, Complex::ONE, Complex::ONE);
            let y = gates::y();
            s.apply_antidiagonal(&[], 7, y.0[0][1], y.0[1][0]);
            s.apply_1q_subspace(&[0, 8], 12, &gates::u3(0.3, 1.1, -0.4));
            s.apply_swap_subspace(&[4], 6, 13);
            s.apply_swap_subspace(&[], 0, 15);
        };
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut serial = State::zero(16);
        drive(&mut serial);
        let mut chunked = State::zero(16);
        chunked.set_intra_parallel(true);
        drive(&mut chunked);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_bits_identical(&serial, &chunked);
        assert_eq!(serial.par_chunks(), 0);
        assert!(chunked.par_chunks() > 0, "chunking never engaged");
        assert_eq!(serial.index_ops(), chunked.index_ops());
        assert_eq!(serial.gate_ops(), chunked.gate_ops());
    }

    #[test]
    fn small_states_stay_serial_even_when_opted_in() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut s = dense_state(); // 4 qubits, far below the threshold
        s.set_intra_parallel(true);
        s.apply_1q_subspace(&[], 0, &gates::h());
        s.apply_diagonal(&[], 1, Complex::ONE, Complex::I);
        s.apply_swap_subspace(&[], 0, 1);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(s.par_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn duplicate_control_panics() {
        dense_state().apply_1q_subspace(&[1, 1], 0, &gates::x());
    }

    #[test]
    #[should_panic(expected = "control 0 equals target")]
    fn control_equals_target_panics() {
        dense_state().apply_diagonal(&[0], 0, Complex::ONE, Complex::I);
    }

    #[test]
    #[should_panic(expected = "swap targets must differ")]
    fn swap_same_qubit_panics() {
        dense_state().apply_swap_subspace(&[], 1, 1);
    }

    #[test]
    #[should_panic(expected = "overlaps swap target")]
    fn swap_control_overlap_panics() {
        dense_state().apply_swap_subspace(&[0], 0, 1);
    }
}
