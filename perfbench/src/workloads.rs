//! The benchmark's inputs: the paper's programs, the configurations they
//! run under, and the answer every exact verdict must give.
//!
//! Everything here is a pure function of the workload seed; the library
//! only ever sees the generated programs and configs.

use std::collections::HashSet;

use qdb_algos::chem::{trotter_step_circuit, H2Molecule};
use qdb_algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb_algos::harnesses::{listing1_qft_harness, listing3_cadd_harness, listing4_modmul_harness};
use qdb_algos::shor::{shor_program, ShorConfig};
use qdb_algos::{AdderVariant, BugType, ControlRouting, Gf2m, Listing4Params};
use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{AssertionReport, EnsembleConfig, NoisySessionStats, Verdict};
use qdb_sim::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads. See `BENCHMARK.json` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperIdeal,
    ShorNoisy,
    ServerMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_ideal" => Some(Self::PaperIdeal),
            "shor_noisy" => Some(Self::ShorNoisy),
            "server_mix" => Some(Self::ServerMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperIdeal => "paper_ideal",
            Self::ShorNoisy => "shor_noisy",
            Self::ServerMix => "server_mix",
        }
    }
}

/// One program of a workload together with its known answer.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub program: Program,
    /// `None`: every exact verdict is Pass. `Some(i)`: the exact
    /// verdicts before `i` pass and the one at `i` fails — where the
    /// paper says the bug is caught first.
    pub first_fail: Option<usize>,
}

impl Case {
    fn new(name: impl Into<String>, program: Program, first_fail: Option<usize>) -> Self {
        Self {
            name: name.into(),
            program,
            first_fail,
        }
    }
}

/// Shots per session of the direct ideal workloads (the paper-scale
/// ensemble and the library default).
pub const IDEAL_SHOTS: usize = 1024;
/// Shots per `shor_noisy` session (the `noisy_ensemble_shor_n15` config).
pub const NOISY_SHOTS: usize = 16;
/// Shots per `server_mix` session.
pub const SERVER_SHOTS: usize = 256;
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn ideal_config(shots: usize, seed: u64) -> EnsembleConfig {
    EnsembleConfig::default().with_shots(shots).with_seed(seed)
}

pub fn noisy_config(seed: u64) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(NOISY_SHOTS)
        .with_seed(seed)
        .with_noise(NoiseModel::depolarizing(2e-3).with_readout_flip(1e-2))
}

/// The paper's programs, with Listing 1/3 values and the Grover target
/// drawn from `rng`.
pub fn paper_cases(rng: &mut StdRng) -> Vec<Case> {
    let mut cases = vec![
        Case::new(
            "listing1_qft_8q",
            listing1_qft_harness(8, rng.gen_range(0..256u64), false),
            None,
        ),
        Case::new(
            "listing3_adder_8q",
            listing3_cadd_harness(
                6,
                rng.gen_range(0..64u64),
                rng.gen_range(0..64u64),
                AdderVariant::Correct,
            ),
            None,
        ),
        Case::new(
            "listing4_correct",
            listing4_modmul_harness(Listing4Params::paper()).0,
            None,
        ),
        Case::new(
            "listing4_routing_bug",
            listing4_modmul_harness(Listing4Params::paper().with_routing_bug()).0,
            Some(2),
        ),
        Case::new(
            "listing4_wrong_inverse",
            listing4_modmul_harness(Listing4Params::paper().with_wrong_inverse()).0,
            Some(3),
        ),
    ];
    for bug in BugType::all() {
        let (program, index) = bug.demonstration();
        cases.push(Case::new(format!("bug_{bug:?}"), program, Some(index)));
    }
    cases.push(Case::new("shor_n15", shor_n15(), None));
    let field = Gf2m::standard(3);
    let target = rng.gen_range(1..field.order());
    let (grover, _) = grover_program(
        &field,
        target,
        GroverStyle::Manual,
        optimal_iterations(field.order()),
    );
    cases.push(Case::new("grover_gf8", grover, None));
    cases.push(Case::new("h2_trotter", h2_trotter(), None));
    cases
}

pub fn shor_n15() -> Program {
    shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    )
    .0
}

/// Hartree–Fock preparation, a classical precondition on it, two
/// Trotter steps under the H₂/STO-3G Hamiltonian, then an entanglement
/// assertion between the occupied and the virtual spin-orbital pairs:
/// the evolution mixes |0011⟩ with the doubly excited |1100⟩, so the two
/// pairs' occupations are correlated.
fn h2_trotter() -> Program {
    let molecule = H2Molecule::sto3g();
    let mut p = Program::new();
    let orbitals = p.alloc_register("orbitals", 4);
    p.prep_int(&orbitals, 0b0011);
    p.assert_classical(&orbitals, 0b0011);
    let evolution = trotter_step_circuit(molecule.pauli_terms(), &orbitals, 0.8, 2);
    for inst in evolution.instructions() {
        p.push(inst.clone());
    }
    let occupied = QReg::new("occupied", vec![orbitals.bit(0), orbitals.bit(1)]);
    let virtuals = QReg::new("virtual", vec![orbitals.bit(2), orbitals.bit(3)]);
    p.assert_entangled(&occupied, &virtuals);
    p
}

/// Width of a fresh Listing 3 adder's `b` register: 256 × 256 distinct
/// `(b, a)` pairs, 10 qubits with the controls.
const FRESH_WIDTH: usize = 8;
/// Odd, so `k ↦ offset + k · STRIDE` permutes any power-of-two range.
const STRIDE: u64 = 0x9E37_79B9;

/// Fresh `server_mix` programs: Listing 3 adder harnesses with `(b, a)`
/// taken in a seeded order that repeats none of the 65536, so each one
/// is a new fingerprint — a plan-cache and oracle-cache miss. One
/// harness kind keeps the fresh sessions' latencies in one mode, which
/// the mix's median falls inside; fresh Listing 1 harnesses cost several
/// times more and made that median jump between the two.
pub struct FreshPrograms {
    offset: u64,
    seen: HashSet<u64>,
    count: u64,
}

impl FreshPrograms {
    pub fn new(seed: u64, known: &[Case]) -> Self {
        Self {
            offset: rng_for(seed, 7).gen::<u64>(),
            seen: known.iter().map(|c| c.program.fingerprint()).collect(),
            count: 0,
        }
    }

    pub fn next_case(&mut self) -> Case {
        let domain = 1u64 << FRESH_WIDTH;
        loop {
            let index = self.offset.wrapping_add(self.count.wrapping_mul(STRIDE));
            self.count += 1;
            let (b, a) = ((index / domain) % domain, index % domain);
            let program = listing3_cadd_harness(FRESH_WIDTH, b, a, AdderVariant::Correct);
            // Guards the repeated set and runs longer than the permutation.
            if self.seen.insert(program.fingerprint()) {
                return Case::new("fresh_listing3", program, None);
            }
        }
    }
}

/// Check a settled session against its case's known answer.
pub fn check_reports(case: &Case, reports: &[AssertionReport]) -> Result<(), String> {
    let breakpoints = case.program.breakpoints().len();
    if reports.len() != breakpoints {
        return Err(format!(
            "{}: {} reports for {breakpoints} breakpoints",
            case.name,
            reports.len()
        ));
    }
    for (index, report) in reports.iter().enumerate() {
        if report.index != index || report.verdict == Verdict::Unevaluated {
            return Err(format!("{}: report {index} is not evaluated", case.name));
        }
        let want = match case.first_fail {
            Some(fail) if index == fail => Verdict::Fail,
            Some(fail) if index > fail => continue,
            _ => Verdict::Pass,
        };
        if report.exact != Some(want) {
            return Err(format!(
                "{}: exact verdict at {index} is {:?}, expected {want:?}",
                case.name, report.exact
            ));
        }
    }
    Ok(())
}

/// Check a trajectory-tree census: every pooled state came back.
pub fn check_census(case: &Case, stats: Option<&NoisySessionStats>) -> Result<(), String> {
    match stats {
        Some(s) if s.states_outstanding == 0 => Ok(()),
        Some(s) => Err(format!(
            "{}: {} pooled states outstanding",
            case.name, s.states_outstanding
        )),
        None => Err(format!(
            "{}: session did not run the trajectory tree",
            case.name
        )),
    }
}

/// The bits that must repeat exactly when a session is re-run with the
/// same seed: verdicts, exact verdicts and p-values.
pub fn report_bits(reports: &[AssertionReport]) -> Vec<(u64, Verdict, Option<Verdict>)> {
    reports
        .iter()
        .map(|r| (r.p_value.to_bits(), r.verdict, r.exact))
        .collect()
}

/// FNV-1a over [`report_bits`], printed so runs in separate processes
/// (timed and traced) can be compared.
pub fn report_digest(reports: &[AssertionReport]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (bits, verdict, exact) in report_bits(reports) {
        for byte in bits
            .to_le_bytes()
            .into_iter()
            .chain([verdict as u8, exact.map_or(9, |v| v as u8)])
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
