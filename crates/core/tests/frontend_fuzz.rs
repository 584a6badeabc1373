//! Fuzzing of the two text front ends, Scaffold and OpenQASM.
//!
//! Every input must parse to `Ok` or to a typed error, never panic, and
//! every `Ok` program of at most [`MAX_CHECKED_QUBITS`] qubits must then
//! run a 16-shot `check_program` to `Ok` or to a typed error, again
//! without a panic. Two kinds of input are drawn for each front end:
//!
//! * token streams over the front end's vocabulary: gate names,
//!   `reg[idx]` operands, brackets, parentheses, commas, semicolons and
//!   numbers (`1e999` and `nan` included);
//! * single-character deletions, duplications and swaps of Listing 1
//!   of the paper, as Scaffold source and as its OpenQASM export.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use qdb_circuit::{from_qasm, parse_scaffold, to_qasm, GateSink, Program};
use qdb_core::{EnsembleConfig, EnsembleRunner};

/// Programs wider than this parse but are not checked: a dense state
/// of more qubits makes each case slow without exercising new code.
const MAX_CHECKED_QUBITS: usize = 10;

/// Listing 1 of the paper (the QFT test harness), transcribed with a
/// hand-inlined 4-qubit QFT and its inverse.
const LISTING_1: &str = r"
    // Test harness for quantum Fourier transform (paper, Listing 1)
    qbit reg[4];
    PrepZ(reg[0], 1); PrepZ(reg[1], 0);
    PrepZ(reg[2], 1); PrepZ(reg[3], 0);
    assert_classical(reg, 4, 5);
    H(reg[3]);
    cRz(reg[2], reg[3], pi/2); cRz(reg[1], reg[3], pi/4); cRz(reg[0], reg[3], pi/8);
    H(reg[2]);
    cRz(reg[1], reg[2], pi/2); cRz(reg[0], reg[2], pi/4);
    H(reg[1]);
    cRz(reg[0], reg[1], pi/2);
    H(reg[0]);
    Swap(reg[0], reg[3]); Swap(reg[1], reg[2]);
    assert_superposition(reg, 4);
    Swap(reg[1], reg[2]); Swap(reg[0], reg[3]);
    H(reg[0]);
    cRz(reg[0], reg[1], -pi/2);
    H(reg[1]);
    cRz(reg[0], reg[2], -pi/4); cRz(reg[1], reg[2], -pi/2);
    H(reg[2]);
    cRz(reg[0], reg[3], -pi/8); cRz(reg[1], reg[3], -pi/4); cRz(reg[2], reg[3], -pi/2);
    H(reg[3]);
    assert_classical(reg, 4, 5);
";

/// Gate names, keywords and operands of each front end, and the
/// numbers both share, separated by whitespace.
const SCAFFOLD_WORDS: &str = "qbit qreg PrepZ PrepInt H X T Rz Rx CNOT Toffoli cRz ccRz Swap \
    cSwap MeasZ assert_classical assert_superposition assert_entangled assert_product \
    q r q[0] q[1] r[0] q[5] pi";
const QASM_WORDS: &str = "OPENQASM include qreg creg measure barrier gate h x t rx u1 cx \
    ccx cu1 ccu1 swap cswap q r q[0] q[1] r[0] q[5] pi -> { }";
const NUMBERS: &str = "0 1 2 3 4 12 1e999 -1e999 nan inf 0.5 -0 99999999999";

/// Punctuation and spacing tokens, whitespace included.
const PUNCTUATION: &[&str] = &[
    "[", "]", "(", ")", ",", ";", ";\n", " ", "*", "/", "-", "//",
];

/// A uniform pick from `list`.
fn one_of(list: Vec<&'static str>) -> impl Strategy<Value = &'static str> {
    (0..list.len()).prop_map(move |i| list[i])
}

/// A stream of up to 40 tokens drawn from `words`, the punctuation and
/// the numbers, concatenated without separators (spacing is a token).
fn token_stream(words: &'static str) -> impl Strategy<Value = String> {
    let token = prop_oneof![
        one_of(words.split_whitespace().collect()),
        one_of(PUNCTUATION.to_vec()),
        one_of(NUMBERS.split_whitespace().collect()),
    ];
    prop::collection::vec(token, 0..40).prop_map(|tokens| tokens.concat())
}

/// One single-character edit of `source`: `kind` 0 deletes the
/// character at `at`, 1 duplicates it, 2 swaps it with its successor.
fn mutate(source: &str, kind: u8, at: usize) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    let at = at % chars.len();
    match kind {
        0 => {
            chars.remove(at);
        }
        1 => chars.insert(at, chars[at]),
        _ => {
            let next = (at + 1).min(chars.len() - 1);
            chars.swap(at, next);
        }
    }
    chars.into_iter().collect()
}

/// The Listing 1 harness as OpenQASM text.
fn listing_1_qasm() -> String {
    let program = parse_scaffold(LISTING_1).expect("Listing 1 parses");
    to_qasm(program.circuit()).expect("Listing 1 exports")
}

/// Run a 16-shot session on `program` when it is small enough; an
/// `Err` is a fine outcome, a panic is not.
fn check_small(program: &Program) -> Result<(), String> {
    if program.num_qubits() > MAX_CHECKED_QUBITS {
        return Ok(());
    }
    let runner = EnsembleRunner::new(
        EnsembleConfig::default()
            .with_shots(16)
            .with_seed(1)
            .with_parallel(false),
    );
    catch_unwind(AssertUnwindSafe(|| {
        let _ = runner.check_program(program);
    }))
    .map_err(|_| "check_program panicked".to_string())
}

/// Parse `text` as Scaffold and check the result; `Err` names a panic.
fn scaffold_survives(text: &str) -> Result<(), String> {
    let parsed = catch_unwind(|| parse_scaffold(text)).map_err(|_| "parse panicked")?;
    match parsed {
        Ok(program) => check_small(&program),
        Err(_) => Ok(()),
    }
}

/// Parse `text` as OpenQASM and check the circuit, with a
/// superposition assertion on every declared register; `Err` names a
/// panic.
fn qasm_survives(text: &str) -> Result<(), String> {
    let parsed = catch_unwind(|| from_qasm(text)).map_err(|_| "parse panicked")?;
    let Ok(parsed) = parsed else {
        return Ok(());
    };
    if parsed.circuit.num_qubits() > MAX_CHECKED_QUBITS {
        return Ok(());
    }
    let mut program = Program::new();
    let registers: Vec<_> = parsed
        .registers
        .iter()
        .map(|reg| program.alloc_register(reg.name(), reg.width()))
        .collect();
    for inst in parsed.circuit.instructions() {
        program.push(inst.clone());
    }
    for reg in &registers {
        program.assert_superposition(reg);
    }
    check_small(&program)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scaffold_token_streams_never_panic(text in token_stream(SCAFFOLD_WORDS)) {
        let outcome = scaffold_survives(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    #[test]
    fn qasm_token_streams_never_panic(text in token_stream(QASM_WORDS)) {
        let outcome = qasm_survives(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    #[test]
    fn mutated_scaffold_listing_never_panics(kind in 0..3u8, at in 0..usize::MAX) {
        let text = mutate(LISTING_1, kind, at);
        let outcome = scaffold_survives(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    #[test]
    fn mutated_qasm_listing_never_panics(kind in 0..3u8, at in 0..usize::MAX) {
        let text = mutate(&listing_1_qasm(), kind, at);
        let outcome = qasm_survives(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }
}

/// The unmutated corpus itself parses and checks cleanly through both
/// front ends, so the mutation tests start from working input.
#[test]
fn listing_1_corpus_checks_through_both_front_ends() {
    let program = parse_scaffold(LISTING_1).expect("Listing 1 parses");
    let reports = EnsembleRunner::new(EnsembleConfig::default().with_shots(16))
        .check_program(&program)
        .expect("Listing 1 checks");
    assert_eq!(reports.len(), 3);
    assert!(from_qasm(&listing_1_qasm()).is_ok());
}
