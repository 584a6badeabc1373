//! Packed suffix replay, cross-checked on every run and timed under
//! `--bench`.
//!
//! **Packed replay** (`amplitude_parallel/packed_{shor_n15,shor_noisy,grover}`):
//! the noisy trajectory tree with `pack_width` 8 vs 1 (packing
//! disabled). Reports must be bit-identical — packing only regroups
//! *which buffer* a suffix replay writes through, never the arithmetic
//! — and the pack census (`packs_leased`, `packed_lanes`) must show the
//! packs genuinely formed. The decode-amortization win is recorded into
//! `BENCH_results.json` (`pack_width`, `packs_leased`, `speedup`)
//! rather than asserted: unlike the thread axes it is a constant-factor
//! cache effect, meaningful to track, too host-sensitive to gate on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb_algos::shor::{shor_program, ShorConfig};
use qdb_algos::{ControlRouting, Gf2m};
use qdb_circuit::Program;
use qdb_core::{EnsembleConfig, EnsembleRunner, NoisySessionStats};
use qdb_sim::NoiseModel;
use std::time::Instant;

/// Median per-iteration seconds over `samples` timed batches.
fn time_median(samples: usize, mut routine: impl FnMut()) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64()
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

/// Shor (paper §4.6, N = 15) — the flagship of the `noisy_trajectory`
/// bench, here at a noise rate an order denser (5·10⁻⁴): packing pays
/// off exactly when sibling forks crowd the same suffix window, which
/// needs enough distinct faulty trajectories per breakpoint for first
/// faults to land within `PACK_WINDOW` ops of each other.
fn shor_case() -> (Program, EnsembleConfig) {
    let (program, _) = shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    );
    let config = EnsembleConfig::default()
        .with_shots(48)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(5e-4).with_readout_flip(1e-3));
    (program, config)
}

/// The `noisy_ensemble_shor_n15` session (16 shots, depolarizing
/// 2·10⁻³): the repo benchmark's `shor_noisy` workload, where the
/// wave is the shot-parallel unit and packs ride in it.
fn shor_noisy_case() -> (Program, EnsembleConfig) {
    let (program, config) = shor_case();
    let config = config
        .with_shots(16)
        .with_noise(NoiseModel::depolarizing(2e-3).with_readout_flip(1e-2));
    (program, config)
}

/// Grover over GF(2³) (paper §5.1): smaller circuit, bigger ensemble,
/// denser fork population per window.
fn grover_case() -> (Program, EnsembleConfig) {
    let field = Gf2m::standard(3);
    let (program, _) = grover_program(
        &field,
        6,
        GroverStyle::Manual,
        optimal_iterations(field.order()),
    );
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(2e-4).with_readout_flip(1e-3));
    (program, config)
}

/// Run the trajectory tree at `pack_width`, returning reports + stats.
fn packed_session(
    program: &Program,
    config: &EnsembleConfig,
    pack_width: usize,
) -> (Vec<qdb_core::AssertionReport>, NoisySessionStats) {
    let (reports, stats) = EnsembleRunner::new(config.with_pack_width(pack_width))
        .check_program_stats(program)
        .expect("noisy tree session");
    (reports, stats.expect("noisy sweep sessions trace the tree"))
}

/// Packed (width 8) vs unpacked (width 1) sessions must agree bit for
/// bit, and the packs must genuinely form on these ensembles.
fn cross_check_packed(name: &str, program: &Program, config: &EnsembleConfig) -> NoisySessionStats {
    let (packed, stats) = packed_session(program, config, 8);
    let (solo, solo_stats) = packed_session(program, config, 1);
    assert_eq!(packed.len(), solo.len(), "{name}: report count");
    for (p, s) in packed.iter().zip(&solo) {
        assert_eq!(p.verdict, s.verdict, "{name}: packed/solo verdicts diverge");
        assert_eq!(p.statistic.to_bits(), s.statistic.to_bits(), "{name}");
        assert_eq!(p.p_value.to_bits(), s.p_value.to_bits(), "{name}");
        assert_eq!(p.histogram, s.histogram, "{name}");
    }
    assert_eq!(solo_stats.packs_leased, 0, "{name}: width 1 must not pack");
    assert!(
        stats.packs_leased > 0 && stats.packed_lanes >= 2 * stats.packs_leased,
        "{name}: packs did not form (leased {}, lanes {})",
        stats.packs_leased,
        stats.packed_lanes
    );
    // Packing regroups buffers; dedup and fault-free serving must not
    // change, and the replay census may only grow by the documented
    // bound: each packed lane replays at most `PACK_WINDOW` extra trunk
    // ops (its distance behind the pack leader).
    let mut inflation = 0u64;
    for (p, s) in stats.per_breakpoint.iter().zip(&solo_stats.per_breakpoint) {
        assert_eq!(p.unique_trajectories, s.unique_trajectories, "{name}");
        assert_eq!(p.fault_free_shots, s.fault_free_shots, "{name}");
        assert!(
            p.replayed_ops >= s.replayed_ops,
            "{name}: packing lost work"
        );
        inflation += p.replayed_ops - s.replayed_ops;
    }
    assert!(
        inflation <= (qdb_core::trajectory::PACK_WINDOW * stats.packed_lanes) as u64,
        "{name}: census inflation {inflation} exceeds window × lanes"
    );
    stats
}

fn bench_amplitude_parallel(c: &mut Criterion) {
    let labels = [
        "amplitude_parallel/packed_shor_n15",
        "amplitude_parallel/packed_shor_noisy",
        "amplitude_parallel/packed_grover",
    ];
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        if !labels.iter().any(|label| label.contains(f.as_str())) {
            return;
        }
    }
    let bench_mode = std::env::args().any(|arg| arg == "--bench");
    let runs = |label: &str| {
        filter
            .as_deref()
            .is_none_or(|f| label.contains(f) || f.contains("amplitude_parallel"))
    };

    // Packed suffix replay on the noisy flagship ensembles.
    let cases: [(&str, (Program, EnsembleConfig)); 3] = [
        ("shor_n15", shor_case()),
        ("shor_noisy", shor_noisy_case()),
        ("grover", grover_case()),
    ];
    for (name, (program, config)) in cases {
        let label = format!("amplitude_parallel/packed_{name}");
        if !runs(&label) {
            continue;
        }
        let stats = cross_check_packed(name, &program, &config);
        println!(
            "amplitude_parallel packed_{name}: {} packs, {} lanes \
             (mean width {:.1})",
            stats.packs_leased,
            stats.packed_lanes,
            stats.packed_lanes as f64 / stats.packs_leased as f64
        );
        criterion::record_metric(&label, "pack_width", 8.0);
        criterion::record_metric(&label, "workers", qdb_bench::effective_workers() as f64);
        criterion::record_metric(&label, "packs_leased", stats.packs_leased as f64);
        criterion::record_metric(&label, "packed_lanes", stats.packed_lanes as f64);

        if bench_mode {
            let packed_s = time_median(3, || {
                std::hint::black_box(packed_session(&program, &config, 8));
            });
            let solo_s = time_median(3, || {
                std::hint::black_box(packed_session(&program, &config, 1));
            });
            let speedup = solo_s / packed_s;
            println!(
                "amplitude_parallel packed_{name}: {speedup:.2}x over unpacked replay \
                 ({:.1} ms vs {:.1} ms)",
                packed_s * 1e3,
                solo_s * 1e3
            );
            criterion::record_metric(&label, "speedup", speedup);
        }

        let mut group = c.benchmark_group(format!("amplitude_parallel_packed_{name}"));
        group.sample_size(10);
        for width in [1usize, 8] {
            let bench_label = if width == 1 { "solo" } else { "packed" };
            group.bench_with_input(BenchmarkId::from_parameter(bench_label), &(), |b, ()| {
                b.iter(|| packed_session(&program, &config, width));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_amplitude_parallel);
criterion_main!(benches);
