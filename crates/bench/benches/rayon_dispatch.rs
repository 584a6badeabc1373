//! Dispatch cost of the rayon shim, measured as its own layer.
//!
//! Every parallel loop in the workspace goes through the shim's one
//! work-claiming loop, which spawns its helper threads per call (there
//! is no persistent pool). This bench prices that fixed cost with empty
//! bodies, so the time is all scheduling:
//!
//! * `join/w{N}` — one [`rayon::join`] of two empty closures;
//! * `collect16/w{N}` — one 16-item `into_par_iter().map(..).collect()`,
//!   the shape of a `shor_noisy` presampling loop (16 shots).
//!
//! each at 1 worker and at [`qdb_bench::effective_workers`] (pinned via
//! `RAYON_NUM_THREADS`, which the shim re-reads on every call). Under
//! `cargo bench` each label's median lands in `BENCH_results.json` with
//! a `workers` metric, so the case for a persistent pool is sized from
//! data: per-call cost times calls per session, against session time.
//! There is no timing assertion in either mode; smoke runs only check
//! that every shape returns the right values.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;

/// Run `f` with `RAYON_NUM_THREADS` set to `workers`, restoring the
/// caller's setting afterwards.
fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    let out = f();
    match previous {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// The two measured shapes, each with an empty body.
const SHAPES: [(&str, fn()); 2] = [
    ("join", || {
        std::hint::black_box(rayon::join(|| 1u8, || 2u8));
    }),
    ("collect16", || {
        let out: Vec<usize> = (0..16).into_par_iter().map(|i| i).collect();
        std::hint::black_box(out);
    }),
];

fn bench_rayon_dispatch(c: &mut Criterion) {
    let mut worker_counts = vec![1, qdb_bench::effective_workers()];
    worker_counts.dedup();
    let mut group = c.benchmark_group("rayon_dispatch");
    group.sample_size(20);
    for workers in worker_counts {
        with_workers(workers, || {
            // The shapes return the right values at this worker count.
            assert_eq!(rayon::join(|| 1, || 2), (1, 2));
            let collected: Vec<usize> = (0..16).into_par_iter().map(|i| i).collect();
            assert_eq!(collected, (0..16).collect::<Vec<_>>());
            for (shape, run) in SHAPES {
                let param = format!("w{workers}");
                criterion::record_metric(
                    &format!("rayon_dispatch/{shape}/{param}"),
                    "workers",
                    workers as f64,
                );
                group.bench_with_input(BenchmarkId::new(shape, param), &(), |b, ()| {
                    b.iter(run);
                });
            }
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rayon_dispatch);
criterion_main!(benches);
