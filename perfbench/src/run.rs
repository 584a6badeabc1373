//! The timed and traced runs of each workload.
//!
//! Timed runs (`--trace 0`) call only the public session APIs —
//! `Debugger::run`, `EnsembleRunner::check_program_stats`,
//! `Server::submit`/`wait` — with no tracing, and report the end-to-end
//! metrics. Traced runs (`--trace 1`) replay the same sessions (same
//! seed, same session sequence) and split their time and work by layer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qdb_circuit::{CompiledCircuit, OptLevel};
use qdb_core::{AssertionReport, Debugger, EnsembleConfig, EnsembleRunner, NoisySessionStats};
use qdb_server::{Server, ServerConfig, ServerMetrics, SessionId, SessionState};
use rand::rngs::StdRng;
use rand::Rng;

use crate::measure::{
    blocks_of, case_median, mean, median, median_rate, nproc, peak_rss_mb, tail, Block, HostSpeed,
};
use crate::trace::{replay_ideal, Tracer};
use crate::workloads::{
    check_census, check_reports, ideal_config, noisy_config, paper_cases, report_bits,
    report_digest, rng_for, shor_n15, Case, FreshPrograms, Workload, IDEAL_SHOTS, SERVER_SHOTS,
};

/// Set-ups per run: at least `SETUP_REPS.start`, and more while they
/// have taken under `SETUP_SECONDS`, up to `SETUP_REPS.end`; `setup_s` is
/// their median. Cheap set-ups are repeated more, which steadies their
/// median.
const SETUP_REPS: std::ops::Range<usize> = 5..25;
const SETUP_SECONDS: f64 = 0.5;
/// Blocks a direct timed run is split into for `sessions_per_s`.
const BLOCKS: usize = 10;
/// Failures printed in full before the rest are only counted.
const FAILURES_SHOWN: u64 = 10;
/// Share of `--seconds` a direct traced run spends in its traced loop;
/// the rest goes to the parallel-speedup pairs.
const TRACE_LOOP_SHARE: f64 = 0.6;
/// Every fourth `server_mix` submission is a fresh program.
const FRESH_EVERY: u64 = 4;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Attempted and failed sessions (and failed output checks).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.fail(&message);
                None
            }
        }
    }

    /// A failed check that is not a session of its own.
    fn fail(&mut self, message: &str) {
        self.failed += 1;
        if self.failed <= FAILURES_SHOWN {
            eprintln!("perfbench: FAILED {message}");
        }
    }
}

/// The metrics of a run, each also printed with its unit as it is added.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // -0.0, an empty float sum, reads as 0.
        let value = value + 0.0;
        println!("# {name} = {value:.6} {unit}");
        self.0.push(Metric { name, value, unit });
    }
}

/// A settled direct session.
struct Settled {
    reports: Vec<AssertionReport>,
    stats: Option<NoisySessionStats>,
    ms: f64,
}

/// Run one direct session (timing only the library call) and check it.
fn call_direct(case: &Case, config: &EnsembleConfig, noisy: bool) -> Result<Settled, String> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if noisy {
            EnsembleRunner::new(config.clone()).check_program_stats(&case.program)
        } else {
            Debugger::new(config.clone())
                .run(&case.program)
                .map(|report| (report.reports().to_vec(), None))
        }
    }));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (reports, stats) = match result {
        Ok(Ok(settled)) => settled,
        Ok(Err(e)) => return Err(format!("{}: {e}", case.name)),
        Err(_) => return Err(format!("{}: panicked", case.name)),
    };
    check_reports(case, &reports)?;
    if noisy {
        check_census(case, stats.as_ref())?;
    }
    Ok(Settled { reports, stats, ms })
}

/// Inputs of a direct workload, and its deterministic session sequence:
/// session `k` runs case `k mod cases` under a config whose seed is the
/// `k`th draw of the session stream.
struct Direct {
    cases: Vec<Case>,
    noisy: bool,
    config: fn(u64) -> EnsembleConfig,
    sessions: StdRng,
}

impl Direct {
    fn build(workload: Workload, seed: u64) -> Self {
        let mut rng = rng_for(seed, 1);
        let (cases, noisy, config): (_, _, fn(u64) -> EnsembleConfig) = match workload {
            Workload::PaperIdeal => (paper_cases(&mut rng), false, |seed| {
                ideal_config(IDEAL_SHOTS, seed)
            }),
            Workload::ShorNoisy => (
                vec![Case {
                    name: "shor_n15_noisy".into(),
                    program: shor_n15(),
                    first_fail: None,
                }],
                true,
                noisy_config,
            ),
            Workload::ServerMix => unreachable!("server_mix is not a direct workload"),
        };
        Self {
            cases,
            noisy,
            config,
            sessions: rng_for(seed, 2),
        }
    }

    fn next_session(&mut self, k: u64) -> (usize, EnsembleConfig) {
        let seed = self.sessions.gen::<u64>();
        ((k % self.cases.len() as u64) as usize, (self.config)(seed))
    }

    /// Run every case once, so lazy set-up and first-touch costs are
    /// paid before timing starts.
    fn warm_up(&self) -> Result<(), String> {
        for case in &self.cases {
            call_direct(case, &(self.config)(0), self.noisy)?;
        }
        Ok(())
    }
}

/// Build inputs and warm up repeatedly (see `SETUP_REPS`); return the
/// last set-up and the median set-up time.
fn setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS.start
        || (times.len() < SETUP_REPS.end && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    println!("#   setup_s is the median of {} set-ups", times.len());
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// `p50` is the run's median latency, as the workload defines it. Every
/// time is scaled to the nominal host by `host` (see [`HostSpeed`]).
fn end_to_end(
    metrics: &mut Metrics,
    blocks: &[Block],
    latencies: &[f64],
    p50: f64,
    setup_s: f64,
    host: &mut HostSpeed,
    tally: &Tally,
) {
    let t = tail(latencies);
    let completed: usize = blocks.iter().map(|b| b.0).sum();
    let elapsed: f64 = blocks.iter().map(|b| b.1).sum();
    println!(
        "# sessions: {completed} completed in {elapsed:.3} s ({:.3}/s overall); \
         sessions_per_s is the median of {} blocks; tail is p{} of {} samples ({} beyond); \
         failed_frac = {} ({}/{})",
        completed as f64 / elapsed,
        blocks.len(),
        t.percentile,
        t.samples,
        t.beyond,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    let rate = median_rate(blocks);
    println!(
        "# raw: sessions_per_s {rate:.6} 1/s, latency_p50_ms {p50:.6} ms, \
         latency_tail_ms {:.6} ms, setup_s {setup_s:.6} s",
        t.value
    );
    let scale = host.scale();
    metrics.add("sessions_per_s", rate / scale, "1/s");
    metrics.add("latency_p50_ms", p50 * scale, "ms");
    metrics.add("latency_tail_ms", t.value * scale, "ms");
    metrics.add("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB");
    metrics.add("setup_s", setup_s * scale, "s");
}

/// Median latency of each case, so a shift in the mix shows.
fn print_cases(names: &[&str], latencies: &[Vec<f64>]) {
    for (name, values) in names.iter().zip(latencies) {
        if !values.is_empty() {
            println!(
                "#   case {name}: {} sessions, p50 {:.3} ms",
                values.len(),
                median(values)
            );
        }
    }
}

/// Re-run a session and require bit-identical reports.
fn check_repeat(first: &[AssertionReport], again: &[AssertionReport]) -> Result<(), String> {
    println!(
        "# first-session report digest {:016x}",
        report_digest(first)
    );
    if report_bits(first) == report_bits(again) {
        Ok(())
    } else {
        Err("re-running the first session with its seed changed its reports".into())
    }
}

pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    if workload == Workload::ServerMix {
        return server_timed(seed, seconds);
    }
    let (mut direct, setup_s) = setup(|| {
        let direct = Direct::build(workload, seed);
        direct.warm_up()?;
        Ok(direct)
    })?;
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut ends = Vec::new();
    let mut by_case: Vec<Vec<f64>> = vec![Vec::new(); direct.cases.len()];
    let mut first: Option<(usize, EnsembleConfig, Vec<AssertionReport>)> = None;
    let mut host = HostSpeed::default();
    let mut paused = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        paused += host.tick();
        let (case, config) = direct.next_session(k);
        if let Some(settled) = tally.record(call_direct(&direct.cases[case], &config, direct.noisy))
        {
            ends.push((start.elapsed() - paused).as_secs_f64());
            latencies.push(settled.ms);
            by_case[case].push(settled.ms);
            if k == 0 {
                first = Some((case, config, settled.reports));
            }
        }
        k += 1;
    }
    match &first {
        Some((case, config, reports)) => {
            let again = call_direct(&direct.cases[*case], config, direct.noisy)
                .and_then(|again| check_repeat(reports, &again.reports));
            tally.record(again);
        }
        None => {
            tally.record::<()>(Err("the first session did not settle".into()));
        }
    }
    let names: Vec<&str> = direct.cases.iter().map(|c| c.name.as_str()).collect();
    print_cases(&names, &by_case);
    println!("#   latency_p50_ms is the median of the per-case medians");
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        &blocks_of(&ends, BLOCKS),
        &latencies,
        case_median(&by_case),
        setup_s,
        &mut host,
        &tally,
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Per-session layer numbers accumulated over a traced run.
#[derive(Default)]
struct LayerTotals {
    sessions: u64,
    compiled_ops: f64,
    gate_ops: f64,
    bytes_computed: f64,
    par_chunks: f64,
    shots_drawn: f64,
    tests: f64,
    session_ms: f64,
    trajectory: Vec<(NoisySessionStats, u64)>,
}

/// Emit every per-layer metric. Layers a workload bypasses read 0.
fn per_layer(metrics: &mut Metrics, tracer: &Tracer, totals: &LayerTotals, extra: &Extra) -> f64 {
    let sessions = totals.sessions.max(1) as f64;
    let self_ms = tracer.self_ms();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let per = |total: f64| total / sessions;

    metrics.add("circuit.compile_ms", per(layer("circuit.compile")), "ms");
    metrics.add("circuit.compiled_ops", per(totals.compiled_ops), "count");
    metrics.add(
        "circuit.plan_cache_hit_ratio",
        extra.plan_hit_ratio,
        "ratio",
    );
    metrics.add("sim.evolve_ms", per(layer("sim.walk")), "ms");
    metrics.add("sim.gate_ops", per(totals.gate_ops), "count");
    metrics.add("sim.bytes_computed", per(totals.bytes_computed), "B");
    metrics.add("sim.par_chunks", per(totals.par_chunks), "count");
    metrics.add("sim.sample_ms", per(layer("sim.sample")), "ms");
    metrics.add("sim.shots_drawn", per(totals.shots_drawn), "count");
    metrics.add("stats.test_ms", per(layer("stats.test")), "ms");
    metrics.add("stats.tests", per(totals.tests), "count");
    metrics.add("core.exact_ms", per(layer("core.exact")), "ms");
    metrics.add(
        "core.exact_disagreements",
        extra.disagreements.0 as f64,
        "count",
    );
    println!(
        "#   base: {} assertions over the first cycle of sessions",
        extra.disagreements.1
    );
    metrics.add("core.session_ms", per(totals.session_ms), "ms");
    metrics.add("core.parallel_speedup", extra.speedup, "x");

    let tree = &totals.trajectory;
    let tree_sessions = tree.len().max(1) as f64;
    // `+ 0.0`: an empty float sum is -0.0, which should read as 0.
    let sum =
        |f: &dyn Fn(&NoisySessionStats) -> f64| tree.iter().map(|(s, _)| f(s)).sum::<f64>() + 0.0;
    let unique = sum(&|s| {
        s.per_breakpoint
            .iter()
            .map(|b| b.unique_trajectories as f64)
            .sum()
    });
    let shots = sum(&|s| s.per_breakpoint.iter().map(|b| b.shots as f64).sum());
    let replayed = sum(&|s| s.per_breakpoint.iter().map(|b| b.replayed_ops as f64).sum());
    let total_ops = sum(&|s| s.total_ops() as f64);
    let reference = tree.iter().map(|(_, r)| *r as f64).sum::<f64>() + 0.0;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    metrics.add(
        "trajectory.unique_trajectories",
        unique / tree_sessions,
        "count",
    );
    metrics.add("trajectory.dedup_ratio", ratio(shots, unique), "ratio");
    println!("#   base: {shots} breakpoint-shots over {unique} unique trajectories");
    metrics.add("trajectory.replayed_ops", replayed / tree_sessions, "count");
    metrics.add("trajectory.total_ops", total_ops / tree_sessions, "count");
    metrics.add(
        "trajectory.work_ratio",
        ratio(total_ops, reference),
        "ratio",
    );
    println!("#   base: {reference} reference (per-shot) ops");
    metrics.add(
        "trajectory.states_allocated",
        sum(&|s| s.states_allocated as f64) / tree_sessions,
        "count",
    );
    metrics.add(
        "trajectory.packs_leased",
        sum(&|s| s.packs_leased as f64) / tree_sessions,
        "count",
    );
    metrics.add(
        "trajectory.packed_lanes",
        sum(&|s| s.packed_lanes as f64) / tree_sessions,
        "count",
    );

    metrics.add("server.submit_us", extra.submit_us, "us");
    metrics.add("server.overhead_ms", extra.overhead_ms, "ms");
    metrics.add("server.queue_depth", extra.queue_depth, "count");
    metrics.add(
        "server.oracle_cache_hit_ratio",
        extra.oracle_hit_ratio,
        "ratio",
    );
    metrics.add("server.retries", extra.retries, "count");
    metrics.add("server.degradations", extra.degradations, "count");

    let measured = [
        "circuit.compile",
        "sim.walk",
        "sim.sample",
        "stats.test",
        "core.exact",
    ]
    .iter()
    .map(|name| layer(name))
    .sum::<f64>();
    let coverage = ratio(measured, totals.session_ms);
    metrics.add("trace.coverage", coverage, "ratio");
    println!(
        "#   base: {measured:.3} ms of layer self time over {:.3} ms of sessions",
        totals.session_ms
    );
    metrics.add("trace.sps_delta", extra.sps_delta, "1/s");
    metrics.add("trace.sessions", totals.sessions as f64, "count");
    coverage
}

/// Per-layer numbers that come from outside the span tree.
#[derive(Default)]
struct Extra {
    plan_hit_ratio: f64,
    /// Statistical verdicts that disagree with the exact verdict, and the
    /// assertions checked, over the first cycle of sessions.
    disagreements: (u64, u64),
    speedup: f64,
    submit_us: f64,
    overhead_ms: f64,
    queue_depth: f64,
    oracle_hit_ratio: f64,
    retries: f64,
    degradations: f64,
    sps_delta: f64,
}

fn count_disagreements(reports: &[AssertionReport], into: &mut (u64, u64)) {
    into.0 += reports.iter().filter(|r| r.disagrees_with_exact()).count() as u64;
    into.1 += reports.len() as u64;
}

/// Add one decomposed ideal replay's counters.
fn add_replay(totals: &mut LayerTotals, replay: &crate::trace::IdealReplay) {
    totals.compiled_ops += replay.compiled_ops as f64;
    totals.gate_ops += replay.gate_ops as f64;
    totals.bytes_computed += replay.gate_ops as f64 * (1u64 << replay.num_qubits) as f64 * 16.0;
    totals.par_chunks += replay.par_chunks as f64;
    totals.shots_drawn += replay.shots_drawn as f64;
    totals.tests += replay.tests as f64;
}

/// `core.parallel_speedup`: the same sessions under `parallel = false`
/// and `parallel = true` (the default), alternating, `pairs` times each;
/// median serial ms over median parallel ms. The two must agree bit for
/// bit.
fn parallel_speedup(
    sessions: &[(&Case, EnsembleConfig)],
    noisy: bool,
    pairs: usize,
    tally: &mut Tally,
) -> f64 {
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..pairs {
        for (case, config) in sessions {
            let one = tally.record(call_direct(case, &config.with_parallel(false), noisy));
            let other = tally.record(call_direct(case, &config.with_parallel(true), noisy));
            if let (Some(one), Some(other)) = (one, other) {
                if report_bits(&one.reports) != report_bits(&other.reports) {
                    tally.fail(&format!(
                        "{}: serial and parallel reports differ",
                        case.name
                    ));
                }
                serial.push(one.ms);
                parallel.push(other.ms);
            }
        }
    }
    let speedup = median(&serial) / median(&parallel);
    println!(
        "# parallel speedup: serial {:.3} ms / parallel {:.3} ms over {} pairs, {} rayon workers",
        median(&serial),
        median(&parallel),
        serial.len(),
        rayon::current_num_threads()
    );
    speedup
}

/// Write the spans of a traced run to `perfbench/out/`.
fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}

pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    if workload == Workload::ServerMix {
        return server_traced(seed, seconds);
    }
    let mut direct = Direct::build(workload, seed);
    direct.warm_up()?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::default();
    let mut totals = LayerTotals::default();
    let mut extra = Extra::default();
    let mut first_cycle: Vec<(usize, EnsembleConfig)> = Vec::new();
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let cycle = direct.cases.len() as u64;
    let budget = Duration::from_secs_f64(seconds * TRACE_LOOP_SHARE);
    let start = Instant::now();
    let mut k = 0;
    while k < cycle || start.elapsed() < budget {
        let (case_index, config) = direct.next_session(k);
        let case = &direct.cases[case_index];
        tracer.set_session(k);
        let span = tracer.begin("core.session");
        let settled = call_direct(case, &config, direct.noisy);
        tracer.end(span);
        k += 1;
        let Some(settled) = tally.record(settled) else {
            continue;
        };
        untraced_ms += settled.ms;
        totals.session_ms += settled.ms;
        totals.sessions += 1;
        if k <= cycle {
            count_disagreements(&settled.reports, &mut extra.disagreements);
            first_cycle.push((case_index, config.clone()));
        }
        if k == 1 {
            println!(
                "# first-session report digest {:016x}",
                report_digest(&settled.reports)
            );
        }
        if direct.noisy {
            // The trajectory tree cannot be split from outside: time its
            // plan compile on its own, then the whole tree.
            let root = tracer.begin("trace.session");
            let span = tracer.begin("circuit.compile");
            let plan = CompiledCircuit::compile(case.program.circuit(), OptLevel::Specialize);
            tracer.end(span);
            totals.compiled_ops += plan.ops().len() as f64;
            let span = tracer.begin("trajectory.tree");
            let again = call_direct(case, &config, true);
            tracer.end(span);
            traced_ms += tracer.end(root);
            if let Some(again) = tally.record(again) {
                if report_bits(&again.reports) != report_bits(&settled.reports) {
                    tally.fail(&format!("{}: traced re-run changed the reports", case.name));
                }
            }
            let stats = settled.stats.expect("census checked by call_direct");
            let reference = stats.reference_ops(&case.program);
            totals.trajectory.push((stats, reference));
        } else {
            let root_start = Instant::now();
            let replay = replay_ideal(&mut tracer, &case.program, &config);
            traced_ms += root_start.elapsed().as_secs_f64() * 1e3;
            if let Some(replay) = tally.record(replay) {
                if replay.bits != report_bits(&settled.reports) {
                    tally.fail(&format!(
                        "{}: decomposed replay differs from the library's reports",
                        case.name
                    ));
                }
                add_replay(&mut totals, &replay);
            }
        }
    }
    let sessions = totals.sessions as f64;
    extra.sps_delta = sessions / (traced_ms / 1e3) - sessions / (untraced_ms / 1e3);

    let speedup_sessions: Vec<(&Case, EnsembleConfig)> = first_cycle
        .iter()
        .map(|(case, config)| (&direct.cases[*case], config.clone()))
        .collect();
    let pairs = match workload {
        Workload::ShorNoisy => 5,
        _ => 1,
    };
    extra.speedup = parallel_speedup(&speedup_sessions, direct.noisy, pairs, &mut tally);

    let mut metrics = Metrics::default();
    let coverage = per_layer(&mut metrics, &tracer, &totals, &extra);
    if direct.noisy {
        println!(
            "# coverage {coverage:.3}: the trajectory tree runs sampling, tests and the exact \
             check internally; only its plan compile is separable from outside"
        );
    }
    write_spans(workload, seed, &tracer);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Which program a `server_mix` submission runs.
enum Submitted {
    Repeated(usize),
    Fresh(Case),
}

/// The `server_mix` inputs: the repeated program set, the fresh-program
/// source and the session stream.
struct Mix {
    repeated: Vec<Case>,
    fresh: FreshPrograms,
    sessions: StdRng,
    submissions: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let repeated = paper_cases(&mut rng_for(seed, 1));
        let fresh = FreshPrograms::new(seed, &repeated);
        Self {
            repeated,
            fresh,
            sessions: rng_for(seed, 2),
            submissions: 0,
        }
    }

    /// Start a server with `nproc` workers and warm it up: every
    /// repeated program once, so its plan and exact verdicts are cached
    /// before timing starts.
    fn start_server(&self) -> Result<Server, String> {
        let server = Server::start(ServerConfig::default().with_workers(nproc()));
        for case in &self.repeated {
            let id = server
                .submit(case.program.clone(), ideal_config(SERVER_SHOTS, 0))
                .map_err(|e| format!("{}: warm-up refused: {e}", case.name))?;
            settle(&server, id, case)?;
        }
        Ok(server)
    }

    /// The next submission: three in four cycle through the repeated
    /// set, the fourth is a fresh program.
    fn next_session(&mut self) -> (Submitted, EnsembleConfig) {
        let k = self.submissions;
        self.submissions += 1;
        let config = ideal_config(SERVER_SHOTS, self.sessions.gen::<u64>());
        let submitted = if k % FRESH_EVERY == FRESH_EVERY - 1 {
            Submitted::Fresh(self.fresh.next_case())
        } else {
            let repeated_index = k - k / FRESH_EVERY;
            Submitted::Repeated((repeated_index % self.repeated.len() as u64) as usize)
        };
        (submitted, config)
    }

    fn case<'a>(&'a self, submitted: &'a Submitted) -> &'a Case {
        match submitted {
            Submitted::Repeated(index) => &self.repeated[*index],
            Submitted::Fresh(case) => case,
        }
    }
}

/// Wait for a session and check its outcome.
fn settle(server: &Server, id: SessionId, case: &Case) -> Result<Vec<AssertionReport>, String> {
    let outcome = server
        .wait(id)
        .map_err(|e| format!("{}: wait failed: {e}", case.name))?;
    if outcome.state != SessionState::Completed {
        return Err(format!(
            "{}: session settled as {:?} ({:?})",
            case.name, outcome.state, outcome.error
        ));
    }
    let reports = outcome
        .reports
        .ok_or_else(|| format!("{}: completed without reports", case.name))?;
    check_reports(case, &reports)?;
    Ok(reports)
}

/// One settled `server_mix` session.
struct MixSettled {
    /// Submission number within the run, from 0.
    index: u64,
    id: SessionId,
    submitted: Submitted,
    config: EnsembleConfig,
    latency_ms: f64,
    reports: Vec<AssertionReport>,
}

/// Spans and samples a traced closed loop records.
#[derive(Default)]
struct LoopTrace {
    tracer: Tracer,
    submit_us: Vec<f64>,
    queue_depth: Vec<f64>,
}

/// `Server` keeps the record of every session it has settled for as
/// long as it runs, about 50 KiB each on this mix, and has no call that
/// drops them. So the closed loop runs in epochs of this many
/// submissions, each on a freshly started and warmed-up server, to keep
/// memory bounded; only the loops inside epochs are timed.
const EPOCH_SESSIONS: u64 = 1024;

/// What the timed epochs of a closed loop did, beyond their sessions.
#[derive(Default)]
struct LoopTotals {
    /// Sessions completed and timed seconds of each epoch.
    epochs: Vec<Block>,
    /// `ServerMetrics` counters summed over the timed epochs (warm-ups
    /// excluded).
    plan_hits: u64,
    plan_misses: u64,
    oracle_hits: u64,
    oracle_misses: u64,
    retries: u64,
    degradations: u64,
}

impl LoopTotals {
    fn seconds(&self) -> f64 {
        self.epochs.iter().map(|epoch| epoch.1).sum()
    }

    fn add(&mut self, before: &ServerMetrics, after: &ServerMetrics) {
        self.plan_hits += after.plan_cache_hits - before.plan_cache_hits;
        self.plan_misses += after.plan_cache_misses - before.plan_cache_misses;
        self.oracle_hits += after.oracle_cache_hits - before.oracle_cache_hits;
        self.oracle_misses += after.oracle_cache_misses - before.oracle_cache_misses;
        self.retries += after.retries - before.retries;
        self.degradations += after.degradations - before.degradations;
    }
}

/// What the client threads of one epoch share, behind one lock.
struct Clients<'a> {
    mix: &'a mut Mix,
    tally: &'a mut Tally,
    trace: Option<&'a mut LoopTrace>,
    on_settled: &'a mut (dyn FnMut(MixSettled) + Send),
    submitted: u64,
    completed: usize,
}

/// The closed loop: `nproc` client threads, each keeping one session in
/// flight, for `budget` of timed epochs. Latency runs from `submit` to
/// the return of that session's `wait`. `host` is read between epochs.
fn closed_loop(
    mix: &mut Mix,
    budget: Duration,
    host: &mut HostSpeed,
    tally: &mut Tally,
    mut trace: Option<&mut LoopTrace>,
    mut on_settled: impl FnMut(MixSettled) + Send,
) -> Result<LoopTotals, String> {
    let mut totals = LoopTotals::default();
    let mut timed = Duration::ZERO;
    while timed < budget {
        let server = mix.start_server()?;
        let before = server.metrics();
        let remaining = budget - timed;
        let clients = Mutex::new(Clients {
            mix: &mut *mix,
            tally: &mut *tally,
            trace: trace.as_deref_mut(),
            on_settled: &mut on_settled,
            submitted: 0,
            completed: 0,
        });
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..nproc() {
                scope.spawn(|| client(&server, &clients, start, remaining));
            }
        });
        let epoch = start.elapsed();
        let completed = clients.into_inner().expect("client panicked").completed;
        timed += epoch;
        totals.epochs.push((completed, epoch.as_secs_f64()));
        totals.add(&before, &server.metrics());
        drop(server);
        host.cover(epoch);
    }
    Ok(totals)
}

/// One client thread: submit, wait for that session, record it, repeat
/// until the epoch's submissions or the time budget run out.
fn client(server: &Server, clients: &Mutex<Clients>, start: Instant, remaining: Duration) {
    loop {
        let (index, submitted, config, case) = {
            let mut shared = clients.lock().expect("client panicked");
            if shared.submitted >= EPOCH_SESSIONS || start.elapsed() >= remaining {
                return;
            }
            shared.submitted += 1;
            let index = shared.mix.submissions;
            let (submitted, config) = shared.mix.next_session();
            let case = shared.mix.case(&submitted).clone();
            if let Some(trace) = shared.trace.as_deref_mut() {
                trace.queue_depth.push(server.queue_depth() as f64);
            }
            (index, submitted, config, case)
        };
        let submit_start = Instant::now();
        let id = server.submit(case.program.clone(), config.clone());
        let submit_end = Instant::now();
        let result = id
            .map_err(|e| format!("{}: refused: {e}", case.name))
            .and_then(|id| settle(server, id, &case).map(|reports| (id, reports)));
        let wait_end = Instant::now();

        let mut shared = clients.lock().expect("client panicked");
        let Some((id, reports)) = shared.tally.record(result) else {
            continue;
        };
        if let Some(trace) = shared.trace.as_deref_mut() {
            trace
                .submit_us
                .push((submit_end - submit_start).as_secs_f64() * 1e6);
            trace
                .tracer
                .record("server.submit", id.raw(), submit_start, submit_end);
            trace
                .tracer
                .record("server.wait", id.raw(), submit_end, wait_end);
        }
        shared.completed += 1;
        (shared.on_settled)(MixSettled {
            index,
            id,
            submitted,
            config,
            latency_ms: (wait_end - submit_start).as_secs_f64() * 1e3,
            reports,
        });
    }
}

fn server_timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut mix, setup_s) = setup(|| {
        let mix = Mix::new(seed);
        mix.start_server()?;
        Ok(mix)
    })?;
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut by_case: Vec<Vec<f64>> = vec![Vec::new(); mix.repeated.len() + 1];
    let mut first = None;
    let mut host = HostSpeed::default();
    let totals = closed_loop(
        &mut mix,
        Duration::from_secs_f64(seconds),
        &mut host,
        &mut tally,
        None,
        |settled| {
            latencies.push(settled.latency_ms);
            let slot = match settled.submitted {
                Submitted::Repeated(index) => index,
                Submitted::Fresh(_) => by_case.len() - 1,
            };
            by_case[slot].push(settled.latency_ms);
            if settled.index == 0 {
                first = Some(settled);
            }
        },
    )?;
    match first {
        Some(first) => {
            let server = mix.start_server()?;
            let case = mix.case(&first.submitted);
            let again = server
                .submit(case.program.clone(), first.config.clone())
                .map_err(|e| format!("{}: refused: {e}", case.name))
                .and_then(|id| settle(&server, id, case))
                .and_then(|again| check_repeat(&first.reports, &again));
            tally.record(again);
        }
        None => {
            tally.record::<()>(Err("no server_mix session settled".into()));
        }
    }
    let mut names: Vec<&str> = mix.repeated.iter().map(|c| c.name.as_str()).collect();
    names.push("fresh");
    print_cases(&names, &by_case);
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        &totals.epochs,
        &latencies,
        median(&latencies),
        setup_s,
        &mut host,
        &tally,
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn cache_ratio(hits: u64, misses: u64, what: &str) -> f64 {
    println!("#   base: {what} {hits} hits, {misses} misses");
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Replays of the traced loop's sessions beyond the first repeated-set
/// cycle stop after this share of `--seconds`.
const REPLAY_SHARE: f64 = 1.0 / 3.0;

fn server_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut mix = Mix::new(seed);
    let mut tally = Tally::default();
    let third = Duration::from_secs_f64(seconds / 3.0);

    // An untraced and a traced third of the same closed loop, for the
    // tracing overhead; the cache counters are read in the traced one.
    let mut untraced = 0u64;
    let mut first_digest = None;
    // Read between epochs, outside their timed seconds; traced runs report
    // raw times.
    let mut host = HostSpeed::default();
    let untraced_totals = closed_loop(&mut mix, third, &mut host, &mut tally, None, |session| {
        untraced += 1;
        if session.index == 0 {
            first_digest = Some(report_digest(&session.reports));
        }
    })?;
    if let Some(digest) = first_digest {
        println!("# first-session report digest {digest:016x}");
    }
    let mut loop_trace = LoopTrace::default();
    let mut settled = Vec::new();
    let traced_totals = closed_loop(
        &mut mix,
        third,
        &mut host,
        &mut tally,
        Some(&mut loop_trace),
        |session| settled.push(session),
    )?;
    // Settled in completion order; replay in submission order, so the
    // first cycle below is the same sessions on every run of a seed.
    settled.sort_by_key(|session| session.index);

    let mut extra = Extra {
        plan_hit_ratio: cache_ratio(
            traced_totals.plan_hits,
            traced_totals.plan_misses,
            "plan cache",
        ),
        oracle_hit_ratio: cache_ratio(
            traced_totals.oracle_hits,
            traced_totals.oracle_misses,
            "oracle cache",
        ),
        retries: traced_totals.retries as f64,
        degradations: traced_totals.degradations as f64,
        submit_us: mean(&loop_trace.submit_us),
        queue_depth: mean(&loop_trace.queue_depth),
        sps_delta: settled.len() as f64 / traced_totals.seconds()
            - untraced as f64 / untraced_totals.seconds(),
        ..Extra::default()
    };

    // Replay the traced sessions directly, in order, for the layer split
    // and the server's overhead over the bare session.
    let mut tracer = loop_trace.tracer;
    let mut totals = LayerTotals::default();
    let mut overhead = Vec::new();
    let cycle = mix.repeated.len();
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let start = Instant::now();
    for (k, session) in settled.iter().enumerate() {
        if k >= cycle && start.elapsed() >= budget {
            break;
        }
        let case = mix.case(&session.submitted);
        tracer.set_session(session.id.raw());
        let span = tracer.begin("core.session");
        let direct = call_direct(case, &session.config, false);
        tracer.end(span);
        let Some(direct) = tally.record(direct) else {
            continue;
        };
        if report_bits(&direct.reports) != report_bits(&session.reports) {
            tally.fail(&format!("{}: server and direct reports differ", case.name));
        }
        if k < cycle {
            count_disagreements(&direct.reports, &mut extra.disagreements);
        }
        overhead.push(session.latency_ms - direct.ms);
        totals.session_ms += direct.ms;
        totals.sessions += 1;
        let replay = replay_ideal(&mut tracer, &case.program, &session.config);
        if let Some(replay) = tally.record(replay) {
            if replay.bits != report_bits(&direct.reports) {
                tally.fail(&format!(
                    "{}: decomposed replay differs from the library's reports",
                    case.name
                ));
            }
            add_replay(&mut totals, &replay);
        }
    }
    extra.overhead_ms = median(&overhead);
    println!(
        "#   base: server overhead over {} sessions replayed directly",
        overhead.len()
    );

    let speedup_sessions: Vec<(&Case, EnsembleConfig)> = mix
        .repeated
        .iter()
        .map(|case| (case, ideal_config(SERVER_SHOTS, 1)))
        .collect();
    extra.speedup = parallel_speedup(&speedup_sessions, false, 1, &mut tally);

    let mut metrics = Metrics::default();
    per_layer(&mut metrics, &tracer, &totals, &extra);
    write_spans(Workload::ServerMix, seed, &tracer);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
