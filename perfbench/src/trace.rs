//! In-memory spans recorded around calls into each layer's public entry
//! points, and the decomposed replay of an ideal session through them.
//!
//! Spans are recorded by this benchmark only, from outside the library:
//! name, start, end, parent span and session id. A layer's self time is
//! its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use qdb_circuit::Program;
use qdb_core::{check_breakpoint_with, exact_verdict, EnsembleConfig, SweepRunner, Verdict};
use qdb_sim::{Sampler, State};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub session: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: u64,
}

impl Tracer {
    /// Spans opened from now on belong to session `id`.
    pub fn set_session(&mut self, id: u64) {
        self.session = id;
    }

    fn now_ns(&mut self) -> u64 {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        u64::try_from(origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            session: self.session,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any spans still open inside it (left open
    /// when a layer call failed or panicked). Returns its duration in
    /// milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end;
            if open == id {
                break;
            }
        }
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Record a finished top-level span of session `session`, timed by
    /// the caller (spans from several threads cannot share the open-span
    /// stack).
    pub fn record(&mut self, name: &'static str, session: u64, start: Instant, end: Instant) {
        let origin = *self.origin.get_or_insert(start);
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(origin).as_nanos())
                .expect("run shorter than 584 years")
        };
        self.spans.push(Span {
            name,
            session,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        totals
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"session\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.session, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// What one decomposed ideal session measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct IdealReplay {
    /// `(p_value bits, verdict, exact verdict)` per assertion, to compare
    /// with the library's own reports.
    pub bits: Vec<(u64, Verdict, Option<Verdict>)>,
    pub compiled_ops: u64,
    pub gate_ops: u64,
    pub par_chunks: u64,
    pub num_qubits: usize,
    pub shots_drawn: u64,
    pub tests: u64,
}

/// Replay one ideal session the way `EnsembleRunner::check_program`
/// runs it on the default dense sweep, one layer entry point at a time:
/// `Program::compile`, then `SweepRunner::walk_backend::<State, _>`
/// whose visitor draws the breakpoint's ensemble (`Sampler::new` +
/// `sample_many` on the `seed + index` stream), runs the statistical
/// test (`check_breakpoint_with`) and the exact cross-check
/// (`exact_verdict`) on the live state.
pub fn replay_ideal(
    tracer: &mut Tracer,
    program: &Program,
    config: &EnsembleConfig,
) -> Result<IdealReplay, String> {
    let root = tracer.begin("trace.session");
    let span = tracer.begin("circuit.compile");
    let plan = program.compile(config.opt);
    tracer.end(span);

    let mut replay = IdealReplay {
        compiled_ops: plan.ops().len() as u64,
        num_qubits: program.num_qubits(),
        ..IdealReplay::default()
    };
    let sweep = SweepRunner::new(config.clone());
    let walk = tracer.begin("sim.walk");
    let visited = sweep.walk_backend::<State, _>(program, &plan, |index, bp, state| {
        let span = tracer.begin("sim.sample");
        let sampler = Sampler::new(state);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
        let outcomes = sampler.sample_many(&mut rng, config.shots);
        tracer.end(span);

        let span = tracer.begin("stats.test");
        let outcome = check_breakpoint_with(&bp.kind, &outcomes, config.alpha, config.independence);
        tracer.end(span);
        let outcome = outcome?;

        let exact = config.exact_cross_check.then(|| {
            let span = tracer.begin("core.exact");
            let verdict = exact_verdict(&bp.kind, state, config.exact_tol);
            tracer.end(span);
            verdict
        });
        replay.gate_ops = state.gate_ops();
        replay.par_chunks = state.par_chunks();
        replay.shots_drawn += outcomes.len() as u64;
        replay.tests += 1;
        Ok((outcome.p_value.to_bits(), outcome.verdict, exact))
    });
    tracer.end(walk);
    tracer.end(root);
    replay.bits = visited.map_err(|e| format!("decomposed replay failed: {e}"))?;
    Ok(replay)
}
