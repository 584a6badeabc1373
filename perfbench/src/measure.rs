//! Summary statistics, memory, and the host/build tags every result
//! carries.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median latency of a cycle of cases, each weighted alike: the median
/// of the per-case medians. A cycle whose cases fall into two latency
/// modes has its plain median in the gap between them, where one session
/// more or less of a case, as the timed run stops mid-cycle, moves it
/// from one mode to the other.
pub fn case_median(by_case: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = by_case
        .iter()
        .filter(|values| !values.is_empty())
        .map(|values| median(values))
        .collect();
    median(&medians)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail is chosen from. Each step needs at least
/// twice the samples of the one below (p75 needs 40, p95 200, p97.5
/// 400), so a workload's sample count, which moves with the host's
/// speed, does not flip it between percentiles from run to run. The
/// slowest program of the paper set, Shor N=15, is 1 in 14 sessions of
/// `paper_ideal` and 1 in 19 of `server_mix`: p95 falls on the low edge
/// of its latencies and p97.5 near their middle, which moves less from
/// run to run. It stops there: on a shared 2-vCPU VM, p99 of the server
/// mix followed the host's rare multi-millisecond stalls and moved by a
/// third from run to run.
const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 95.0, 97.5];

/// The tail of a latency distribution: the highest percentile that has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest ladder percentile (nearest rank) with at least
/// `TAIL_BEYOND` samples above its rank. With too few samples for even
/// the median to qualify, the maximum is returned and `beyond` is 0.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    let qualifying = TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1) - 1;
        let beyond = n.checked_sub(rank + 1)?;
        (beyond >= TAIL_BEYOND).then_some((p, rank, beyond))
    });
    match qualifying {
        Some((percentile, rank, beyond)) => Tail {
            value: sorted[rank],
            percentile,
            samples: n,
            beyond,
        },
        None => Tail {
            value: sorted.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
            beyond: 0,
        },
    }
}

/// A stretch of a timed run: sessions completed in it, and its seconds.
pub type Block = (usize, f64);

/// Throughput as the median over blocks of the run of each block's
/// sessions per second: a host stall inside one block moves it no more
/// than any other block does.
pub fn median_rate(blocks: &[Block]) -> f64 {
    let rates: Vec<f64> = blocks
        .iter()
        .filter(|&&(_, seconds)| seconds > 0.0)
        .map(|&(sessions, seconds)| sessions as f64 / seconds)
        .collect();
    median(&rates)
}

/// Split a run whose sessions completed at `ends` (seconds since the run
/// started, ascending) into `count` blocks of consecutive sessions.
pub fn blocks_of(ends: &[f64], count: usize) -> Vec<Block> {
    let per = ends.len().div_ceil(count.max(1)).max(1);
    let mut from = 0.0;
    ends.chunks(per)
        .map(|chunk| {
            let to = chunk[chunk.len() - 1];
            let block = (chunk.len(), to - from);
            from = to;
            block
        })
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Qubits of the reference state: 128 KiB, the size of the largest
/// states the workloads evolve (Shor N=15, 13 qubits).
const REFERENCE_QUBITS: usize = 13;
/// Layers of rotations and butterflies over every qubit in one pass.
const REFERENCE_ROUNDS: usize = 2;
/// Shots drawn from the reference state's distribution in one pass.
const REFERENCE_SHOTS: usize = 4096;
/// A timed loop runs one reference pass each time this much of it has
/// gone by; the passes take 2–4% of the loop.
const REFERENCE_EVERY: Duration = Duration::from_millis(25);
/// A median reference pass on the host the bounds were set on (a 2-vCPU
/// Xeon VM with AVX-512), between its fast (about 0.6 ms) and slow
/// (about 1.0 ms) stretches: a time scaled by [`HostSpeed::scale`] reads
/// as it would have there.
const REFERENCE_NOMINAL_MS: f64 = 0.8;

/// The shared host's speed over a timed run, read from a fixed
/// benchmark-owned reference timed between sessions.
///
/// On a shared VM the same session takes up to 40% longer in one
/// stretch of minutes than in another, as other tenants load the caches
/// and cores, and a run's median follows that drift. The reference has
/// the two shapes of work a session does, in none of the library's code:
/// rotations and butterflies over a 13-qubit state (throughput-bound
/// amplitude loops), then shots drawn by binary search on its cumulative
/// distribution and counted in a hash map (latency-bound control code).
/// Sessions do not follow it one for one: over three shifts of the 2-vCPU
/// VM between slow and fast stretches, in which the reference's median
/// moved 1.5–1.9×, the sessions' medians moved by about its square root
/// (log–log slopes 0.47–0.54). Times are therefore scaled by the square
/// root of the reference's nominal over its measured median
/// ([`HostSpeed::scale`]). That takes out most of such a shift and part
/// of a smaller drift, and leaves every change in the library's own speed
/// in full, since the reference runs none of its code. Raw times are
/// printed beside the scaled ones.
#[derive(Default)]
pub struct HostSpeed {
    reference: Reference,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Run a reference pass if `REFERENCE_EVERY` has gone by since the
    /// last one; return the time it took, which the caller leaves out of
    /// its timed run.
    pub fn tick(&mut self) -> Duration {
        let last = *self.last.get_or_insert_with(Instant::now);
        if last.elapsed() < REFERENCE_EVERY {
            return Duration::ZERO;
        }
        self.pass()
    }

    /// Run the passes `span` of a timed run would have had, one for each
    /// `REFERENCE_EVERY` of it, after a stretch that had no room for them.
    pub fn cover(&mut self, span: Duration) {
        let count = span.as_secs_f64() / REFERENCE_EVERY.as_secs_f64();
        for _ in 0..count.ceil() as usize {
            self.pass();
        }
    }

    fn pass(&mut self) -> Duration {
        let start = Instant::now();
        self.reference.run();
        let took = start.elapsed();
        self.samples.push(took.as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
        took
    }

    /// The factor that scales a time measured in this run to the nominal
    /// host: the square root of nominal over the median reference pass.
    /// Divide a rate by it.
    pub fn scale(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.pass();
        }
        let measured = median(&self.samples);
        println!(
            "# host reference: median {measured:.4} ms over {} passes, nominal \
             {REFERENCE_NOMINAL_MS} ms; times are scaled by sqrt(nominal / median)",
            self.samples.len()
        );
        (REFERENCE_NOMINAL_MS / measured).sqrt()
    }
}

/// The reference work: its state, the state's cumulative distribution,
/// the shot counts and the shot generator.
struct Reference {
    state: Vec<(f64, f64)>,
    cdf: Vec<f64>,
    counts: HashMap<usize, u32>,
    rng: u64,
}

impl Default for Reference {
    fn default() -> Self {
        let len = 1 << REFERENCE_QUBITS;
        let norm = (len as f64).sqrt().recip();
        Self {
            // Generic amplitudes, so no butterfly cancels to an exact
            // zero and no pass runs into subnormal arithmetic.
            state: (0..len)
                .map(|i| {
                    let (sin, cos) = (i as f64 * 0.37).sin_cos();
                    (cos * norm, sin * norm)
                })
                .collect(),
            cdf: vec![0.0; len],
            counts: HashMap::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Reference {
    fn run(&mut self) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let len = self.state.len();
        for round in 0..REFERENCE_ROUNDS {
            for q in 0..REFERENCE_QUBITS {
                let bit = 1 << q;
                let (sin, cos) = ((round * REFERENCE_QUBITS + q) as f64 * 0.1).sin_cos();
                for i in (0..len).filter(|i| i & bit == 0) {
                    let (ar, ai) = self.state[i];
                    let (br, bi) = self.state[i | bit];
                    let (br, bi) = (br * cos - bi * sin, br * sin + bi * cos);
                    self.state[i] = ((ar + br) * s, (ai + bi) * s);
                    self.state[i | bit] = ((ar - br) * s, (ai - bi) * s);
                }
            }
        }
        let mut total = 0.0;
        for (c, (re, im)) in self.cdf.iter_mut().zip(&self.state) {
            total += re * re + im * im;
            *c = total;
        }
        self.counts.clear();
        for _ in 0..REFERENCE_SHOTS {
            // xorshift64
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64 * total;
            let outcome = self.cdf.partition_point(|&c| c < u);
            *self.counts.entry(outcome).or_insert(0) += 1;
        }
        black_box((&mut self.state, &self.counts));
    }
}

/// Host and build tags: which machine, thread count, ISA and source
/// produced a result.
pub fn host_tags(workload: &str, seed: u64) -> String {
    let nproc = nproc();
    let rayon_workers = rayon::current_num_threads();
    let mut features = String::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        let _ = write!(features, "{}{name}", if on { '+' } else { '-' });
    }
    format!(
        "workload={workload} seed={seed} nproc={nproc} rayon_workers={rayon_workers} \
         effective_workers={} target_features={features} git_rev={} source_digest={:016x}",
        rayon_workers.min(nproc),
        git_rev().unwrap_or_else(|| "none".into()),
        source_digest()
    )
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the library sources (`crates/**/*.{rs,toml}`, the root
/// manifest and the cargo config), in path order: identifies the code
/// measured even where the checkout carries no git metadata.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new(".cargo/config.toml").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
