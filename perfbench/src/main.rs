//! The QDB benchmark: three workloads from the source paper, measured end
//! to end (`--trace 0`) or split by layer (`--trace 1`).
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload paper_ideal --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Run it from the repository root. Lines starting with `#` describe
//! the run (host and build tags, each metric with its unit, sample
//! counts and bases); the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. End-to-end times are
//! scaled to a nominal host by a reference kernel timed during the run
//! (`measure::HostSpeed`); the raw times are printed beside them.

mod measure;
mod run;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: qdb-perfbench --workload <paper_ideal|shor_noisy|server_mix> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("qdb-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# qdb-perfbench {} trace={}",
        measure::host_tags(args.workload.name(), args.seed),
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        run::traced(args.workload, args.seed, args.seconds)
    } else {
        run::timed(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("qdb-perfbench: set-up failed: {message}");
            ExitCode::FAILURE
        }
    }
}
