//! The repository benchmark: one process per workload, end-to-end
//! metrics untraced, per-layer metrics in a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `account_calm_sharded`, `account_quorum_single`,
//! `taxi_partitioned_sim`, `lattice_verify` (see `README.md` for why
//! each exists and which layers it exercises, and why
//! `account_quorum_single` runs but is not listed in `BENCHMARK.json`). Inputs derive from
//! `--seed` alone; every run checks its outputs outside the timed
//! region. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end table with `--trace 0`, the per-layer table
//! with `--trace 1`). A traced run also writes folded stacks under
//! `.bench_out/`. The exit code is 0 only when every check passed.

mod account;
mod lattice;
mod measure;
mod taxi;

use std::process::ExitCode;

use measure::{RunResult, END_TO_END, PER_LAYER};

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Writes a traced run's folded stacks to `.bench_out/<file>`.
fn write_folded(file: &str, folded: &str, res: &mut RunResult) {
    if folded.is_empty() {
        return;
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, folded)) {
        Ok(()) => res.note(format!("folded stacks: {}", path.display())),
        Err(e) => res.violation(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut res = RunResult::default();
    let stem = format!("{}-seed{}", args.workload, args.seed);
    match args.workload.as_str() {
        "account_calm_sharded" | "account_quorum_single" => {
            let spec = if args.workload == "account_calm_sharded" {
                account::CALM_SHARDED
            } else {
                account::QUORUM_SINGLE
            };
            let folded = account::run(spec, args.seed, args.seconds, args.trace, &mut res);
            write_folded(&format!("{stem}.folded"), &folded, &mut res);
        }
        "taxi_partitioned_sim" => {
            let (bench, sim) = taxi::run(args.seed, args.seconds, args.trace, &mut res);
            write_folded(&format!("{stem}.folded"), &bench, &mut res);
            write_folded(&format!("{stem}.sim.folded"), &sim, &mut res);
        }
        "lattice_verify" => {
            let folded = lattice::run(args.seed, args.seconds, args.trace, &mut res);
            write_folded(&format!("{stem}.folded"), &folded, &mut res);
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }

    for line in &res.notes {
        println!("{line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        println!(
            "{name:<32} {:>16.6} {unit}",
            res.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    for v in &res.violations {
        println!("CHECK FAILED: {v}");
    }
    if res.failed > 0 {
        println!("CHECK FAILED: {} operations answered wrongly", res.failed);
    }
    println!("{}", res.to_json(table));
    if res.violations.is_empty() && res.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
