//! End-to-end and per-layer benchmark of the RUMR suite.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|serve_engine|serve_analytic> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it adds traced passes and reports the per-layer metrics.
//! A readable report goes to stderr; the last line of stdout is the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.

mod http;
mod layers;
mod mix;
mod report;
mod serve;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_sweep|serve_engine|serve_analytic> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its spans: under the cargo target directory.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_sweep" => sweep::run(&args, start),
        "serve_engine" => serve::run(&args, start, mix::Mix::Engine),
        "serve_analytic" => serve::run(&args, start, mix::Mix::Analytic),
        other => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload serve_engine --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_engine");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seed").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
    }
}
