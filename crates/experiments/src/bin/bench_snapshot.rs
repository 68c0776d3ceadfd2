//! Benchmark snapshot harness: runs the pinned engine/sweep suite and
//! persists `BENCH_sim.json` (see `docs/BENCHMARKS.md`).
//!
//! ```text
//! cargo run --release -p dls-experiments --bin bench_snapshot
//! ```
//!
//! Options:
//!
//! * `--out PATH`   output path (default `BENCH_sim.json`)
//! * `--reps N`     timed repetitions per engine case (default 200)
//! * `--quick`      reduced CI budget (10 case reps, 2 sweep reps)
//! * `--check PATH` validate an existing snapshot file and exit
//! * `--min-speedup X`  exit non-zero unless the Off-vs-Full sweep
//!   speedup is at least `X` (timing gate, off by default)
//! * `--assert-batched-speedup X`  exit non-zero unless the aggregate
//!   batched-vs-sequential wall-time factor of the snapshot (freshly
//!   measured, or the `--check` file) is at least `X`

use std::path::PathBuf;
use std::process::exit;

use dls_experiments::{
    batched_speedup_from_json, run_snapshot, validate_snapshot_json, SnapshotConfig,
};

const USAGE: &str = "usage: bench_snapshot [--out PATH] [--reps N] [--quick] \
                     [--min-speedup X] [--assert-batched-speedup X] [--check PATH]";

struct Options {
    out: PathBuf,
    config: SnapshotConfig,
    check: Option<PathBuf>,
    min_speedup: Option<f64>,
    min_batched_speedup: Option<f64>,
}

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        out: PathBuf::from("BENCH_sim.json"),
        config: SnapshotConfig::standard(),
        check: None,
        min_speedup: None,
        min_batched_speedup: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--reps" => {
                opts.config.case_reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if opts.config.case_reps == 0 {
                    return Err("--reps must be positive".into());
                }
            }
            "--quick" => opts.config = SnapshotConfig::quick(),
            "--check" => opts.check = Some(PathBuf::from(value("--check")?)),
            "--min-speedup" => {
                opts.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?,
                )
            }
            "--assert-batched-speedup" => {
                opts.min_batched_speedup = Some(
                    value("--assert-batched-speedup")?
                        .parse()
                        .map_err(|e| format!("--assert-batched-speedup: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    };

    if let Some(path) = &opts.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                exit(1);
            }
        };
        match validate_snapshot_json(&text) {
            Ok(()) => println!("{}: valid snapshot", path.display()),
            Err(e) => {
                eprintln!("{}: INVALID snapshot: {e}", path.display());
                exit(1);
            }
        }
        if !gate_batched(&text, opts.min_batched_speedup) {
            exit(1);
        }
        return;
    }

    let snapshot = run_snapshot(opts.config);
    let json = snapshot.to_json();
    validate_snapshot_json(&json).expect("snapshot must validate against its own schema");
    std::fs::write(&opts.out, &json).expect("write snapshot");

    eprintln!(
        "wrote {} ({} cases, commit {})",
        opts.out.display(),
        snapshot.cases.len(),
        snapshot.commit
    );
    let mut fastest = (f64::INFINITY, String::new());
    let mut slowest = (0.0f64, String::new());
    for case in &snapshot.cases {
        let label = format!("{} [{}]", case.name, case.mode.name());
        if case.ns_per_event < fastest.0 {
            fastest = (case.ns_per_event, label.clone());
        }
        if case.ns_per_event > slowest.0 {
            slowest = (case.ns_per_event, label);
        }
    }
    eprintln!(
        "engine: {:.0}–{:.0} ns/event ({} … {})",
        fastest.0, slowest.0, fastest.1, slowest.1
    );
    eprintln!(
        "sweep ({} cells × {} reps): Off {:.3} s, Full {:.3} s — {:.2}x speedup",
        snapshot.sweep.cells,
        snapshot.sweep.reps,
        snapshot.sweep.off_s,
        snapshot.sweep.full_s,
        snapshot.sweep.speedup
    );
    if let Some(min) = opts.min_speedup {
        if snapshot.sweep.speedup < min {
            eprintln!(
                "FAIL: speedup {:.2}x below required {min:.2}x",
                snapshot.sweep.speedup
            );
            exit(1);
        }
    }
    if !gate_batched(&json, opts.min_batched_speedup) {
        exit(1);
    }
}

/// Report the aggregate batched-vs-sequential factor of a snapshot
/// document and apply the optional `--assert-batched-speedup` gate.
/// A document without both sequential and batched rows only fails when
/// the gate is armed.
fn gate_batched(json: &str, min: Option<f64>) -> bool {
    match batched_speedup_from_json(json) {
        Ok(speedup) => {
            eprintln!("batched repetition: {speedup:.2}x the sequential loop's wall time");
            match min {
                Some(min) if speedup < min => {
                    eprintln!("FAIL: batched speedup {speedup:.2}x below required {min:.2}x");
                    false
                }
                _ => true,
            }
        }
        Err(e) => {
            if min.is_some() {
                eprintln!("FAIL: cannot compute batched speedup: {e}");
                return false;
            }
            true
        }
    }
}
