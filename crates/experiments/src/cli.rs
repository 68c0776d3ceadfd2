//! A tiny argument parser shared by the table/figure binaries.
//!
//! Supported flags (every binary accepts the same set):
//!
//! ```text
//! --full           use the paper's exact Table 1 grid, 0.02 error step,
//!                  40 repetitions (slow!)
//! --reps N         override repetitions per cell
//! --error-step S   override the error sweep step
//! --seed N         root seed (default fixed, runs are reproducible)
//! --threads N      worker threads (default: all cores)
//! --model M        normal | uniform | inverse
//! --speeds SPEC    declared | stochastic:SPREAD[:SEED] |
//!                  sandbag:FRACTION:SLOWDOWN[:SEED] |
//!                  adversarial:FRACTION:SLOWDOWN (speed-revelation model)
//! --csv PATH       also write results as CSV to PATH
//! --quiet          suppress progress output
//! --quick          explicit quick mode (the default; opposite of --full)
//! ```

use std::path::PathBuf;

use rumr::{RunSpec, SpeedModel};

use crate::grid::error_values;
use crate::sweep::{ErrorModelKind, SweepConfig};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// The sweep configuration implied by the flags.
    pub sweep: SweepConfig,
    /// CSV output path, if requested.
    pub csv: Option<PathBuf>,
    /// `--reps` exactly as given on the command line, if present. Bins whose
    /// natural default differs from the sweep default should use [`Self::reps_or`]
    /// rather than clamping `sweep.reps`, which would silently override an
    /// explicit `--reps`.
    pub explicit_reps: Option<u64>,
}

impl CliOptions {
    /// Repetition count for bins with their own default: the explicit
    /// `--reps` value when one was given, otherwise `default`.
    #[must_use]
    pub fn reps_or(&self, default: u64) -> u64 {
        self.explicit_reps.unwrap_or(default)
    }

    /// Apply the flags that describe a single run to a [`RunSpec`]: the
    /// root seed and — only when the user passed an explicit `--reps` —
    /// the repetition count, so a bin's own default (set on the spec
    /// beforehand via [`RunSpec::reps`]) survives.
    ///
    /// This replaces the hand-threaded `reps_or(...)` / `sweep.root_seed`
    /// plumbing in the binaries.
    pub fn apply_to(&self, spec: &mut RunSpec) {
        spec.seed = self.sweep.root_seed;
        if let Some(reps) = self.explicit_reps {
            spec.reps = reps;
        }
    }
}

/// Parse the standard flag set from an iterator of arguments (excluding the
/// program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut full = false;
    let mut reps: Option<u64> = None;
    let mut error_step: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut model: Option<ErrorModelKind> = None;
    let mut speeds: Option<SpeedModel> = None;
    let mut csv: Option<PathBuf> = None;
    let mut quiet = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--full" => full = true,
            // Quick is the default; the explicit flag lets scripts (CI)
            // state the intent without tracking which mode is default.
            "--quick" => full = false,
            "--quiet" => quiet = true,
            "--reps" => {
                reps = Some(
                    value_for("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--error-step" => {
                let s: f64 = value_for("--error-step")?
                    .parse()
                    .map_err(|e| format!("--error-step: {e}"))?;
                if !(s > 0.0 && s <= 0.5) {
                    return Err("--error-step must be in (0, 0.5]".into());
                }
                error_step = Some(s);
            }
            "--seed" => {
                seed = Some(
                    value_for("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--threads" => {
                threads = Some(
                    value_for("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--model" => {
                model = Some(match value_for("--model")?.as_str() {
                    "normal" => ErrorModelKind::Normal,
                    "uniform" => ErrorModelKind::Uniform,
                    "inverse" => ErrorModelKind::Inverse,
                    other => return Err(format!("unknown model '{other}'")),
                })
            }
            "--speeds" => {
                let v = value_for("--speeds")?;
                speeds = Some(
                    SpeedModel::parse(&v)
                        .ok_or_else(|| format!("malformed speed model '{v}'\n{USAGE}"))?,
                )
            }
            "--csv" => csv = Some(PathBuf::from(value_for("--csv")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }

    let mut sweep = if full {
        SweepConfig::full()
    } else {
        SweepConfig::quick()
    };
    if let Some(r) = reps {
        if r == 0 {
            return Err("--reps must be positive".into());
        }
        sweep.reps = r;
    }
    if let Some(s) = error_step {
        sweep.errors = error_values(s);
    }
    if let Some(s) = seed {
        sweep.root_seed = s;
    }
    if let Some(t) = threads {
        sweep.threads = t;
    }
    if let Some(m) = model {
        sweep.model = m;
    }
    if let Some(s) = speeds {
        sweep.speeds = s;
    }
    sweep.progress = !quiet;

    Ok(CliOptions {
        sweep,
        csv,
        explicit_reps: reps,
    })
}

/// Parse from the process environment.
pub fn parse_env() -> Result<CliOptions, String> {
    parse_args(std::env::args().skip(1))
}

/// Usage string shared by the binaries.
pub const USAGE: &str = "flags: [--full|--quick] [--reps N] [--error-step S] [--seed N] \
[--threads N] [--model normal|uniform|inverse] \
[--speeds declared|stochastic:S[:SEED]|sandbag:F:S[:SEED]|adversarial:F:S] [--csv PATH] [--quiet]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.sweep.reps, 10);
        assert_eq!(o.sweep.grid.len(), 144);
        assert!(o.csv.is_none());
    }

    #[test]
    fn full_flag() {
        let o = parse(&["--full"]).unwrap();
        assert_eq!(o.sweep.reps, 40);
        assert_eq!(o.sweep.grid.len(), 9 * 9 * 11 * 11);
        assert_eq!(o.sweep.errors.len(), 26);
    }

    #[test]
    fn overrides() {
        let o = parse(&[
            "--reps",
            "5",
            "--seed",
            "9",
            "--threads",
            "2",
            "--model",
            "uniform",
            "--csv",
            "/tmp/x.csv",
            "--error-step",
            "0.1",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(o.sweep.reps, 5);
        assert_eq!(o.sweep.root_seed, 9);
        assert_eq!(o.sweep.threads, 2);
        assert_eq!(o.sweep.model, ErrorModelKind::Uniform);
        assert_eq!(o.csv.unwrap().to_str().unwrap(), "/tmp/x.csv");
        assert_eq!(o.sweep.errors.len(), 6);
        assert!(!o.sweep.progress);
    }

    #[test]
    fn explicit_reps_override_bin_defaults() {
        // A bin with `reps_or(10)` must respect an explicit smaller --reps
        // (the old `reps.max(10)` clamp silently ignored it).
        let o = parse(&["--reps", "3"]).unwrap();
        assert_eq!(o.explicit_reps, Some(3));
        assert_eq!(o.reps_or(10), 3);
        let o = parse(&[]).unwrap();
        assert_eq!(o.explicit_reps, None);
        assert_eq!(o.reps_or(10), 10);
    }

    #[test]
    fn apply_to_folds_flags_into_spec() {
        use rumr::SchedulerKind;
        let o = parse(&["--seed", "9"]).unwrap();
        let mut spec = RunSpec::new(SchedulerKind::Umr).reps(7);
        o.apply_to(&mut spec);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.reps, 7, "bin default survives without --reps");

        let o = parse(&["--reps", "3"]).unwrap();
        o.apply_to(&mut spec);
        assert_eq!(spec.reps, 3, "explicit --reps overrides the bin default");
    }

    #[test]
    fn quick_flag_and_speeds() {
        let o = parse(&["--quick"]).unwrap();
        assert_eq!(o.sweep.reps, 10);
        assert_eq!(o.sweep.speeds, SpeedModel::Declared);

        let o = parse(&["--speeds", "adversarial:0.25:2"]).unwrap();
        assert_eq!(
            o.sweep.speeds,
            SpeedModel::Adversarial {
                fraction: 0.25,
                slowdown: 2.0
            }
        );
        let o = parse(&["--speeds", "stochastic:0.3:7"]).unwrap();
        assert_eq!(
            o.sweep.speeds,
            SpeedModel::Stochastic {
                spread: 0.3,
                seed: 7
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--speeds", "warp:9"]).is_err());
        assert!(parse(&["--speeds", "stochastic:1.5"]).is_err());
        assert!(parse(&["--reps"]).is_err());
        assert!(parse(&["--reps", "zero"]).is_err());
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--model", "weird"]).is_err());
        assert!(parse(&["--queue", "heap"]).is_err());
        assert!(parse(&["--error-step", "0"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
