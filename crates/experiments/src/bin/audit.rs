//! Conformance audit harness: runs the pinned suite through the
//! differential × invariant × analytic-oracle checks (see `docs/AUDIT.md`)
//! and exits non-zero on any finding.
//!
//! ```text
//! cargo run --release -p dls-experiments --bin audit
//! ```
//!
//! Options:
//!
//! * `--reps N`     seeds per (case, configuration) pair (default 5)
//! * `--quick`      CI smoke budget (2 seeds per pair)
//! * `--out PATH`   also write the JSON report to PATH

use std::path::PathBuf;
use std::process::exit;

use dls_experiments::{run_audit, AuditOptions};

const USAGE: &str = "usage: audit [--reps N] [--quick] [--out PATH]";

struct Options {
    audit: AuditOptions,
    out: Option<PathBuf>,
}

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        audit: AuditOptions::default(),
        out: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--reps" => {
                opts.audit.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if opts.audit.reps == 0 {
                    return Err("--reps must be positive".into());
                }
            }
            "--quick" => opts.audit = AuditOptions::quick(),
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
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

    let report = run_audit(&opts.audit);
    if let Some(path) = &opts.out {
        std::fs::write(path, report.to_json()).expect("write audit report");
        eprintln!("wrote {}", path.display());
    }
    eprintln!(
        "audited {} cases × {} configurations × {} seeds ({} runs)",
        report.cases, report.configs_per_case, report.reps, report.runs
    );
    if report.is_clean() {
        eprintln!("conforming: no findings");
    } else {
        eprintln!("{} finding(s):", report.findings.len());
        for f in &report.findings {
            eprintln!("  {f}");
        }
        exit(1);
    }
}
