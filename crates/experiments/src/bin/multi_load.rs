//! Multi-load arbitration smoke/stress sweep: concurrent divisible loads
//! on one platform under every arbitration policy.
//!
//! For each (scenario, arrival family, policy) cell the bin executes a
//! multi-load run with the engine's streaming invariant audit *and* the
//! job-level audit (per-job work conservation, release compliance,
//! cross-job master exclusivity) enabled, then checks the oracle-style
//! floors: every completed job's response time must dominate its analytic
//! lower bound (stretch ≥ 1), and the set makespan must dominate the
//! whole-set bound.
//!
//! ```text
//! cargo run --release -p dls-experiments --bin multi_load -- --quick
//! ```
//!
//! Exits non-zero on any audit finding, any incomplete job, or any
//! stretch below 1. `--csv PATH` dumps one fairness row per cell.

use std::fmt::Write as _;
use std::process::exit;

use dls_experiments::{write_file, Table1Grid};
use rumr::{JobSet, MultiPolicy, MultiRunSpec, Scenario, SchedulerKind, SimConfig, TraceMode};

/// Tolerance on the stretch ≥ 1 invariant (float noise only).
const STRETCH_EPS: f64 = 1e-9;
/// Relative tolerance on per-job completed-work conservation.
const WORK_EPS: f64 = 1e-6;

fn scenarios(full: bool) -> Vec<(&'static str, Scenario)> {
    let mut v = vec![
        ("table1_n10", Scenario::table1(10, 1.5, 0.2, 0.2, 0.2)),
        ("het_n8", Scenario::heterogeneous_demo(8, 0.2)),
    ];
    if full {
        v.push(("table1_n20", Scenario::table1(20, 1.8, 0.3, 0.1, 0.3)));
    }
    v
}

fn arrival_families(seed: u64, full: bool) -> Vec<(&'static str, JobSet)> {
    let (n_poisson, per_burst) = if full { (8, 3) } else { (5, 2) };
    vec![
        (
            "simultaneous",
            JobSet::simultaneous(&[400.0, 250.0, 150.0, 100.0]).expect("sizes are valid"),
        ),
        ("poisson", JobSet::poisson(n_poisson, 40.0, 200.0, seed)),
        ("bursty", JobSet::bursty(2, per_burst, 120.0, 180.0, seed)),
    ]
}

fn main() {
    let opts = match dls_experiments::parse_env() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    };
    // This bin has its own pinned cells rather than the generic grid, so
    // --full is detected by the grid the flag selected.
    let full = opts.sweep.grid.len() > Table1Grid::quick().len();
    let seed = opts.sweep.root_seed;

    let mut csv = String::from(
        "scenario,arrivals,policy,jobs,completed_jobs,makespan,\
         max_stretch,mean_stretch,jain_index,audit_findings\n",
    );
    let mut table = format!(
        "{:<12} {:<14} {:<12} {:>5} {:>10} {:>12} {:>12} {:>8}\n",
        "scenario", "arrivals", "policy", "jobs", "makespan", "max_stretch", "mean_stretch", "jain"
    );
    let mut violations = 0usize;
    let mut cells = 0usize;

    for (scenario_name, scenario) in scenarios(full) {
        for (family, set) in arrival_families(seed, full) {
            for policy in MultiPolicy::ALL {
                cells += 1;
                let config = SimConfig {
                    trace_mode: TraceMode::Full,
                    audit: true,
                    ..Default::default()
                };
                let spec = MultiRunSpec::from_job_set(&set, SchedulerKind::Factoring, policy)
                    .seed(seed)
                    .config(config);
                let result = match scenario.execute_jobs(&spec) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!(
                            "RUN FAILED: {scenario_name}/{family}/{}: {e}",
                            policy.label()
                        );
                        violations += 1;
                        continue;
                    }
                };

                let audit_findings = result.total_audit_findings();
                if audit_findings > 0 {
                    for f in result.sim.audit.as_deref().unwrap_or(&[]) {
                        eprintln!(
                            "AUDIT(engine): {scenario_name}/{family}/{}: {f}",
                            policy.label()
                        );
                    }
                    for f in &result.job_audit {
                        eprintln!(
                            "AUDIT(jobs): {scenario_name}/{family}/{}: {f}",
                            policy.label()
                        );
                    }
                    violations += audit_findings;
                }
                for j in &result.jobs {
                    if (j.completed - j.size).abs() > WORK_EPS * j.size {
                        eprintln!(
                            "INCOMPLETE: {scenario_name}/{family}/{} job {}: {} of {}",
                            policy.label(),
                            j.job,
                            j.completed,
                            j.size
                        );
                        violations += 1;
                    }
                    match j.stretch {
                        Some(s) if s >= 1.0 - STRETCH_EPS => {}
                        Some(s) => {
                            eprintln!(
                                "STRETCH: {scenario_name}/{family}/{} job {} beats its lower \
                                 bound: {s}",
                                policy.label(),
                                j.job
                            );
                            violations += 1;
                        }
                        None => {
                            eprintln!(
                                "NO COMPLETION: {scenario_name}/{family}/{} job {}",
                                policy.label(),
                                j.job
                            );
                            violations += 1;
                        }
                    }
                }
                let set_bound = set.makespan_lower_bound(&scenario.platform);
                if result.sim.makespan < set_bound - STRETCH_EPS {
                    eprintln!(
                        "SET BOUND: {scenario_name}/{family}/{} makespan {} beats the set \
                         bound {set_bound}",
                        policy.label(),
                        result.sim.makespan
                    );
                    violations += 1;
                }

                let f = &result.fairness;
                let _ = writeln!(
                    csv,
                    "{scenario_name},{family},{},{},{},{:.6},{:.6},{:.6},{:.6},{audit_findings}",
                    policy.label(),
                    result.jobs.len(),
                    f.completed_jobs,
                    result.sim.makespan,
                    f.max_stretch,
                    f.mean_stretch,
                    f.jain_index
                );
                let _ = writeln!(
                    table,
                    "{scenario_name:<12} {family:<14} {:<12} {:>5} {:>10.2} {:>12.4} {:>12.4} {:>8.4}",
                    policy.label(),
                    result.jobs.len(),
                    result.sim.makespan,
                    f.max_stretch,
                    f.mean_stretch,
                    f.jain_index
                );
            }
        }
    }

    println!("multi-load sweep ({cells} cells):\n\n{table}");
    if let Some(path) = &opts.csv {
        write_file(path, &csv).expect("write CSV");
        eprintln!("wrote {}", path.display());
    }
    if violations > 0 {
        eprintln!("{violations} violation(s)");
        exit(1);
    }
    eprintln!("clean: zero audit findings, every job complete, every stretch >= 1");
}
