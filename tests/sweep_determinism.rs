//! Determinism and correctness of the sweep harness.
//!
//! `sweep.rs` states its contract: each cell's seeds derive from
//! (root seed, cell index, repetition, competitor), so results are
//! independent of thread count and scheduling order. These tests pin that
//! contract *byte-for-byte* — every cell table is serialized with exact
//! f64 bits and compared across `threads = 1, 2, 8` and across two runs at
//! the same root seed, in both the fast and the fully traced mode — and
//! pin `run_sweep` against a reference built from one fresh
//! `Scenario::execute` per run (no runner reuse, no shared plans).

use std::fmt::Write as _;

use dls_experiments::{run_sweep, Cell, Competitor, ErrorModelKind, SweepConfig, Table1Grid};
use dls_numerics::rng::SeedDeriver;
use rumr::{HomogeneousParams, RunSpec, Scenario, SimConfig, SpeedModel, TraceMode};

fn pinned_config(threads: usize, trace_mode: TraceMode) -> SweepConfig {
    SweepConfig {
        grid: Table1Grid {
            n_values: vec![10, 20],
            ratio_values: vec![1.5],
            clat_values: vec![0.2],
            nlat_values: vec![0.1, 0.4],
        },
        errors: vec![0.0, 0.2, 0.4],
        reps: 3,
        root_seed: 20030623,
        threads,
        model: ErrorModelKind::Normal,
        w_total: 1000.0,
        progress: false,
        trace_mode,
        speeds: rumr::SpeedModel::Declared,
        audit: false,
    }
}

fn competitors() -> Vec<Competitor> {
    vec![
        Competitor::RumrKnown,
        Competitor::Umr,
        Competitor::Mi(2),
        Competitor::Factoring,
    ]
}

/// Serialize a sweep result to an exact byte string: labels, grid points,
/// and every mean as raw f64 bits (no rounding that could mask drift).
fn serialize(result: &dls_experiments::SweepResult) -> String {
    let mut out = String::new();
    for label in &result.labels {
        let _ = writeln!(out, "label {label}");
    }
    for cell in &result.cells {
        let _ = write!(
            out,
            "cell n={} r={} clat={} nlat={} err={:016x}",
            cell.point.n,
            cell.point.ratio,
            cell.point.comp_latency,
            cell.point.net_latency,
            cell.error.to_bits()
        );
        for m in &cell.means {
            let _ = write!(out, " {:016x}", m.to_bits());
        }
        if let Some(util) = &cell.link_util {
            for u in util {
                let _ = write!(out, " u{:016x}", u.to_bits());
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let comps = competitors();
    for mode in [TraceMode::Off, TraceMode::Full] {
        let reference = serialize(&run_sweep(&pinned_config(1, mode), &comps));
        for threads in [2, 8] {
            let other = serialize(&run_sweep(&pinned_config(threads, mode), &comps));
            assert_eq!(
                reference, other,
                "threads={threads} changed {mode:?} sweep results"
            );
        }
    }
}

#[test]
fn sweep_is_byte_identical_across_runs_at_same_root_seed() {
    let comps = competitors();
    let a = serialize(&run_sweep(&pinned_config(4, TraceMode::Off), &comps));
    let b = serialize(&run_sweep(&pinned_config(4, TraceMode::Off), &comps));
    assert_eq!(a, b, "same root seed must reproduce the exact cell table");
}

#[test]
fn different_root_seed_changes_results() {
    let comps = competitors();
    let a = serialize(&run_sweep(&pinned_config(2, TraceMode::Off), &comps));
    let mut cfg = pinned_config(2, TraceMode::Off);
    cfg.root_seed = 1;
    let b = serialize(&run_sweep(&cfg, &comps));
    assert_ne!(a, b, "the root seed must actually drive the realizations");
}

/// The cells `run_sweep` must produce, computed the slow way: one fresh
/// `Scenario::execute` per run, each planning its own scheduler.
fn fresh_reference(config: &SweepConfig, comps: &[Competitor]) -> Vec<Cell> {
    let sim_config = SimConfig {
        trace_mode: config.trace_mode,
        speeds: config.speeds,
        audit: config.audit,
        ..SimConfig::default()
    };
    let reps = config.reps as f64;
    let cells = config
        .grid
        .points()
        .into_iter()
        .flat_map(|point| config.errors.iter().map(move |&error| (point, error)));
    cells
        .enumerate()
        .map(|(cell_index, (point, error))| {
            let scenario = Scenario {
                platform: HomogeneousParams::table1(
                    point.n,
                    point.ratio,
                    point.comp_latency,
                    point.net_latency,
                )
                .build()
                .unwrap(),
                w_total: config.w_total,
                error_model: config.model.model(error),
                cost_profile: None,
                temporal_noise: None,
            };
            let seeds = SeedDeriver::new(config.root_seed).child(cell_index as u64);
            let mut cell = Cell {
                point,
                error,
                means: vec![0.0; comps.len()],
                link_util: Some(vec![0.0; comps.len()]),
                robustness: Some(vec![0.0; comps.len()]),
                audit_findings: 0,
            };
            for (c, competitor) in comps.iter().enumerate() {
                let (mut sum, mut util, mut ratio) = (0.0, 0.0, 0.0);
                for rep in 0..config.reps {
                    let seed = seeds.child(rep).child(c as u64).seed();
                    let spec = RunSpec::new(competitor.kind_for(error))
                        .seed(seed)
                        .config(sim_config.clone());
                    let result = scenario.execute(&spec).unwrap();
                    sum += result.makespan;
                    if let Some(metrics) = &result.metrics {
                        util += metrics.link_utilization(result.makespan);
                    }
                    if let Some(report) = scenario.robustness(&spec, seed, result.makespan) {
                        ratio += report.ratio;
                    }
                    cell.audit_findings += result.audit.map_or(0, |f| f.len());
                }
                cell.means[c] = sum / reps;
                cell.link_util.as_mut().unwrap()[c] = util / reps;
                cell.robustness.as_mut().unwrap()[c] = ratio / reps;
            }
            if !config.trace_mode.records_summary() {
                cell.link_util = None;
            }
            if !config.speeds.is_active() {
                cell.robustness = None;
            }
            cell
        })
        .collect()
}

/// Every field of a cell table, with floats as raw bits.
fn cell_bits(cells: &[Cell]) -> String {
    let bits = |v: &Option<Vec<f64>>| -> Option<Vec<u64>> {
        v.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect())
    };
    let mut out = String::new();
    for cell in cells {
        let means: Vec<u64> = cell.means.iter().map(|m| m.to_bits()).collect();
        let _ = writeln!(
            out,
            "{:?} err={:016x} means={means:x?} util={:x?} robust={:x?} findings={}",
            cell.point,
            cell.error.to_bits(),
            bits(&cell.link_util),
            bits(&cell.robustness),
            cell.audit_findings
        );
    }
    out
}

/// A two-point grid whose errors include 0.0 and a repeated value, over
/// competitors whose kinds both ignore the error (UMR, MI, Factoring:
/// planned once per point) and carry it (RUMR, FSC: planned per cell).
fn reference_config(trace_mode: TraceMode, audit: bool, speeds: SpeedModel) -> SweepConfig {
    SweepConfig {
        errors: vec![0.0, 0.2, 0.35, 0.2],
        trace_mode,
        audit,
        speeds,
        ..pinned_config(1, trace_mode)
    }
}

fn reference_competitors() -> Vec<Competitor> {
    vec![
        Competitor::RumrKnown,
        Competitor::Umr,
        Competitor::Mi(3),
        Competitor::Factoring,
        Competitor::Fsc,
        Competitor::RumrAdaptive,
    ]
}

fn assert_matches_fresh_reference(config: SweepConfig) {
    let comps = reference_competitors();
    let reference = cell_bits(&fresh_reference(&config, &comps));
    for threads in [1, 2, 8] {
        let swept = run_sweep(
            &SweepConfig {
                threads,
                ..config.clone()
            },
            &comps,
        );
        assert_eq!(
            reference,
            cell_bits(&swept.cells),
            "threads={threads}: run_sweep differs from fresh executions"
        );
    }
}

#[test]
fn sweep_means_match_fresh_executions() {
    assert_matches_fresh_reference(reference_config(
        TraceMode::Off,
        false,
        SpeedModel::Declared,
    ));
}

#[test]
fn sweep_metrics_audit_and_robustness_match_fresh_executions() {
    let config = reference_config(
        TraceMode::MetricsOnly,
        true,
        SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown: 2.0,
        },
    );
    assert_matches_fresh_reference(config);
}
