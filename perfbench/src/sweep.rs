//! `paper_sweep`: the paper's Table 2 pipeline.
//!
//! `run_sweep` over the quick Table 1 grid × `error_values(0.05)` × the
//! paper's seven competitors × 10 repetitions, trace mode off, 2 sweep
//! threads. The grid is driven one platform point per `run_sweep` call (11
//! error cells × 7 competitors × 10 repetitions = 770 simulated runs), so
//! every call is a user-visible latency sample while a full pass over the
//! 144 points is the whole 110,880-run pipeline.

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dls_experiments::grid::{GridPoint, Table1Grid};
use dls_experiments::sweep::{
    paper_competitors, run_sweep, Cell, Competitor, ErrorModelKind, SweepConfig,
};
use dls_numerics::rng::SeedDeriver;
use rumr::{HomogeneousParams, RunSpec, Scenario, SimConfig, TraceMode};

use crate::layers::{kind_label, set_plan_and_engine, Layers};
use crate::mix::Rng;
use crate::report::{median, percentile, rusage, wilson_upper, Outcome};
use crate::trace::Tracer;
use crate::Args;

const THREADS: usize = 2;
const SETUPS: usize = 3;
const WARMUP_POINTS: usize = 4;
const CHECK_POINTS: usize = 6;
const TRACE_POINTS: usize = 36;
const AUDIT_POINTS: usize = 6;
/// Stand-in latency (ms) of a failed call: it misses every limit.
const MISSED_MS: f64 = 1e9;
/// Seed labels: every timed pass and the traced pass sweep the same cells
/// (label 0); the warm-up sweeps others.
const TIMED: u64 = 0;
const WARMUP: u64 = 1;
/// Order round that picks the points the fresh-execution check recomputes.
const CHECK_ROUND: u64 = 1 << 32;

/// The seeded inputs of one run.
struct Inputs {
    points: Vec<GridPoint>,
    competitors: Vec<Competitor>,
    root: SeedDeriver,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Inputs {
            points: SweepConfig::quick().grid.points(),
            competitors: paper_competitors(),
            root: SeedDeriver::new(seed),
            seed,
        }
    }

    /// The quick sweep restricted to one platform point, seeded per
    /// (label, point).
    fn config(&self, label: u64, point: usize) -> SweepConfig {
        SweepConfig {
            grid: Table1Grid::single(self.points[point]),
            root_seed: self.root.child(label).child(point as u64).seed(),
            threads: THREADS,
            ..SweepConfig::quick()
        }
    }

    /// The points in a seeded order, one per `round`.
    fn order(&self, round: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        Rng::new(self.root.child(u64::MAX - round).seed()).shuffle(&mut order);
        order
    }

    fn runs_per_call(&self) -> u64 {
        let q = SweepConfig::quick();
        q.errors.len() as u64 * self.competitors.len() as u64 * q.reps
    }

    fn scenario(&self, point: usize, error: f64) -> Scenario {
        let p = self.points[point];
        Scenario {
            platform: HomogeneousParams::table1(p.n, p.ratio, p.comp_latency, p.net_latency)
                .build()
                .expect("Table 1 parameters are valid"),
            w_total: SweepConfig::quick().w_total,
            error_model: ErrorModelKind::Normal.model(error),
            cost_profile: None,
            temporal_noise: None,
        }
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    // Set-up: inputs plus a small warm-up sweep, three times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let fresh = Inputs::new(args.seed);
        // The same grid points every run (their costs differ by 10x), with
        // seeded cells of their own.
        let step = fresh.points.len() / WARMUP_POINTS;
        for p in (0..WARMUP_POINTS).map(|i| i * step) {
            let warm = panic::catch_unwind(AssertUnwindSafe(|| {
                run_sweep(&fresh.config(WARMUP, p), &fresh.competitors)
            }));
            if warm.is_err() {
                eprintln!("FAILED: run_sweep panicked in the warm-up (message above)");
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");

    // Timed phase: whole passes over the same seeded cells, in a fresh
    // point order each pass, until time is up. Point costs differ by 10x
    // (N = 50 with zero latencies is the most expensive), so only whole
    // passes keep the measured mix the same from run to run.
    let budget = Duration::from_secs_f64(args.seconds);
    let (cpu0, _) = rusage();
    let t0 = Instant::now();
    let mut latencies_ms = Vec::new();
    // First cells of every point; later passes must repeat them exactly.
    let mut cells: Vec<Option<Vec<Cell>>> = vec![None; inputs.points.len()];
    let mut completed = 0u64;
    let mut unrepeatable = 0u64;
    let mut failed_calls = 0u64;
    let mut failed_time = Duration::ZERO;
    let mut failed_cpu = 0.0;
    for pass in 0.. {
        if pass > 0 && t0.elapsed() >= budget {
            break;
        }
        for point in inputs.order(pass) {
            let (cpu_before, _) = rusage();
            let t = Instant::now();
            // `run_sweep` panics when a simulation fails; that loses the
            // call, which counts as a failed operation, not the whole run.
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_sweep(&inputs.config(TIMED, point), &inputs.competitors)
            }));
            let elapsed = t.elapsed();
            match result {
                Ok(result) => {
                    latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                    completed += 1;
                    match &cells[point] {
                        Some(first) if *first != result.cells => {
                            unrepeatable += 1;
                            eprintln!(
                                "paper_sweep: pass {pass} of point {point} differs from its first pass"
                            );
                        }
                        Some(_) => {}
                        None => cells[point] = Some(result.cells),
                    }
                }
                Err(_) => {
                    eprintln!(
                        "FAILED: run_sweep panicked on pass {pass}, point {:?} after {:.1} s (message above)",
                        inputs.points[point],
                        elapsed.as_secs_f64()
                    );
                    failed_calls += 1;
                    failed_time += elapsed;
                    failed_cpu += rusage().0 - cpu_before;
                    latencies_ms.push(MISSED_MS);
                }
            }
        }
    }
    // A failed call's time and CPU are left out of the throughput figures;
    // the failure itself is counted in `failed` and `error_ratio`.
    let wall = (t0.elapsed() - failed_time).as_secs_f64();
    let cpu = rusage().0 - cpu0 - failed_cpu;
    let runs = completed * inputs.runs_per_call();

    // Output check: a seeded sample of points, recomputed cell by cell
    // through fresh `Scenario::execute` calls (no runner reuse, no
    // prototype).
    let mut judged = 0u64;
    let mut wrong = unrepeatable;
    let sample = inputs
        .order(CHECK_ROUND)
        .into_iter()
        .filter_map(|p| Some((p, cells[p].as_ref()?)));
    for (point, point_cells) in sample.take(CHECK_POINTS) {
        let config = inputs.config(TIMED, point);
        for (ei, cell) in point_cells.iter().enumerate() {
            let fresh = fresh_means(&inputs, &config, point, ei, cell.error);
            for (c, (a, b)) in cell.means.iter().zip(&fresh).enumerate() {
                judged += 1;
                if a.to_bits() != b.to_bits() {
                    wrong += 1;
                    eprintln!(
                        "paper_sweep: cell mean differs from fresh execution: point {point} error {} competitor {}: {a} vs {b}",
                        cell.error,
                        inputs.competitors[c].label()
                    );
                }
            }
        }
    }
    eprintln!(
        "paper_sweep: seed {} — {completed} point calls ({failed_calls} failed), {runs} simulated runs in {wall:.2} s; fresh-execution check {}/{} cell means bit-identical",
        inputs.seed,
        judged - wrong,
        judged
    );

    let attempted = completed + failed_calls;
    if args.trace {
        let (layers, mismatches) = traced(&inputs, process_start);
        return Outcome {
            correct: wrong == 0 && mismatches == 0,
            attempted,
            failed: failed_calls,
            metrics: layers.into_metrics(),
        };
    }

    latencies_ms.sort_by(f64::total_cmp);
    let (_, peak_mib) = rusage();
    Outcome {
        correct: wrong == 0,
        attempted,
        failed: failed_calls,
        metrics: vec![
            ("setup_s".into(), median(&mut setups), "s"),
            ("ops_per_s".into(), runs as f64 / wall, "ops/s"),
            ("cpu_us_per_op".into(), cpu * 1e6 / runs as f64, "us"),
            (
                "latency_p50_ms".into(),
                percentile(&latencies_ms, 0.50),
                "ms",
            ),
            (
                "latency_p99_ms".into(),
                percentile(&latencies_ms, 0.99),
                "ms",
            ),
            (
                "error_ratio".into(),
                wilson_upper(wrong + failed_calls, judged + failed_calls),
                "ratio",
            ),
            ("peak_rss_mb".into(), peak_mib, "MiB"),
        ],
    }
}

/// The seeds `run_sweep` gives competitor `c` of repetition `rep` in cell
/// `cell` of a sweep rooted at `root_seed`.
fn run_seed(root_seed: u64, cell: usize, rep: u64, c: usize) -> u64 {
    SeedDeriver::new(root_seed)
        .child(cell as u64)
        .child(rep)
        .child(c as u64)
        .seed()
}

/// Cell means recomputed with one fresh `Scenario::execute` per run.
fn fresh_means(
    inputs: &Inputs,
    config: &SweepConfig,
    point: usize,
    cell: usize,
    error: f64,
) -> Vec<f64> {
    let scenario = inputs.scenario(point, error);
    let mut means = vec![0.0; inputs.competitors.len()];
    for rep in 0..config.reps {
        for (c, competitor) in inputs.competitors.iter().enumerate() {
            let spec = RunSpec::new(competitor.kind_for(error))
                .seed(run_seed(config.root_seed, cell, rep, c))
                .trace_mode(TraceMode::Off);
            means[c] += scenario
                .execute(&spec)
                .expect("paper sweep runs succeed")
                .makespan;
        }
    }
    for m in &mut means {
        *m /= config.reps as f64;
    }
    means
}

/// Re-drive one cell through `Scenario::runner`,
/// `ScenarioRunner::prototype` and `ScenarioRunner::execute`, with a span
/// around each call. Returns the cell means.
fn redrive_cell(
    t: &mut Tracer,
    inputs: &Inputs,
    config: &SweepConfig,
    point: usize,
    cell: usize,
    error: f64,
    plans: &mut HashSet<String>,
) -> Vec<f64> {
    let id = (point * 100 + cell) as u64;
    t.span("sweep.cell", "", id, |t| {
        let scenario = inputs.scenario(point, error);
        let mut runner = t.span("core.runner_setup", "", id, |_| {
            scenario.runner(SimConfig::default())
        });
        let mut specs: Vec<RunSpec> = inputs
            .competitors
            .iter()
            .map(|competitor| {
                let kind = competitor.kind_for(error);
                let prototype = t
                    .span("sched.plan", kind_label(&kind), id, |_| {
                        runner.prototype(&kind)
                    })
                    .expect("paper sweep plans succeed");
                plans.insert(format!("{point}:{kind:?}"));
                RunSpec::new(kind).with_prototype(prototype)
            })
            .collect();
        let mut means = vec![0.0; specs.len()];
        for rep in 0..config.reps {
            for (c, spec) in specs.iter_mut().enumerate() {
                spec.seed = run_seed(config.root_seed, cell, rep, c);
                let makespan = t.counted("simcore.engine", kind_label(&spec.kind), id, |_| {
                    let r = runner.execute(spec).expect("paper sweep runs succeed");
                    (r.makespan, r.events)
                });
                means[c] += makespan;
            }
        }
        for m in &mut means {
            *m /= config.reps as f64;
        }
        means
    })
}

/// One re-drive thread's spans, distinct plans and `(cell, means)`.
type Redriven = (Tracer, HashSet<String>, Vec<(usize, Vec<f64>)>);

/// Re-drive every cell of one point on `THREADS` threads, each with its own
/// tracer. Returns the tracers, the distinct plans and the cell means in
/// cell order.
fn redrive_point(
    inputs: &Inputs,
    config: &SweepConfig,
    point: usize,
    origin: Instant,
) -> (Vec<Tracer>, HashSet<String>, Vec<Vec<f64>>) {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<Redriven> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tracer::new(true, origin);
                    let mut plans = HashSet::new();
                    let mut cells = Vec::new();
                    loop {
                        let cell = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&error) = config.errors.get(cell) else {
                            return (t, plans, cells);
                        };
                        let means =
                            redrive_cell(&mut t, inputs, config, point, cell, error, &mut plans);
                        cells.push((cell, means));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("re-drive thread panicked"))
            .collect()
    });
    let mut tracers = Vec::new();
    let mut plans = HashSet::new();
    let mut cells = vec![Vec::new(); config.errors.len()];
    for (t, p, done) in per_thread {
        tracers.push(t);
        plans.extend(p);
        for (cell, means) in done {
            cells[cell] = means;
        }
    }
    (tracers, plans, cells)
}

/// The traced pass: the first points of the first timed pass, each swept
/// once more by `run_sweep` untraced and once re-driven with spans on the
/// same two threads; the re-driven cell means must match bit for bit. Then
/// a few points run every simulation with the trace off and again with
/// metrics plus the streaming audit, for the audit overhead. Returns the
/// layer metrics and the number of mismatches and audit findings; points
/// whose `run_sweep` fails are reported and skipped.
fn traced(inputs: &Inputs, origin: Instant) -> (Layers, u64) {
    let mut tracer = Tracer::new(true, origin);
    let mut plans = HashSet::new();
    let mut mismatches = 0u64;
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut points = Vec::with_capacity(TRACE_POINTS);
    for point in inputs.order(0).into_iter().take(TRACE_POINTS) {
        let config = inputs.config(TIMED, point);
        let t = Instant::now();
        let reference =
            panic::catch_unwind(AssertUnwindSafe(|| run_sweep(&config, &inputs.competitors)));
        let Ok(reference) = reference else {
            eprintln!(
                "FAILED: run_sweep panicked on traced point {:?} (message above); skipped",
                inputs.points[point]
            );
            continue;
        };
        untraced_ns += t.elapsed().as_nanos();
        points.push(point);

        let t = Instant::now();
        let (tracers, p, cells) = redrive_point(inputs, &config, point, origin);
        traced_ns += t.elapsed().as_nanos();
        tracers.into_iter().for_each(|t| tracer.absorb(t));
        plans.extend(p);
        for (cell, (means, expected)) in cells.iter().zip(&reference.cells).enumerate() {
            let expected = &expected.means;
            if means
                .iter()
                .map(|m| m.to_bits())
                .ne(expected.iter().map(|m| m.to_bits()))
            {
                mismatches += 1;
                eprintln!(
                    "paper_sweep: traced re-drive differs from run_sweep at point {point} cell {cell}: {means:?} vs {expected:?}"
                );
            }
        }
    }
    let cells = points.len() * SweepConfig::quick().errors.len();
    eprintln!(
        "paper_sweep: traced re-drive of {cells} cells, {} bit-identical to run_sweep",
        cells as u64 - mismatches
    );

    let findings: usize = points
        .iter()
        .take(AUDIT_POINTS)
        .map(|&point| audit_pass(&mut tracer, inputs, point))
        .sum();
    if findings > 0 {
        eprintln!("paper_sweep: {findings} audit findings in the audited pass");
    }

    let mut layers = Layers::default();
    let runs = tracer.named("simcore.engine").count() as u64;
    set_plan_and_engine(&mut layers, &tracer, "sweep.cell", plans.len(), runs);
    layers.set(
        "simcore.audit_overhead_ratio",
        tracer.total_ns("simcore.engine.audit") as f64
            / tracer.total_ns("simcore.engine.off").max(1) as f64,
    );
    layers.set(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced_ns.max(1) as f64,
    );
    if let Err(e) = tracer.finish(&crate::spans_path("paper_sweep", inputs.seed)) {
        eprintln!("paper_sweep: could not write spans: {e}");
    }
    (layers, mismatches + findings as u64)
}

/// Every run of one point's cells, once with the trace off and once with
/// metrics plus the streaming audit, on two warm runners. Returns the
/// number of audit findings (expected 0).
fn audit_pass(tracer: &mut Tracer, inputs: &Inputs, point: usize) -> usize {
    let config = inputs.config(TIMED, point);
    let audited = SimConfig {
        trace_mode: TraceMode::MetricsOnly,
        audit: true,
        ..SimConfig::default()
    };
    let mut findings = 0;
    for (cell, &error) in config.errors.iter().enumerate() {
        let id = (point * 100 + cell) as u64;
        let scenario = inputs.scenario(point, error);
        let mut off = scenario.runner(SimConfig::default());
        let mut on = scenario.runner(audited.clone());
        let mut specs: Vec<RunSpec> = inputs
            .competitors
            .iter()
            .map(|competitor| {
                let kind = competitor.kind_for(error);
                let prototype = off.prototype(&kind).expect("paper sweep plans succeed");
                RunSpec::new(kind).with_prototype(prototype)
            })
            .collect();
        for rep in 0..config.reps {
            for (c, spec) in specs.iter_mut().enumerate() {
                spec.seed = run_seed(config.root_seed, cell, rep, c);
                spec.config = SimConfig::default();
                let label = kind_label(&spec.kind);
                tracer.span("simcore.engine.off", label, id, |_| {
                    off.execute(spec).expect("paper sweep runs succeed")
                });
                spec.config = audited.clone();
                let r = tracer.span("simcore.engine.audit", label, id, |_| {
                    on.execute(spec).expect("paper sweep runs succeed")
                });
                findings += r.audit.as_ref().map_or(0, Vec::len);
            }
        }
    }
    findings
}
