//! The parallel sweep engine.
//!
//! A sweep runs a set of competitor algorithms over (platform grid × error
//! values × repetitions) and aggregates, per *cell* (platform point, error
//! value), the mean makespan of each competitor over the repetitions —
//! exactly the granularity at which the paper reports (each data point is
//! an average over 40 repetitions).
//!
//! Work is fanned out over std scoped threads one *series* at a time — one
//! competitor's repetitions in one cell. Plans depend only on the platform,
//! the workload and the scheduler kind, so each platform point plans every
//! distinct kind once, on first use, and its error cells run clones of that
//! plan. Each run's seed is derived deterministically from (root seed, cell
//! index, repetition, competitor), and each series sums its repetitions in
//! order, so results are independent of thread count and scheduling order.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dls_numerics::rng::SeedDeriver;
use dls_sim::ErrorModel;
use rumr::{
    RumrConfig, RunSpec, Scenario, ScenarioRunner, SchedulerKind, SchedulerPrototype, SimConfig,
    SpeedModel, TraceMetrics, TraceMode,
};

use crate::grid::{GridPoint, Table1Grid};

/// Which family of ratio distribution the sweep injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorModelKind {
    /// Multiplicative truncated normal (default; see `dls-sim` docs).
    Normal,
    /// Matched-variance uniform.
    Uniform,
    /// The paper-literal inverse form with a floored ratio.
    Inverse,
}

impl ErrorModelKind {
    /// Instantiate the model at a given error magnitude.
    pub fn model(self, error: f64) -> ErrorModel {
        if error <= 0.0 {
            return ErrorModel::None;
        }
        match self {
            ErrorModelKind::Normal => ErrorModel::TruncatedNormal { error },
            ErrorModelKind::Uniform => ErrorModel::Uniform { error },
            ErrorModelKind::Inverse => ErrorModel::TruncatedNormalInverse { error },
        }
    }
}

/// A competitor in a sweep. Some algorithms are parameterized by the cell's
/// error magnitude (RUMR's known-error split, FSC's chunk formula), so the
/// mapping to a concrete [`SchedulerKind`] happens per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Competitor {
    /// Original RUMR with the error magnitude known.
    RumrKnown,
    /// RUMR with in-order (plain UMR) phase 1 — Fig. 7 ablation.
    RumrPlain,
    /// RUMR with a fixed phase-1 fraction — Fig. 6 ablation.
    RumrFixed(f64),
    /// Plain UMR.
    Umr,
    /// Multi-installment with the given installment count.
    Mi(usize),
    /// Factoring.
    Factoring,
    /// Fixed-size chunking (error-aware chunk formula).
    Fsc,
    /// One round of equal chunks.
    EqualStatic,
    /// Adaptive RUMR (online error estimation, no oracle input).
    RumrAdaptive,
    /// RUMR with a non-default phase-2 factoring factor — ablation of the
    /// `f = 2` design choice.
    RumrFactor(f64),
    /// RUMR with the error-unaware minimum chunk bound — ablation of the
    /// §4.2(iii) error-aware bound.
    RumrUnawareBound,
    /// Closed-form one-round heterogeneous baseline (the speed-robust
    /// sweep's most commitment-heavy competitor: everything is dispatched
    /// before any realized rate can be observed).
    OneRound,
}

impl Competitor {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Competitor::RumrKnown => "RUMR".into(),
            Competitor::RumrPlain => "RUMR-plain".into(),
            Competitor::RumrFixed(p) => format!("RUMR_{:.0}", p * 100.0),
            Competitor::Umr => "UMR".into(),
            Competitor::Mi(x) => format!("MI-{x}"),
            Competitor::Factoring => "Factoring".into(),
            Competitor::Fsc => "FSC".into(),
            Competitor::EqualStatic => "EqualStatic".into(),
            Competitor::RumrAdaptive => "RUMR-adaptive".into(),
            Competitor::RumrFactor(f) => format!("RUMR-f{f}"),
            Competitor::RumrUnawareBound => "RUMR-ub".into(),
            Competitor::OneRound => "OneRound".into(),
        }
    }

    /// Concrete scheduler for a cell with the given error magnitude.
    pub fn kind_for(&self, error: f64) -> SchedulerKind {
        match *self {
            Competitor::RumrKnown => SchedulerKind::rumr_known_error(error),
            Competitor::RumrPlain => SchedulerKind::rumr_plain_phase1(error),
            Competitor::RumrFixed(p) => {
                SchedulerKind::Rumr(RumrConfig::with_fixed_fraction(p, Some(error)))
            }
            Competitor::Umr => SchedulerKind::Umr,
            Competitor::Mi(x) => SchedulerKind::Mi { installments: x },
            Competitor::Factoring => SchedulerKind::Factoring,
            Competitor::Fsc => SchedulerKind::Fsc { error },
            Competitor::EqualStatic => SchedulerKind::EqualStatic,
            Competitor::RumrAdaptive => SchedulerKind::AdaptiveRumr,
            Competitor::RumrFactor(f) => {
                let mut cfg = RumrConfig::with_known_error(error);
                cfg.factor = f;
                SchedulerKind::Rumr(cfg)
            }
            Competitor::RumrUnawareBound => {
                let mut cfg = RumrConfig::with_known_error(error);
                cfg.error_aware_bound = false;
                SchedulerKind::Rumr(cfg)
            }
            Competitor::OneRound => SchedulerKind::OneRound,
        }
    }
}

/// The paper's Table 2/3 and Fig. 4/5 competitor set; RUMR first (it is the
/// normalization reference).
pub fn paper_competitors() -> Vec<Competitor> {
    vec![
        Competitor::RumrKnown,
        Competitor::Umr,
        Competitor::Mi(1),
        Competitor::Mi(2),
        Competitor::Mi(3),
        Competitor::Mi(4),
        Competitor::Factoring,
    ]
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Platform grid.
    pub grid: Table1Grid,
    /// Error magnitudes to sweep.
    pub errors: Vec<f64>,
    /// Repetitions per cell (the paper uses 40).
    pub reps: u64,
    /// Root seed for deterministic seed derivation.
    pub root_seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Error-model family.
    pub model: ErrorModelKind,
    /// Total workload per run.
    pub w_total: f64,
    /// Print progress to stderr.
    pub progress: bool,
    /// How much the engine records per run. [`TraceMode::Off`] (the
    /// default) is the fast path for makespan-only sweeps;
    /// [`TraceMode::MetricsOnly`] adds cheap incremental link/gap metrics;
    /// [`TraceMode::Full`] is the self-checking configuration — the
    /// complete event trace is recorded, validated against the engine's
    /// protocol invariants, and distilled into [`TraceMetrics`] per run.
    pub trace_mode: TraceMode,
    /// Declared-vs-realized speed model applied to every run. With an
    /// active model each cell also aggregates per-competitor robustness
    /// ratios ([`Cell::robustness`]) against clairvoyant twins.
    pub speeds: SpeedModel,
    /// Run the engine's streaming invariant audit on every run and count
    /// findings into [`Cell::audit_findings`].
    pub audit: bool,
}

impl SweepConfig {
    /// Quick defaults: sub-grid, 0.05 error step, 10 repetitions.
    pub fn quick() -> Self {
        SweepConfig {
            grid: Table1Grid::quick(),
            errors: crate::grid::error_values(0.05),
            reps: 10,
            root_seed: 20030623, // HPDC'03 conference date
            threads: 0,
            model: ErrorModelKind::Normal,
            w_total: 1000.0,
            progress: false,
            trace_mode: TraceMode::Off,
            speeds: SpeedModel::Declared,
            audit: false,
        }
    }

    /// The paper's full setting: complete Table 1 grid, 0.02 error step,
    /// 40 repetitions.
    pub fn full() -> Self {
        SweepConfig {
            grid: Table1Grid::full(),
            errors: crate::grid::error_values(0.02),
            reps: 40,
            progress: true,
            ..Self::quick()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Per-(platform point, error) aggregated result.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The platform point.
    pub point: GridPoint,
    /// The error magnitude.
    pub error: f64,
    /// Mean makespan per competitor (indexed like the competitor slice),
    /// averaged over the repetitions.
    pub means: Vec<f64>,
    /// Mean master-link utilization per competitor, present when the sweep
    /// ran with [`TraceMode::MetricsOnly`] or [`TraceMode::Full`].
    pub link_util: Option<Vec<f64>>,
    /// Mean robustness ratio per competitor (realized makespan over the
    /// clairvoyant reference, ≥ 1), present when the sweep ran with an
    /// active [`SweepConfig::speeds`] model.
    pub robustness: Option<Vec<f64>>,
    /// Invariant findings across every run of the cell when
    /// [`SweepConfig::audit`] was on (0 = audited and clean).
    pub audit_findings: usize,
}

/// Result of a sweep: one [`Cell`] per (point, error), in deterministic
/// (point-major) order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Competitor labels, in column order.
    pub labels: Vec<String>,
    /// All cells.
    pub cells: Vec<Cell>,
}

impl SweepResult {
    /// Index of a competitor column by label.
    pub fn column(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }
}

/// Run a sweep. Deterministic for a given configuration regardless of the
/// thread count.
///
/// # Panics
///
/// Panics if a planner or a simulation fails — every failure mode
/// indicates a scheduler bug, and the panic message carries the offending
/// cell's parameters.
pub fn run_sweep(config: &SweepConfig, competitors: &[Competitor]) -> SweepResult {
    assert!(config.reps > 0, "need at least one repetition");
    assert!(!competitors.is_empty(), "need at least one competitor");
    let points = config.grid.points();
    let errors = &config.errors;
    let comps = competitors.len();
    // A plan depends on (platform, W, kind) only, so a point plans each
    // distinct kind of its error cells once: series `s` of a point (error
    // `s / comps`, competitor `s % comps`) uses plan `plan_of[s]`. Kinds
    // that carry the error (RUMR, FSC) stay distinct per error value.
    let mut kinds: Vec<SchedulerKind> = Vec::new();
    let plan_of: Vec<usize> = errors
        .iter()
        .flat_map(|&error| competitors.iter().map(move |c| c.kind_for(error)))
        .map(|kind| match kinds.iter().position(|k| *k == kind) {
            Some(k) => k,
            None => {
                kinds.push(kind);
                kinds.len() - 1
            }
        })
        .collect();
    let sim_config = SimConfig {
        trace_mode: config.trace_mode,
        speeds: config.speeds,
        audit: config.audit,
        ..SimConfig::default()
    };

    let blank = |point, error| Cell {
        point,
        error,
        means: vec![0.0; comps],
        link_util: config
            .trace_mode
            .records_summary()
            .then(|| vec![0.0; comps]),
        robustness: config.speeds.is_active().then(|| vec![0.0; comps]),
        audit_findings: 0,
    };
    // Each cell slot also counts its finished series.
    let cells: Vec<Mutex<(Cell, usize)>> = points
        .iter()
        .flat_map(|&point| errors.iter().map(move |&error| (point, error)))
        .map(|(point, error)| Mutex::new((blank(point, error), 0)))
        .collect();
    let plans: Vec<Mutex<PointPlans>> = points
        .iter()
        .map(|_| {
            Mutex::new(PointPlans {
                table: None,
                unfinished: errors.len() * comps,
            })
        })
        .collect();
    let series = cells.len() * comps;
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let threads = config.effective_threads().min(series).max(1);

    // Series are handed out in (point, error, competitor) order, so the
    // threads work through one cell, then one point, at a time.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut i = next.fetch_add(1, Ordering::Relaxed);
                while i < series {
                    let cell_index = i / comps;
                    let point_index = cell_index / errors.len();
                    let point = points[point_index];
                    let error = errors[cell_index % errors.len()];
                    let table = plans[point_index]
                        .lock()
                        .expect("sweep worker panicked")
                        .table(kinds.len());
                    let scenario = cell_scenario(config, point, error);
                    // One engine per visit to a cell: the runner resets it
                    // between the repetitions of every series this thread
                    // runs in the cell before moving on.
                    let mut runner = scenario.runner(sim_config.clone());
                    let seeds = SeedDeriver::new(config.root_seed).child(cell_index as u64);
                    loop {
                        let c = i % comps;
                        let plan = plan_of[i % plan_of.len()];
                        let site = Site {
                            competitor: competitors[c],
                            point,
                            error,
                        };
                        let prototype = table[plan].get_or_init(|| {
                            runner
                                .prototype(&kinds[plan])
                                .unwrap_or_else(|e| panic!("planner failed: {e} ({site})"))
                        });
                        let spec = RunSpec::new(kinds[plan])
                            .config(sim_config.clone())
                            .with_prototype(prototype.clone());
                        let result = run_series(config, &mut runner, spec, seeds, c, &site);
                        let mut slot = cells[cell_index].lock().expect("sweep worker panicked");
                        result.write_into(&mut slot.0, c);
                        slot.1 += 1;
                        if slot.1 == comps {
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            if config.progress
                                && (finished.is_multiple_of(500) || finished == cells.len())
                            {
                                eprintln!("sweep: {finished}/{} cells", cells.len());
                            }
                        }
                        drop(slot);
                        plans[point_index]
                            .lock()
                            .expect("sweep worker panicked")
                            .finish_series();
                        i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= series || i / comps != cell_index {
                            break;
                        }
                    }
                }
            });
        }
    });

    SweepResult {
        labels: competitors.iter().map(Competitor::label).collect(),
        cells: cells
            .into_iter()
            .map(|slot| slot.into_inner().expect("sweep worker panicked").0)
            .collect(),
    }
}

/// The plans of one platform point, shared by the series of its error
/// cells.
struct PointPlans {
    /// One prototype per distinct scheduler kind, planned by the first
    /// series that needs it. Built by the point's first series and dropped
    /// when its last one finishes.
    table: Option<Arc<[OnceLock<SchedulerPrototype>]>>,
    /// Series of the point that have not finished yet.
    unfinished: usize,
}

impl PointPlans {
    fn table(&mut self, len: usize) -> Arc<[OnceLock<SchedulerPrototype>]> {
        Arc::clone(
            self.table
                .get_or_insert_with(|| (0..len).map(|_| OnceLock::new()).collect()),
        )
    }

    fn finish_series(&mut self) {
        self.unfinished -= 1;
        if self.unfinished == 0 {
            self.table = None;
        }
    }
}

fn cell_scenario(config: &SweepConfig, point: GridPoint, error: f64) -> Scenario {
    let platform = dls_sim::HomogeneousParams::table1(
        point.n,
        point.ratio,
        point.comp_latency,
        point.net_latency,
    )
    .build()
    .expect("grid parameters are valid");
    Scenario {
        platform,
        w_total: config.w_total,
        error_model: config.model.model(error),
        cost_profile: None,
        temporal_noise: None,
    }
}

/// One competitor's aggregates over a cell's repetitions.
struct Series {
    mean: f64,
    link_util: f64,
    robustness: f64,
    audit_findings: usize,
}

impl Series {
    fn write_into(&self, cell: &mut Cell, c: usize) {
        cell.means[c] = self.mean;
        if let Some(util) = &mut cell.link_util {
            util[c] = self.link_util;
        }
        if let Some(ratios) = &mut cell.robustness {
            ratios[c] = self.robustness;
        }
        cell.audit_findings += self.audit_findings;
    }
}

/// Where a series runs, for panic messages.
struct Site {
    competitor: Competitor,
    point: GridPoint,
    error: f64,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.point;
        write!(
            f,
            "competitor {}, N={}, r={}, cLat={}, nLat={}, error={}",
            self.competitor.label(),
            p.n,
            p.ratio,
            p.comp_latency,
            p.net_latency,
            self.error
        )
    }
}

/// Run competitor `c`'s repetitions of one cell, in order. Repetition
/// `rep` runs at seed `cell_seeds.child(rep).child(c)`: independent error
/// realizations per algorithm, matching the paper's methodology (each
/// experiment is a fresh run).
fn run_series(
    config: &SweepConfig,
    runner: &mut ScenarioRunner<'_>,
    mut spec: RunSpec,
    cell_seeds: SeedDeriver,
    c: usize,
    site: &Site,
) -> Series {
    let num_workers = runner.scenario().platform.num_workers();
    let mut sums = Series {
        mean: 0.0,
        link_util: 0.0,
        robustness: 0.0,
        audit_findings: 0,
    };
    // The clairvoyant twins depend on the realized platform, not on the
    // seed: plan them once for the whole series.
    let clairvoyant = runner.scenario().clairvoyant(&spec);
    for rep in 0..config.reps {
        let seed = cell_seeds.child(rep).child(c as u64).seed();
        spec.seed = seed;
        let result = runner
            .execute(&spec)
            .unwrap_or_else(|e| panic!("simulation failed: {e} ({site}, rep={rep})"));
        sums.mean += result.makespan;
        if let Some(findings) = &result.audit {
            sums.audit_findings += findings.len();
        }
        if let Some(clairvoyant) = &clairvoyant {
            sums.robustness += clairvoyant.report(seed, result.makespan).ratio;
        }
        match config.trace_mode {
            TraceMode::Off => {}
            TraceMode::MetricsOnly => {
                if let Some(metrics) = &result.metrics {
                    sums.link_util += metrics.link_utilization(result.makespan);
                }
            }
            TraceMode::Full => {
                // A fully traced sweep is the self-checking
                // configuration: every run's trace is validated against
                // the engine's protocol invariants (serial sends, FIFO
                // queues, conservation) and the derived trace metrics
                // feed the cell aggregates.
                if let Some(trace) = &result.trace {
                    let violations = trace.validate(num_workers);
                    assert!(
                        violations.is_empty(),
                        "trace violations ({site}, rep={rep}): {violations:?}"
                    );
                    let tm = TraceMetrics::from_trace(trace, num_workers);
                    sums.link_util += tm.link_utilization;
                }
            }
        }
    }
    let denom = config.reps as f64;
    sums.mean /= denom;
    sums.link_util /= denom;
    sums.robustness /= denom;
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            grid: Table1Grid {
                n_values: vec![10],
                ratio_values: vec![1.5],
                clat_values: vec![0.2],
                nlat_values: vec![0.1, 0.4],
            },
            errors: vec![0.0, 0.3],
            reps: 3,
            root_seed: 1,
            threads: 2,
            model: ErrorModelKind::Normal,
            w_total: 1000.0,
            progress: false,
            trace_mode: TraceMode::Off,
            speeds: SpeedModel::Declared,
            audit: false,
        }
    }

    #[test]
    fn sweep_shape_and_labels() {
        let comps = vec![
            Competitor::RumrKnown,
            Competitor::Umr,
            Competitor::Factoring,
        ];
        let r = run_sweep(&tiny_config(), &comps);
        assert_eq!(r.labels, vec!["RUMR", "UMR", "Factoring"]);
        assert_eq!(r.cells.len(), 4); // 2 points × 2 errors
        for cell in &r.cells {
            assert_eq!(cell.means.len(), 3);
            for &m in &cell.means {
                assert!(m > 0.0 && m.is_finite());
            }
        }
        assert_eq!(r.column("UMR"), Some(1));
        assert_eq!(r.column("nope"), None);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let comps = vec![Competitor::RumrKnown, Competitor::Umr];
        let mut one = tiny_config();
        one.threads = 1;
        let mut four = tiny_config();
        four.threads = 4;
        let a = run_sweep(&one, &comps);
        let b = run_sweep(&four, &comps);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.means, y.means, "thread count changed results");
        }
    }

    #[test]
    fn zero_error_cells_have_rumr_equal_umr() {
        let comps = vec![Competitor::RumrKnown, Competitor::Umr];
        let r = run_sweep(&tiny_config(), &comps);
        for cell in r.cells.iter().filter(|c| c.error == 0.0) {
            assert!(
                (cell.means[0] - cell.means[1]).abs() < 1e-9,
                "RUMR(0) must equal UMR: {:?}",
                cell
            );
        }
    }

    #[test]
    fn trace_modes_agree_on_means_and_populate_link_util() {
        let comps = vec![Competitor::RumrKnown, Competitor::Factoring];
        let off = run_sweep(&tiny_config(), &comps);
        for mode in [TraceMode::MetricsOnly, TraceMode::Full] {
            let mut cfg = tiny_config();
            cfg.trace_mode = mode;
            let r = run_sweep(&cfg, &comps);
            for (a, b) in off.cells.iter().zip(&r.cells) {
                assert_eq!(a.means, b.means, "{mode:?} changed makespans");
                assert!(a.link_util.is_none());
                let util = b.link_util.as_ref().expect("metrics recorded");
                for &u in util {
                    assert!(u > 0.0 && u <= 1.0 + 1e-9, "bad utilization {u}");
                }
            }
        }
    }

    #[test]
    fn declared_speeds_leave_results_bit_identical() {
        let comps = vec![Competitor::RumrKnown, Competitor::Factoring];
        let base = run_sweep(&tiny_config(), &comps);
        let mut cfg = tiny_config();
        cfg.speeds = SpeedModel::Declared; // explicit identity
        let gated = run_sweep(&cfg, &comps);
        for (a, b) in base.cells.iter().zip(&gated.cells) {
            assert_eq!(a.means, b.means);
            assert!(b.robustness.is_none(), "no revelation, no ratio");
        }
    }

    #[test]
    fn active_speeds_populate_robustness_at_least_one() {
        let comps = vec![
            Competitor::RumrKnown,
            Competitor::Factoring,
            Competitor::OneRound,
        ];
        let mut cfg = tiny_config();
        cfg.speeds = SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown: 2.0,
        };
        cfg.audit = true;
        let r = run_sweep(&cfg, &comps);
        for cell in &r.cells {
            assert_eq!(cell.audit_findings, 0, "audited runs must be clean");
            let ratios = cell.robustness.as_ref().expect("revelation active");
            assert_eq!(ratios.len(), 3);
            for &ratio in ratios {
                assert!(
                    ratio >= 1.0 - 1e-9 && ratio.is_finite(),
                    "bad robustness ratio {ratio} in {cell:?}"
                );
            }
        }
    }

    #[test]
    fn paper_competitor_set() {
        let comps = paper_competitors();
        assert_eq!(comps.len(), 7);
        assert_eq!(comps[0].label(), "RUMR");
        assert_eq!(comps[6].label(), "Factoring");
    }

    #[test]
    fn model_kind_mapping() {
        assert_eq!(ErrorModelKind::Normal.model(0.0), ErrorModel::None);
        assert_eq!(
            ErrorModelKind::Normal.model(0.2),
            ErrorModel::TruncatedNormal { error: 0.2 }
        );
        assert_eq!(
            ErrorModelKind::Uniform.model(0.2),
            ErrorModel::Uniform { error: 0.2 }
        );
        assert_eq!(
            ErrorModelKind::Inverse.model(0.2),
            ErrorModel::TruncatedNormalInverse { error: 0.2 }
        );
    }

    #[test]
    fn competitor_kind_mapping() {
        assert_eq!(Competitor::Umr.kind_for(0.3), SchedulerKind::Umr);
        assert_eq!(
            Competitor::Mi(2).kind_for(0.3),
            SchedulerKind::Mi { installments: 2 }
        );
        assert_eq!(
            Competitor::RumrKnown.kind_for(0.3),
            SchedulerKind::rumr_known_error(0.3)
        );
        assert_eq!(Competitor::RumrFixed(0.8).label(), "RUMR_80");
    }
}
