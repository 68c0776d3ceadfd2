//! The persisted benchmark snapshot (`BENCH_sim.json`).
//!
//! [`run_snapshot`] executes a pinned scenario suite — homogeneous and
//! heterogeneous platforms × UMR / RUMR / Factoring / MI × fault-free and
//! Poisson-faulty — through the buffer-reusing [`rumr::ScenarioRunner`]
//! and measures engine throughput (ns/event, runs/sec) per case, in both
//! repetition strategies (the sequential per-seed loop and the
//! column-batched [`rumr::ScenarioRunner::execute_batch`] pass), plus the
//! analytic fast path against the engine on the pinned error-free cases,
//! plus the wall time of a reduced sweep under [`TraceMode::Off`] vs
//! [`TraceMode::Full`]. The result serializes to a
//! small JSON document with machine and commit metadata so successive
//! commits can be compared (`docs/BENCHMARKS.md`).
//!
//! No serde: the JSON is emitted by hand and re-parsed for schema
//! validation by a deliberately minimal recursive-descent parser
//! ([`validate_snapshot_json`]), which CI runs against the artifact.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rumr::{
    FastPath, FaultModel, PoissonFaults, RecoveryConfig, RepColumns, RumrConfig, RunSpec, Scenario,
    SchedulerKind, SimConfig, SpeedModel, TraceMode,
};

use crate::grid::Table1Grid;
use crate::json::{json_escape, json_num, parse_json, Json};
use crate::sweep::{run_sweep, Competitor, ErrorModelKind, SweepConfig};

/// Version of the `BENCH_sim.json` schema this module writes, and the only
/// one [`validate_snapshot_json`] accepts. Documents of earlier versions
/// live in the repository's history.
pub const SCHEMA_VERSION: u64 = 5;

/// Error magnitude used by every pinned case.
const CASE_ERROR: f64 = 0.3;

/// How much work each part of the snapshot does.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Timed repetitions per engine case.
    pub case_reps: u64,
    /// Repetitions per cell in the Off-vs-Full sweep comparison.
    pub sweep_reps: u64,
}

impl SnapshotConfig {
    /// The default measurement budget (a few seconds of wall time).
    pub fn standard() -> Self {
        SnapshotConfig {
            case_reps: 200,
            sweep_reps: 40,
        }
    }

    /// A reduced budget for CI smoke runs (sub-second).
    pub fn quick() -> Self {
        SnapshotConfig {
            case_reps: 10,
            sweep_reps: 2,
        }
    }
}

/// How a case's repetitions were driven through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaseMode {
    /// One [`rumr::ScenarioRunner::execute_at`] call per seed — the
    /// historical repetition loop.
    #[default]
    Sequential,
    /// One [`rumr::ScenarioRunner::execute_batch`] pass per timed batch,
    /// appending rows to reused [`RepColumns`] buffers.
    Batched,
}

impl CaseMode {
    /// Stable JSON value of the `mode` case field.
    pub fn name(self) -> &'static str {
        match self {
            CaseMode::Sequential => "sequential",
            CaseMode::Batched => "batched",
        }
    }

    /// Parse the stable JSON value back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sequential" => Some(CaseMode::Sequential),
            "batched" => Some(CaseMode::Batched),
            _ => None,
        }
    }
}

/// Throughput measurement of one pinned case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case label, `<platform>/<scheduler>/<faults>`.
    pub name: String,
    /// Repetition strategy the case ran under.
    pub mode: CaseMode,
    /// Timed repetitions.
    pub runs: u64,
    /// Engine events processed across all timed runs.
    pub events: u64,
    /// Wall time of the timed runs, seconds.
    pub wall_s: f64,
    /// Nanoseconds per engine event.
    pub ns_per_event: f64,
    /// Completed simulations per second.
    pub runs_per_sec: f64,
    /// Mean makespan over the timed runs (sanity anchor, not a timing).
    pub mean_makespan: f64,
}

/// Wall-time comparison of one pinned sweep under `TraceMode::Off` vs
/// `TraceMode::Full`.
#[derive(Debug, Clone)]
pub struct SweepComparison {
    /// Cells in the pinned sweep grid.
    pub cells: u64,
    /// Repetitions per cell.
    pub reps: u64,
    /// Wall seconds with [`TraceMode::Off`].
    pub off_s: f64,
    /// Wall seconds with [`TraceMode::Full`] (trace recorded and trace
    /// metrics derived per run, as a trace consumer would).
    pub full_s: f64,
    /// `full_s / off_s` — the throughput factor bought by turning tracing
    /// off.
    pub speedup: f64,
}

/// One complete benchmark snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Unix timestamp (seconds) of the measurement.
    pub created_unix: u64,
    /// Hostname of the measuring machine.
    pub host: String,
    /// Logical CPUs reported by the OS (0 when `available_parallelism`
    /// fails — unknown, not a fabricated 1).
    pub cpus: u64,
    /// Worker threads the pinned sweep comparison actually used. The
    /// timings in [`Snapshot::sweep`] are only comparable across machines
    /// at equal thread counts, so the count is recorded rather than
    /// inferred from `cpus`.
    pub sweep_threads: u64,
    /// `git rev-parse HEAD` of the measured tree, with `-dirty` appended
    /// when tracked files had uncommitted changes, or `"unknown"`.
    pub commit: String,
    /// Peak resident set size of the process, bytes (`VmHWM`; 0 where
    /// `/proc` is unavailable).
    pub peak_rss_bytes: u64,
    /// Per-case engine throughput, one row per (mode, case).
    pub cases: Vec<CaseResult>,
    /// Fast-path-vs-engine throughput on the pinned error-free cases.
    pub fastpath: Vec<FastPathRow>,
    /// Robustness ratios of the pinned speed-revelation sweep, one row
    /// per (speed profile, scheduler).
    pub speed_robust: Vec<SpeedRobustRow>,
    /// The Off-vs-Full sweep comparison.
    pub sweep: SweepComparison,
}

/// Throughput of the analytic fast path against the engine on one pinned
/// error-free case (the `fastpath` section).
#[derive(Debug, Clone)]
pub struct FastPathRow {
    /// Case label, `<platform>/<scheduler>`.
    pub name: String,
    /// Analytic resolutions timed.
    pub answers: u64,
    /// Nanoseconds per analytic answer ([`FastPath::resolve`]).
    pub ns_per_answer: f64,
    /// Nanoseconds per full engine run of the same request.
    pub engine_ns_per_run: f64,
    /// `engine_ns_per_run / ns_per_answer` — the factor the fast path
    /// buys over simulating.
    pub speedup: f64,
    /// Relative residual of the analytic makespan against the engine's
    /// (must sit within the oracle's stated tolerance).
    pub residual: f64,
}

/// Mean robustness of one scheduler under one speed-revelation profile in
/// the pinned speed-robust sweep.
#[derive(Debug, Clone)]
pub struct SpeedRobustRow {
    /// Speed-model label ([`SpeedModel::label`]).
    pub profile: String,
    /// Competitor label.
    pub scheduler: String,
    /// Mean robustness ratio (realized / clairvoyant makespan, ≥ 1).
    pub mean_ratio: f64,
    /// Mean realized makespan.
    pub mean_makespan: f64,
}

/// One entry of the pinned suite: a fully specified (scenario, scheduler,
/// fault regime) triple. Shared by the benchmark snapshot and the
/// conformance audit so both always measure the same 16 cases.
pub struct CaseSpec {
    /// Stable case identifier, `<platform>/<scheduler>/<fault regime>`.
    pub name: String,
    /// Platform + workload + error model.
    pub scenario: Scenario,
    /// Scheduling algorithm under test.
    pub kind: SchedulerKind,
    /// Whether the case runs under [`pinned_faults`].
    pub faulty: bool,
}

/// The pinned suite: 2 platforms × 4 schedulers × {fault-free, faulty}.
pub fn pinned_cases() -> Vec<CaseSpec> {
    let homog = || Scenario::table1(20, 1.6, 0.3, 0.2, CASE_ERROR);
    let het = || Scenario::heterogeneous_demo(20, CASE_ERROR);
    let homog_kinds: [(&'static str, SchedulerKind); 4] = [
        ("umr", SchedulerKind::Umr),
        ("rumr", SchedulerKind::rumr_known_error(CASE_ERROR)),
        ("factoring", SchedulerKind::Factoring),
        ("mi3", SchedulerKind::Mi { installments: 3 }),
    ];
    let het_kinds: [(&'static str, SchedulerKind); 4] = [
        ("umr", SchedulerKind::HetUmr),
        (
            "rumr",
            SchedulerKind::HetRumr(RumrConfig::with_known_error(CASE_ERROR)),
        ),
        ("factoring", SchedulerKind::Factoring),
        // MI's closed-form planner is homogeneous-only; GSS stands in as
        // the fourth family on the heterogeneous platform.
        ("gss", SchedulerKind::Gss),
    ];
    let mut cases = Vec::new();
    for faulty in [false, true] {
        for (label, kind) in &homog_kinds {
            cases.push(CaseSpec {
                name: case_name("homogeneous", label, faulty),
                scenario: homog(),
                kind: *kind,
                faulty,
            });
        }
        for (label, kind) in &het_kinds {
            cases.push(CaseSpec {
                name: case_name("heterogeneous", label, faulty),
                scenario: het(),
                kind: *kind,
                faulty,
            });
        }
    }
    cases
}

fn case_name(platform: &str, sched: &str, faulty: bool) -> String {
    format!(
        "{platform}/{sched}/{}",
        if faulty { "faulty" } else { "fault-free" }
    )
}

/// The Poisson fault process of the faulty cases: recoverable crashes,
/// frequent enough that every run sees several.
pub fn pinned_faults() -> FaultModel {
    FaultModel::Poisson(PoissonFaults {
        mttf: 60.0,
        mttr: Some(15.0),
        link_mtbf: None,
        horizon: 2000.0,
        seed: 11,
    })
}

/// The pinned sweep used for the Off-vs-Full comparison: 4 Table 1 points
/// × 3 error values × 4 competitors, single-threaded so the two timings
/// are comparable.
pub fn snapshot_sweep_config(reps: u64, trace_mode: TraceMode) -> SweepConfig {
    SweepConfig {
        grid: Table1Grid {
            n_values: vec![10, 20],
            ratio_values: vec![1.5],
            clat_values: vec![0.2],
            nlat_values: vec![0.2, 0.6],
        },
        errors: vec![0.04, 0.24, 0.44],
        reps,
        root_seed: 20030623,
        threads: 1,
        model: ErrorModelKind::Normal,
        w_total: 1000.0,
        progress: false,
        trace_mode,
        speeds: SpeedModel::Declared,
        audit: false,
    }
}

/// Competitors of the pinned sweep.
fn sweep_competitors() -> Vec<Competitor> {
    vec![
        Competitor::RumrKnown,
        Competitor::Umr,
        Competitor::Mi(3),
        Competitor::Factoring,
    ]
}

/// The pinned speed-revelation profiles of the snapshot's `speed_robust`
/// section (the declared identity is deliberately absent — it has no
/// robustness question to answer).
pub fn pinned_speed_profiles() -> Vec<SpeedModel> {
    vec![
        SpeedModel::Stochastic {
            spread: 0.25,
            seed: 23,
        },
        SpeedModel::Sandbagged {
            fraction: 0.25,
            slowdown: 2.0,
            seed: 23,
        },
        SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown: 2.0,
        },
    ]
}

/// Competitors of the pinned speed-robust sweep: the paper's headliners
/// plus the one-round baseline, the most commitment-heavy plan.
fn speed_competitors() -> Vec<Competitor> {
    vec![
        Competitor::RumrKnown,
        Competitor::Umr,
        Competitor::Factoring,
        Competitor::OneRound,
    ]
}

/// One pinned grid point per profile keeps the section cheap; the audit
/// stays on so a revelation that broke an engine invariant would fail the
/// snapshot loudly rather than ship a corrupt number.
fn measure_speed_robust(reps: u64) -> Vec<SpeedRobustRow> {
    let competitors = speed_competitors();
    let mut rows = Vec::new();
    for profile in pinned_speed_profiles() {
        let mut config = snapshot_sweep_config(reps, TraceMode::Off);
        config.grid = Table1Grid {
            n_values: vec![20],
            ratio_values: vec![1.5],
            clat_values: vec![0.2],
            nlat_values: vec![0.2],
        };
        config.errors = vec![0.24];
        config.speeds = profile;
        config.audit = true;
        let result = run_sweep(&config, &competitors);
        for cell in &result.cells {
            assert_eq!(
                cell.audit_findings,
                0,
                "speed-robust sweep must audit clean under {}",
                profile.label()
            );
            let ratios = cell
                .robustness
                .as_ref()
                .expect("active profile yields ratios");
            for (c, competitor) in competitors.iter().enumerate() {
                rows.push(SpeedRobustRow {
                    profile: profile.label(),
                    scheduler: competitor.label(),
                    mean_ratio: ratios[c],
                    mean_makespan: cell.means[c],
                });
            }
        }
    }
    rows
}

/// The [`RunSpec`] of one pinned case (before the prototype is attached).
fn case_run_spec(spec: &CaseSpec) -> RunSpec {
    let config = SimConfig {
        trace_mode: TraceMode::Off,
        faults: if spec.faulty {
            pinned_faults()
        } else {
            FaultModel::None
        },
        ..SimConfig::default()
    };
    let mut run = RunSpec::new(spec.kind).config(config);
    if spec.faulty {
        run = run.recovering(RecoveryConfig::default());
    }
    run
}

fn measure_case(spec: &CaseSpec, reps: u64, mode: CaseMode) -> CaseResult {
    let run_spec = case_run_spec(spec);
    let mut runner = spec.scenario.runner(run_spec.config.clone());
    // Both modes stamp repetitions out of one pre-planned prototype, so
    // the timed loops compare engine throughput, not planner cost.
    let proto = runner
        .prototype(&spec.kind)
        .unwrap_or_else(|e| panic!("snapshot case {} failed to plan: {e}", spec.name));
    let run_spec = run_spec.with_prototype(proto);
    // Warm the engine's buffers so the timed loop measures the steady
    // state (`u64::MAX - 1` keeps the seed disjoint from the timed ones).
    runner
        .execute_at(&run_spec, u64::MAX - 1)
        .unwrap_or_else(|e| panic!("snapshot case {} failed: {e}", spec.name));
    let mut cols = RepColumns::new();

    // The reps are timed in batches and the *fastest batch* yields the
    // ns/event and runs/sec figures — on a shared machine the minimum of
    // repeated timings is the least noise-contaminated estimate of the
    // true cost (same rationale as the sweep comparison's best-of-3).
    // Every seed still runs exactly once: `events`, `wall_s` and
    // `mean_makespan` aggregate all batches, so the result fields stay
    // deterministic.
    let batches = 3.min(reps);
    let mut events = 0u64;
    let mut makespan_sum = 0.0;
    let mut wall_s = 0.0;
    let mut ns_per_event = f64::INFINITY;
    let mut runs_per_sec = 0.0f64;
    let mut seed = 0u64;
    for batch in 0..batches {
        let batch_reps = reps / batches + u64::from(batch < reps % batches);
        let mut batch_events = 0u64;
        let batch_wall = match mode {
            CaseMode::Sequential => {
                let start = Instant::now();
                for _ in 0..batch_reps {
                    let result = runner
                        .execute_at(&run_spec, seed)
                        .unwrap_or_else(|e| panic!("snapshot case {} failed: {e}", spec.name));
                    seed += 1;
                    batch_events += result.events;
                    makespan_sum += result.makespan;
                }
                start.elapsed().as_secs_f64()
            }
            CaseMode::Batched => {
                let batch_spec = run_spec.clone().seed(seed).reps(batch_reps);
                cols.clear();
                let start = Instant::now();
                runner
                    .execute_batch(&batch_spec, &mut cols)
                    .unwrap_or_else(|e| panic!("snapshot case {} failed: {e}", spec.name));
                let batch_wall = start.elapsed().as_secs_f64();
                seed += batch_reps;
                batch_events += cols.total_events();
                // Summed in insertion (seed) order — bit-identical to the
                // sequential accumulation.
                makespan_sum += cols.makespan.iter().sum::<f64>();
                batch_wall
            }
        };
        events += batch_events;
        wall_s += batch_wall;
        ns_per_event = ns_per_event.min(batch_wall * 1e9 / batch_events.max(1) as f64);
        runs_per_sec = runs_per_sec.max(batch_reps as f64 / batch_wall.max(1e-12));
    }
    CaseResult {
        name: spec.name.to_string(),
        mode,
        runs: reps,
        events,
        wall_s,
        ns_per_event,
        runs_per_sec,
        // `reps.max(1)`: a zero-rep invocation must yield 0.0, not NaN
        // (0.0 / 0.0), which would leak into the JSON as `null`.
        mean_makespan: makespan_sum / reps.max(1) as f64,
    }
}

/// The pinned fast-path cases: every error-free scenario whose scheduler
/// has an exact analytic oracle.
pub fn pinned_fastpath_cases() -> Vec<(String, Scenario, SchedulerKind)> {
    vec![
        (
            "homogeneous/umr".into(),
            Scenario::table1(20, 1.6, 0.3, 0.2, 0.0),
            SchedulerKind::Umr,
        ),
        (
            "homogeneous/one_round".into(),
            Scenario::table1(20, 1.6, 0.3, 0.2, 0.0),
            SchedulerKind::OneRound,
        ),
        (
            "heterogeneous/umr".into(),
            Scenario::heterogeneous_demo(20, 0.0),
            SchedulerKind::HetUmr,
        ),
    ]
}

/// Resolutions per timed rep: one analytic answer is orders of magnitude
/// cheaper than an engine run, so each rep resolves a block of answers to
/// stay above the timer's resolution.
const FASTPATH_ANSWERS_PER_REP: u64 = 64;

fn measure_fastpath(reps: u64) -> Vec<FastPathRow> {
    let mut rows = Vec::new();
    for (name, scenario, kind) in pinned_fastpath_cases() {
        let spec = RunSpec::new(kind);
        let decision = FastPath::resolve(&scenario, &spec)
            .unwrap_or_else(|e| panic!("fastpath case {name} failed to plan: {e}"));
        let answer = decision
            .analytic()
            .unwrap_or_else(|| panic!("fastpath case {name} must resolve analytically"));
        let config = SimConfig {
            trace_mode: TraceMode::Off,
            ..SimConfig::default()
        };
        let mut runner = scenario.runner(config.clone());
        let engine = runner
            .execute_at(&spec, u64::MAX - 1)
            .unwrap_or_else(|e| panic!("fastpath case {name} failed to simulate: {e}"));
        assert!(
            answer.agrees_with(engine.makespan),
            "fastpath case {name}: analytic {} vs engine {} exceeds the oracle tolerance",
            answer.makespan,
            engine.makespan
        );
        let residual = answer.residual(engine.makespan);

        let answers = reps.max(1) * FASTPATH_ANSWERS_PER_REP;
        let start = Instant::now();
        let mut acc = 0.0;
        for _ in 0..answers {
            let d = FastPath::resolve(&scenario, &spec)
                .unwrap_or_else(|e| panic!("fastpath case {name} failed to plan: {e}"));
            acc += d.analytic().map_or(0.0, |a| a.makespan);
        }
        let analytic_wall = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        let ns_per_answer = analytic_wall * 1e9 / answers as f64;

        let engine_runs = reps.max(1);
        let start = Instant::now();
        for seed in 0..engine_runs {
            runner
                .execute_at(&spec, seed)
                .unwrap_or_else(|e| panic!("fastpath case {name} failed to simulate: {e}"));
        }
        let engine_wall = start.elapsed().as_secs_f64();
        let engine_ns_per_run = engine_wall * 1e9 / engine_runs as f64;

        rows.push(FastPathRow {
            name,
            answers,
            ns_per_answer,
            engine_ns_per_run,
            speedup: engine_ns_per_run / ns_per_answer.max(1e-12),
            residual,
        });
    }
    rows
}

fn measure_sweep(reps: u64) -> SweepComparison {
    let competitors = sweep_competitors();
    let time = |mode: TraceMode| {
        let config = snapshot_sweep_config(reps, mode);
        let start = Instant::now();
        let result = run_sweep(&config, &competitors);
        (start.elapsed().as_secs_f64(), result.cells.len() as u64)
    };
    // Warm-up pass (untimed) so neither mode pays first-touch costs, then
    // best-of-3 per mode: the minimum is the least noise-contaminated
    // estimate of the true cost on a shared machine.
    time(TraceMode::Off);
    let mut off_s = f64::INFINITY;
    let mut full_s = f64::INFINITY;
    let mut cells = 0;
    for _ in 0..3 {
        let (t, c) = time(TraceMode::Off);
        off_s = off_s.min(t);
        cells = c;
        let (t, _) = time(TraceMode::Full);
        full_s = full_s.min(t);
    }
    SweepComparison {
        cells,
        reps,
        off_s,
        full_s,
        speedup: full_s / off_s.max(1e-12),
    }
}

/// Run the full pinned suite and assemble a [`Snapshot`]. Cases are
/// measured once per repetition mode, grouped mode-major (all 16 pinned
/// cases sequential, then all 16 batched: 32 rows).
pub fn run_snapshot(config: SnapshotConfig) -> Snapshot {
    let specs = pinned_cases();
    let mut cases = Vec::new();
    for mode in [CaseMode::Sequential, CaseMode::Batched] {
        for spec in &specs {
            cases.push(measure_case(spec, config.case_reps, mode));
        }
    }
    let fastpath = measure_fastpath(config.case_reps);
    let speed_robust = measure_speed_robust(config.sweep_reps);
    let sweep = measure_sweep(config.sweep_reps);
    Snapshot {
        schema_version: SCHEMA_VERSION,
        created_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        host: hostname(),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0),
        sweep_threads: snapshot_sweep_config(config.sweep_reps, TraceMode::Off).threads as u64,
        commit: git_commit(),
        peak_rss_bytes: peak_rss_bytes(),
        cases,
        fastpath,
        speed_robust,
        sweep,
    }
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, with `-dirty` appended when tracked files have
/// uncommitted changes (the snapshot then measured code no commit
/// holds); `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".into();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
        _ => head,
    }
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`), or
/// 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

impl Snapshot {
    /// Serialize to the `BENCH_sim.json` document (pretty-printed, stable
    /// key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {},\n  \"created_unix\": {},\n",
            self.schema_version, self.created_unix
        ));
        s.push_str(&format!(
            "  \"machine\": {{\"host\": \"{}\", \"cpus\": {}, \"sweep_threads\": {}}},\n",
            json_escape(&self.host),
            self.cpus,
            self.sweep_threads
        ));
        s.push_str(&format!(
            "  \"commit\": \"{}\",\n  \"peak_rss_bytes\": {},\n",
            json_escape(&self.commit),
            self.peak_rss_bytes
        ));
        s.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"mode\": \"{}\", \"runs\": {}, \"events\": {}, \
                 \"wall_s\": {}, \"ns_per_event\": {}, \"runs_per_sec\": {}, \
                 \"mean_makespan\": {}}}{}\n",
                json_escape(&c.name),
                c.mode.name(),
                c.runs,
                c.events,
                json_num(c.wall_s),
                json_num(c.ns_per_event),
                json_num(c.runs_per_sec),
                json_num(c.mean_makespan),
                if i + 1 < self.cases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"fastpath\": [\n");
        for (i, r) in self.fastpath.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"answers\": {}, \"ns_per_answer\": {}, \
                 \"engine_ns_per_run\": {}, \"speedup\": {}, \"residual\": {}}}{}\n",
                json_escape(&r.name),
                r.answers,
                json_num(r.ns_per_answer),
                json_num(r.engine_ns_per_run),
                json_num(r.speedup),
                json_num(r.residual),
                if i + 1 < self.fastpath.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speed_robust\": [\n");
        for (i, r) in self.speed_robust.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"profile\": \"{}\", \"scheduler\": \"{}\", \"mean_ratio\": {}, \
                 \"mean_makespan\": {}}}{}\n",
                json_escape(&r.profile),
                json_escape(&r.scheduler),
                json_num(r.mean_ratio),
                json_num(r.mean_makespan),
                if i + 1 < self.speed_robust.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"sweep\": {{\"cells\": {}, \"reps\": {}, \"off_s\": {}, \"full_s\": {}, \
             \"speedup\": {}}}\n",
            self.sweep.cells,
            self.sweep.reps,
            json_num(self.sweep.off_s),
            json_num(self.sweep.full_s),
            json_num(self.sweep.speedup)
        ));
        s.push_str("}\n");
        s
    }
}

// ---------------------------------------------------------------------------
// JSON parsing + schema validation
// ---------------------------------------------------------------------------

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    let x = obj
        .get(key)
        .and_then(Json::num)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric field '{key}'"))?;
    // Every number in the schema is a count, a timing or a makespan; none
    // may be NaN or infinite (the emitter writes those as `null`, and a
    // hand-edited `1e999` parses to f64 infinity).
    if !x.is_finite() {
        return Err(format!("{ctx}: field '{key}' is not finite"));
    }
    Ok(x)
}

fn require_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::str)
        .ok_or_else(|| format!("{ctx}: missing or non-string field '{key}'"))
}

/// Validate a `BENCH_sim.json` document against the snapshot schema.
/// Checks structure and value sanity (positive timings, non-empty case
/// list), not timing thresholds.
/// Only [`SCHEMA_VERSION`] is accepted.
pub fn validate_snapshot_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let version = require_num(&doc, "schema_version", "root")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    require_num(&doc, "created_unix", "root")?;
    require_num(&doc, "peak_rss_bytes", "root")?;
    require_str(&doc, "commit", "root")?;
    let machine = doc
        .get("machine")
        .ok_or_else(|| "root: missing 'machine'".to_string())?;
    require_str(machine, "host", "machine")?;
    // 0 is the explicit "unknown" sentinel.
    if require_num(machine, "cpus", "machine")? < 0.0 {
        return Err("machine: cpus must be >= 0".into());
    }
    if require_num(machine, "sweep_threads", "machine")? < 1.0 {
        return Err("machine: sweep_threads must be >= 1".into());
    }

    let cases = match doc.get("cases") {
        Some(Json::Arr(cases)) => cases,
        _ => return Err("root: missing or non-array 'cases'".into()),
    };
    if cases.is_empty() {
        return Err("cases: must not be empty".into());
    }
    for (i, case) in cases.iter().enumerate() {
        let ctx = format!("cases[{i}]");
        let name = require_str(case, "name", &ctx)?;
        if name.split('/').count() != 3 {
            return Err(format!("{ctx}: name '{name}' is not platform/sched/faults"));
        }
        let mode = require_str(case, "mode", &ctx)?;
        if CaseMode::parse(mode).is_none() {
            return Err(format!("{ctx}: unknown case mode '{mode}'"));
        }
        for key in ["runs", "events", "wall_s", "ns_per_event", "runs_per_sec"] {
            if require_num(case, key, &ctx)? <= 0.0 {
                return Err(format!("{ctx}: field '{key}' must be positive"));
            }
        }
        require_num(case, "mean_makespan", &ctx)?;
    }

    let rows = match doc.get("fastpath") {
        Some(Json::Arr(rows)) => rows,
        _ => return Err("root: missing or non-array 'fastpath'".into()),
    };
    if rows.is_empty() {
        return Err("fastpath: must not be empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("fastpath[{i}]");
        let name = require_str(row, "name", &ctx)?;
        if name.split('/').count() != 2 {
            return Err(format!("{ctx}: name '{name}' is not platform/sched"));
        }
        for key in ["answers", "ns_per_answer", "engine_ns_per_run", "speedup"] {
            if require_num(row, key, &ctx)? <= 0.0 {
                return Err(format!("{ctx}: field '{key}' must be positive"));
            }
        }
        let residual = require_num(row, "residual", &ctx)?;
        // The section only exists for cases with an exact oracle; a
        // residual past a loose sanity bound means the fast path and
        // the engine have drifted apart.
        if !(0.0..=1e-3).contains(&residual) {
            return Err(format!("{ctx}: residual {residual} out of range"));
        }
    }

    let rows = match doc.get("speed_robust") {
        Some(Json::Arr(rows)) => rows,
        _ => return Err("root: missing or non-array 'speed_robust'".into()),
    };
    if rows.is_empty() {
        return Err("speed_robust: must not be empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let ctx = format!("speed_robust[{i}]");
        require_str(row, "profile", &ctx)?;
        require_str(row, "scheduler", &ctx)?;
        let ratio = require_num(row, "mean_ratio", &ctx)?;
        // The clairvoyant reference can never lose to the blind run
        // it references; a ratio below 1 means the metric is broken.
        if ratio < 1.0 - 1e-6 {
            return Err(format!("{ctx}: mean_ratio {ratio} is below 1"));
        }
        if require_num(row, "mean_makespan", &ctx)? <= 0.0 {
            return Err(format!("{ctx}: mean_makespan must be positive"));
        }
    }

    let sweep = doc
        .get("sweep")
        .ok_or_else(|| "root: missing 'sweep'".to_string())?;
    for key in ["cells", "reps", "off_s", "full_s", "speedup"] {
        if require_num(sweep, key, "sweep")? <= 0.0 {
            return Err(format!("sweep: field '{key}' must be positive"));
        }
    }
    Ok(())
}

/// Aggregate batched-over-sequential throughput factor of a snapshot
/// document: Σ wall_s over the sequential case rows divided by Σ wall_s
/// over the batched ones. The two modes run identical work (same cases,
/// same seeds, same event counts — enforced by the snapshot tests), so
/// the wall-time ratio *is* the throughput ratio. Errors when the
/// document lacks rows of either mode.
pub fn batched_speedup_from_json(text: &str) -> Result<f64, String> {
    let doc = parse_json(text)?;
    let cases = match doc.get("cases") {
        Some(Json::Arr(cases)) => cases,
        _ => return Err("root: missing or non-array 'cases'".into()),
    };
    let mut sequential = 0.0;
    let mut batched = 0.0;
    for (i, case) in cases.iter().enumerate() {
        let ctx = format!("cases[{i}]");
        let mode = require_str(case, "mode", &ctx)?;
        let wall = require_num(case, "wall_s", &ctx)?;
        match CaseMode::parse(mode) {
            Some(CaseMode::Sequential) => sequential += wall,
            Some(CaseMode::Batched) => batched += wall,
            None => return Err(format!("{ctx}: unknown case mode '{mode}'")),
        }
    }
    if sequential <= 0.0 || batched <= 0.0 {
        return Err("document has no timed sequential/batched row pair".into());
    }
    Ok(sequential / batched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_snapshot() -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            created_unix: 1_700_000_000,
            host: "test\"host".into(),
            cpus: 8,
            sweep_threads: 1,
            commit: "deadbeef".into(),
            peak_rss_bytes: 1024,
            cases: vec![CaseResult {
                name: "homogeneous/umr/fault-free".into(),
                mode: CaseMode::Sequential,
                runs: 3,
                events: 900,
                wall_s: 0.001,
                ns_per_event: 1111.1,
                runs_per_sec: 3000.0,
                mean_makespan: 63.5,
            }],
            fastpath: vec![FastPathRow {
                name: "homogeneous/umr".into(),
                answers: 640,
                ns_per_answer: 2500.0,
                engine_ns_per_run: 250_000.0,
                speedup: 100.0,
                residual: 1e-9,
            }],
            speed_robust: vec![SpeedRobustRow {
                profile: "adversarial(fraction=0.25,slowdown=2)".into(),
                scheduler: "RUMR".into(),
                mean_ratio: 1.18,
                mean_makespan: 71.0,
            }],
            sweep: SweepComparison {
                cells: 12,
                reps: 2,
                off_s: 0.1,
                full_s: 0.25,
                speedup: 2.5,
            },
        }
    }

    #[test]
    fn emitted_json_round_trips_validation() {
        let json = dummy_snapshot().to_json();
        validate_snapshot_json(&json).expect("emitted snapshot must validate");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_snapshot_json("not json").is_err());
        assert!(validate_snapshot_json("{}").is_err());
        // Any schema version but the current one, the superseded 1 to 4
        // included, even when the rest of the document is current.
        for version in [1, 2, 3, 4, 99] {
            let mut snap = dummy_snapshot();
            snap.schema_version = version;
            let err = validate_snapshot_json(&snap.to_json()).unwrap_err();
            assert!(err.contains("unsupported schema_version"), "{err}");
        }
        // Empty case list.
        let mut snap = dummy_snapshot();
        snap.cases.clear();
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // Non-positive timing.
        let mut snap = dummy_snapshot();
        snap.cases[0].wall_s = 0.0;
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // Malformed case name.
        let mut snap = dummy_snapshot();
        snap.cases[0].name = "plain".into();
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // A robustness ratio below 1 is a broken metric.
        let mut snap = dummy_snapshot();
        snap.speed_robust[0].mean_ratio = 0.93;
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // The speed_robust section is mandatory and non-empty.
        let mut snap = dummy_snapshot();
        snap.speed_robust.clear();
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // Case rows must carry a known repetition mode.
        let snap = dummy_snapshot();
        let missing_mode = snap.to_json().replace("\"mode\": \"sequential\", ", "");
        assert!(validate_snapshot_json(&missing_mode).is_err());
        let bad_mode = snap.to_json().replace("\"sequential\"", "\"vectorized\"");
        assert!(validate_snapshot_json(&bad_mode).is_err());
        // The fastpath section is mandatory and non-empty.
        let mut snap = dummy_snapshot();
        snap.fastpath.clear();
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
        // An analytic answer that drifted from the engine is rejected.
        let mut snap = dummy_snapshot();
        snap.fastpath[0].residual = 0.02;
        assert!(validate_snapshot_json(&snap.to_json()).is_err());
    }

    #[test]
    fn validator_rejects_non_finite_numbers() {
        // Regression: a NaN mean_makespan used to serialize as the finite
        // sentinel -1 and sail through validation. It now serializes as
        // `null`, and the validator requires every schema number to be
        // finite.
        let mut snap = dummy_snapshot();
        snap.cases[0].mean_makespan = f64::NAN;
        let json = snap.to_json();
        assert!(json.contains("\"mean_makespan\": null"));
        assert!(validate_snapshot_json(&json).is_err());
        // Numbers whose text parses to f64 infinity are rejected too.
        let huge = dummy_snapshot().to_json().replace("63.5", "1e999");
        assert!(validate_snapshot_json(&huge).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "x\ny\"z"], "b": {"c": null}}"#).unwrap();
        let a = v.get("a").unwrap();
        match a {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-25.0));
                assert_eq!(items[2], Json::Str("x\ny\"z".into()));
            }
            _ => panic!("a must be an array"),
        }
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn quick_snapshot_runs_and_validates() {
        let snap = run_snapshot(SnapshotConfig {
            case_reps: 2,
            sweep_reps: 1,
        });
        assert_eq!(snap.cases.len(), 32, "16 pinned cases x 2 modes");
        for case in &snap.cases {
            assert!(case.events > 0, "{}: no events recorded", case.name);
            assert!(case.mean_makespan > 0.0);
        }
        assert_eq!(snap.sweep_threads, 1, "pinned sweep is single-threaded");
        // The batched pass must reproduce the sequential loop bit-for-bit
        // (the engine-path contract of the batched repetition API).
        let (seq, bat) = snap.cases.split_at(16);
        for (s, b) in seq.iter().zip(bat) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.mode, CaseMode::Sequential);
            assert_eq!(b.mode, CaseMode::Batched);
            assert_eq!(s.events, b.events, "{}: modes disagree on events", s.name);
            assert_eq!(
                s.mean_makespan.to_bits(),
                b.mean_makespan.to_bits(),
                "{}: modes disagree on makespan",
                s.name
            );
        }
        assert_eq!(snap.fastpath.len(), 3, "3 pinned fast-path cases");
        for row in &snap.fastpath {
            assert!(row.ns_per_answer > 0.0 && row.engine_ns_per_run > 0.0);
            assert!(
                row.residual >= 0.0 && row.residual <= 1e-6,
                "{}: fast path drifted from the engine (residual {})",
                row.name,
                row.residual
            );
        }
        assert!(snap.sweep.cells == 12);
        assert_eq!(
            snap.speed_robust.len(),
            12,
            "3 pinned profiles x 4 competitors"
        );
        for row in &snap.speed_robust {
            assert!(
                row.mean_ratio >= 1.0 - 1e-9 && row.mean_ratio.is_finite(),
                "{}/{}: bad ratio {}",
                row.profile,
                row.scheduler,
                row.mean_ratio
            );
        }
        validate_snapshot_json(&snap.to_json()).expect("real snapshot must validate");
    }

    #[test]
    fn batched_speedup_aggregates_wall_time_by_mode() {
        let mut snap = dummy_snapshot();
        let mut batched = snap.cases[0].clone();
        batched.mode = CaseMode::Batched;
        batched.wall_s = 0.0005;
        snap.cases.push(batched);
        let speedup = batched_speedup_from_json(&snap.to_json()).unwrap();
        assert!((speedup - 2.0).abs() < 1e-9, "got {speedup}");
        // A document with only sequential rows has nothing to compare.
        assert!(batched_speedup_from_json(&dummy_snapshot().to_json()).is_err());
    }
}
