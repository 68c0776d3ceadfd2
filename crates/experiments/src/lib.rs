//! Paper-reproduction harness for "RUMR: Robust Scheduling for Divisible
//! Workloads" (HPDC 2003).
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table2` | Table 2 — % of experiments where RUMR wins, per error band |
//! | `table3` | Table 3 — % where RUMR wins by ≥ 10 % |
//! | `fig4a`  | Fig. 4(a) — relative makespan vs error, whole grid |
//! | `fig4b`  | Fig. 4(b) — subset `cLat < 0.3`, `nLat < 0.3` |
//! | `fig5`   | Fig. 5 — single high-`nLat` platform point |
//! | `fig6`   | Fig. 6 — fixed phase-1 fraction ablation |
//! | `fig7`   | Fig. 7 — in-order phase-1 ablation |
//! | `sweep`  | generic sweep with a CSV dump of every cell |
//!
//! Each binary defaults to a documented sub-grid that finishes in seconds;
//! pass `--full` for the paper's exact Table 1 grid with 40 repetitions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod chart;
pub mod cli;
pub mod figures;
pub mod grid;
pub mod json;
pub mod report;
pub mod snapshot;
pub mod sweep;
pub mod tables;

pub use audit::{run_audit, AuditFinding, AuditOptions, AuditReport, FindingKind};
pub use chart::ascii_chart;
pub use cli::{parse_args, parse_env, CliOptions};
pub use figures::{fig4a, fig4b, fig5_point, relative_series, RelativeSeries};
pub use grid::{error_band, error_values, GridPoint, Table1Grid, BAND_LABELS};
pub use report::{render_series, render_win_rate, series_csv, win_rate_csv, write_file};
pub use snapshot::{
    batched_speedup_from_json, pinned_cases, pinned_fastpath_cases, pinned_faults,
    pinned_speed_profiles, run_snapshot, validate_snapshot_json, CaseMode, CaseResult, CaseSpec,
    FastPathRow, Snapshot, SnapshotConfig, SpeedRobustRow, SweepComparison, SCHEMA_VERSION,
};
pub use sweep::{
    paper_competitors, run_sweep, Cell, Competitor, ErrorModelKind, SweepConfig, SweepResult,
};
pub use tables::{overall_win_rate, win_rate_table, WinRateTable};
