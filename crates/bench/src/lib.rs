//! Benchmark support crate.
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `solvers` — planner microbenches (UMR Lagrange vs integer scan, the
//!   MI linear system, heterogeneous UMR, the RUMR phase split). The paper
//!   reports ~0.07 s for the UMR solve on a 400 MHz PIII; these benches
//!   measure our implementation.
//! * `sim_engine` — discrete-event engine throughput per scheduler.
//! * `tables` — regenerates Tables 2 and 3 on a reduced grid and measures
//!   the harness cost per cell.
//! * `figures` — same for Figures 4(a), 4(b), 5, 6 and 7.
//!
//! This library only hosts small shared helpers for those benches.

use dls_experiments::{ErrorModelKind, SweepConfig, Table1Grid};
use rumr::{SpeedModel, TraceMode};

/// A deliberately small sweep configuration so each bench iteration stays
/// in the millisecond range: 4 platform points, 3 error values, 2 reps.
pub fn bench_sweep_config() -> SweepConfig {
    SweepConfig {
        grid: Table1Grid {
            n_values: vec![10, 20],
            ratio_values: vec![1.5],
            clat_values: vec![0.2, 0.6],
            nlat_values: vec![0.2],
        },
        errors: vec![0.04, 0.24, 0.44],
        reps: 2,
        root_seed: 7,
        threads: 1,
        model: ErrorModelKind::Normal,
        w_total: 1000.0,
        progress: false,
        trace_mode: TraceMode::Off,
        speeds: SpeedModel::Declared,
        audit: false,
    }
}
