//! Micro-scale checks that the experiment harness reproduces the *shapes*
//! of the paper's tables and figures (the full grids are exercised by the
//! `dls-experiments` binaries; these tests use tiny grids so the whole
//! suite stays fast).

use dls_experiments::{
    fig4a, overall_win_rate, paper_competitors, relative_series, run_sweep, win_rate_table,
    Competitor, ErrorModelKind, SweepConfig, Table1Grid,
};

fn micro_config(errors: Vec<f64>, reps: u64) -> SweepConfig {
    SweepConfig {
        grid: Table1Grid {
            n_values: vec![10, 20],
            ratio_values: vec![1.4, 1.8],
            clat_values: vec![0.2, 0.6],
            nlat_values: vec![0.1, 0.4],
        },
        errors,
        reps,
        root_seed: 7,
        threads: 0,
        model: ErrorModelKind::Normal,
        w_total: 1000.0,
        progress: false,
        trace_mode: rumr::TraceMode::Off,
        speeds: rumr::SpeedModel::Declared,
        audit: false,
    }
}

#[test]
fn table2_shape_rumr_wins_majority_overall() {
    let cfg = micro_config(vec![0.04, 0.24, 0.44], 6);
    let sweep = run_sweep(&cfg, &paper_competitors());
    let rate = overall_win_rate(&sweep);
    assert!(
        rate > 60.0,
        "RUMR should win well over half of all comparisons, got {rate:.1}%"
    );

    let table = win_rate_table(&sweep, 1.0);
    // UMR's win-rate trend: RUMR gains on UMR as error grows.
    let umr_row = &table.percentages[table.rows.iter().position(|r| r == "UMR").unwrap()];
    assert!(
        umr_row[4] > umr_row[0],
        "RUMR-vs-UMR win rate should grow with error: {umr_row:?}"
    );
}

#[test]
fn fig4_shape_trends() {
    let cfg = micro_config(vec![0.0, 0.2, 0.4], 8);
    let sweep = run_sweep(&cfg, &paper_competitors());
    let series = fig4a(&sweep);

    // UMR: relative makespan rises with error (loses robustness).
    let umr = series.series("UMR").unwrap();
    assert!(
        umr[2] > umr[0] + 0.01,
        "UMR relative makespan should grow with error: {umr:?}"
    );
    // Factoring: relative makespan falls with error (robustness pays off).
    let fac = series.series("Factoring").unwrap();
    assert!(
        fac[2] < fac[0] - 0.01,
        "Factoring relative makespan should shrink with error: {fac:?}"
    );
    // MI-x stays clearly above 1 on average (never close to RUMR).
    for mi in ["MI-2", "MI-3", "MI-4"] {
        let row = series.series(mi).unwrap();
        for (i, v) in row.iter().enumerate() {
            assert!(*v > 1.0, "{mi} at error index {i}: {v} should exceed 1");
        }
    }
}

#[test]
fn fig6_shape_original_split_competitive() {
    // The error-driven split should beat or match fixed splits when error
    // is small (it skips phase 2 entirely), per the paper's Fig. 6.
    let cfg = micro_config(vec![0.04], 8);
    let competitors = vec![
        Competitor::RumrKnown,
        Competitor::RumrFixed(0.5),
        Competitor::RumrFixed(0.8),
    ];
    let sweep = run_sweep(&cfg, &competitors);
    let series = relative_series(&sweep, |_| true);
    let r50 = series.series("RUMR_50").unwrap()[0];
    let r80 = series.series("RUMR_80").unwrap()[0];
    assert!(
        r50 > 1.0,
        "at small error a 50% fixed split must lose to the original: {r50}"
    );
    // 80/20 is the better static choice (closer to 1).
    assert!(
        r80 < r50,
        "RUMR_80 ({r80}) should beat RUMR_50 ({r50}) at small error"
    );
}

#[test]
fn fig7_shape_out_of_order_is_small_effect() {
    let cfg = micro_config(vec![0.0, 0.4], 10);
    let competitors = vec![Competitor::RumrKnown, Competitor::RumrPlain];
    let sweep = run_sweep(&cfg, &competitors);
    let series = relative_series(&sweep, |_| true);
    let plain = series.series("RUMR-plain").unwrap();
    // At error 0 the variants are identical.
    assert!(
        (plain[0] - 1.0).abs() < 1e-9,
        "identical at zero error: {plain:?}"
    );
    // At high error the effect exists but stays small (paper: ~1%).
    assert!(
        (plain[1] - 1.0).abs() < 0.10,
        "out-of-order dispatch should be a small effect: {plain:?}"
    );
}

#[test]
fn fsc_dominated_by_factoring() {
    // §5.1: FSC "performs worse than Factoring in most of our experiments.
    // Consequently we do not show results for FSC."
    let cfg = micro_config(vec![0.1, 0.3, 0.5], 6);
    let competitors = vec![
        Competitor::RumrKnown, // reference column (unused here)
        Competitor::Factoring,
        Competitor::Fsc,
    ];
    let sweep = run_sweep(&cfg, &competitors);
    let fac_col = sweep.column("Factoring").unwrap();
    let fsc_col = sweep.column("FSC").unwrap();
    let mut factoring_wins = 0;
    for cell in &sweep.cells {
        if cell.means[fac_col] < cell.means[fsc_col] {
            factoring_wins += 1;
        }
    }
    assert!(
        factoring_wins * 2 > sweep.cells.len(),
        "Factoring should beat FSC in most experiments: {factoring_wins}/{}",
        sweep.cells.len()
    );
}

#[test]
fn adaptive_rumr_tracks_oracle() {
    // The §6 future-work scheduler should stay close to oracle RUMR on
    // average over the micro-grid.
    let cfg = micro_config(vec![0.3], 6);
    let competitors = vec![Competitor::RumrKnown, Competitor::RumrAdaptive];
    let sweep = run_sweep(&cfg, &competitors);
    let series = relative_series(&sweep, |_| true);
    let adaptive = series.series("RUMR-adaptive").unwrap()[0];
    assert!(
        adaptive < 1.2,
        "adaptive RUMR should be within 20% of the oracle: {adaptive}"
    );
}

#[test]
fn inverse_and_uniform_models_run() {
    for model in [ErrorModelKind::Uniform, ErrorModelKind::Inverse] {
        let mut cfg = micro_config(vec![0.3], 3);
        cfg.model = model;
        cfg.grid = Table1Grid {
            n_values: vec![10],
            ratio_values: vec![1.5],
            clat_values: vec![0.2],
            nlat_values: vec![0.2],
        };
        let sweep = run_sweep(&cfg, &paper_competitors());
        assert_eq!(sweep.cells.len(), 1);
        assert!(sweep.cells[0]
            .means
            .iter()
            .all(|m| m.is_finite() && *m > 0.0));
    }
}
