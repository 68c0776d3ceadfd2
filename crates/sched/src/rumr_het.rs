//! Heterogeneous RUMR: the two-phase robust scheduler generalized to
//! heterogeneous platforms.
//!
//! The paper develops RUMR "both for homogeneous and heterogeneous
//! platforms" but only presents homogeneous results; this module supplies
//! the heterogeneous variant the library needs in practice:
//!
//! * **Phase split**: the §4.2(i) rule with the heterogeneous round
//!   overhead `max_i cLat_i + Σ_i nLat_i` (the non-hidden latencies of
//!   dispatching one round of empty chunks to every worker).
//! * **Phase 1**: the heterogeneous UMR plan of [`crate::umr_het`] over
//!   `W1`, with RUMR's out-of-order rerouting.
//! * **Phase 2**: speed-weighted continuous factoring — when worker `i`
//!   pulls, it receives `chunk_i = S_i·R/(f·ΣS)` (its speed-proportional
//!   share of `1/f` of the remaining work), bounded below by the
//!   speed-scaled minimum `S_i·(max cLat + Σ nLat)/error` so slow workers
//!   get proportionally smaller end-game chunks. On a homogeneous platform
//!   this reduces to per-pull factoring with the paper's bound.

use dls_sim::{Decision, Platform, Scheduler, SimView, WorkerSpec};

use crate::factoring::UNIT_FLOOR;
use crate::plan::PlanReplayer;
use crate::rumr::RumrConfig;
use crate::umr::UmrError;
use crate::umr_het::HetUmrSchedule;

/// Heterogeneous two-phase robust scheduler.
#[derive(Debug, Clone)]
pub struct HetRumr {
    workers: Vec<WorkerSpec>,
    config: RumrConfig,
    phase1: Option<PlanReplayer>,
    w2_remaining: f64,
    min_chunks: Vec<f64>,
    s_sum: f64,
    /// Workers participating in the schedule (resource selection may drop
    /// starved ones); phase 2 only dispatches within this set.
    selected: Vec<usize>,
    finished: bool,
}

impl HetRumr {
    /// Build for any platform. Uses the same [`RumrConfig`] surface as the
    /// homogeneous scheduler (the phase-1 fraction override and
    /// out-of-order flag apply unchanged).
    ///
    /// # Errors
    ///
    /// Propagates [`UmrError`] from the heterogeneous phase-1 planner.
    pub fn new(platform: &Platform, w_total: f64, config: RumrConfig) -> Result<Self, UmrError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
        let workers: Vec<WorkerSpec> = platform.workers().to_vec();

        // Resource selection over the *full* workload decides who
        // participates at all; both phases stay within that set, otherwise
        // phase 2 would greedily feed exactly the starved workers the
        // planner dropped.
        let selection = HetUmrSchedule::solve_with_selection(platform, w_total)?;
        let selected = selection.worker_ids().to_vec();
        let n = selected.len();
        let s_sum: f64 = selected.iter().map(|&i| workers[i].speed).sum();
        let round_overhead = selected
            .iter()
            .map(|&i| workers[i].comp_latency)
            .fold(0.0_f64, f64::max)
            + selected
                .iter()
                .map(|&i| workers[i].net_latency)
                .sum::<f64>();

        // Phase split: the §4.2(i) rule with the heterogeneous overhead.
        let w2 = if let Some(p) = config.phase1_fraction {
            (1.0 - p.clamp(0.0, 1.0)) * w_total
        } else {
            match config.error_estimate {
                Some(e) if e <= 0.0 => 0.0,
                Some(e) if e >= 1.0 => w_total,
                Some(e) => {
                    let candidate = e * w_total;
                    if candidate / n as f64 / (s_sum / n as f64) < round_overhead {
                        // Per-worker phase-2 *time* below the overhead.
                        0.0
                    } else {
                        candidate
                    }
                }
                None => (1.0 - crate::rumr::DEFAULT_PHASE1_FRACTION) * w_total,
            }
        };
        let w1 = w_total - w2;

        let phase1 = if w2 == 0.0 {
            // Phase 1 is the whole workload on the selected workers, which
            // is the schedule selection solved: solving it again would
            // return the same plan bit for bit.
            Some(PlanReplayer::new(selection.plan()))
        } else if w1 > 0.0 {
            let schedule = HetUmrSchedule::solve_subset(platform, &selected, w1)?;
            Some(PlanReplayer::new(schedule.plan()))
        } else {
            None
        };

        // Speed-scaled minimum chunk bounds.
        let bound_time = match config.error_estimate {
            Some(e) if e > 0.0 && config.error_aware_bound => round_overhead / e,
            _ => round_overhead,
        };
        let min_chunks = workers
            .iter()
            .map(|w| (w.speed * bound_time).max(UNIT_FLOOR))
            .collect();

        Ok(HetRumr {
            workers,
            config,
            phase1,
            w2_remaining: w2,
            min_chunks,
            s_sum,
            selected,
            finished: false,
        })
    }

    /// Among the *selected* workers, the hungry one with the least assigned
    /// work (phase 2 must not feed workers resource selection excluded).
    fn hungry_selected(&self, view: &SimView<'_>) -> Option<usize> {
        self.selected
            .iter()
            .copied()
            .filter(|&i| view.workers[i].is_hungry())
            .min_by(|&a, &b| {
                view.workers[a]
                    .assigned_work
                    .partial_cmp(&view.workers[b].assigned_work)
                    .expect("finite work totals")
                    .then(a.cmp(&b))
            })
    }

    /// Remaining phase-2 workload.
    pub fn phase2_remaining(&self) -> f64 {
        self.w2_remaining
    }

    /// True if a phase 2 was planned.
    pub fn uses_phase2(&self) -> bool {
        self.w2_remaining > 0.0 || (self.finished && self.phase1.is_none())
    }
}

impl Scheduler for HetRumr {
    fn name(&self) -> String {
        "RUMR-het".into()
    }

    fn next_dispatch(&mut self, view: &SimView<'_>) -> Decision {
        // Phase 1: planned chunks, demand-driven destinations.
        if let Some((planned, chunk)) = self.phase1.as_ref().and_then(PlanReplayer::peek) {
            let worker = if !self.config.out_of_order || view.workers[planned].is_hungry() {
                planned
            } else {
                // Reroute within the selected set only.
                self.hungry_selected(view).unwrap_or(planned)
            };
            self.phase1.as_mut().expect("phase 1 present").take_next();
            return Decision::Dispatch { worker, chunk };
        }
        // Phase 2: speed-weighted continuous factoring over the selected
        // workers.
        if self.w2_remaining > 0.0 {
            let Some(worker) = self.hungry_selected(view) else {
                return Decision::Wait;
            };
            let speed = self.workers[worker].speed;
            let factor = self.config.factor;
            let ideal = speed * self.w2_remaining / (factor * self.s_sum);
            let mut chunk = ideal.max(self.min_chunks[worker]);
            if chunk >= self.w2_remaining {
                chunk = self.w2_remaining;
            }
            self.w2_remaining -= chunk;
            return Decision::Dispatch { worker, chunk };
        }
        self.finished = true;
        Decision::Finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umr_het::HetUmr;
    use dls_sim::{simulate, ErrorInjector, ErrorModel, HomogeneousParams, SimConfig};

    fn het_platform() -> Platform {
        Platform::new(vec![
            WorkerSpec {
                speed: 3.0,
                bandwidth: 30.0,
                comp_latency: 0.1,
                net_latency: 0.05,
                transfer_latency: 0.0,
            },
            WorkerSpec {
                speed: 2.0,
                bandwidth: 20.0,
                comp_latency: 0.2,
                net_latency: 0.1,
                transfer_latency: 0.0,
            },
            WorkerSpec {
                speed: 1.0,
                bandwidth: 12.0,
                comp_latency: 0.3,
                net_latency: 0.1,
                transfer_latency: 0.0,
            },
        ])
        .unwrap()
    }

    fn run(
        platform: &Platform,
        s: &mut dyn Scheduler,
        error: f64,
        seed: u64,
    ) -> dls_sim::SimResult {
        let model = if error > 0.0 {
            ErrorModel::TruncatedNormal { error }
        } else {
            ErrorModel::None
        };
        simulate(
            platform,
            s,
            ErrorInjector::new(model, seed),
            SimConfig {
                trace_mode: dls_sim::TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn conservation_and_validity() {
        let platform = het_platform();
        for error in [0.0, 0.2, 0.5, 1.2] {
            let mut s =
                HetRumr::new(&platform, 600.0, RumrConfig::with_known_error(error)).unwrap();
            let r = run(&platform, &mut s, error.min(0.5), 5);
            assert!(
                (r.completed_work() - 600.0).abs() < 1e-6,
                "error={error}: {}",
                r.completed_work()
            );
            assert!(r.trace.unwrap().validate(3).is_empty(), "error={error}");
        }
    }

    #[test]
    fn zero_error_is_pure_phase1() {
        let platform = het_platform();
        let mut rumr = HetRumr::new(&platform, 600.0, RumrConfig::with_known_error(0.0)).unwrap();
        assert_eq!(rumr.phase2_remaining(), 0.0);
        let mut umr = HetUmr::new(&platform, 600.0).unwrap();
        let a = run(&platform, &mut rumr, 0.0, 0);
        let b = run(&platform, &mut umr, 0.0, 0);
        assert_eq!(a.num_chunks, b.num_chunks);
        assert!((a.makespan - b.makespan).abs() < 1e-9);
    }

    #[test]
    fn empty_phase2_replays_the_selected_schedule() {
        // Error 0, a phase-1 fraction of 1, and the §4.2(i) rule on a star
        // of many small workers each leave phase 2 empty: phase 1 must be
        // the plan of solving the selected workers for all of W.
        let many = HomogeneousParams::table1(32, 1.5, 0.4, 0.9)
            .build()
            .unwrap();
        let fraction_one = RumrConfig {
            phase1_fraction: Some(1.0),
            ..RumrConfig::default()
        };
        for (platform, config) in [
            (het_platform(), RumrConfig::with_known_error(0.0)),
            (het_platform(), fraction_one),
            (many, RumrConfig::with_known_error(0.3)),
        ] {
            let rumr = HetRumr::new(&platform, 1000.0, config).unwrap();
            assert_eq!(rumr.phase2_remaining(), 0.0);
            let want = HetUmrSchedule::solve_subset(&platform, &rumr.selected, 1000.0)
                .unwrap()
                .plan();
            let got = rumr.phase1.as_ref().expect("phase 1").plan();
            let bits = |p: &crate::plan::DispatchPlan| -> Vec<(usize, u64)> {
                p.sends.iter().map(|&(w, c)| (w, c.to_bits())).collect()
            };
            assert_eq!(bits(got), bits(&want));
        }
    }

    #[test]
    fn large_error_is_pure_phase2() {
        let platform = het_platform();
        let mut rumr = HetRumr::new(&platform, 600.0, RumrConfig::with_known_error(1.0)).unwrap();
        assert!((rumr.phase2_remaining() - 600.0).abs() < 1e-9);
        let r = run(&platform, &mut rumr, 0.5, 1);
        assert!((r.completed_work() - 600.0).abs() < 1e-6);
    }

    #[test]
    fn phase2_chunks_scale_with_speed() {
        // First phase-2 pull by the fast worker should be larger than by
        // the slow one, in proportion to speed.
        let platform = het_platform();
        let cfg = RumrConfig::with_known_error(1.0); // pure phase 2
        let mut a = HetRumr::new(&platform, 600.0, cfg).unwrap();
        let views_all_hungry = vec![dls_sim::WorkerView::default(); 3];
        let view = SimView {
            time: 0.0,
            workers: &views_all_hungry,
        };
        // least_loaded_hungry with all equal picks worker 0 (speed 3).
        let d0 = a.next_dispatch(&view);
        let Decision::Dispatch {
            worker: w0,
            chunk: c0,
        } = d0
        else {
            panic!("expected dispatch")
        };
        assert_eq!(w0, 0);
        // 3/6 of 600/2 = 150.
        assert!((c0 - 150.0).abs() < 1e-9, "chunk {c0}");
    }

    #[test]
    fn beats_plain_het_umr_under_error() {
        let platform = het_platform();
        let error = 0.45;
        let reps = 25;
        let (mut rumr_total, mut umr_total) = (0.0, 0.0);
        for seed in 0..reps {
            let mut rumr =
                HetRumr::new(&platform, 600.0, RumrConfig::with_known_error(error)).unwrap();
            rumr_total += run(&platform, &mut rumr, error, seed).makespan;
            let mut umr = HetUmr::new(&platform, 600.0).unwrap();
            umr_total += run(&platform, &mut umr, error, seed).makespan;
        }
        assert!(
            rumr_total < umr_total,
            "RUMR-het {rumr_total} should beat UMR-het {umr_total} at error {error}"
        );
    }

    #[test]
    fn homogeneous_platform_works_too() {
        let platform = HomogeneousParams::table1(8, 1.5, 0.2, 0.1).build().unwrap();
        let mut s = HetRumr::new(&platform, 1000.0, RumrConfig::with_known_error(0.3)).unwrap();
        let r = run(&platform, &mut s, 0.3, 2);
        assert!((r.completed_work() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_workload_rejected() {
        let platform = het_platform();
        assert!(matches!(
            HetRumr::new(&platform, 0.0, RumrConfig::default()),
            Err(UmrError::InvalidWorkload { .. })
        ));
    }
}
