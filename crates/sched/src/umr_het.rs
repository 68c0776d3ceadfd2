//! Heterogeneous UMR extension.
//!
//! The RUMR paper evaluates homogeneous platforms only, but UMR itself (and
//! the library a practitioner would want) handles heterogeneous workers.
//! This module generalizes the uniform-round construction:
//!
//! Within round `j` of total size `R_j`, worker `i` receives
//! `chunk_{j,i} = S_i·(T_j − cLat_i)` so that **every worker computes for the
//! same time** `T_j = (R_j + C0)/ΣS`, where `C0 = Σ S_i·cLat_i`.
//!
//! The uniform-round condition — round `j`'s computation hides the dispatch
//! of round `j+1` to all workers — gives a linear recursion on round sizes:
//!
//! ```text
//! T_j = Σ_i [ nLat_i + chunk_{j+1,i}/B_i ]
//! ⇒ R_{j+1} = Θ·R_j + Η,   Θ = 1/C1,   C1 = Σ_i S_i/B_i,
//!   Η = [C0 − ΣS·(L − C2)]/C1 − C0,   L = Σ nLat_i,  C2 = Σ S_i·cLat_i/B_i
//! ```
//!
//! (for a homogeneous platform this reduces exactly to `θ = B/(N·S)` of
//! [`crate::umr`], which the tests assert). The round count is optimized by
//! integer scan against the makespan model
//!
//! ```text
//! F(M, R_0) = L + C1·T_0 − C2 + tLat_last + (W + M·C0)/ΣS
//! ```
//!
//! [`HetUmrSchedule::solve_with_selection`] additionally tries dropping
//! poorly-connected workers (the paper's "resource selection"): workers are
//! ordered by bandwidth and every prefix is solved; the best predicted
//! makespan wins.

use dls_sim::{Decision, Platform, Scheduler, SimView, WorkerSpec};

use crate::plan::{DispatchPlan, PlanReplayer};
use crate::umr::{UmrError, MAX_ROUNDS};

/// Aggregate platform constants used by the recursion.
#[derive(Debug, Clone, Copy)]
struct Consts {
    s_sum: f64,
    c0: f64,
    c1: f64,
    c2: f64,
    l: f64,
    max_clat: f64,
    tlat_last: f64,
}

impl Consts {
    fn of(workers: &[WorkerSpec]) -> Self {
        let s_sum = workers.iter().map(|w| w.speed).sum();
        let c0 = workers.iter().map(|w| w.speed * w.comp_latency).sum();
        let c1 = workers.iter().map(|w| w.speed / w.bandwidth).sum();
        let c2 = workers
            .iter()
            .map(|w| w.speed * w.comp_latency / w.bandwidth)
            .sum();
        let l = workers.iter().map(|w| w.net_latency).sum();
        let max_clat = workers
            .iter()
            .map(|w| w.comp_latency)
            .fold(0.0_f64, f64::max);
        let tlat_last = workers.last().map(|w| w.transfer_latency).unwrap_or(0.0);
        Consts {
            s_sum,
            c0,
            c1,
            c2,
            l,
            max_clat,
            tlat_last,
        }
    }

    fn theta(&self) -> f64 {
        1.0 / self.c1
    }

    fn eta(&self) -> f64 {
        (self.c0 - self.s_sum * (self.l - self.c2)) / self.c1 - self.c0
    }

    /// Equal per-round compute time for round size `r`.
    fn round_time(&self, r: f64) -> f64 {
        (r + self.c0) / self.s_sum
    }
}

/// A solved heterogeneous UMR schedule.
#[derive(Debug, Clone)]
pub struct HetUmrSchedule {
    /// Indices into the original platform, in dispatch order.
    worker_ids: Vec<usize>,
    workers: Vec<WorkerSpec>,
    /// Total size of each round.
    round_sizes: Vec<f64>,
    predicted_makespan: f64,
    w_total: f64,
}

impl HetUmrSchedule {
    /// Solve for all workers of `platform` in their given order.
    pub fn solve(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        let ids: Vec<usize> = (0..platform.num_workers()).collect();
        Self::solve_subset(platform, &ids, w_total)
    }

    /// Solve using only the given workers, dispatched in the given order.
    pub fn solve_subset(
        platform: &Platform,
        worker_ids: &[usize],
        w_total: f64,
    ) -> Result<Self, UmrError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
        if worker_ids.is_empty() {
            return Err(UmrError::NoFeasibleSchedule);
        }
        let workers: Vec<WorkerSpec> = worker_ids.iter().map(|&i| *platform.worker(i)).collect();
        let consts = Consts::of(&workers);
        let (m, r0) = Self::scan_best(&consts, w_total).ok_or(UmrError::NoFeasibleSchedule)?;
        let mut round_sizes = Self::rounds_from(&consts, r0, m);
        // Absorb the floating-point residual into the last round.
        let sum: f64 = round_sizes.iter().sum();
        if let Some(last) = round_sizes.last_mut() {
            *last += w_total - sum;
        }
        let predicted_makespan = Self::makespan(&consts, round_sizes[0], m, w_total);
        Ok(HetUmrSchedule {
            worker_ids: worker_ids.to_vec(),
            workers,
            round_sizes,
            predicted_makespan,
            w_total,
        })
    }

    /// Resource selection: sort workers by descending bandwidth (the master
    /// must be able to feed whoever it keeps), solve every prefix, return
    /// the schedule with the smallest predicted makespan.
    pub fn solve_with_selection(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        let mut order: Vec<usize> = (0..platform.num_workers()).collect();
        order.sort_by(|&a, &b| {
            platform
                .worker(b)
                .bandwidth
                .partial_cmp(&platform.worker(a).bandwidth)
                .expect("finite bandwidth")
                .then(a.cmp(&b))
        });
        let mut best: Option<HetUmrSchedule> = None;
        for k in 1..=order.len() {
            if let Ok(s) = Self::solve_subset(platform, &order[..k], w_total) {
                if best
                    .as_ref()
                    .map(|b| s.predicted_makespan < b.predicted_makespan)
                    .unwrap_or(true)
                {
                    best = Some(s);
                }
            }
        }
        best.ok_or(UmrError::NoFeasibleSchedule)
    }

    fn r0_for(consts: &Consts, w_total: f64, m: f64) -> Option<f64> {
        let theta = consts.theta();
        let eta = consts.eta();
        let r0 = if (theta - 1.0).abs() < 1e-9 {
            (w_total - eta * m * (m - 1.0) / 2.0) / m
        } else {
            let h = eta / (1.0 - theta);
            let q = theta.powf(m);
            h + (w_total - m * h) * (theta - 1.0) / (q - 1.0)
        };
        r0.is_finite().then_some(r0)
    }

    fn rounds_from(consts: &Consts, r0: f64, m: usize) -> Vec<f64> {
        let theta = consts.theta();
        let eta = consts.eta();
        let mut rounds = Vec::with_capacity(m);
        let mut r = r0;
        for _ in 0..m {
            rounds.push(r);
            r = theta * r + eta;
        }
        rounds
    }

    fn feasible(consts: &Consts, rounds: &[f64], w_total: f64) -> bool {
        let floor = 1e-12 * w_total;
        rounds.iter().all(|&r| {
            // Every per-worker chunk S_i(T − cLat_i) must be positive:
            // the round time must exceed the largest computation latency.
            r.is_finite() && r > floor && consts.round_time(r) > consts.max_clat + 1e-15
        })
    }

    fn makespan(consts: &Consts, r0: f64, m: usize, w_total: f64) -> f64 {
        consts.l + consts.c1 * consts.round_time(r0) - consts.c2
            + consts.tlat_last
            + (w_total + m as f64 * consts.c0) / consts.s_sum
    }

    fn scan_best(consts: &Consts, w_total: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for m in 1..=MAX_ROUNDS {
            let Some(r0) = Self::r0_for(consts, w_total, m as f64) else {
                continue;
            };
            if !Self::feasible(consts, &Self::rounds_from(consts, r0, m), w_total) {
                continue;
            }
            let f = Self::makespan(consts, r0, m, w_total);
            if best.is_none_or(|(_, _, bf)| f < bf - 1e-12) {
                best = Some((m, r0, f));
            }
        }
        best.map(|(m, r0, _)| (m, r0))
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.round_sizes.len()
    }

    /// Total size of each round.
    pub fn round_sizes(&self) -> &[f64] {
        &self.round_sizes
    }

    /// The worker ids used, in dispatch order.
    pub fn worker_ids(&self) -> &[usize] {
        &self.worker_ids
    }

    /// Predicted makespan.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_makespan
    }

    /// Total workload covered.
    pub fn w_total(&self) -> f64 {
        self.w_total
    }

    /// Per-worker chunks for a round of size `r` (parallel to
    /// [`Self::worker_ids`]).
    pub fn round_chunks(&self, r: f64) -> Vec<f64> {
        let consts = Consts::of(&self.workers);
        let t = consts.round_time(r);
        self.workers
            .iter()
            .map(|w| w.speed * (t - w.comp_latency))
            .collect()
    }

    /// Materialize the dispatch plan.
    pub fn plan(&self) -> DispatchPlan {
        let mut sends = Vec::with_capacity(self.round_sizes.len() * self.worker_ids.len());
        for &r in &self.round_sizes {
            let chunks = self.round_chunks(r);
            for (&wid, chunk) in self.worker_ids.iter().zip(chunks) {
                sends.push((wid, chunk));
            }
        }
        DispatchPlan { sends }
    }
}

/// Heterogeneous UMR scheduler (eager plan replay).
#[derive(Debug, Clone)]
pub struct HetUmr {
    replayer: PlanReplayer,
    schedule: HetUmrSchedule,
}

impl HetUmr {
    /// Solve (with resource selection) and wrap a scheduler.
    pub fn new(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        let schedule = HetUmrSchedule::solve_with_selection(platform, w_total)?;
        Ok(HetUmr {
            replayer: PlanReplayer::new(schedule.plan()),
            schedule,
        })
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &HetUmrSchedule {
        &self.schedule
    }
}

impl Scheduler for HetUmr {
    fn name(&self) -> String {
        "UMR-het".into()
    }

    fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
        self.replayer.next_decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umr::{UmrInputs, UmrSchedule};
    use dls_sim::{simulate, ErrorInjector, ErrorModel, HomogeneousParams, Platform, SimConfig};

    fn het_platform() -> Platform {
        Platform::new(vec![
            WorkerSpec {
                speed: 2.0,
                bandwidth: 20.0,
                comp_latency: 0.2,
                net_latency: 0.1,
                transfer_latency: 0.0,
            },
            WorkerSpec {
                speed: 1.0,
                bandwidth: 15.0,
                comp_latency: 0.4,
                net_latency: 0.2,
                transfer_latency: 0.0,
            },
            WorkerSpec {
                speed: 0.5,
                bandwidth: 10.0,
                comp_latency: 0.1,
                net_latency: 0.1,
                transfer_latency: 0.0,
            },
        ])
        .unwrap()
    }

    #[test]
    fn reduces_to_homogeneous_umr() {
        let platform = HomogeneousParams::table1(10, 1.5, 0.4, 0.2)
            .build()
            .unwrap();
        let hom = UmrSchedule::solve(UmrInputs::from_platform(&platform, 1000.0).unwrap()).unwrap();
        let het = HetUmrSchedule::solve(&platform, 1000.0).unwrap();
        assert_eq!(hom.num_rounds(), het.num_rounds());
        assert!(
            (hom.predicted_makespan() - het.predicted_makespan()).abs()
                < 1e-6 * hom.predicted_makespan()
        );
        // Round sizes must match N·chunk_j.
        for (r_het, c_hom) in het.round_sizes().iter().zip(hom.round_chunks()) {
            assert!(
                (r_het - 10.0 * c_hom).abs() < 1e-6,
                "{r_het} vs {}",
                10.0 * c_hom
            );
        }
    }

    #[test]
    fn equal_compute_time_within_round() {
        let platform = het_platform();
        let s = HetUmrSchedule::solve(&platform, 300.0).unwrap();
        for &r in s.round_sizes() {
            let chunks = s.round_chunks(r);
            let times: Vec<f64> = chunks
                .iter()
                .zip(s.worker_ids())
                .map(|(&c, &i)| platform.worker(i).comp_time(c))
                .collect();
            for t in &times {
                assert!(
                    (t - times[0]).abs() < 1e-9,
                    "unequal round times: {times:?}"
                );
            }
        }
    }

    #[test]
    fn conservation() {
        let platform = het_platform();
        let s = HetUmrSchedule::solve(&platform, 300.0).unwrap();
        assert!((s.plan().total_work() - 300.0).abs() < 1e-6);
        let rounds_total: f64 = s.round_sizes().iter().sum();
        assert!((rounds_total - 300.0).abs() < 1e-6);
    }

    #[test]
    fn faster_workers_get_more_work() {
        let platform = het_platform();
        let s = HetUmrSchedule::solve(&platform, 300.0).unwrap();
        let chunks = s.round_chunks(s.round_sizes()[0]);
        // Worker 0 (S=2) must receive more than worker 2 (S=0.5).
        assert!(chunks[0] > chunks[2], "{chunks:?}");
    }

    #[test]
    fn simulated_matches_predicted_without_error() {
        let platform = het_platform();
        let mut sched = HetUmr::new(&platform, 300.0).unwrap();
        let predicted = sched.schedule().predicted_makespan();
        let r = simulate(
            &platform,
            &mut sched,
            ErrorInjector::new(ErrorModel::None, 0),
            SimConfig {
                trace_mode: dls_sim::TraceMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (r.makespan - predicted).abs() < 1e-6 * predicted,
            "sim {} vs predicted {}",
            r.makespan,
            predicted
        );
        assert!(r.trace.unwrap().validate(3).is_empty());
    }

    #[test]
    fn selection_drops_starved_workers_when_bandwidth_is_scarce() {
        // A platform where the master cannot usefully feed everyone: one
        // well-connected fast worker plus many slow, badly-connected ones.
        let mut workers = vec![WorkerSpec {
            speed: 10.0,
            bandwidth: 100.0,
            comp_latency: 0.0,
            net_latency: 0.0,
            transfer_latency: 0.0,
        }];
        for _ in 0..6 {
            workers.push(WorkerSpec {
                speed: 10.0,
                bandwidth: 0.5,
                comp_latency: 0.0,
                net_latency: 2.0,
                transfer_latency: 0.0,
            });
        }
        let platform = Platform::new(workers).unwrap();
        let all = HetUmrSchedule::solve(&platform, 100.0);
        let sel = HetUmrSchedule::solve_with_selection(&platform, 100.0).unwrap();
        assert!(sel.worker_ids().len() < 7, "selection kept everyone");
        if let Ok(all) = all {
            assert!(sel.predicted_makespan() <= all.predicted_makespan() + 1e-9);
        }
    }

    #[test]
    fn selection_never_worse_on_balanced_platform() {
        let platform = het_platform();
        let plain = HetUmrSchedule::solve(&platform, 300.0).unwrap();
        let sel = HetUmrSchedule::solve_with_selection(&platform, 300.0).unwrap();
        assert!(sel.predicted_makespan() <= plain.predicted_makespan() + 1e-9);
    }

    #[test]
    fn invalid_inputs() {
        let platform = het_platform();
        assert!(matches!(
            HetUmrSchedule::solve(&platform, -1.0),
            Err(UmrError::InvalidWorkload { .. })
        ));
        assert!(matches!(
            HetUmrSchedule::solve_subset(&platform, &[], 100.0),
            Err(UmrError::NoFeasibleSchedule)
        ));
    }
}
