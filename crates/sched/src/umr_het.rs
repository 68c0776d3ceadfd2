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
//! ordered by bandwidth, every prefix of that order is a candidate set, and
//! the smallest predicted makespan wins, ties going to the smaller set.
//!
//! Selection sums every prefix's constants in one pass and walks the
//! prefixes from the full set down; each round-count scan stops once a
//! lower bound on `F`, exact in floating point, shows that no larger `M`
//! can win. The plan is bit for bit the one an exhaustive search over every
//! prefix and round count returns.

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

    /// The constants of every prefix of `workers`, in one pass. Each field
    /// of [`Self::of`] is a left fold over the workers, so extending the
    /// empty set's constants by one worker at a time repeats its additions
    /// in its order: entry `k − 1` equals `Consts::of(&workers[..k])` bit
    /// for bit.
    fn prefixes(workers: &[WorkerSpec]) -> Vec<Self> {
        let mut acc = Self::of(&[]);
        workers
            .iter()
            .map(|w| {
                acc.s_sum += w.speed;
                acc.c0 += w.speed * w.comp_latency;
                acc.c1 += w.speed / w.bandwidth;
                acc.c2 += w.speed * w.comp_latency / w.bandwidth;
                acc.l += w.net_latency;
                acc.max_clat = acc.max_clat.max(w.comp_latency);
                acc.tlat_last = w.transfer_latency;
                acc
            })
            .collect()
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

    /// The makespan model `F` of an `m`-round plan whose first round
    /// computes for `t0`.
    fn makespan(&self, t0: f64, m: usize, w_total: f64) -> f64 {
        self.l + self.c1 * t0 - self.c2
            + self.tlat_last
            + (w_total + m as f64 * self.c0) / self.s_sum
    }
}

/// The terms of the first-round closed form and of the feasibility test
/// that do not depend on the round count, for one worker set and workload.
#[derive(Debug, Clone, Copy)]
struct Recursion<'a> {
    consts: &'a Consts,
    w_total: f64,
    theta: f64,
    eta: f64,
    /// θ within 1e-9 of 1: the arithmetic-series limit applies.
    linear: bool,
    /// The fixed point `Η/(1−Θ)`.
    h: f64,
    /// Rounds at or below this are numerically zero.
    floor: f64,
    /// Every round's compute time must exceed this, so that every
    /// per-worker chunk `S_i·(T − cLat_i)` is positive.
    min_time: f64,
}

impl<'a> Recursion<'a> {
    fn new(consts: &'a Consts, w_total: f64) -> Self {
        let theta = consts.theta();
        let eta = consts.eta();
        Recursion {
            consts,
            w_total,
            theta,
            eta,
            linear: (theta - 1.0).abs() < 1e-9,
            h: eta / (1.0 - theta),
            floor: 1e-12 * w_total,
            min_time: consts.max_clat + 1e-15,
        }
    }

    /// The first round size that makes `m` rounds sum to `W`, if finite.
    fn r0(&self, m: f64) -> Option<f64> {
        let r0 = if self.linear {
            (self.w_total - self.eta * m * (m - 1.0) / 2.0) / m
        } else {
            let q = self.theta.powf(m);
            self.h + (self.w_total - m * self.h) * (self.theta - 1.0) / (q - 1.0)
        };
        r0.is_finite().then_some(r0)
    }

    /// Whether all `m` rounds from `r0` are finite, above the floor and
    /// long enough: [`HetUmrSchedule::rounds_from`]'s recursion, run in
    /// place.
    fn feasible(&self, r0: f64, m: usize) -> bool {
        let mut r = r0;
        for _ in 0..m {
            if !(r.is_finite() && r > self.floor && self.consts.round_time(r) > self.min_time) {
                return false;
            }
            r = self.theta * r + self.eta;
        }
        true
    }

    /// The feasible `m`-round plan's first round and model makespan.
    fn candidate(&self, m: usize) -> Option<(f64, f64)> {
        let r0 = self.r0(m as f64).filter(|&r0| self.feasible(r0, m))?;
        let f = self
            .consts
            .makespan(self.consts.round_time(r0), m, self.w_total);
        Some((r0, f))
    }
}

/// One worker set's solved round count.
#[derive(Debug, Clone, Copy)]
struct Solved {
    m: usize,
    r0: f64,
    /// `F` at the built plan's first round, which for one round is `r0`
    /// after the residual is absorbed.
    predicted: f64,
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
        let best =
            Self::scan_best(&consts, w_total, f64::INFINITY).ok_or(UmrError::NoFeasibleSchedule)?;
        Ok(Self::build(
            worker_ids.to_vec(),
            workers,
            &consts,
            best,
            w_total,
        ))
    }

    /// Resource selection: sort workers by descending bandwidth (the master
    /// must be able to feed whoever it keeps) and return the prefix with
    /// the smallest predicted makespan, the shortest on a tie.
    ///
    /// The prefixes are walked from the full set down, and each scan is cut
    /// off against the best predicted makespan of the larger prefixes; a
    /// prefix replaces it when it is not larger, so ties still go to the
    /// shortest prefix. Only the winner is built. A non-positive or
    /// non-finite `w_total` is [`UmrError::InvalidWorkload`], as in
    /// [`HetUmrSchedule::solve`].
    pub fn solve_with_selection(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
        let mut order: Vec<usize> = (0..platform.num_workers()).collect();
        order.sort_by(|&a, &b| {
            platform
                .worker(b)
                .bandwidth
                .partial_cmp(&platform.worker(a).bandwidth)
                .expect("finite bandwidth")
                .then(a.cmp(&b))
        });
        let mut workers: Vec<WorkerSpec> = order.iter().map(|&i| *platform.worker(i)).collect();
        let prefixes = Consts::prefixes(&workers);
        let mut best: Option<(usize, Solved)> = None;
        for (k, consts) in prefixes.iter().enumerate().rev() {
            let rival = best.map_or(f64::INFINITY, |(_, b)| b.predicted);
            if let Some(s) = Self::scan_best(consts, w_total, rival) {
                if best.is_none() || s.predicted <= rival {
                    best = Some((k + 1, s));
                }
            }
        }
        let (k, solved) = best.ok_or(UmrError::NoFeasibleSchedule)?;
        order.truncate(k);
        workers.truncate(k);
        Ok(Self::build(
            order,
            workers,
            &prefixes[k - 1],
            solved,
            w_total,
        ))
    }

    /// The schedule for `solved` on `workers`, whose constants are `consts`.
    /// The floating-point residual of the round sizes goes into the last
    /// round.
    fn build(
        worker_ids: Vec<usize>,
        workers: Vec<WorkerSpec>,
        consts: &Consts,
        solved: Solved,
        w_total: f64,
    ) -> Self {
        let mut round_sizes = Self::rounds_from(consts, solved.r0, solved.m);
        let sum: f64 = round_sizes.iter().sum();
        if let Some(last) = round_sizes.last_mut() {
            *last += w_total - sum;
        }
        HetUmrSchedule {
            worker_ids,
            workers,
            round_sizes,
            predicted_makespan: solved.predicted,
            w_total,
        }
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

    /// Best round count for one worker set by integer scan over the
    /// feasible `M` up to [`MAX_ROUNDS`]; a larger `M` must beat the best
    /// so far by more than 1e-12 s to replace it. Returns `None` when no
    /// `M` is feasible, or possibly when the set cannot beat `rival`, the
    /// predicted makespan it must match to be selected (∞ for none).
    ///
    /// From `M = 2` on, the scan stops at the first `M` whose bound
    /// `B(M) = F(M, T_min)` is not below the 1e-12 threshold, or exceeds
    /// `rival`. The bound is exact in floating point, with no margin:
    /// `B(M)` is the same expression as `F` with the first round's compute
    /// time `T0` replaced by `T_min`, which the feasibility test makes
    /// every feasible `T0` exceed; each operation is monotone in that time
    /// (`C1 > 0`), so the computed `F` is never below the computed `B`,
    /// whatever the cancellation in `C1·T0 − C2`. And `B(M)` never falls as
    /// `M` grows (`M·C0` with `C0 ≥ 0`). Stopping on the threshold thus
    /// returns the exhaustive scan's result.
    ///
    /// Stopping on `rival` leaves a set that loses either way: every later
    /// `M` predicts more than `rival`, and so does the best earlier one
    /// unless no later `M` could have replaced it. For `M ≥ 2` the stored
    /// makespan is the scan's `F`; for one round it is taken after the
    /// residual is absorbed, which the bound does not cover, so the
    /// `rival` stop is armed only when that stored value exceeds `rival`.
    fn scan_best(consts: &Consts, w_total: f64, rival: f64) -> Option<Solved> {
        let rec = Recursion::new(consts, w_total);
        let stored = |m: usize, r0: f64| {
            let first = if m == 1 { r0 + (w_total - r0) } else { r0 };
            consts.makespan(consts.round_time(first), m, w_total)
        };
        let mut best = rec.candidate(1).map(|(r0, f)| (1, r0, f));
        let cutoff = match best {
            Some((_, r0, _)) if stored(1, r0) <= rival => f64::INFINITY,
            _ => rival,
        };
        for m in 2..=MAX_ROUNDS {
            let bound = consts.makespan(rec.min_time, m, w_total);
            if bound > cutoff || best.is_some_and(|(_, _, best_f)| bound >= best_f - 1e-12) {
                break;
            }
            let Some((r0, f)) = rec.candidate(m) else {
                continue;
            };
            if best.is_none_or(|(_, _, best_f)| f < best_f - 1e-12) {
                best = Some((m, r0, f));
            }
        }
        best.map(|(m, r0, _)| Solved {
            m,
            r0,
            predicted: stored(m, r0),
        })
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
        let t = Consts::of(&self.workers).round_time(r);
        self.workers.iter().map(|w| chunk(w, t)).collect()
    }

    /// Materialize the dispatch plan.
    pub fn plan(&self) -> DispatchPlan {
        let consts = Consts::of(&self.workers);
        let mut sends = Vec::with_capacity(self.round_sizes.len() * self.worker_ids.len());
        for &r in &self.round_sizes {
            let t = consts.round_time(r);
            sends.extend(
                self.worker_ids
                    .iter()
                    .zip(&self.workers)
                    .map(|(&wid, w)| (wid, chunk(w, t))),
            );
        }
        DispatchPlan { sends }
    }
}

/// Worker `w`'s chunk of a round that computes for `t`: `S·(t − cLat)`.
fn chunk(w: &WorkerSpec, t: f64) -> f64 {
    w.speed * (t - w.comp_latency)
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

/// The exhaustive solver the bounded one must match bit for bit: every
/// bandwidth-sorted prefix solved from scratch in ascending order, every
/// round count up to [`MAX_ROUNDS`] tried, feasibility tested on an
/// allocated round list.
#[cfg(test)]
mod reference {
    use super::*;

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

    fn feasible(consts: &Consts, rounds: &[f64], w_total: f64) -> bool {
        let floor = 1e-12 * w_total;
        rounds
            .iter()
            .all(|&r| r.is_finite() && r > floor && consts.round_time(r) > consts.max_clat + 1e-15)
    }

    fn scan_best(consts: &Consts, w_total: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for m in 1..=MAX_ROUNDS {
            let Some(r0) = r0_for(consts, w_total, m as f64) else {
                continue;
            };
            if !feasible(consts, &HetUmrSchedule::rounds_from(consts, r0, m), w_total) {
                continue;
            }
            let f = consts.makespan(consts.round_time(r0), m, w_total);
            if best.is_none_or(|(_, _, bf)| f < bf - 1e-12) {
                best = Some((m, r0, f));
            }
        }
        best.map(|(m, r0, _)| (m, r0))
    }

    /// [`HetUmrSchedule::solve_subset`] on the exhaustive scan.
    pub(super) fn solve_subset(
        platform: &Platform,
        worker_ids: &[usize],
        w_total: f64,
    ) -> Result<HetUmrSchedule, UmrError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
        if worker_ids.is_empty() {
            return Err(UmrError::NoFeasibleSchedule);
        }
        let workers: Vec<WorkerSpec> = worker_ids.iter().map(|&i| *platform.worker(i)).collect();
        let consts = Consts::of(&workers);
        let (m, r0) = scan_best(&consts, w_total).ok_or(UmrError::NoFeasibleSchedule)?;
        let mut round_sizes = HetUmrSchedule::rounds_from(&consts, r0, m);
        let sum: f64 = round_sizes.iter().sum();
        if let Some(last) = round_sizes.last_mut() {
            *last += w_total - sum;
        }
        let predicted_makespan = consts.makespan(consts.round_time(round_sizes[0]), m, w_total);
        Ok(HetUmrSchedule {
            worker_ids: worker_ids.to_vec(),
            workers,
            round_sizes,
            predicted_makespan,
            w_total,
        })
    }

    /// [`HetUmrSchedule::solve_with_selection`] by solving every prefix.
    pub(super) fn solve_with_selection(
        platform: &Platform,
        w_total: f64,
    ) -> Result<HetUmrSchedule, UmrError> {
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
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
            if let Ok(s) = solve_subset(platform, &order[..k], w_total) {
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

    /// The dispatch plan built one [`HetUmrSchedule::round_chunks`] call
    /// per round.
    pub(super) fn plan(schedule: &HetUmrSchedule) -> DispatchPlan {
        let mut sends = Vec::new();
        for &r in schedule.round_sizes() {
            let chunks = schedule.round_chunks(r);
            sends.extend(schedule.worker_ids().iter().copied().zip(chunks));
        }
        DispatchPlan { sends }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umr::{UmrInputs, UmrSchedule};
    use dls_sim::{simulate, ErrorInjector, ErrorModel, HomogeneousParams, Platform, SimConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `10^lo..10^hi`, log-uniform.
    fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        10f64.powf(rng.gen_range(lo..hi))
    }

    /// A random star of `n` workers with speeds 1e-3–1e3 and links 1e-6–1e6.
    /// `latencies` picks, per latency kind (cLat, nLat, tLat, two bits
    /// each), zero, one value for every worker, or a value per worker.
    /// `links` 1 makes every link far slower than its worker's speed; 2
    /// sets `B_i = n·S_i` with `n` rounded down to a power of two, so the
    /// full set has θ = 1 exactly.
    fn random_star(seed: u64, n: usize, latencies: u8, links: u8) -> Platform {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if links == 2 { 1 << n.ilog2() } else { n };
        let mut shared = [0.0; 3];
        for v in &mut shared {
            *v = log_uniform(&mut rng, -3.0, 1.0);
        }
        let workers = (0..n)
            .map(|_| {
                let speed = log_uniform(&mut rng, -3.0, 3.0);
                let bandwidth = match links {
                    1 => speed * log_uniform(&mut rng, -6.0, -2.0),
                    2 => speed * n as f64,
                    _ => log_uniform(&mut rng, -6.0, 6.0),
                };
                let mut latency = |kind: usize| match (latencies >> (2 * kind)) & 3 {
                    0 => 0.0,
                    1 => shared[kind],
                    _ => log_uniform(&mut rng, -3.0, 1.0),
                };
                WorkerSpec {
                    speed,
                    bandwidth,
                    comp_latency: latency(0),
                    net_latency: latency(1),
                    transfer_latency: latency(2),
                }
            })
            .collect();
        Platform::new(workers).unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn send_bits(plan: &DispatchPlan) -> Vec<(usize, u64)> {
        plan.sends.iter().map(|&(w, c)| (w, c.to_bits())).collect()
    }

    /// Equal worker sets, round sizes, predicted makespans and dispatch
    /// plans, bit for bit, or equal errors.
    fn assert_same(
        got: Result<HetUmrSchedule, UmrError>,
        want: Result<HetUmrSchedule, UmrError>,
    ) -> Result<(), TestCaseError> {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.worker_ids(), want.worker_ids());
                prop_assert_eq!(bits(got.round_sizes()), bits(want.round_sizes()));
                prop_assert_eq!(
                    got.predicted_makespan().to_bits(),
                    want.predicted_makespan().to_bits()
                );
                prop_assert_eq!(send_bits(&got.plan()), send_bits(&reference::plan(&want)));
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
        Ok(())
    }

    fn const_bits(c: &Consts) -> [u64; 7] {
        [c.s_sum, c.c0, c.c1, c.c2, c.l, c.max_clat, c.tlat_last].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Bounded selection returns the exhaustive search's plan bit for
        /// bit, and so does the bounded scan on the full worker set. N
        /// 1–200 (log-uniform), W 1e-6–1e12, every mix of zero, equal and
        /// per-worker latencies, tLat > 0, links far slower than speeds,
        /// and θ = 1 exactly.
        #[test]
        fn bounded_selection_matches_exhaustive_search(
            seed in 0u64..u64::MAX,
            n in 0.0f64..1.0,
            w in -6.0f64..12.0,
            latencies in 0u8..64,
            links in 0u8..3,
        ) {
            let n = 200f64.powf(n) as usize;
            let platform = random_star(seed, n, latencies, links);
            let w_total = 10f64.powf(w);
            let workers = platform.workers();
            for (k, c) in Consts::prefixes(workers).iter().enumerate() {
                prop_assert_eq!(const_bits(c), const_bits(&Consts::of(&workers[..k + 1])));
            }
            assert_same(
                HetUmrSchedule::solve_with_selection(&platform, w_total),
                reference::solve_with_selection(&platform, w_total),
            )?;
            let all: Vec<usize> = (0..platform.num_workers()).collect();
            assert_same(
                HetUmrSchedule::solve(&platform, w_total),
                reference::solve_subset(&platform, &all, w_total),
            )?;
        }
    }

    #[test]
    fn selection_matches_exhaustive_search_on_edge_platforms() {
        // N = 1, θ = 1 exactly on one worker, equal cLat everywhere, an
        // exact tie between prefixes, tiny and invalid workloads: each as
        // the exhaustive search. The tie: a second worker too slow to move
        // any prefix constant, so both prefixes predict the same bits and
        // the shorter one must win.
        let one = |speed: f64, bandwidth: f64, clat: f64| WorkerSpec {
            speed,
            bandwidth,
            comp_latency: clat,
            net_latency: 0.1,
            transfer_latency: 0.0,
        };
        let platforms = [
            Platform::new(vec![one(2.0, 5.0, 0.3)]).unwrap(),
            Platform::new(vec![one(3.0, 3.0, 0.0)]).unwrap(),
            Platform::new(vec![
                one(1.0, 9.0, 0.5),
                one(2.0, 4.0, 0.5),
                one(0.5, 2.0, 0.5),
            ])
            .unwrap(),
            Platform::new(vec![
                one(2.0, 5.0, 0.3),
                WorkerSpec {
                    speed: 1e-300,
                    bandwidth: 1.0,
                    comp_latency: 0.0,
                    net_latency: 0.0,
                    transfer_latency: 0.0,
                },
            ])
            .unwrap(),
            het_platform(),
        ];
        for platform in &platforms {
            for w_total in [1e-6, 0.01, 1.0, 300.0, 1e6, 0.0, -1.0, f64::INFINITY] {
                assert_same(
                    HetUmrSchedule::solve_with_selection(platform, w_total),
                    reference::solve_with_selection(platform, w_total),
                )
                .unwrap_or_else(|e| panic!("W = {w_total}: {e}"));
            }
        }
        let tie = HetUmrSchedule::solve_with_selection(&platforms[3], 300.0).unwrap();
        assert_eq!(tie.worker_ids(), [0]);
        for w_total in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                HetUmrSchedule::solve_with_selection(&platforms[0], w_total).err(),
                Some(UmrError::InvalidWorkload { w_total })
            );
        }
    }

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
            HetUmrSchedule::solve_with_selection(&platform, -1.0),
            Err(UmrError::InvalidWorkload { .. })
        ));
        assert!(matches!(
            HetUmrSchedule::solve_subset(&platform, &[], 100.0),
            Err(UmrError::NoFeasibleSchedule)
        ));
    }
}
