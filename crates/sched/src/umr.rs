//! UMR — Uniform Multi-Round scheduling (Yang & Casanova, IPDPS'03).
//!
//! UMR dispatches the workload in `M` rounds; within a round every worker
//! receives the same chunk size, and chunk sizes grow between rounds so that
//! per-round latencies (`nLat`, `cLat`) are paid while the workers are busy
//! computing the previous round.
//!
//! # Derivation implemented here (homogeneous platform)
//!
//! The *uniform round* condition — computing round `j` exactly hides the
//! dispatch of round `j+1` to all `N` workers:
//!
//! ```text
//! cLat + chunk_j/S = N·(nLat + chunk_{j+1}/B)
//! ⇒ chunk_{j+1} = θ·chunk_j + η,   θ = B/(N·S),   η = B·cLat/N − B·nLat
//! ```
//!
//! With the fixed point `h = η/(1−θ)` (θ ≠ 1): `chunk_j = θ^j(chunk_0−h) + h`.
//!
//! Constraint (all chunks cover the workload): `Σ_{j<M} chunk_j = W/N`.
//!
//! Makespan model (worker `N` receives last and finishes last):
//!
//! ```text
//! F(M, chunk_0) = N(nLat + chunk_0/B) + tLat + M·cLat + W/(N·S)
//! ```
//!
//! Minimizing `F` subject to the constraint via a Lagrange multiplier yields
//! a single scalar equation in `M` which the paper solves "numerically by
//! bisection"; [`UmrSchedule::solve_lagrange`] reproduces that.
//! [`UmrSchedule::solve`] instead scans the integer round counts up to
//! [`MAX_ROUNDS`] and keeps the best feasible one. The scan needs no
//! stationary point, so it also returns a plan where the condition has none
//! (θ = 1, `cLat = 0`). It is the solver the schedulers use, and tests
//! assert that both solvers agree wherever the Lagrange path applies.
//!
//! The scan stops at the first `M` whose lower bound `F(M, floor)` (the
//! makespan at the floor every feasible first chunk exceeds) cannot beat
//! the best so far; the bound grows with `M` by `cLat` per round. It
//! returns the plan an exhaustive scan returns, bit for bit.

use dls_sim::{Decision, Platform, Scheduler, SimView};

use crate::plan::{DispatchPlan, PlanReplayer};

/// Hard cap on the number of rounds considered.
///
/// With `cLat = nLat = 0` the model has no per-round overhead and the
/// optimum degenerates to infinitely many rounds; beyond a few dozen rounds
/// the predicted gain (the `N·chunk_0/B` start-up term shrinking
/// geometrically) is far below any realistic measurement noise, while
/// simulation cost grows linearly with the round count.
pub const MAX_ROUNDS: usize = 64;

/// Chunks smaller than this fraction of the per-worker workload are treated
/// as numerically zero when checking schedule feasibility.
const CHUNK_EPS_FRACTION: f64 = 1e-12;

/// `f(x) = 1/expm1(x) − 1/x`, the smooth part of the geometric-sum
/// reciprocal (`x/(e^x−1)` is the Bernoulli generating function, so
/// `f(x) = −1/2 + x/12 − x³/720 + …`). Continuous through `x = 0`; the
/// series is used below `|x| = 10⁻²` where the direct difference of two
/// near-equal `1/x` terms would cancel.
fn inv_expm1_minus_inv(x: f64) -> f64 {
    if x.abs() < 1e-2 {
        // Next omitted term is x⁵/30240 < 4e-16 on this range.
        -0.5 + x / 12.0 - x * x * x / 720.0
    } else {
        1.0 / x.exp_m1() - 1.0 / x
    }
}

/// Inputs to the UMR solver: a homogeneous platform plus total workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UmrInputs {
    /// Number of workers `N`.
    pub n: usize,
    /// Worker speed `S` (units/s).
    pub speed: f64,
    /// Link rate `B` (units/s).
    pub bandwidth: f64,
    /// Computation latency `cLat` (s).
    pub comp_latency: f64,
    /// Communication latency `nLat` (s).
    pub net_latency: f64,
    /// Pipeline latency `tLat` (s).
    pub transfer_latency: f64,
    /// Total workload `W_total` (units).
    pub w_total: f64,
}

/// Errors from the UMR solver.
#[derive(Debug, Clone, PartialEq)]
pub enum UmrError {
    /// The closed-form homogeneous solver requires identical workers; use
    /// [`crate::umr_het`] for heterogeneous platforms.
    NotHomogeneous,
    /// Workload must be finite and strictly positive.
    InvalidWorkload {
        /// The offending workload value.
        w_total: f64,
    },
    /// No round count in `1..=MAX_ROUNDS` yields strictly positive chunks.
    NoFeasibleSchedule,
}

impl std::fmt::Display for UmrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UmrError::NotHomogeneous => {
                write!(f, "homogeneous UMR solver given a heterogeneous platform")
            }
            UmrError::InvalidWorkload { w_total } => write!(f, "invalid workload {w_total}"),
            UmrError::NoFeasibleSchedule => write!(f, "no feasible UMR schedule"),
        }
    }
}

impl std::error::Error for UmrError {}

/// Which solver produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverPath {
    /// Lagrange-multiplier stationarity condition + root finding (the
    /// paper's method).
    Lagrange,
    /// Exhaustive scan over integer round counts.
    IntegerScan,
}

impl UmrInputs {
    /// Extract solver inputs from a homogeneous [`Platform`].
    ///
    /// # Errors
    ///
    /// [`UmrError::NotHomogeneous`] if workers differ,
    /// [`UmrError::InvalidWorkload`] for a non-positive or non-finite `w_total`.
    pub fn from_platform(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        if !platform.is_homogeneous() {
            return Err(UmrError::NotHomogeneous);
        }
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload { w_total });
        }
        let w = platform.worker(0);
        Ok(UmrInputs {
            n: platform.num_workers(),
            speed: w.speed,
            bandwidth: w.bandwidth,
            comp_latency: w.comp_latency,
            net_latency: w.net_latency,
            transfer_latency: w.transfer_latency,
            w_total,
        })
    }

    /// Chunk growth factor `θ = B/(N·S)`.
    pub fn theta(&self) -> f64 {
        self.bandwidth / (self.n as f64 * self.speed)
    }

    /// Affine term `η = B·cLat/N − B·nLat` of the round recursion.
    pub fn eta(&self) -> f64 {
        self.bandwidth * self.comp_latency / self.n as f64 - self.bandwidth * self.net_latency
    }

    /// Per-worker workload `W/N`.
    pub fn w_per_worker(&self) -> f64 {
        self.w_total / self.n as f64
    }

    /// Generate the `m` per-round chunk sizes starting from `chunk0` via the
    /// forward recursion `chunk_{j+1} = θ·chunk_j + η`. Each step scales
    /// `chunk0`'s rounding error by θ, so for θ > 1 and many rounds the sum
    /// can drift from `W/N`; `build` moves that residual into the last round.
    fn chunks_from(&self, chunk0: f64, m: usize) -> Vec<f64> {
        let theta = self.theta();
        let eta = self.eta();
        let mut chunks = Vec::with_capacity(m);
        let mut c = chunk0;
        for _ in 0..m {
            chunks.push(c);
            c = theta * c + eta;
        }
        chunks
    }

    /// Predicted makespan of an `m`-round schedule starting at `chunk0`.
    fn makespan(&self, chunk0: f64, m: usize) -> f64 {
        self.n as f64 * (self.net_latency + chunk0 / self.bandwidth)
            + self.transfer_latency
            + m as f64 * self.comp_latency
            + self.w_per_worker() / self.speed
    }
}

/// The terms of the first-chunk closed form and of the feasibility test
/// that do not depend on the round count, computed once per solve rather
/// than once per candidate `M`.
#[derive(Debug, Clone, Copy)]
struct Recursion {
    theta: f64,
    eta: f64,
    w_per: f64,
    /// `θ − 1`.
    d: f64,
    /// `ln θ`, via `ln_1p` (accurate near θ = 1).
    ln_theta: f64,
    /// `f(ln θ)`.
    f_ln_theta: f64,
    /// Chunks at or below this are numerically zero.
    floor: f64,
}

impl Recursion {
    fn of(inputs: &UmrInputs) -> Self {
        let w_per = inputs.w_per_worker();
        let d = inputs.theta() - 1.0;
        let ln_theta = d.ln_1p();
        Recursion {
            theta: inputs.theta(),
            eta: inputs.eta(),
            w_per,
            d,
            ln_theta,
            f_ln_theta: inv_expm1_minus_inv(ln_theta),
            floor: CHUNK_EPS_FRACTION * w_per,
        }
    }

    /// The first-round chunk size that makes `M` rounds sum to `W/N`, or
    /// `None` when the value is not finite.
    ///
    /// The textbook form `h + (W/N − M·h)·(θ−1)/(θ^M−1)` cancels
    /// catastrophically as θ → 1 (`h = η/(1−θ)` and `θ^M − 1` both lose all
    /// significance), so it is rearranged into
    ///
    /// ```text
    /// chunk_0 = (W/N)·(θ−1)/(θ^M−1) + η·(M·f(M·lnθ) − f(lnθ)),
    /// f(x)    = 1/expm1(x) − 1/x
    /// ```
    ///
    /// where the two `1/x` poles of `M/(θ^M−1)` and `1/(θ−1)` cancel
    /// *analytically* inside `f`, which is smooth through 0 (value −1/2).
    /// Every factor is evaluated via `ln_1p`/`exp_m1`, so the function is
    /// continuous through θ = 1 with no branch cutoff.
    fn chunk0(&self, m: f64) -> Option<f64> {
        let geom = if self.d == 0.0 {
            1.0 / m // limit of (θ−1)/(θ^M−1)
        } else {
            self.d / (m * self.ln_theta).exp_m1()
        };
        let chunk0 = self.w_per * geom
            + self.eta * (m * inv_expm1_minus_inv(m * self.ln_theta) - self.f_ln_theta);
        chunk0.is_finite().then_some(chunk0)
    }

    /// Whether all `m` chunks from `chunk0` are finite and above the floor:
    /// [`UmrInputs::chunks_from`]'s recursion, run in place.
    fn feasible(&self, chunk0: f64, m: usize) -> bool {
        let mut c = chunk0;
        for _ in 0..m {
            if !(c.is_finite() && c > self.floor) {
                return false;
            }
            c = self.theta * c + self.eta;
        }
        true
    }
}

/// A solved UMR schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct UmrSchedule {
    inputs: UmrInputs,
    /// Per-round, per-worker chunk sizes (`round_chunks.len() == M`).
    round_chunks: Vec<f64>,
    predicted_makespan: f64,
    solver: SolverPath,
}

impl UmrSchedule {
    /// Solve for the optimal round count and chunk sizes by scanning integer
    /// round counts (robust reference method).
    pub fn solve(inputs: UmrInputs) -> Result<Self, UmrError> {
        Self::validate(&inputs)?;
        let (m, chunk0) = Self::scan_best(&inputs).ok_or(UmrError::NoFeasibleSchedule)?;
        Ok(Self::build(inputs, m, chunk0, SolverPath::IntegerScan))
    }

    /// Solve with the paper's Lagrange-multiplier + root-finding method,
    /// falling back to the integer scan in the degenerate cases the
    /// stationarity condition cannot handle (`θ ≈ 1`, `cLat = 0`, no
    /// interior stationary point).
    pub fn solve_lagrange(inputs: UmrInputs) -> Result<Self, UmrError> {
        Self::validate(&inputs)?;
        if let Some((m, chunk0)) = Self::lagrange_best(&inputs) {
            return Ok(Self::build(inputs, m, chunk0, SolverPath::Lagrange));
        }
        let (m, chunk0) = Self::scan_best(&inputs).ok_or(UmrError::NoFeasibleSchedule)?;
        Ok(Self::build(inputs, m, chunk0, SolverPath::IntegerScan))
    }

    /// Solve with resource selection: consider using only `n ≤ N` workers
    /// and keep whichever predicted makespan is smallest. (The paper applies
    /// this when the full-utilization condition fails; with Table 1's
    /// `B = r·N`, `r ≥ 1.2` it rarely reduces the worker count.)
    pub fn solve_with_selection(inputs: UmrInputs) -> Result<Self, UmrError> {
        Self::validate(&inputs)?;
        let mut best: Option<UmrSchedule> = None;
        for n in 1..=inputs.n {
            let sub = UmrInputs { n, ..inputs };
            if let Ok(s) = Self::solve(sub) {
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

    fn validate(inputs: &UmrInputs) -> Result<(), UmrError> {
        if !inputs.w_total.is_finite() || inputs.w_total <= 0.0 {
            return Err(UmrError::InvalidWorkload {
                w_total: inputs.w_total,
            });
        }
        Ok(())
    }

    fn build(inputs: UmrInputs, m: usize, chunk0: f64, solver: SolverPath) -> Self {
        let mut round_chunks = inputs.chunks_from(chunk0, m);
        // Absorb the floating-point residual into the last round so the
        // schedule covers the workload exactly.
        let sum: f64 = round_chunks.iter().sum::<f64>() * inputs.n as f64;
        let residual = (inputs.w_total - sum) / inputs.n as f64;
        if let Some(last) = round_chunks.last_mut() {
            *last += residual;
        }
        let predicted_makespan = inputs.makespan(round_chunks[0], m);
        UmrSchedule {
            inputs,
            round_chunks,
            predicted_makespan,
            solver,
        }
    }

    /// Best (M, chunk0) by integer scan over the feasible `M` up to
    /// [`MAX_ROUNDS`]; a larger `M` must beat the best so far by more than
    /// 1e-12 s to replace it.
    ///
    /// The scan stops at the first `M` whose bound `F(M, floor)` is not
    /// below that threshold. The bound is exact in floating point, with no
    /// margin: a feasible `chunk0` exceeds `floor`, and every operation of
    /// [`UmrInputs::makespan`] is monotone in `chunk0` (the rest of the
    /// formula is the same expression), so the computed `F(M, chunk0)` is
    /// never below the computed `F(M, floor)`, which in turn never falls as
    /// `M` grows (`M·cLat` with `cLat ≥ 0`). No later `M` could replace the
    /// best, so the result is the exhaustive scan's.
    fn scan_best(inputs: &UmrInputs) -> Option<(usize, f64)> {
        let rec = Recursion::of(inputs);
        let mut best: Option<(usize, f64, f64)> = None;
        for m in 1..=MAX_ROUNDS {
            if best.is_some_and(|(_, _, best_f)| inputs.makespan(rec.floor, m) >= best_f - 1e-12) {
                break;
            }
            let Some(chunk0) = rec.chunk0(m as f64) else {
                continue;
            };
            if !rec.feasible(chunk0, m) {
                continue;
            }
            let f = inputs.makespan(chunk0, m);
            if best.is_none_or(|(_, _, best_f)| f < best_f - 1e-12) {
                best = Some((m, chunk0, f));
            }
        }
        best.map(|(m, c, _)| (m, c))
    }

    /// Best (M, chunk0) via the Lagrange stationarity condition:
    ///
    /// `(N/B)·∂G/∂M = cLat·∂G/∂chunk0`, with `chunk0(M)` substituted from
    /// the workload constraint, solved for continuous `M` by Brent/bisection.
    fn lagrange_best(inputs: &UmrInputs) -> Option<(usize, f64)> {
        let theta = inputs.theta();
        let clat = inputs.comp_latency;
        if (theta - 1.0).abs() < 1e-9 || clat <= 0.0 {
            return None; // Degenerate: no interior stationary point.
        }
        let eta = inputs.eta();
        let h = eta / (1.0 - theta);
        let n_over_b = inputs.n as f64 / inputs.bandwidth;
        let ln_theta = theta.ln();

        let rec = Recursion::of(inputs);
        let phi = |m: f64| -> f64 {
            let chunk0 = match rec.chunk0(m) {
                Some(c) => c,
                None => return f64::NAN,
            };
            // θ^M and (θ^M−1)/(θ−1) via exp/expm1 of M·lnθ: stable where
            // powf-then-subtract would cancel as θ approaches 1.
            let q = (m * ln_theta).exp();
            let dg_dm = (chunk0 - h) * q * ln_theta / (theta - 1.0) + h;
            let dg_dc0 = (m * ln_theta).exp_m1() / (theta - 1.0);
            n_over_b * dg_dm - clat * dg_dc0
        };

        // Bracket a sign change over a geometric grid of round counts.
        let mut prev_m = 1.0;
        let mut prev_phi = phi(prev_m);
        if !prev_phi.is_finite() {
            return None;
        }
        let mut bracket = None;
        let mut m = 1.5;
        while m <= MAX_ROUNDS as f64 {
            let p = phi(m);
            if !p.is_finite() {
                return None;
            }
            if p == 0.0 {
                bracket = Some((m, m));
                break;
            }
            if prev_phi.signum() != p.signum() {
                bracket = Some((prev_m, m));
                break;
            }
            prev_m = m;
            prev_phi = p;
            m *= 1.5;
        }
        let (lo, hi) = bracket?;
        let m_star = if lo == hi {
            lo
        } else {
            dls_numerics::brent(phi, lo, hi, 1e-10, 200)
                .or_else(|_| dls_numerics::bisect(phi, lo, hi, 1e-10, 200))
                .ok()?
        };

        // Round to the best feasible neighboring integer.
        let candidates = [
            m_star.floor().max(1.0) as usize,
            m_star.ceil().max(1.0) as usize,
        ];
        let mut best: Option<(usize, f64, f64)> = None;
        for m in candidates {
            let m = m.clamp(1, MAX_ROUNDS);
            let Some(chunk0) = rec.chunk0(m as f64) else {
                continue;
            };
            if !rec.feasible(chunk0, m) {
                continue;
            }
            let f = inputs.makespan(chunk0, m);
            if best.map(|(_, _, bf)| f < bf).unwrap_or(true) {
                best = Some((m, chunk0, f));
            }
        }
        best.map(|(m, c, _)| (m, c))
    }

    /// Number of rounds `M`.
    pub fn num_rounds(&self) -> usize {
        self.round_chunks.len()
    }

    /// Per-round, per-worker chunk sizes.
    pub fn round_chunks(&self) -> &[f64] {
        &self.round_chunks
    }

    /// Predicted makespan `F(M, chunk_0)`.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_makespan
    }

    /// Which solver produced this schedule.
    pub fn solver(&self) -> SolverPath {
        self.solver
    }

    /// The solver inputs.
    pub fn inputs(&self) -> &UmrInputs {
        &self.inputs
    }

    /// Materialize the dispatch plan: rounds in order, workers `0..n` within
    /// each round.
    pub fn plan(&self) -> DispatchPlan {
        let mut sends = Vec::with_capacity(self.round_chunks.len() * self.inputs.n);
        for &chunk in &self.round_chunks {
            for worker in 0..self.inputs.n {
                sends.push((worker, chunk));
            }
        }
        DispatchPlan { sends }
    }
}

/// The UMR scheduler: replays the precalculated schedule fire-and-forget
/// (under exact predictions the master's interface is continuously busy, so
/// eager replay *is* the planned timeline).
#[derive(Debug, Clone)]
pub struct Umr {
    replayer: PlanReplayer,
    schedule: UmrSchedule,
}

impl Umr {
    /// Solve and wrap a scheduler for `platform` and `w_total`.
    pub fn new(platform: &Platform, w_total: f64) -> Result<Self, UmrError> {
        let schedule = UmrSchedule::solve(UmrInputs::from_platform(platform, w_total)?)?;
        Ok(Self::from_schedule(schedule))
    }

    /// Wrap an already-solved schedule.
    pub fn from_schedule(schedule: UmrSchedule) -> Self {
        Umr {
            replayer: PlanReplayer::new(schedule.plan()),
            schedule,
        }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &UmrSchedule {
        &self.schedule
    }
}

impl Scheduler for Umr {
    fn name(&self) -> String {
        "UMR".into()
    }

    fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
        self.replayer.next_decision()
    }
}

/// The exhaustive round-count scan the bounded one must match bit for bit:
/// every `M` up to [`MAX_ROUNDS`], the first chunk recomputed from scratch
/// for each, feasibility tested on an allocated chunk list.
#[cfg(test)]
mod reference {
    use super::*;

    fn chunk0_for(inputs: &UmrInputs, m: f64) -> Option<f64> {
        let eta = inputs.eta();
        let w_per = inputs.w_per_worker();
        let d = inputs.theta() - 1.0;
        let u = d.ln_1p();
        let geom = if d == 0.0 {
            1.0 / m
        } else {
            d / (m * u).exp_m1()
        };
        let chunk0 = w_per * geom + eta * (m * inv_expm1_minus_inv(m * u) - inv_expm1_minus_inv(u));
        chunk0.is_finite().then_some(chunk0)
    }

    fn chunks_feasible(inputs: &UmrInputs, chunks: &[f64]) -> bool {
        let floor = CHUNK_EPS_FRACTION * inputs.w_per_worker();
        chunks.iter().all(|&c| c.is_finite() && c > floor)
    }

    fn scan_best(inputs: &UmrInputs) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for m in 1..=MAX_ROUNDS {
            let Some(chunk0) = chunk0_for(inputs, m as f64) else {
                continue;
            };
            if !chunks_feasible(inputs, &inputs.chunks_from(chunk0, m)) {
                continue;
            }
            let f = inputs.makespan(chunk0, m);
            if best.is_none_or(|(_, _, best_f)| f < best_f - 1e-12) {
                best = Some((m, chunk0, f));
            }
        }
        best.map(|(m, c, _)| (m, c))
    }

    /// [`UmrSchedule::solve`] on the exhaustive scan.
    pub(super) fn solve(inputs: UmrInputs) -> Result<UmrSchedule, UmrError> {
        UmrSchedule::validate(&inputs)?;
        let (m, chunk0) = scan_best(&inputs).ok_or(UmrError::NoFeasibleSchedule)?;
        Ok(UmrSchedule::build(
            inputs,
            m,
            chunk0,
            SolverPath::IntegerScan,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::{simulate, ErrorInjector, ErrorModel, HomogeneousParams, SimConfig};
    use proptest::prelude::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn send_bits(plan: &DispatchPlan) -> Vec<(usize, u64)> {
        plan.sends.iter().map(|&(w, c)| (w, c.to_bits())).collect()
    }

    /// `10^lo..10^hi`, log-uniform in `x ∈ [0, 1)`.
    fn log_scale(x: f64, lo: f64, hi: f64) -> f64 {
        10f64.powf(lo + (hi - lo) * x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The bounded scan returns the exhaustive scan's plan bit for bit:
        /// round count, round sizes, predicted makespan and dispatch
        /// order, or the same error. N 1–200, W 1e-6–1e12, speeds
        /// 1e-3–1e3 and links 1e-6–1e6 (so links far slower than speeds
        /// too), each latency zero or 1e-3–10, and θ = 1 exactly.
        #[test]
        fn bounded_scan_matches_exhaustive_scan(
            n in 1usize..=200,
            (w, s, b) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (clat, nlat, tlat) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            zeros in 0u8..8,
            theta_one in proptest::bool::ANY,
        ) {
            let speed = log_scale(s, -3.0, 3.0);
            let latency = |x: f64, bit: u8| if zeros & bit != 0 { 0.0 } else { log_scale(x, -3.0, 1.0) };
            let inputs = UmrInputs {
                n,
                speed,
                bandwidth: if theta_one { n as f64 * speed } else { log_scale(b, -6.0, 6.0) },
                comp_latency: latency(clat, 1),
                net_latency: latency(nlat, 2),
                transfer_latency: latency(tlat, 4),
                w_total: log_scale(w, -6.0, 12.0),
            };
            match (UmrSchedule::solve(inputs), reference::solve(inputs)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(bits(got.round_chunks()), bits(want.round_chunks()), "{:?}", inputs);
                    prop_assert_eq!(
                        got.predicted_makespan().to_bits(),
                        want.predicted_makespan().to_bits(),
                        "{:?}", inputs
                    );
                    prop_assert_eq!(send_bits(&got.plan()), send_bits(&want.plan()), "{:?}", inputs);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err(), "{:?}", inputs),
            }
        }
    }

    fn table1(n: usize, r: f64, clat: f64, nlat: f64) -> UmrInputs {
        let platform = HomogeneousParams::table1(n, r, clat, nlat).build().unwrap();
        UmrInputs::from_platform(&platform, 1000.0).unwrap()
    }

    #[test]
    fn theta_eta() {
        let i = table1(10, 1.5, 0.4, 0.2);
        assert!((i.theta() - 1.5).abs() < 1e-12);
        // η = B·cLat/N − B·nLat = 15·0.4/10 − 15·0.2 = 0.6 − 3.0 = −2.4
        assert!((i.eta() + 2.4).abs() < 1e-12);
        assert!((i.w_per_worker() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn recursion_satisfies_uniform_condition() {
        let i = table1(10, 1.5, 0.4, 0.2);
        let s = UmrSchedule::solve(i).unwrap();
        let chunks = s.round_chunks();
        assert!(chunks.len() >= 2, "expected multiple rounds");
        for w in chunks.windows(2) {
            // cLat + chunk_j/S == N(nLat + chunk_{j+1}/B)
            let lhs = i.comp_latency + w[0] / i.speed;
            let rhs = i.n as f64 * (i.net_latency + w[1] / i.bandwidth);
            assert!(
                (lhs - rhs).abs() < 1e-6,
                "uniform condition violated: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn chunks_sum_to_workload() {
        for (n, r, clat, nlat) in [
            (10, 1.2, 0.0, 0.0),
            (10, 1.5, 0.4, 0.2),
            (20, 1.8, 0.3, 0.9),
            (50, 2.0, 1.0, 1.0),
            (15, 1.3, 0.1, 0.7),
        ] {
            let i = table1(n, r, clat, nlat);
            let s = UmrSchedule::solve(i).unwrap();
            let total: f64 = s.round_chunks().iter().sum::<f64>() * n as f64;
            assert!(
                (total - 1000.0).abs() < 1e-6,
                "sum {total} for n={n} r={r} clat={clat} nlat={nlat}"
            );
            assert!((s.plan().total_work() - 1000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn chunks_increase_in_low_latency_regimes() {
        // With modest per-round latencies the optimizer ramps chunk sizes up
        // toward the fixed point: the sequence must be non-decreasing.
        let i = table1(20, 1.8, 0.3, 0.1);
        let s = UmrSchedule::solve(i).unwrap();
        assert!(s.num_rounds() >= 2);
        for w in s.round_chunks().windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "chunks decreased: {:?}", w);
        }
    }

    #[test]
    fn high_nlat_regime_uses_few_rounds() {
        // nLat = 0.9 per send makes rounds expensive: the paper notes UMR
        // "often uses only one round" here. Our optimizer may keep a couple
        // of rounds (the makespan model stays exact either way — see
        // simulated_makespan_matches_prediction_without_error), but the
        // round count must collapse to a small number.
        let s = UmrSchedule::solve(table1(20, 1.8, 0.3, 0.9)).unwrap();
        assert!(
            s.num_rounds() <= 3,
            "expected few rounds, got {}",
            s.num_rounds()
        );
    }

    #[test]
    fn simulated_makespan_matches_prediction_without_error() {
        // The analytic makespan model must agree with the DES at error = 0.
        for (n, r, clat, nlat) in [
            (10, 1.5, 0.4, 0.2),
            (20, 1.8, 0.3, 0.9),
            (10, 1.2, 0.0, 0.5),
            (30, 2.0, 0.7, 0.1),
        ] {
            let platform = HomogeneousParams::table1(n, r, clat, nlat).build().unwrap();
            let mut umr = Umr::new(&platform, 1000.0).unwrap();
            let predicted = umr.schedule().predicted_makespan();
            let result = simulate(
                &platform,
                &mut umr,
                ErrorInjector::new(ErrorModel::None, 0),
                SimConfig::default(),
            )
            .unwrap();
            assert!(
                (result.makespan - predicted).abs() < 1e-6 * predicted,
                "n={n} r={r} clat={clat} nlat={nlat}: sim {} vs predicted {}",
                result.makespan,
                predicted
            );
        }
    }

    #[test]
    fn single_round_when_latency_dominates() {
        // Huge per-round cost: one round must win.
        let i = table1(10, 1.2, 10.0, 10.0);
        let s = UmrSchedule::solve(i).unwrap();
        assert_eq!(s.num_rounds(), 1);
        assert!((s.round_chunks()[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn more_rounds_when_latency_vanishes() {
        let cheap = UmrSchedule::solve(table1(10, 1.5, 0.01, 0.01)).unwrap();
        let pricey = UmrSchedule::solve(table1(10, 1.5, 1.0, 1.0)).unwrap();
        assert!(
            cheap.num_rounds() > pricey.num_rounds(),
            "cheap {} vs pricey {}",
            cheap.num_rounds(),
            pricey.num_rounds()
        );
    }

    #[test]
    fn zero_latency_hits_round_cap_gracefully() {
        let s = UmrSchedule::solve(table1(10, 1.5, 0.0, 0.0)).unwrap();
        assert!(s.num_rounds() <= MAX_ROUNDS);
        assert!(s.num_rounds() > 10);
        let total: f64 = s.round_chunks().iter().sum::<f64>() * 10.0;
        assert!((total - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn lagrange_agrees_with_scan() {
        // Wherever the stationarity condition applies, both solvers must
        // produce (near-)identical predicted makespans.
        let mut checked = 0;
        for n in [10usize, 20, 40] {
            for r in [1.2, 1.6, 2.0] {
                for clat in [0.1, 0.5, 1.0] {
                    for nlat in [0.0, 0.3, 0.9] {
                        let i = table1(n, r, clat, nlat);
                        let scan = UmrSchedule::solve(i).unwrap();
                        let lag = UmrSchedule::solve_lagrange(i).unwrap();
                        let fs = scan.predicted_makespan();
                        let fl = lag.predicted_makespan();
                        assert!(
                            fl <= fs * 1.001 + 1e-9,
                            "lagrange worse: n={n} r={r} clat={clat} nlat={nlat}: {fl} vs {fs}"
                        );
                        assert!(
                            fs <= fl * 1.001 + 1e-9,
                            "scan worse: n={n} r={r} clat={clat} nlat={nlat}: {fs} vs {fl}"
                        );
                        if lag.solver() == SolverPath::Lagrange {
                            checked += 1;
                            let dm = (lag.num_rounds() as i64 - scan.num_rounds() as i64).abs();
                            assert!(
                                dm <= 1,
                                "round counts diverge: {} vs {}",
                                lag.num_rounds(),
                                scan.num_rounds()
                            );
                        }
                    }
                }
            }
        }
        assert!(checked > 20, "Lagrange path exercised only {checked} times");
    }

    #[test]
    fn chunk0_is_continuous_through_theta_one() {
        // Regression: the old implementation switched at |θ−1| < 1e-9 from a
        // linearized branch to `h + (W/N − M·h)·(θ−1)/(θ^M−1)`, which near
        // the cutoff loses ~all significance (h ≈ η/1e-9, θ^M−1 ≈ M·1e-9):
        // chunk0 jumped by O(η·ε/δ²) ≈ tens of units across the threshold.
        // The expm1 form must be smooth: sweep θ through 1 (crossing the old
        // cutoff from both sides) and require every value to sit within
        // 1e-6 of the exact θ = 1 limit.
        let base = UmrInputs {
            n: 4,
            speed: 1.0,
            bandwidth: 4.0,
            comp_latency: 0.4,
            net_latency: 0.05,
            transfer_latency: 0.0,
            w_total: 1000.0,
        };
        for m in [2.0, 3.0, 7.0, 31.0] {
            let at_one = Recursion::of(&base).chunk0(m).expect("θ = 1 value");
            // Exact arithmetic-series limit as an independent cross-check.
            let expected = (base.w_per_worker() - base.eta() * m * (m - 1.0) / 2.0) / m;
            assert!(
                (at_one - expected).abs() < 1e-9,
                "θ = 1 limit off: {at_one} vs {expected}"
            );
            for mag in [1e-12, 1e-10, 0.99e-9, 1.01e-9, 1e-8, 1e-7, 1e-6] {
                for sign in [-1.0, 1.0] {
                    let mut i = base;
                    // θ = B/(N·S): perturb the bandwidth to move θ off 1.
                    i.bandwidth = 4.0 * (1.0 + sign * mag);
                    let c = Recursion::of(&i).chunk0(m).expect("perturbed value");
                    // chunk0 genuinely varies with θ (slope up to ~1e4 per
                    // unit θ at these m), so the window scales with the
                    // perturbation; the old code's noise near the cutoff
                    // was O(10) absolute, far outside it.
                    let tol = 1e-7 + 2e5 * mag;
                    assert!(
                        (c - at_one).abs() < tol,
                        "discontinuity at θ = 1{sign:+}·{mag:e}, m = {m}: \
                         {c} vs {at_one}"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_never_worse_than_full_platform() {
        for (n, r, clat, nlat) in [(10, 1.2, 0.0, 1.0), (50, 2.0, 1.0, 1.0)] {
            let i = table1(n, r, clat, nlat);
            let plain = UmrSchedule::solve(i).unwrap();
            let sel = UmrSchedule::solve_with_selection(i).unwrap();
            assert!(sel.predicted_makespan() <= plain.predicted_makespan() + 1e-9);
        }
    }

    #[test]
    fn rejects_bad_workload() {
        let platform = HomogeneousParams::table1(4, 1.5, 0.1, 0.1).build().unwrap();
        assert!(matches!(
            UmrInputs::from_platform(&platform, 0.0),
            Err(UmrError::InvalidWorkload { .. })
        ));
        assert!(matches!(
            UmrInputs::from_platform(&platform, f64::NAN),
            Err(UmrError::InvalidWorkload { .. })
        ));
    }

    #[test]
    fn rejects_heterogeneous_platform() {
        use dls_sim::{Platform, WorkerSpec};
        let a = WorkerSpec {
            speed: 1.0,
            bandwidth: 10.0,
            comp_latency: 0.0,
            net_latency: 0.0,
            transfer_latency: 0.0,
        };
        let mut b = a;
        b.speed = 2.0;
        let platform = Platform::new(vec![a, b]).unwrap();
        assert_eq!(
            UmrInputs::from_platform(&platform, 100.0).unwrap_err(),
            UmrError::NotHomogeneous
        );
    }

    #[test]
    fn error_display() {
        assert!(!format!("{}", UmrError::NotHomogeneous).is_empty());
        assert!(!format!("{}", UmrError::InvalidWorkload { w_total: -1.0 }).is_empty());
        assert!(!format!("{}", UmrError::NoFeasibleSchedule).is_empty());
    }
}
