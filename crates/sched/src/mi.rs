//! MI-x — the "multi-installment" algorithm (Bharadwaj, Ghose, Mani &
//! Robertazzi, ch. 10), the increasing-chunks competitor in the RUMR paper.
//!
//! MI divides the workload into `x` installments of `N` chunks. Its planning
//! model is *latency-free*: transfer time is `chunk/B` and computation time
//! is `chunk/S`, nothing else. Chunk sizes are determined by requiring that
//!
//! 1. **no worker idles between installments** — the computation of chunk
//!    `(j, i)` exactly covers the master's transmission of the rest of
//!    installment `j` plus installment `j+1` up to and including worker `i`:
//!
//!    ```text
//!    c(j,i)/S = [ Σ_{k>i} c(j,k) + Σ_{k≤i} c(j+1,k) ] / B
//!    ```
//!
//! 2. **all workers finish the last installment simultaneously**:
//!
//!    ```text
//!    c(x−1,i)/S = c(x−1,i+1)/B + c(x−1,i+1)/S
//!    ```
//!
//! 3. **the chunks cover the workload**: `Σ c(j,i) = W`.
//!
//! Conditions 1 and 2 are homogeneous, and each fixes one chunk from chunks
//! already known, so the `xN × xN` system solves by back-substitution in
//! O(x·N). Set `c(x−1,N−1) = 1`; the last installment is geometric,
//! `c(x−1,i) = c(x−1,i+1)·(1 + S/B)`; then, one installment back at a time
//! and from the last worker to the first,
//! `c(j,i) = (S/B)·[Σ_{k>i} c(j,k) + Σ_{k≤i} c(j+1,k)]`, the first sum a
//! running suffix of installment `j` and the second a prefix sum of
//! installment `j+1`. Condition 3 scales the result to `W`. Every term is
//! positive, so nothing cancels. Unlike UMR, MI offers no principled way to
//! choose `x` (a limitation the paper stresses), so the evaluation
//! instantiates MI-1 … MI-4. Because MI plans with zero latencies but
//! executes on a platform that has them, its simulated makespan degrades as
//! `nLat`/`cLat` grow — exactly the effect the paper reports.

use dls_sim::{Decision, Platform, Scheduler, SimView};

use crate::plan::{DispatchPlan, PlanReplayer};

/// Errors from the MI planner.
#[derive(Debug, Clone, PartialEq)]
pub enum MiError {
    /// MI's closed-form model requires a homogeneous platform.
    NotHomogeneous,
    /// Workload must be finite and strictly positive.
    InvalidWorkload {
        /// The offending value.
        w_total: f64,
    },
    /// `x` must be at least 1.
    ZeroInstallments,
    /// Some chunk of the exact MI-`x` plan, scaled to the workload, lies
    /// outside f64's normal range (it overflows, or is subnormal or zero).
    /// MI's model bounds neither `x` nor the spread of its chunks, so this
    /// is the planner's only refusal of a valid input; fewer installments
    /// are never substituted.
    Infeasible {
        /// The installment count that failed.
        installments: usize,
    },
}

impl std::fmt::Display for MiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiError::NotHomogeneous => write!(f, "MI requires a homogeneous platform"),
            MiError::InvalidWorkload { w_total } => write!(f, "invalid workload {w_total}"),
            MiError::ZeroInstallments => write!(f, "installment count must be >= 1"),
            MiError::Infeasible { installments } => {
                write!(f, "MI-{installments} is infeasible on this platform")
            }
        }
    }
}

impl std::error::Error for MiError {}

/// A positive number `m·2^e` with `m` in [1, 2): f64's significand and
/// rounding under an exponent that cannot overflow. Before they are scaled
/// to `W`, MI's chunks can span more than f64's range, so the walk runs in
/// this type; while its values stay in range it rounds bit for bit as f64.
#[derive(Debug, Clone, Copy)]
struct Wide {
    m: f64,
    e: i64,
}

const SIGNIFICAND: u64 = (1 << 52) - 1;

/// Two normal f64 values differ by less than this power of two.
const NORMAL_SPAN: i64 = 2046;

impl Wide {
    /// `v·2^e`, for finite `v > 0`.
    fn new(v: f64, e: i64) -> Wide {
        let (v, e) = if v.is_normal() {
            (v, e)
        } else {
            (v * 2f64.powi(64), e - 64)
        };
        let bits = v.to_bits();
        Wide {
            m: f64::from_bits(bits & SIGNIFICAND | 1f64.to_bits()),
            e: e + (bits >> 52) as i64 - 1023,
        }
    }

    fn add(self, other: Wide) -> Wide {
        let (hi, lo) = if self.e >= other.e {
            (self, other)
        } else {
            (other, self)
        };
        // Shifted more than 60 places, `lo` is below half an ulp of `hi`.
        let shift = hi.e - lo.e;
        let lo_m = if shift > 60 {
            0.0
        } else {
            lo.m * f64::from_bits(((1023 - shift) as u64) << 52)
        };
        Wide::new(hi.m + lo_m, hi.e)
    }

    fn mul(self, other: Wide) -> Wide {
        Wide::new(self.m * other.m, self.e + other.e)
    }

    fn div(self, other: Wide) -> Wide {
        Wide::new(self.m / other.m, self.e - other.e)
    }

    /// The value as an f64, if that is a normal number.
    fn normal(self) -> Option<f64> {
        (-1022..=1023).contains(&self.e).then(|| {
            f64::from_bits(self.m.to_bits() & SIGNIFICAND | ((self.e + 1023) as u64) << 52)
        })
    }
}

/// Walk MI's conditions back from `c(x−1, N−1) = 1` (module doc), handing
/// each installment to `emit`, the last one first, and return the sum of
/// all chunks. `None` once two chunks differ by more than f64's normal
/// range, which no scaling can bring into it, or when `emit` refuses.
fn walk(
    n: usize,
    x: usize,
    s_over_b: Wide,
    mut emit: impl FnMut(usize, &[Wide]) -> Option<()>,
) -> Option<Wide> {
    let one = Wide::new(1.0, 0);
    let grow = one.add(s_over_b);
    let mut chunks = vec![one; n];
    for i in (0..n - 1).rev() {
        chunks[i] = chunks[i + 1].mul(grow);
    }
    let mut prefix = chunks.clone();
    let mut total: Option<Wide> = None;
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for j in (0..x).rev() {
        if j + 1 < x {
            chunks[n - 1] = s_over_b.mul(prefix[n - 1]);
            let mut suffix = chunks[n - 1];
            for i in (0..n - 1).rev() {
                chunks[i] = s_over_b.mul(suffix.add(prefix[i]));
                suffix = suffix.add(chunks[i]);
            }
        }
        for c in &chunks {
            lo = lo.min(c.e);
            hi = hi.max(c.e);
        }
        if hi - lo > NORMAL_SPAN {
            return None;
        }
        emit(j, &chunks)?;
        prefix[0] = chunks[0];
        for i in 1..n {
            prefix[i] = prefix[i - 1].add(chunks[i]);
        }
        total = Some(total.map_or(prefix[n - 1], |t| t.add(prefix[n - 1])));
    }
    total
}

/// A solved multi-installment schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MiSchedule {
    n: usize,
    installments: usize,
    /// `chunks[j][i]`: chunk for worker `i` in installment `j`.
    chunks: Vec<Vec<f64>>,
    predicted_makespan: f64,
}

impl MiSchedule {
    /// Plan MI-`x` for a homogeneous platform by back-substitution (module
    /// doc): O(x·N) time, and at most `8·x·N` bytes for the chunks.
    ///
    /// # Errors
    ///
    /// See [`MiError`]; in particular [`MiError::Infeasible`] when some
    /// chunk of the exact plan is not a normal f64.
    pub fn solve(platform: &Platform, w_total: f64, installments: usize) -> Result<Self, MiError> {
        if !platform.is_homogeneous() {
            return Err(MiError::NotHomogeneous);
        }
        if !w_total.is_finite() || w_total <= 0.0 {
            return Err(MiError::InvalidWorkload { w_total });
        }
        if installments == 0 {
            return Err(MiError::ZeroInstallments);
        }
        let n = platform.num_workers();
        let s = platform.worker(0).speed;
        let b = platform.worker(0).bandwidth;
        let x = installments;
        let infeasible = || MiError::Infeasible { installments: x };
        let s_over_b = Wide::new(s, 0).div(Wide::new(b, 0));

        // The first walk finds the scale; the second writes the chunks and
        // stops at the first one outside f64's normal range.
        let total = walk(n, x, s_over_b, |_, _| Some(())).ok_or_else(infeasible)?;
        let scale = Wide::new(w_total, 0).div(total);
        let mut chunks = vec![Vec::new(); x];
        walk(n, x, s_over_b, |j, installment| {
            chunks[j] = installment
                .iter()
                .map(|c| c.mul(scale).normal())
                .collect::<Option<_>>()?;
            Some(())
        })
        .ok_or_else(infeasible)?;

        // Under the latency-free model worker 0 receives its first chunk at
        // c(0,0)/B and computes continuously; all workers finish together.
        let predicted_makespan =
            chunks[0][0] / b + chunks.iter().map(|round| round[0] / s).sum::<f64>();

        Ok(MiSchedule {
            n,
            installments: x,
            chunks,
            predicted_makespan,
        })
    }

    /// Number of installments planned.
    pub fn installments(&self) -> usize {
        self.installments
    }

    /// Chunk matrix: `chunks()[j][i]` for installment `j`, worker `i`.
    pub fn chunks(&self) -> &[Vec<f64>] {
        &self.chunks
    }

    /// Predicted makespan under MI's own latency-free model.
    pub fn predicted_makespan(&self) -> f64 {
        self.predicted_makespan
    }

    /// Dispatch plan: installments in order, workers `0..n` within each.
    pub fn plan(&self) -> DispatchPlan {
        let mut sends = Vec::with_capacity(self.installments * self.n);
        for round in &self.chunks {
            for (worker, &chunk) in round.iter().enumerate() {
                sends.push((worker, chunk));
            }
        }
        DispatchPlan { sends }
    }
}

/// The MI-x scheduler: eager replay of the installment plan.
#[derive(Debug, Clone)]
pub struct MultiInstallment {
    replayer: PlanReplayer,
    schedule: MiSchedule,
}

impl MultiInstallment {
    /// Plan and wrap MI-`installments`.
    pub fn new(platform: &Platform, w_total: f64, installments: usize) -> Result<Self, MiError> {
        let schedule = MiSchedule::solve(platform, w_total, installments)?;
        Ok(MultiInstallment {
            replayer: PlanReplayer::new(schedule.plan()),
            schedule,
        })
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &MiSchedule {
        &self.schedule
    }
}

impl Scheduler for MultiInstallment {
    fn name(&self) -> String {
        format!("MI-{}", self.schedule.installments)
    }

    fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
        self.replayer.next_decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::{
        simulate, ErrorInjector, ErrorModel, HomogeneousParams, Platform, SimConfig, WorkerSpec,
    };

    fn latency_free(n: usize, s: f64, b: f64) -> Platform {
        Platform::homogeneous(
            n,
            WorkerSpec {
                speed: s,
                bandwidth: b,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn mi1_is_geometric() {
        // Single installment: c_{i+1} = c_i · B/(B+S).
        let p = latency_free(4, 1.0, 3.0);
        let s = MiSchedule::solve(&p, 100.0, 1).unwrap();
        let c = &s.chunks()[0];
        let q = 3.0 / (3.0 + 1.0);
        for i in 0..3 {
            assert!(
                (c[i + 1] - c[i] * q).abs() < 1e-9,
                "geometric ratio violated: {c:?}"
            );
        }
        let total: f64 = c.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn chunks_positive_and_conserved_on_table1_grid() {
        for n in [10usize, 20, 50] {
            for r in [1.2, 1.6, 2.0] {
                for x in 1..=4 {
                    let p = HomogeneousParams::table1(n, r, 0.0, 0.0).build().unwrap();
                    let s = MiSchedule::solve(&p, 1000.0, x)
                        .unwrap_or_else(|e| panic!("n={n} r={r} x={x}: {e}"));
                    let total: f64 = s.chunks().iter().flatten().sum();
                    assert!((total - 1000.0).abs() < 1e-6, "n={n} r={r} x={x}");
                    assert!((s.plan().total_work() - 1000.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn simulated_matches_predicted_on_latency_free_platform() {
        // MI's model is exact when latencies are truly zero: the simulated
        // makespan must equal the planner's prediction.
        for x in 1..=4 {
            let p = latency_free(6, 1.0, 9.0);
            let mut mi = MultiInstallment::new(&p, 500.0, x).unwrap();
            let predicted = mi.schedule().predicted_makespan();
            let r = simulate(
                &p,
                &mut mi,
                ErrorInjector::new(ErrorModel::None, 0),
                SimConfig {
                    trace_mode: dls_sim::TraceMode::Full,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                (r.makespan - predicted).abs() < 1e-6 * predicted,
                "x={x}: sim {} vs predicted {}",
                r.makespan,
                predicted
            );
            assert!(r.trace.unwrap().validate(6).is_empty());
        }
    }

    #[test]
    fn more_installments_help_without_latency() {
        // With zero latencies, more installments always shorten the predicted
        // makespan (better pipeline startup).
        let p = latency_free(8, 1.0, 12.0);
        let mut prev = f64::INFINITY;
        for x in 1..=4 {
            let s = MiSchedule::solve(&p, 1000.0, x).unwrap();
            assert!(
                s.predicted_makespan() < prev,
                "x={x} did not improve: {} vs {}",
                s.predicted_makespan(),
                prev
            );
            prev = s.predicted_makespan();
        }
    }

    #[test]
    fn latency_hurts_simulated_mi() {
        // The same plan executed on a platform with latencies takes longer
        // than MI predicted — the core weakness the paper exploits.
        let with_lat = HomogeneousParams::table1(10, 1.5, 0.5, 0.5)
            .build()
            .unwrap();
        let mut mi = MultiInstallment::new(&with_lat, 1000.0, 3).unwrap();
        let predicted = mi.schedule().predicted_makespan();
        let r = simulate(
            &with_lat,
            &mut mi,
            ErrorInjector::new(ErrorModel::None, 0),
            SimConfig::default(),
        )
        .unwrap();
        assert!(
            r.makespan > predicted + 1.0,
            "sim {} should exceed latency-free prediction {}",
            r.makespan,
            predicted
        );
    }

    #[test]
    fn wide_rounds_as_f64_in_range() {
        let values = [1.0, 3.0, 0.1, 7.5e-3, 1e-300, 2.5e300, 123.456, 1.0 / 3.0];
        for &a in &values {
            for &b in &values {
                let (wa, wb) = (Wide::new(a, 0), Wide::new(b, 0));
                for (wide, exact) in [
                    (wa.add(wb), a + b),
                    (wa.mul(wb), a * b),
                    (wa.div(wb), a / b),
                ] {
                    if exact.is_normal() {
                        assert_eq!(wide.normal(), Some(exact), "{a} {b}");
                    } else {
                        assert_eq!(wide.normal(), None, "{a} {b}");
                    }
                }
            }
        }
        // A subnormal input keeps its value.
        let tiny = Wide::new(5e-324, 0).mul(Wide::new(1e300, 0));
        assert_eq!(tiny.normal(), Some(5e-324 * 1e300));
    }

    #[test]
    fn chunks_spanning_more_than_f64_before_scaling_still_solve() {
        // One installment on 300 workers at S/B = 10: chunks fall by 11×
        // per worker, a span of 1e311, so an f64 walk from c = 1 overflows
        // though every scaled chunk (down to ~4e-303) is a normal number.
        let p = latency_free(300, 10.0, 1.0);
        let s = MiSchedule::solve(&p, 1e9, 1).unwrap();
        let c = &s.chunks()[0];
        for i in 0..299 {
            assert!(c[i + 1].is_normal());
            assert!((c[i] / c[i + 1] - 11.0).abs() < 1e-12, "worker {i}");
        }
        let total: f64 = c.iter().sum();
        assert!((total - 1e9).abs() < 1e-12 * 1e9);
    }

    #[test]
    fn mi_x_means_x_installments_or_a_refusal() {
        // Tiny S/B: MI-5's smallest chunks are ~1e-14 units (W = 1000),
        // small but normal.
        let p = latency_free(10, 1.0, 1e4);
        assert_eq!(MiSchedule::solve(&p, 1000.0, 5).unwrap().installments(), 5);
        // S/B = 10 on 50 workers: MI-6's smallest exact chunk is subnormal.
        let fast_compute = latency_free(50, 10.0, 1.0);
        assert_eq!(
            MiSchedule::solve(&fast_compute, 1000.0, 6),
            Err(MiError::Infeasible { installments: 6 })
        );
        // The installments shrink geometrically going back, so the walk
        // stops once its chunks span more than f64's range.
        let table1 = HomogeneousParams::table1(50, 1.5, 0.0, 0.0)
            .build()
            .unwrap();
        assert_eq!(
            MultiInstallment::new(&table1, 1000.0, 100_000).err(),
            Some(MiError::Infeasible {
                installments: 100_000
            })
        );
    }

    #[test]
    fn input_validation() {
        let p = latency_free(4, 1.0, 4.0);
        assert!(matches!(
            MiSchedule::solve(&p, -5.0, 2),
            Err(MiError::InvalidWorkload { .. })
        ));
        assert!(matches!(
            MiSchedule::solve(&p, 100.0, 0),
            Err(MiError::ZeroInstallments)
        ));

        let mut w2 = *p.worker(0);
        w2.speed = 9.0;
        let het = Platform::new(vec![*p.worker(0), w2]).unwrap();
        assert!(matches!(
            MiSchedule::solve(&het, 100.0, 2),
            Err(MiError::NotHomogeneous)
        ));
    }

    #[test]
    fn scheduler_name_reflects_installments() {
        let p = latency_free(4, 1.0, 4.0);
        let mi = MultiInstallment::new(&p, 100.0, 3).unwrap();
        assert_eq!(mi.name(), format!("MI-{}", mi.schedule().installments()));
    }

    #[test]
    fn error_display() {
        for e in [
            MiError::NotHomogeneous,
            MiError::InvalidWorkload { w_total: -1.0 },
            MiError::ZeroInstallments,
            MiError::Infeasible { installments: 3 },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
