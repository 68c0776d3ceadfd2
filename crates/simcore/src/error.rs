//! Prediction-error injection (paper §4.1).
//!
//! Scheduling algorithms plan against the *predicted* costs of
//! [`crate::platform`]; the engine executes *effective* costs obtained by
//! scaling each predicted duration with an independently drawn ratio of
//! mean 1 and standard deviation `error`.
//!
//! # Model choice
//!
//! The paper states the model as "the ratio of predicted execution time to
//! effective execution time is normally distributed with mean 1 and
//! standard deviation *error*, truncated to avoid negative values" — read
//! literally, `eff = pred / X` with `X ~ N(1, error)` truncated at 0. That
//! literal form is statistically ill-behaved: with the density positive
//! near 0, `E[1/X]` diverges, so mean makespans would not converge over the
//! paper's 40 repetitions — it cannot be what produced the paper's smooth
//! averages. This crate therefore defaults to the variance-matched
//! **multiplicative** form `eff = pred · X` (identical mean and standard
//! deviation, identical behaviour to first order in `error`), and offers
//! the literal inverse form as [`ErrorModel::TruncatedNormalInverse`] with
//! a documented ratio floor. The matched-variance uniform model the paper
//! also tried ("results were essentially similar") is provided as well.

use dls_numerics::dist::{MatchedUniform, NoError, Perturbation, TruncatedNormal};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::profile::CostProfile;

/// Ratio floor used by the inverse (paper-literal) model: slowdowns are
/// capped at 20× so expectations stay finite.
pub const INVERSE_RATIO_FLOOR: f64 = 0.05;

/// Temporally correlated per-worker load noise.
///
/// The paper assumes the error distribution is *stationary and independent
/// per operation* and conjectures RUMR "should still be effective" when it
/// is not (§4.1). This model lets the suite test that conjecture: each
/// worker carries a latent log-load following an AR(1) process over its
/// successive operations,
///
/// ```text
/// l' = ρ·l + √(1 − ρ²)·σ·ξ,   ξ ~ N(0, 1)
/// ```
///
/// and every operation on the worker is scaled by `exp(l − σ²/2)`
/// (mean-one lognormal marginal of log-std `σ`). `ρ = 0` reduces to
/// independent lognormal noise; `ρ → 1` gives each worker a *persistent*
/// speed offset for the whole run — the regime where reactive rebalancing
/// should pay far more than under i.i.d. errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalNoise {
    /// Operation-to-operation correlation of a worker's log-load, in
    /// `[0, 1)`.
    pub rho: f64,
    /// Stationary standard deviation of the log-load.
    pub sigma: f64,
}

/// Which distribution the prediction ratio is drawn from and how it is
/// applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorModel {
    /// Perfect predictions (ratio always exactly 1). Equivalent to
    /// `TruncatedNormal { error: 0.0 }` but skips the RNG entirely.
    None,
    /// Default model: `eff = pred · X`, `X ~ N(1, error)` truncated
    /// positive.
    TruncatedNormal {
        /// Standard deviation of the ratio distribution.
        error: f64,
    },
    /// The paper's literal reading: `eff = pred / X`, `X ~ N(1, error)`
    /// truncated to `X > INVERSE_RATIO_FLOOR` (see module docs).
    TruncatedNormalInverse {
        /// Standard deviation of the ratio distribution.
        error: f64,
    },
    /// Matched-variance uniform: `eff = pred · X`,
    /// `X ~ U(1 − √3·error, 1 + √3·error)`.
    Uniform {
        /// Standard deviation of the ratio distribution.
        error: f64,
    },
}

impl ErrorModel {
    /// The `error` magnitude (standard deviation of the ratio), 0 for
    /// [`ErrorModel::None`].
    pub fn magnitude(&self) -> f64 {
        match *self {
            ErrorModel::None => 0.0,
            ErrorModel::TruncatedNormal { error }
            | ErrorModel::TruncatedNormalInverse { error }
            | ErrorModel::Uniform { error } => error,
        }
    }

    /// Check the model: its `error` is finite and non-negative.
    /// [`ErrorInjector::new`] panics with this message.
    ///
    /// # Errors
    ///
    /// The message for an `error` out of range.
    pub fn validate(&self) -> Result<(), String> {
        let error = self.magnitude();
        if error.is_finite() && error >= 0.0 {
            Ok(())
        } else {
            Err(format!(
                "error must be finite and non-negative, got {error}"
            ))
        }
    }
}

enum Sampler {
    None(NoError),
    Normal(TruncatedNormal),
    NormalInverse(TruncatedNormal),
    Uniform(MatchedUniform),
}

/// A seeded source of effective durations.
///
/// Communications and computations draw from the same distribution but the
/// draws are independent per operation, per the paper ("a simple prediction
/// error model both for data transfers and computations").
///
/// Optionally, a trace-driven [`CostProfile`] scales *computation* times by
/// the actual cost of the unit range a chunk covers (the paper's §6 "use
/// traces from real applications"); the distribution then models platform
/// noise on top of the data-dependence.
pub struct ErrorInjector {
    rng: StdRng,
    sampler: Sampler,
    profile: Option<CostProfile>,
    temporal: Option<TemporalState>,
}

struct TemporalState {
    noise: TemporalNoise,
    normal: dls_numerics::dist::Normal,
    /// Per-worker latent log-load, initialized lazily from the stationary
    /// distribution on first use.
    log_load: Vec<Option<f64>>,
}

impl TemporalState {
    /// Advance worker `w`'s AR(1) log-load and return its mean-one
    /// multiplicative factor.
    fn factor<R: rand::Rng + ?Sized>(&mut self, rng: &mut R, worker: usize) -> f64 {
        if worker >= self.log_load.len() {
            self.log_load.resize(worker + 1, None);
        }
        let sigma = self.noise.sigma;
        let rho = self.noise.rho;
        let xi = self.normal.sample(rng);
        let l = match self.log_load[worker] {
            Some(prev) => rho * prev + (1.0 - rho * rho).sqrt() * sigma * xi,
            None => sigma * xi, // stationary initialization
        };
        self.log_load[worker] = Some(l);
        (l - sigma * sigma / 2.0).exp()
    }
}

impl ErrorInjector {
    /// Create an injector for the given model and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics with [`ErrorModel::validate`]'s message if the model's
    /// `error` is negative or non-finite.
    pub fn new(model: ErrorModel, seed: u64) -> Self {
        model.validate().unwrap_or_else(|e| panic!("{e}"));
        let sampler = if model.magnitude() == 0.0 {
            Sampler::None(NoError)
        } else {
            match model {
                ErrorModel::None => Sampler::None(NoError),
                ErrorModel::TruncatedNormal { error } => {
                    Sampler::Normal(TruncatedNormal::from_error(error))
                }
                ErrorModel::TruncatedNormalInverse { error } => {
                    Sampler::NormalInverse(TruncatedNormal::new(1.0, error, INVERSE_RATIO_FLOOR))
                }
                ErrorModel::Uniform { error } => {
                    Sampler::Uniform(MatchedUniform::from_error(error))
                }
            }
        };
        ErrorInjector {
            rng: StdRng::seed_from_u64(seed),
            sampler,
            profile: None,
            temporal: None,
        }
    }

    /// Create an injector that additionally scales computation times by a
    /// trace-driven cost profile (see [`CostProfile`]).
    pub fn with_profile(model: ErrorModel, seed: u64, profile: CostProfile) -> Self {
        let mut injector = Self::new(model, seed);
        injector.profile = Some(profile);
        injector
    }

    /// Add temporally correlated per-worker load noise on top of the base
    /// model (see [`TemporalNoise`]).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1)` or `sigma` is negative.
    pub fn with_temporal_noise(mut self, noise: TemporalNoise) -> Self {
        assert!(
            (0.0..1.0).contains(&noise.rho),
            "rho must be in [0, 1), got {}",
            noise.rho
        );
        assert!(
            noise.sigma.is_finite() && noise.sigma >= 0.0,
            "sigma must be non-negative"
        );
        self.temporal = Some(TemporalState {
            noise,
            normal: dls_numerics::dist::Normal::new(0.0, 1.0),
            log_load: Vec::new(),
        });
        self
    }

    fn temporal_factor(&mut self, worker: usize) -> f64 {
        match &mut self.temporal {
            Some(state) => state.factor(&mut self.rng, worker),
            None => 1.0,
        }
    }

    /// Draw one multiplicative duration factor (effective / predicted).
    pub fn ratio(&mut self) -> f64 {
        match &mut self.sampler {
            Sampler::None(s) => s.sample_ratio(&mut self.rng),
            Sampler::Normal(s) => s.sample_ratio(&mut self.rng),
            Sampler::NormalInverse(s) => 1.0 / s.sample_ratio(&mut self.rng),
            Sampler::Uniform(s) => s.sample_ratio(&mut self.rng),
        }
    }

    /// Effective duration of an operation predicted to take `predicted`
    /// (no worker context: temporal noise, if any, is not applied).
    pub fn effective(&mut self, predicted: f64) -> f64 {
        predicted * self.ratio()
    }

    /// Multiplicative factor for a *communication* to `worker`: one ratio
    /// draw times the worker's temporal load factor.
    pub fn comm_factor(&mut self, worker: usize) -> f64 {
        self.ratio() * self.temporal_factor(worker)
    }

    /// Effective duration of a *computation* on `worker` over the workload
    /// units `[unit_start, unit_end)`: the prediction is scaled by the
    /// range's relative trace cost (1 without a profile), one ratio draw,
    /// and the worker's temporal load factor.
    pub fn effective_compute(
        &mut self,
        worker: usize,
        predicted: f64,
        unit_start: f64,
        unit_end: f64,
    ) -> f64 {
        let data_factor = self
            .profile
            .as_ref()
            .map(|p| p.relative_cost(unit_start, unit_end))
            .unwrap_or(1.0);
        predicted * data_factor * self.ratio() * self.temporal_factor(worker)
    }
}

impl std::fmt::Debug for ErrorInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.sampler {
            Sampler::None(_) => "none",
            Sampler::Normal(_) => "truncated-normal",
            Sampler::NormalInverse(_) => "truncated-normal-inverse",
            Sampler::Uniform(_) => "uniform",
        };
        f.debug_struct("ErrorInjector")
            .field("model", &kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_numerics::stats::OnlineStats;

    #[test]
    fn none_is_exact() {
        let mut inj = ErrorInjector::new(ErrorModel::None, 1);
        for _ in 0..100 {
            assert_eq!(inj.effective(3.5), 3.5);
        }
    }

    #[test]
    fn zero_error_collapses_to_none() {
        let mut a = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.0 }, 1);
        let mut b = ErrorInjector::new(ErrorModel::Uniform { error: 0.0 }, 1);
        let mut c = ErrorInjector::new(ErrorModel::TruncatedNormalInverse { error: 0.0 }, 1);
        assert_eq!(a.effective(2.0), 2.0);
        assert_eq!(b.effective(2.0), 2.0);
        assert_eq!(c.effective(2.0), 2.0);
    }

    #[test]
    fn normal_ratio_statistics() {
        let mut inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.2 }, 42);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(inj.ratio());
        }
        assert!((stats.mean() - 1.0).abs() < 0.01);
        assert!((stats.std_dev() - 0.2).abs() < 0.01);
        assert!(stats.min() > 0.0);
    }

    #[test]
    fn uniform_ratio_statistics() {
        let mut inj = ErrorInjector::new(ErrorModel::Uniform { error: 0.2 }, 42);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(inj.ratio());
        }
        assert!((stats.mean() - 1.0).abs() < 0.01);
        assert!((stats.std_dev() - 0.2).abs() < 0.01);
    }

    #[test]
    fn inverse_model_bounded_slowdown() {
        let mut inj = ErrorInjector::new(ErrorModel::TruncatedNormalInverse { error: 0.5 }, 42);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            let r = inj.ratio();
            assert!(r > 0.0 && r <= 1.0 / INVERSE_RATIO_FLOOR + 1e-9);
            stats.push(r);
        }
        // Jensen: E[1/X] > 1 for a non-degenerate X with mean 1.
        assert!(stats.mean() > 1.0);
    }

    #[test]
    fn effective_durations_positive() {
        for model in [
            ErrorModel::TruncatedNormal { error: 0.5 },
            ErrorModel::TruncatedNormalInverse { error: 0.5 },
            ErrorModel::Uniform { error: 0.5 },
        ] {
            let mut inj = ErrorInjector::new(model, 7);
            for _ in 0..10_000 {
                let d = inj.effective(1.0);
                assert!(d > 0.0 && d.is_finite());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 99);
        let mut b = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 99);
        for _ in 0..100 {
            assert_eq!(a.ratio(), b.ratio());
        }
        let mut c = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 100);
        let first_a = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 99).ratio();
        assert_ne!(first_a, c.ratio());
    }

    #[test]
    fn temporal_noise_mean_one_marginal() {
        let mut inj = ErrorInjector::new(ErrorModel::None, 3).with_temporal_noise(TemporalNoise {
            rho: 0.0,
            sigma: 0.3,
        });
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(inj.comm_factor(0));
        }
        assert!(
            (stats.mean() - 1.0).abs() < 0.02,
            "lognormal load must be mean-one: {}",
            stats.mean()
        );
        assert!(stats.min() > 0.0);
    }

    #[test]
    fn temporal_noise_persists_at_high_rho() {
        // With rho ~ 1, consecutive factors on one worker barely move, while
        // different workers differ.
        let mut inj = ErrorInjector::new(ErrorModel::None, 9).with_temporal_noise(TemporalNoise {
            rho: 0.999,
            sigma: 0.5,
        });
        let a1 = inj.comm_factor(0);
        let a2 = inj.comm_factor(0);
        let b1 = inj.comm_factor(1);
        assert!(
            (a1.ln() - a2.ln()).abs() < 0.15,
            "consecutive factors should persist: {a1} vs {a2}"
        );
        // Workers are initialized independently: very likely distinct.
        assert!((a1 - b1).abs() > 1e-6);
    }

    #[test]
    fn temporal_noise_composes_with_base_model() {
        let mut inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.2 }, 5)
            .with_temporal_noise(TemporalNoise {
                rho: 0.5,
                sigma: 0.2,
            });
        for w in 0..4 {
            let d = inj.effective_compute(w, 10.0, 0.0, 5.0);
            assert!(d > 0.0 && d.is_finite());
        }
    }

    #[test]
    fn no_temporal_noise_means_factor_one_baseline() {
        let mut inj = ErrorInjector::new(ErrorModel::None, 1);
        assert_eq!(inj.comm_factor(3), 1.0);
        assert_eq!(inj.effective_compute(3, 7.0, 0.0, 1.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn temporal_noise_rejects_bad_rho() {
        let _ = ErrorInjector::new(ErrorModel::None, 1).with_temporal_noise(TemporalNoise {
            rho: 1.0,
            sigma: 0.1,
        });
    }

    #[test]
    fn magnitude_accessor() {
        assert_eq!(ErrorModel::None.magnitude(), 0.0);
        assert_eq!(ErrorModel::TruncatedNormal { error: 0.3 }.magnitude(), 0.3);
        assert_eq!(
            ErrorModel::TruncatedNormalInverse { error: 0.2 }.magnitude(),
            0.2
        );
        assert_eq!(ErrorModel::Uniform { error: 0.1 }.magnitude(), 0.1);
    }
}
