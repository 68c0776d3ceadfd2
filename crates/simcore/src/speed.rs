//! Declared-vs-realized worker speeds (speed-robust scheduling extension).
//!
//! The RUMR paper perturbs *operation durations* with i.i.d. noise but
//! still trusts the platform description: planners and engine agree on
//! every `S_i` and `B_i`. Speed-robust scheduling (Minařík & Sgall 2024)
//! studies the harder regime where a schedule is committed against
//! *declared* rates and the *realized* rates are revealed only at
//! execution time. This module implements that revelation step:
//!
//! * a [`SpeedModel`] describes how realized rates derive from declared
//!   ones — identity ([`SpeedModel::Declared`]), i.i.d. multiplicative
//!   noise ([`SpeedModel::Stochastic`]), a random subset of workers
//!   under-delivering ([`SpeedModel::Sandbagged`]), or a deterministic
//!   worst-case-within-budget adversary ([`SpeedModel::Adversarial`]);
//! * [`SpeedModel::realize`] materializes per-worker compute and link
//!   factors, deterministically from the model's own seed (one fixed
//!   realization per configuration, like [`crate::PoissonFaults`] — reps
//!   vary the *error* seed, not the revealed machine);
//! * the engine multiplies realized factors into its effective compute
//!   and transfer rates at dispatch time, while schedulers keep planning
//!   on the declared [`crate::Platform`].
//!
//! With [`SpeedModel::Declared`] (the default) every path in the engine is
//! dormant: no RNG draws, no event reordering — results stay bit-identical
//! to a build without this module (the pinned golden traces enforce it).

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::platform::{Platform, PlatformError, WorkerSpec};

/// Floor applied to every realized factor so rates stay strictly positive
/// (a zero rate would stall the simulation rather than model a slow
/// machine).
pub const MIN_FACTOR: f64 = 1e-3;

/// How realized worker rates derive from the declared [`Platform`].
///
/// Factors are *multiplicative on rates*: a compute factor `f` turns a
/// declared speed `S_i` into a realized `f · S_i` (so `f < 1` means the
/// machine under-delivers), and likewise for link bandwidth. Latencies are
/// unchanged — they are contractual protocol costs, not rates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SpeedModel {
    /// Realized == declared (the paper's trusting regime; default). The
    /// engine applies no factors, draws no randomness, and produces
    /// bit-identical results to a build without the speed subsystem.
    #[default]
    Declared,
    /// Every worker's compute and link rates are independently scaled by
    /// a uniform factor in `[1 − spread, 1 + spread]`, drawn once per
    /// worker from `seed` (SplitMix-decorrelated per worker, like the
    /// fault process). `spread` must lie in `[0, 1)`.
    Stochastic {
        /// Half-width of the uniform factor interval.
        spread: f64,
        /// Seed of the revelation (independent of run/error seeds).
        seed: u64,
    },
    /// A seeded random subset of `ceil(fraction · N)` workers delivers
    /// only `1/slowdown` of its declared compute rate ("sandbagging":
    /// machines that overstated their benchmark). Links are honest.
    Sandbagged {
        /// Fraction of workers that under-deliver, in `[0, 1]`.
        fraction: f64,
        /// Declared-to-realized compute ratio of a sandbagger (≥ 1).
        slowdown: f64,
        /// Seed selecting which workers sandbag.
        seed: u64,
    },
    /// Deterministic worst case within a budget: the `ceil(fraction · N)`
    /// workers with the *highest declared speed* (ties broken toward the
    /// lower index) deliver `1/slowdown` of both their declared compute
    /// and link rates. Hitting the fastest machines maximizes the damage
    /// a fixed `(fraction, slowdown)` budget can do to a plan that loaded
    /// them proportionally to declared speed. No randomness.
    Adversarial {
        /// Fraction of workers the adversary may degrade, in `[0, 1]`.
        fraction: f64,
        /// Degradation applied to each chosen worker (≥ 1).
        slowdown: f64,
    },
}

impl SpeedModel {
    /// True when realized rates can differ from declared ones. Gates every
    /// engine change, exactly like [`crate::FaultModel::is_active`].
    #[inline]
    pub fn is_active(&self) -> bool {
        !matches!(self, SpeedModel::Declared)
    }

    /// Check the parameters: `spread` in `[0, 1)`, `fraction` in
    /// `[0, 1]`, `slowdown` finite and at least 1.
    /// [`crate::Engine::new`] (through [`crate::SimConfig::validate`]) and
    /// [`Self::realize`] panic with this message; the CLI parser refuses
    /// the model.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a message.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SpeedModel::Declared => Ok(()),
            SpeedModel::Stochastic { spread, .. } => {
                if spread.is_finite() && (0.0..1.0).contains(&spread) {
                    Ok(())
                } else {
                    Err(format!(
                        "stochastic speed spread must lie in [0, 1), got {spread}"
                    ))
                }
            }
            SpeedModel::Sandbagged {
                fraction, slowdown, ..
            }
            | SpeedModel::Adversarial { fraction, slowdown } => {
                if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
                    Err(format!(
                        "speed-model fraction must lie in [0, 1], got {fraction}"
                    ))
                } else if !(slowdown.is_finite() && slowdown >= 1.0) {
                    Err(format!("speed-model slowdown must be >= 1, got {slowdown}"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Materialize the per-worker realized factors for `workers`.
    ///
    /// Deterministic: the same model over the same platform always reveals
    /// the same machine. Returns `None` for [`SpeedModel::Declared`] so
    /// the engine can gate on `Option` exactly like the fault injector.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::validate`]'s message on a parameter out of
    /// range.
    pub fn realize(&self, workers: &[WorkerSpec]) -> Option<RealizedSpeeds> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = workers.len();
        match *self {
            SpeedModel::Declared => None,
            SpeedModel::Stochastic { spread, seed } => {
                let mut compute = Vec::with_capacity(n);
                let mut link = Vec::with_capacity(n);
                for w in 0..n {
                    // One independent stream per worker; SplitMix-style
                    // mixing decorrelates consecutive seeds (same idiom as
                    // the Poisson fault process).
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut draw = || {
                        let u: f64 = rng.gen();
                        (1.0 - spread + 2.0 * spread * u).max(MIN_FACTOR)
                    };
                    compute.push(draw());
                    link.push(draw());
                }
                Some(RealizedSpeeds { compute, link })
            }
            SpeedModel::Sandbagged {
                fraction,
                slowdown,
                seed,
            } => {
                let mut compute = vec![1.0; n];
                let link = vec![1.0; n];
                let k = budget_count(fraction, n);
                // Partial Fisher–Yates: the first k slots of a seeded
                // shuffle are a uniform k-subset.
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                for i in 0..k.min(n.saturating_sub(1)) {
                    let j = rng.gen_range(i..n);
                    order.swap(i, j);
                }
                for &w in order.iter().take(k) {
                    compute[w] = (1.0 / slowdown).max(MIN_FACTOR);
                }
                Some(RealizedSpeeds { compute, link })
            }
            SpeedModel::Adversarial { fraction, slowdown } => {
                let mut compute = vec![1.0; n];
                let mut link = vec![1.0; n];
                let k = budget_count(fraction, n);
                let mut by_speed: Vec<usize> = (0..n).collect();
                // Highest declared speed first; ties toward the lower
                // index (sort_by is stable).
                by_speed.sort_by(|&a, &b| {
                    workers[b]
                        .speed
                        .partial_cmp(&workers[a].speed)
                        .expect("platform speeds are finite")
                });
                let factor = (1.0 / slowdown).max(MIN_FACTOR);
                for &w in by_speed.iter().take(k) {
                    compute[w] = factor;
                    link[w] = factor;
                }
                Some(RealizedSpeeds { compute, link })
            }
        }
    }

    /// The platform a clairvoyant scheduler would plan on: declared specs
    /// with realized rates substituted in (latencies unchanged).
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformError`] from re-validation; unreachable for
    /// factors ≥ [`MIN_FACTOR`] over a valid platform.
    pub fn realized_platform(&self, platform: &Platform) -> Result<Platform, PlatformError> {
        match self.realize(platform.workers()) {
            None => Ok(platform.clone()),
            Some(realized) => {
                let workers = platform
                    .workers()
                    .iter()
                    .enumerate()
                    .map(|(w, spec)| WorkerSpec {
                        speed: spec.speed * realized.compute[w],
                        bandwidth: spec.bandwidth * realized.link[w],
                        ..*spec
                    })
                    .collect();
                Platform::new(workers)
            }
        }
    }

    /// Stable label for tables and reports.
    pub fn label(&self) -> String {
        match *self {
            SpeedModel::Declared => "declared".into(),
            SpeedModel::Stochastic { spread, seed } => {
                format!("stochastic(spread={spread},seed={seed})")
            }
            SpeedModel::Sandbagged {
                fraction,
                slowdown,
                seed,
            } => format!("sandbag(fraction={fraction},slowdown={slowdown},seed={seed})"),
            SpeedModel::Adversarial { fraction, slowdown } => {
                format!("adversarial(fraction={fraction},slowdown={slowdown})")
            }
        }
    }

    /// Parse a CLI spec:
    ///
    /// * `declared` (or `identity`)
    /// * `stochastic:SPREAD[:SEED]`
    /// * `sandbag:FRACTION:SLOWDOWN[:SEED]`
    /// * `adversarial:FRACTION:SLOWDOWN`
    ///
    /// Omitted seeds default to 0. Returns `None` on malformed input.
    pub fn parse(s: &str) -> Option<SpeedModel> {
        let mut parts = s.split(':');
        let head = parts.next()?;
        let nums: Vec<&str> = parts.collect();
        let f = |i: usize| nums.get(i).and_then(|t| t.parse::<f64>().ok());
        let u = |i: usize| nums.get(i).and_then(|t| t.parse::<u64>().ok());
        let model = match head {
            "declared" | "identity" if nums.is_empty() => SpeedModel::Declared,
            "stochastic" if nums.len() <= 2 => SpeedModel::Stochastic {
                spread: f(0)?,
                seed: if nums.len() > 1 { u(1)? } else { 0 },
            },
            "sandbag" if (2..=3).contains(&nums.len()) => SpeedModel::Sandbagged {
                fraction: f(0)?,
                slowdown: f(1)?,
                seed: if nums.len() > 2 { u(2)? } else { 0 },
            },
            "adversarial" if nums.len() == 2 => SpeedModel::Adversarial {
                fraction: f(0)?,
                slowdown: f(1)?,
            },
            _ => return None,
        };
        // Reject out-of-range parameters here (Option, not panic): CLI
        // input is untrusted.
        model.validate().is_ok().then_some(model)
    }
}

/// How many workers a `fraction` budget covers: `ceil(fraction · n)`,
/// clamped to `n`.
fn budget_count(fraction: f64, n: usize) -> usize {
    ((fraction * n as f64).ceil() as usize).min(n)
}

/// The materialized revelation: per-worker multiplicative factors on the
/// declared compute and link rates.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedSpeeds {
    /// Realized/declared compute-rate ratio per worker.
    pub compute: Vec<f64>,
    /// Realized/declared link-rate ratio per worker.
    pub link: Vec<f64>,
}

impl RealizedSpeeds {
    /// `(compute, link)` factor pair of one worker.
    #[inline]
    pub fn factors(&self, worker: usize) -> (f64, f64) {
        (self.compute[worker], self.link[worker])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::HomogeneousParams;

    fn specs(n: usize) -> Vec<WorkerSpec> {
        (0..n)
            .map(|i| WorkerSpec {
                speed: 1.0 + i as f64,
                bandwidth: 10.0,
                comp_latency: 0.1,
                net_latency: 0.1,
                transfer_latency: 0.0,
            })
            .collect()
    }

    #[test]
    fn declared_is_inactive_and_realizes_none() {
        let m = SpeedModel::Declared;
        assert!(!m.is_active());
        assert!(m.realize(&specs(4)).is_none());
    }

    #[test]
    fn stochastic_is_deterministic_and_bounded() {
        let m = SpeedModel::Stochastic {
            spread: 0.4,
            seed: 7,
        };
        let a = m.realize(&specs(8)).unwrap();
        let b = m.realize(&specs(8)).unwrap();
        assert_eq!(a, b, "same seed must reveal the same machine");
        for w in 0..8 {
            let (c, l) = a.factors(w);
            assert!((0.6 - 1e-12..=1.4 + 1e-12).contains(&c), "compute {c}");
            assert!((0.6 - 1e-12..=1.4 + 1e-12).contains(&l), "link {l}");
        }
        let other = SpeedModel::Stochastic {
            spread: 0.4,
            seed: 8,
        }
        .realize(&specs(8))
        .unwrap();
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn sandbag_hits_exactly_the_budgeted_count() {
        let m = SpeedModel::Sandbagged {
            fraction: 0.3,
            slowdown: 2.0,
            seed: 3,
        };
        let r = m.realize(&specs(10)).unwrap();
        let slowed = r.compute.iter().filter(|&&f| f < 1.0).count();
        assert_eq!(slowed, 3, "ceil(0.3 * 10)");
        assert!(r
            .compute
            .iter()
            .all(|&f| f == 1.0 || (f - 0.5).abs() < 1e-12));
        assert!(r.link.iter().all(|&f| f == 1.0), "sandbag links are honest");
        assert_eq!(r, m.realize(&specs(10)).unwrap());
    }

    #[test]
    fn adversary_targets_fastest_workers() {
        let m = SpeedModel::Adversarial {
            fraction: 0.25,
            slowdown: 4.0,
        };
        // specs(8): speeds 1..8, fastest are workers 7 and 6.
        let r = m.realize(&specs(8)).unwrap();
        for w in 0..8 {
            let expect = if w >= 6 { 0.25 } else { 1.0 };
            assert!((r.compute[w] - expect).abs() < 1e-12, "worker {w}");
            assert!((r.link[w] - expect).abs() < 1e-12, "worker {w}");
        }
    }

    #[test]
    fn adversary_ties_break_toward_lower_index() {
        let m = SpeedModel::Adversarial {
            fraction: 0.5,
            slowdown: 2.0,
        };
        let specs = vec![
            WorkerSpec {
                speed: 1.0,
                bandwidth: 5.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            };
            4
        ];
        let r = m.realize(&specs).unwrap();
        assert_eq!(r.compute, vec![0.5, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn realized_platform_scales_rates_only() {
        let platform = HomogeneousParams::table1(4, 1.5, 0.2, 0.3).build().unwrap();
        let m = SpeedModel::Adversarial {
            fraction: 0.5,
            slowdown: 2.0,
        };
        let realized = m.realized_platform(&platform).unwrap();
        assert_eq!(realized.num_workers(), 4);
        // Homogeneous speeds tie; workers 0 and 1 take the hit.
        assert!((realized.worker(0).speed - 0.5).abs() < 1e-12);
        assert!((realized.worker(0).bandwidth - 3.0).abs() < 1e-12);
        assert!((realized.worker(3).speed - 1.0).abs() < 1e-12);
        assert_eq!(realized.worker(0).comp_latency, 0.2);
        assert_eq!(realized.worker(0).net_latency, 0.3);
        // Identity model clones the platform.
        assert_eq!(
            SpeedModel::Declared.realized_platform(&platform).unwrap(),
            platform
        );
    }

    #[test]
    fn parse_round_trips_the_profiles() {
        assert_eq!(SpeedModel::parse("declared"), Some(SpeedModel::Declared));
        assert_eq!(SpeedModel::parse("identity"), Some(SpeedModel::Declared));
        assert_eq!(
            SpeedModel::parse("stochastic:0.3"),
            Some(SpeedModel::Stochastic {
                spread: 0.3,
                seed: 0
            })
        );
        assert_eq!(
            SpeedModel::parse("stochastic:0.3:42"),
            Some(SpeedModel::Stochastic {
                spread: 0.3,
                seed: 42
            })
        );
        assert_eq!(
            SpeedModel::parse("sandbag:0.25:2.0:9"),
            Some(SpeedModel::Sandbagged {
                fraction: 0.25,
                slowdown: 2.0,
                seed: 9
            })
        );
        assert_eq!(
            SpeedModel::parse("adversarial:0.25:2"),
            Some(SpeedModel::Adversarial {
                fraction: 0.25,
                slowdown: 2.0
            })
        );
        for bad in [
            "",
            "nope",
            "stochastic",
            "stochastic:1.5",
            "stochastic:nan",
            "sandbag:0.5",
            "sandbag:2.0:2.0",
            "adversarial:0.5:0.5",
            "adversarial:0.5:2:extra",
            "declared:1",
        ] {
            assert_eq!(SpeedModel::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SpeedModel::Declared.label(), "declared");
        assert!(SpeedModel::Stochastic {
            spread: 0.2,
            seed: 1
        }
        .label()
        .contains("stochastic"));
    }

    #[test]
    fn factor_floor_holds() {
        let m = SpeedModel::Sandbagged {
            fraction: 1.0,
            slowdown: 1e9,
            seed: 0,
        };
        let r = m.realize(&specs(3)).unwrap();
        assert!(r.compute.iter().all(|&f| f >= MIN_FACTOR));
    }
}
