//! Numerical substrate for the divisible-load scheduling suite.
//!
//! The RUMR paper's algorithms need a small amount of numerical machinery:
//!
//! * **Root finding** ([`roots`]): the UMR round-count optimization is a
//!   one-dimensional root-finding problem ("solved numerically by bisection"
//!   in the paper). We provide bisection and Brent's method.
//! * **Distributions** ([`dist`]): the paper's prediction-error model is a
//!   truncated normal on the predicted/effective-time ratio. `rand` only
//!   gives us uniform bits, so Box–Muller normal sampling, truncation, and a
//!   matched-variance uniform alternative are implemented here.
//! * **Statistics** ([`stats`]): Welford online mean/variance, quantiles and
//!   summary types used by the experiment harness.
//! * **Deterministic seeding** ([`rng`]): SplitMix64-based seed derivation so
//!   each (configuration, repetition) pair gets an independent, reproducible
//!   RNG stream.
//!
//! Everything is implemented from scratch (no linear-algebra or statistics
//! dependencies) and unit/property tested.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod rng;
pub mod roots;
pub mod stats;

pub use dist::{MatchedUniform, NoError, Normal, Perturbation, TruncatedNormal};
pub use rng::{seed_for, SeedDeriver};
pub use roots::{bisect, brent, RootError};
pub use stats::{quantile, OnlineStats, Summary};
