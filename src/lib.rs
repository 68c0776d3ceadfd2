//! Facade crate for the divisible-workload scheduling suite.
//!
//! This package exists to host the repository-level `examples/` and `tests/`
//! directories; the actual functionality lives in the workspace crates and is
//! re-exported here for convenience:
//!
//! * [`rumr`] — high-level public API (platform specs, scheduler selection,
//!   simulation entry points) and the RUMR algorithm itself.
//! * [`dls_sim`] — the discrete-event master–worker simulator.
//! * [`dls_sched`] — all scheduling algorithms (UMR, RUMR, MI-x, Factoring,
//!   FSC, static baselines).
//! * [`dls_numerics`] — numerical substrate (root finding, distributions,
//!   statistics).
//! * [`dls_workloads`] — synthetic application workload generators.
//! * [`dls_experiments`] — the paper-reproduction sweep harness.

pub use dls_experiments as experiments;
pub use dls_numerics as numerics;
pub use dls_sched as sched;
pub use dls_sim as sim;
pub use dls_workloads as workloads;
pub use rumr;
