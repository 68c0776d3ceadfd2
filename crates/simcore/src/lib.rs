//! Discrete-event simulator for master–worker divisible-load platforms.
//!
//! This crate is the substrate on which the RUMR paper's evaluation runs.
//! The paper built its simulator on SimGrid; this crate implements the same
//! platform model (§3.1 of the paper) from scratch:
//!
//! * a master holding all input data, sending to one worker at a time;
//! * heterogeneous workers with computation latency `cLat_i` and speed
//!   `S_i` (Eq. 1), link latency `nLat_i`, bandwidth `B_i` and pipeline
//!   latency `tLat_i` (Eq. 2);
//! * worker front ends: communication and computation overlap, received
//!   chunks queue FIFO;
//! * prediction errors: every operation's effective duration is its
//!   predicted duration divided by a random ratio `X ~ N(1, error)`
//!   (truncated positive), drawn independently per operation (§4.1).
//!
//! Scheduling algorithms implement the [`Scheduler`] trait and are driven
//! online by the [`engine`], which makes both precalculated schedules (UMR,
//! multi-installment) and reactive ones (Factoring, RUMR) first-class.
//!
//! # Example
//!
//! ```
//! use dls_sim::{simulate, Decision, ErrorInjector, ErrorModel, HomogeneousParams,
//!               Scheduler, SimConfig, SimView};
//!
//! /// Sends the whole workload to worker 0 in one chunk.
//! struct OneShot { remaining: Option<f64> }
//! impl Scheduler for OneShot {
//!     fn name(&self) -> String { "one-shot".into() }
//!     fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
//!         match self.remaining.take() {
//!             Some(chunk) => Decision::Dispatch { worker: 0, chunk },
//!             None => Decision::Finished,
//!         }
//!     }
//! }
//!
//! let platform = HomogeneousParams::table1(10, 1.5, 0.1, 0.1).build().unwrap();
//! let injector = ErrorInjector::new(ErrorModel::None, 0);
//! let result = simulate(&platform, &mut OneShot { remaining: Some(1000.0) },
//!                       injector, SimConfig::default()).unwrap();
//! assert!(result.makespan > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod columns;
pub mod engine;
pub mod error;
pub mod faults;
pub mod invariants;
pub mod jobs;
pub mod metrics;
pub mod platform;
pub mod profile;
mod queue;
pub mod scheduler;
pub mod speed;
pub mod trace;

pub use columns::RepColumns;
pub use engine::{simulate, Engine, SimConfig, SimError, SimResult, TraceMode};
pub use error::{ErrorInjector, ErrorModel, TemporalNoise};
pub use faults::{FaultAction, FaultEvent, FaultModel, FaultPlan, PoissonFaults};
pub use invariants::{
    InvariantChecker, InvariantFinding, InvariantKind, JobLedgerEntry, MultiJobChecker, WorkLedger,
};
pub use jobs::{JobSet, JobSetError, JobSpec};
pub use metrics::{EventCounts, FairnessSummary, Gap, JobMetrics, MetricsSummary, TraceMetrics};
pub use platform::{HomogeneousParams, Platform, PlatformError, WorkerSpec};
pub use profile::CostProfile;
pub use scheduler::{Decision, Scheduler, SimView, WorkerView};
pub use speed::{RealizedSpeeds, SpeedModel};
pub use trace::{LostStage, Trace, TraceEvent};
