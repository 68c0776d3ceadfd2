//! `dls-serve` — scheduling as a service.
//!
//! A std-only (no registry dependencies, `std::net` sockets, hand-rolled
//! JSON via [`dls_experiments::json`]) multi-threaded HTTP/1.1 service that
//! turns the planner/DES stack into an online resource-allocation decision
//! service. Endpoints:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /plan` | platform + workload + scheduler → chunk schedule + oracle prediction |
//! | `POST /simulate` | one full DES run (optional faults/recovery) → metrics + audit findings |
//! | `GET /metrics` | Prometheus text: request counts/latencies, cache counters, engine-slot runs, queue depth |
//! | `GET /healthz` | liveness probe |
//!
//! Internals: a blocking acceptor feeds a bounded connection queue
//! (backpressure: 503 + `Retry-After` when full; accept failures are
//! counted and retried with backoff), a fixed worker-thread pool serves
//! persistent HTTP/1.1 connections (keep-alive with in-order pipelining —
//! see [`http`]) and runs the engine itself, an LRU plan cache keyed by
//! the canonicalized request (a hit answers without running the planner),
//! a `/simulate` response cache keyed by the canonical request body
//! (sound because responses are byte-deterministic in it), and engine
//! slots that bound how many `/simulate` engine runs happen at once. The
//! service consumes only the unified [`rumr::RunSpec`] API. See
//! `docs/SERVICE.md` for the wire schema.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod http;
pub mod metrics;
pub mod server;
mod shard;
mod sync;

pub use api::{ApiError, PlanRequest, SimulateRequest};
pub use cache::{CachedPlan, LruCache, PlanCache, SimCache};
pub use metrics::Metrics;
pub use server::{Server, ServerConfig};
