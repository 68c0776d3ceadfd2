//! The discrete-event simulation engine.
//!
//! Implements the platform semantics of §3.1 of the RUMR paper:
//!
//! * the master sends one chunk at a time (default); a transfer occupies
//!   the master's interface for `nLat + chunk/B` (perturbed), then the
//!   chunk spends `tLat` (perturbed by the same draw) in flight before
//!   arriving;
//! * workers have a front end: they receive while computing, and buffer
//!   received chunks in FIFO order;
//! * computing a chunk takes `cLat + chunk/S` (perturbed, one independent
//!   draw per chunk).
//!
//! # Concurrent transfers (extension)
//!
//! The paper notes that "it could be beneficial to allow for simultaneous
//! transfers for better throughput in some cases (e.g. WANs)" and leaves
//! the study to future work. [`SimConfig::max_concurrent_sends`] enables
//! that mode: up to `k` transfers may be in flight, each paying its own
//! `nLat` setup concurrently, with the data phases sharing the master's
//! optional uplink capacity by max-min fairness (each stream additionally
//! capped by its own link rate `B_i`). `k = 1` reproduces the paper's
//! serial model exactly.
//!
//! The engine drives a [`Scheduler`] as described in [`crate::scheduler`]
//! and produces a [`SimResult`] (makespan, per-worker accounting, and
//! optionally a full [`Trace`]).

//! # Fault injection (extension)
//!
//! [`SimConfig::faults`] subjects the platform to worker crashes,
//! recoveries, and transient link failures (see [`crate::faults`]). The
//! engine keeps a per-chunk *work ledger* so that every dispatched unit of
//! workload is provably either completed, lost to a fault, or still
//! outstanding — [`SimResult::conservation_residual`] exposes the identity.
//! With `FaultModel::None` (the default) every fault path is dormant and
//! results are bit-identical to a fault-free build.

use std::collections::VecDeque;
use std::fmt;

use crate::columns::RepColumns;
use crate::error::ErrorInjector;
use crate::faults::{FaultAction, FaultInjector, FaultModel};
use crate::invariants::{InvariantChecker, InvariantFinding, WorkLedger};
use crate::metrics::{EventCounts, MetricsSummary};
use crate::platform::Platform;
use crate::queue::EventQueue;
use crate::scheduler::{Decision, Scheduler, SimView, WorkerView};
use crate::speed::{RealizedSpeeds, SpeedModel};
use crate::trace::{LostStage, Trace, TraceEvent};

/// How much per-run observability the engine records.
///
/// The paper's sweeps run millions of simulations and only consume
/// makespans, so everything beyond the plain [`SimResult`] accounting is
/// opt-in. Modes are strictly ordered by cost:
///
/// * [`TraceMode::Off`] — no trace, no summary. The hot path allocates
///   nothing per event.
/// * [`TraceMode::MetricsOnly`] — maintains an incremental
///   [`MetricsSummary`] (event counts, master-link busy time, per-worker
///   idle gaps) without storing any events.
/// * [`TraceMode::Full`] — additionally records every event into a
///   [`Trace`] for validation, Gantt charts, and
///   [`crate::metrics::TraceMetrics`].
///
/// All three modes produce bit-identical makespans, per-worker accounting,
/// and conservation-ledger totals (the equivalence property suite pins
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No per-event recording at all (default; fastest).
    #[default]
    Off,
    /// Aggregate [`MetricsSummary`] only; no event storage.
    MetricsOnly,
    /// Aggregate summary plus the full [`Trace`].
    Full,
}

impl TraceMode {
    /// True when an incremental [`MetricsSummary`] is maintained.
    #[inline]
    pub fn records_summary(self) -> bool {
        !matches!(self, TraceMode::Off)
    }

    /// True when a full [`Trace`] is recorded.
    #[inline]
    pub fn records_trace(self) -> bool {
        matches!(self, TraceMode::Full)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Observability level of the run (off by default: the paper's sweeps
    /// run millions of simulations). See [`TraceMode`].
    pub trace_mode: TraceMode,
    /// Safety valve against runaway schedulers: the simulation aborts with
    /// [`SimError::EventLimitExceeded`] after this many events.
    pub max_events: u64,
    /// Maximum simultaneous master transfers. `1` (default) is the paper's
    /// serial-sends model.
    pub max_concurrent_sends: usize,
    /// Master uplink capacity in workload units/s, shared max-min among
    /// concurrent data transfers. `None` leaves only the per-link rates
    /// `B_i` binding (independent network paths). Irrelevant when
    /// `max_concurrent_sends == 1`.
    pub uplink_capacity: Option<f64>,
    /// Output-data extension: after computing a chunk, the worker returns
    /// `chunk · output_ratio` units of results to the master over the same
    /// interface (returns compete with input sends for the send slots and
    /// the uplink, and are drained with priority). `0` (default) is the
    /// paper's input-only model. The makespan then includes result
    /// collection.
    pub output_ratio: f64,
    /// Fault model applied during the run (worker crashes / recoveries /
    /// link drops). [`FaultModel::None`] (default) is the paper's reliable
    /// platform and leaves results bit-identical to a fault-free build.
    pub faults: FaultModel,
    /// Run the streaming [`InvariantChecker`] alongside the simulation and
    /// return its findings in [`SimResult::audit`]. Works in every trace
    /// mode (the checker consumes events as they are emitted, no stored
    /// trace needed). `false` (default): zero overhead, `audit` is `None`.
    pub audit: bool,
    /// Declared-vs-realized speed revelation (see [`crate::speed`]). The
    /// engine executes at the realized rates while schedulers keep seeing
    /// the declared [`Platform`]. [`SpeedModel::Declared`] (default) is the
    /// paper's trusting regime and leaves results bit-identical to a build
    /// without the speed subsystem.
    pub speeds: SpeedModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace_mode: TraceMode::Off,
            max_events: 50_000_000,
            max_concurrent_sends: 1,
            uplink_capacity: None,
            output_ratio: 0.0,
            faults: FaultModel::None,
            audit: false,
            speeds: SpeedModel::default(),
        }
    }
}

impl SimConfig {
    /// Default configuration with full trace recording — the common setup
    /// for validation tests and debugging.
    pub fn traced() -> Self {
        SimConfig {
            trace_mode: TraceMode::Full,
            ..Default::default()
        }
    }

    /// Check every rule the engine holds a configuration to: at least one
    /// send slot, a finite positive uplink capacity, a finite non-negative
    /// output ratio, and valid Poisson-fault and speed-model parameters
    /// ([`PoissonFaults::validate`](crate::PoissonFaults::validate),
    /// [`SpeedModel::validate`]). [`Engine::new`] panics with this message;
    /// a caller holding outside input checks it first.
    ///
    /// # Errors
    ///
    /// The first rule the configuration breaks, as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_concurrent_sends == 0 {
            return Err("need at least one send slot".into());
        }
        if !self
            .uplink_capacity
            .is_none_or(|c| c.is_finite() && c > 0.0)
        {
            return Err("uplink capacity must be positive".into());
        }
        if !(self.output_ratio.is_finite() && self.output_ratio >= 0.0) {
            return Err("output ratio must be non-negative".into());
        }
        if let FaultModel::Poisson(p) = &self.faults {
            p.validate()?;
        }
        self.speeds.validate()
    }
}

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The scheduler returned `Wait` but no event is pending, so time can
    /// never advance again. Always a scheduler bug.
    Deadlock {
        /// Simulation time at which the deadlock was detected.
        time: f64,
    },
    /// The scheduler dispatched to a nonexistent worker or with a
    /// non-finite / non-positive chunk size.
    InvalidDispatch {
        /// Target worker of the offending dispatch.
        worker: usize,
        /// Chunk size of the offending dispatch.
        chunk: f64,
    },
    /// `SimConfig::max_events` was exceeded.
    EventLimitExceeded,
    /// The scheduler returned `WaitUntil` with a non-finite or negative
    /// wake-up time. Always a scheduler bug.
    InvalidTimer {
        /// The offending wake-up time.
        time: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { time } => {
                write!(
                    f,
                    "scheduler deadlock: waiting with no pending events at t = {time}"
                )
            }
            SimError::InvalidDispatch { worker, chunk } => {
                write!(f, "invalid dispatch: worker {worker}, chunk {chunk}")
            }
            SimError::EventLimitExceeded => write!(f, "event limit exceeded"),
            SimError::InvalidTimer { time } => {
                write!(
                    f,
                    "invalid timer: wake-up time {time} is not a finite non-negative number"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Application makespan in seconds (time of the last computation end).
    pub makespan: f64,
    /// Total number of chunks dispatched.
    pub num_chunks: usize,
    /// Total workload units dispatched.
    pub dispatched_work: f64,
    /// Total output units returned to the master (0 unless
    /// `SimConfig::output_ratio` is set).
    pub returned_work: f64,
    /// Per-worker workload units completed.
    pub per_worker_work: Vec<f64>,
    /// Per-worker total computing time (seconds).
    pub per_worker_busy: Vec<f64>,
    /// Workload units destroyed by faults (summed over every loss: a
    /// redispatched chunk that is lost again counts again). 0 on a
    /// fault-free run.
    pub lost_work: f64,
    /// Number of chunk-loss events.
    pub lost_chunks: usize,
    /// Workload units re-sent via `Decision::Redispatch` (a subset of
    /// `dispatched_work`).
    pub redispatched_work: f64,
    /// Workload units dispatched but neither completed nor lost when the
    /// run ended. 0 for a run that terminated normally; non-zero only when
    /// the fault-mode engine gave up on unreachable work.
    pub outstanding_work: f64,
    /// Unit ranges `(first_unit, length)` lost to faults and never
    /// redispatched — the part of the workload a non-recovering scheduler
    /// simply dropped. Empty when every loss was re-sent.
    pub lost_ranges: Vec<(f64, f64)>,
    /// Number of discrete events the engine processed — the denominator of
    /// the benchmark harness's ns/event metric.
    pub events: u64,
    /// Incremental run metrics when the trace mode was
    /// [`TraceMode::MetricsOnly`] or [`TraceMode::Full`].
    pub metrics: Option<MetricsSummary>,
    /// Full event trace when the trace mode was [`TraceMode::Full`].
    pub trace: Option<Trace>,
    /// Streaming invariant findings when [`SimConfig::audit`] was set
    /// (`Some(vec![])` = audited and clean); `None` when auditing was off.
    pub audit: Option<Vec<InvariantFinding>>,
}

impl SimResult {
    /// Total completed workload across workers.
    pub fn completed_work(&self) -> f64 {
        self.per_worker_work.iter().sum()
    }

    /// Work-conservation residual of the run's ledger:
    /// `dispatched − (completed + lost + outstanding)`. Always ≈ 0 (up to
    /// floating-point accumulation); the engine debug-asserts this before
    /// returning.
    pub fn conservation_residual(&self) -> f64 {
        self.dispatched_work - (self.completed_work() + self.lost_work + self.outstanding_work)
    }

    /// Mean worker utilization: busy time / makespan, averaged over workers.
    pub fn mean_utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.per_worker_busy.is_empty() {
            return 0.0;
        }
        let total: f64 = self.per_worker_busy.iter().sum();
        total / (self.makespan * self.per_worker_busy.len() as f64)
    }
}

/// A pending event. Chunk events carry only the chunk's ledger id; the
/// [`ChunkRecord`] holds the rest, so a queue entry stays small.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A transfer's fixed `nLat` setup completed; its data phase joins the
    /// shared pool. `id` indexes the work ledger, or the return table for
    /// an output return (output-data extension).
    SetupDone { id: usize, is_return: bool },
    /// Progress checkpoint for the transfer pool; stale epochs are ignored.
    PoolCheck { epoch: u64 },
    /// The chunk's last byte reached its worker.
    Arrival { id: usize },
    /// The chunk's computation finished.
    ComputeEnd { id: usize },
    /// A fault strikes (fault-injection extension). The next fault is
    /// queued into the event queue only when this one fires, so the fault-free
    /// path allocates no event sequence numbers to faults.
    Fault { worker: usize, action: FaultAction },
    /// Scheduler-requested wake-up from [`Decision::WaitUntil`]
    /// (multi-load extension). Only emitted when a scheduler actually
    /// returns `WaitUntil`, so single-load runs consume no event sequence
    /// numbers for timers and remain bit-identical.
    Timer,
}

// A queue entry is an event plus its 16-byte `(time, seq)` key: 32 bytes.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Lifecycle of one dispatched chunk in the work ledger. The state machine
/// doubles as stale-event invalidation: an `Arrival` or `ComputeEnd` whose
/// chunk is already [`ChunkState::Lost`] is ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChunkState {
    /// Occupying a send slot: `nLat` setup or the shared data phase.
    Sending,
    /// Fully pushed; spending `tLat` in flight.
    InFlight,
    /// Arrived; waiting in the worker's FIFO queue.
    Queued,
    /// Being computed.
    Computing,
    /// Computation finished.
    Completed,
    /// Destroyed by a fault.
    Lost,
}

impl ChunkState {
    /// Still holds workload units that are neither completed nor lost.
    fn is_outstanding(self) -> bool {
        matches!(
            self,
            ChunkState::Sending | ChunkState::InFlight | ChunkState::Queued | ChunkState::Computing
        )
    }
}

/// One dispatched chunk's ledger record.
#[derive(Debug, Clone, Copy)]
struct ChunkRecord {
    worker: usize,
    size: f64,
    /// First workload unit of the chunk (for trace-driven profiles).
    unit_start: f64,
    /// Effective link rate `B_i / comm_factor` of its transfer.
    link_rate: f64,
    /// Perturbed `tLat` still to elapse after the last byte is pushed.
    fly_time: f64,
    state: ChunkState,
}

/// A transfer in its data phase, sharing the master's uplink.
#[derive(Debug, Clone, Copy)]
struct PoolTransfer {
    remaining: f64,
    link_rate: f64,
    /// Currently assigned rate (recomputed whenever the pool changes).
    rate: f64,
    /// False for master→worker input sends, true for worker→master output
    /// returns (output-data extension).
    is_return: bool,
    /// Ledger id, or return-table index for an output return.
    id: usize,
}

/// Transfers with less than this much data left are considered complete
/// (guards against floating-point residue in the progress integration).
const POOL_EPS: f64 = 1e-9;

/// The simulation engine. Construct with [`Engine::new`], run with
/// [`Engine::run`].
///
/// For repeated runs over the same platform (sweeps, benchmarks), keep one
/// engine alive and alternate [`Engine::reset`] / [`Engine::run_reusing`]:
/// every internal buffer — event queue, work ledger, worker queues, transfer
/// pool — retains its allocation across runs, so steady-state repetitions
/// allocate almost nothing.
pub struct Engine<'a> {
    platform: &'a Platform,
    injector: ErrorInjector,
    config: SimConfig,
    queue: EventQueue<Event>,
    seq: u64,
    now: f64,
    /// Transfers in flight (setup or data phase).
    sending: usize,
    /// Data-phase transfers sharing the uplink.
    pool: Vec<PoolTransfer>,
    pool_epoch: u64,
    pool_updated: f64,
    /// Per-worker live state; every scheduler consultation borrows it
    /// as `SimView::workers`, so it is never copied.
    views: Vec<WorkerView>,
    /// Per-worker received chunks awaiting computation, by ledger id.
    queues: Vec<VecDeque<usize>>,
    trace: Trace,
    num_chunks: usize,
    dispatched_work: f64,
    per_worker_busy: Vec<f64>,
    events_processed: u64,
    /// Next undispatched workload unit (chunks are carved sequentially).
    next_unit: f64,
    /// Output returns awaiting a free send slot (output-data extension).
    return_queue: VecDeque<(usize, f64)>,
    /// Started output returns, indexed by their `SetupDone` id: (worker,
    /// units, effective link rate).
    returns: Vec<(usize, f64, f64)>,
    /// Total output units returned to the master.
    returned_work: f64,
    /// Work ledger: one record per dispatched chunk, indexed by chunk id.
    ledger: Vec<ChunkRecord>,
    /// Remaining faults, fed into the event queue one at a time.
    fault_injector: FaultInjector,
    /// True when `config.faults` can produce faults; gates every semantic
    /// change relative to the fault-free engine.
    fault_mode: bool,
    /// Realized speed factors, `Some` only when `config.speeds` is active;
    /// gates every semantic change relative to the declared-rate engine.
    /// Fixed per configuration (the revelation is part of the machine, not
    /// of a repetition), so `reset` leaves it untouched.
    speeds: Option<RealizedSpeeds>,
    /// Per-worker current computation: (ledger id, scheduled end time).
    /// Needed to refund pre-credited busy time when a crash kills the
    /// computation.
    current_compute: Vec<Option<(usize, f64)>>,
    /// Lost unit ranges `(first_unit, length)` awaiting redispatch, FIFO.
    /// Exactly adjacent ranges are coalesced on insert, so a burst of
    /// losses from one fault occupies one entry instead of one per chunk.
    lost_units: VecDeque<(f64, f64)>,
    /// Reused scratch for `apply_fault`'s doomed-chunk scan (a fresh `Vec`
    /// per fault used to dominate the fault path's allocations).
    doomed_buf: Vec<usize>,
    /// Reused scratch for `recompute_pool_rates`'s unassigned streams.
    unassigned_buf: Vec<usize>,
    lost_work: f64,
    lost_chunks: usize,
    redispatched_work: f64,
    /// Chunks in an outstanding ledger state (dispatched, not yet completed
    /// or lost).
    outstanding_chunks: usize,
    /// True after `run_reusing` consumed this engine's state; cleared by
    /// `reset`.
    used: bool,
    /// Trace events generated (whether or not they were stored).
    trace_events: u64,
    /// Master-interface busy time (any transfer active) and the instant the
    /// interface last became busy.
    link_busy: f64,
    link_busy_since: f64,
    /// Per-worker end time of the last completed computation (`NAN` before
    /// the first), for incremental gap accounting.
    last_compute_end: Vec<f64>,
    /// Per-worker idle time between consecutive computations.
    gap_time: Vec<f64>,
    num_gaps: usize,
    /// Per-event-type counters, maintained when the trace mode records a
    /// summary.
    counts: EventCounts,
    /// Streaming invariant checker, present when `config.audit` is set.
    checker: Option<InvariantChecker>,
    /// Wake-up times of [`Event::Timer`]s currently in the queue
    /// ([`Decision::WaitUntil`]). Used to dedupe repeated `WaitUntil`
    /// requests and to terminate the run without letting a stale timer
    /// stretch the makespan. Tiny (at most one per pending job release),
    /// so a linear scan beats a heap.
    pending_timers: Vec<f64>,
}

impl<'a> Engine<'a> {
    /// Create an engine over `platform` with the given error injector.
    ///
    /// # Panics
    ///
    /// Panics with [`SimConfig::validate`]'s message if `config` breaks
    /// one of its rules.
    pub fn new(platform: &'a Platform, injector: ErrorInjector, config: SimConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = platform.num_workers();
        let fault_injector = FaultInjector::new(&config.faults, n);
        let fault_mode = config.faults.is_active();
        let speeds = config.speeds.realize(platform.workers());
        // Pre-size the hot collections from the platform shape: a run
        // typically keeps a handful of events per worker pending (one
        // transfer chain plus one computation each), and dispatches at
        // least a few chunks per worker. Reuse via `reset` then holds the
        // high-water capacity across repetitions.
        let event_capacity = 32 + 4 * n;
        let queue = EventQueue::with_capacity(event_capacity);
        let checker = config
            .audit
            .then(|| InvariantChecker::new(n, config.max_concurrent_sends));
        Engine {
            platform,
            injector,
            config,
            queue,
            seq: 0,
            now: 0.0,
            sending: 0,
            pool: Vec::new(),
            pool_epoch: 0,
            pool_updated: 0.0,
            views: vec![WorkerView::default(); n],
            queues: vec![VecDeque::new(); n],
            trace: Trace::new(),
            num_chunks: 0,
            dispatched_work: 0.0,
            per_worker_busy: vec![0.0; n],
            events_processed: 0,
            next_unit: 0.0,
            return_queue: VecDeque::new(),
            returns: Vec::new(),
            returned_work: 0.0,
            ledger: Vec::with_capacity(event_capacity),
            fault_injector,
            fault_mode,
            speeds,
            current_compute: vec![None; n],
            lost_units: VecDeque::new(),
            doomed_buf: Vec::new(),
            unassigned_buf: Vec::new(),
            lost_work: 0.0,
            lost_chunks: 0,
            redispatched_work: 0.0,
            outstanding_chunks: 0,
            used: false,
            trace_events: 0,
            link_busy: 0.0,
            link_busy_since: 0.0,
            last_compute_end: vec![f64::NAN; n],
            gap_time: vec![0.0; n],
            num_gaps: 0,
            counts: EventCounts::default(),
            checker,
            pending_timers: Vec::new(),
        }
    }

    /// Restore the engine to its just-constructed state for another run,
    /// keeping every buffer's allocation. `injector` replaces the previous
    /// run's error injector (each repetition uses a fresh seed); the fault
    /// injector rewinds to the start of its materialized sequence (the
    /// fault model is part of the engine's fixed configuration, so the
    /// sequence is identical every repetition and need not be regenerated).
    pub fn reset(&mut self, injector: ErrorInjector) {
        let n = self.platform.num_workers();
        self.injector = injector;
        self.queue.clear();
        self.seq = 0;
        self.now = 0.0;
        self.sending = 0;
        self.pool.clear();
        self.pool_epoch = 0;
        self.pool_updated = 0.0;
        self.views.fill(WorkerView::default());
        for q in &mut self.queues {
            q.clear();
        }
        self.trace = Trace::new();
        self.num_chunks = 0;
        self.dispatched_work = 0.0;
        self.per_worker_busy.clear();
        self.per_worker_busy.resize(n, 0.0);
        self.events_processed = 0;
        self.next_unit = 0.0;
        self.return_queue.clear();
        self.returns.clear();
        self.returned_work = 0.0;
        self.ledger.clear();
        self.fault_injector.rewind();
        self.current_compute.clear();
        self.current_compute.resize(n, None);
        self.lost_units.clear();
        self.lost_work = 0.0;
        self.lost_chunks = 0;
        self.redispatched_work = 0.0;
        self.outstanding_chunks = 0;
        self.used = false;
        self.trace_events = 0;
        self.link_busy = 0.0;
        self.link_busy_since = 0.0;
        self.last_compute_end.clear();
        self.last_compute_end.resize(n, f64::NAN);
        self.gap_time.clear();
        self.gap_time.resize(n, 0.0);
        self.num_gaps = 0;
        self.counts = EventCounts::default();
        if let Some(c) = &mut self.checker {
            c.reset();
        }
        self.pending_timers.clear();
    }

    /// Debug probe: the pending-event queue's allocated capacity (see
    /// `EventQueue::capacity_probe`). Reuse tests assert this stops
    /// growing across `reset`/`run_reusing` repetitions.
    #[doc(hidden)]
    pub fn debug_queue_capacity(&self) -> usize {
        self.queue.capacity_probe()
    }

    fn schedule(&mut self, time: f64, event: Event) {
        debug_assert!(time.is_finite() && time >= self.now - 1e-9);
        self.queue.push(time.max(self.now), self.seq, event);
        self.seq += 1;
        // The queue is deepest right after a push.
        if self.config.trace_mode.records_summary() {
            let pending = self.queue.len() as u64;
            self.counts.peak_pending = self.counts.peak_pending.max(pending);
        }
    }

    fn record(&mut self, e: TraceEvent) {
        self.trace_events += 1;
        if self.config.trace_mode.records_summary() {
            self.counts.count(&e);
        }
        if let Some(c) = &mut self.checker {
            c.observe(&e);
        }
        if self.config.trace_mode.records_trace() {
            self.trace.push(e);
        }
    }

    /// A transfer started occupying the master's interface. Tracks the
    /// interface's busy time across the 0↔non-zero transitions.
    #[inline]
    fn inc_sending(&mut self) {
        if self.sending == 0 {
            self.link_busy_since = self.now;
        }
        self.sending += 1;
    }

    /// A transfer released the master's interface.
    #[inline]
    fn dec_sending(&mut self) {
        self.sending -= 1;
        if self.sending == 0 {
            self.link_busy += self.now - self.link_busy_since;
        }
    }

    /// Predicted computation time of `chunk` on `worker` at *realized*
    /// rates (Eq. 1 with the revealed speed). Identical to the declared
    /// prediction when the speed model is inactive.
    #[inline]
    fn realized_comp_time(&self, worker: usize, chunk: f64) -> f64 {
        let spec = self.platform.worker(worker);
        match &self.speeds {
            Some(s) => spec.comp_latency + chunk / (spec.speed * s.compute[worker]),
            None => spec.comp_time(chunk),
        }
    }

    /// Realized link rate of `worker` (declared `B_i` when the speed model
    /// is inactive).
    #[inline]
    fn realized_bandwidth(&self, worker: usize) -> f64 {
        let spec = self.platform.worker(worker);
        match &self.speeds {
            Some(s) => spec.bandwidth * s.link[worker],
            None => spec.bandwidth,
        }
    }

    fn start_compute(&mut self, worker: usize, scheduler: &mut dyn Scheduler) {
        let Some(id) = self.queues[worker].pop_front() else {
            return;
        };
        let ChunkRecord {
            size: chunk,
            unit_start,
            ..
        } = self.ledger[id];
        let v = &mut self.views[worker];
        v.queued_chunks -= 1;
        v.queued_work -= chunk;
        v.computing = true;
        let last_end = self.last_compute_end[worker];
        if last_end.is_finite() && self.now > last_end + 1e-12 {
            self.gap_time[worker] += self.now - last_end;
            self.num_gaps += 1;
        }
        self.ledger[id].state = ChunkState::Computing;
        let predicted = self.realized_comp_time(worker, chunk);
        let effective =
            self.injector
                .effective_compute(worker, predicted, unit_start, unit_start + chunk);
        self.per_worker_busy[worker] += effective;
        self.current_compute[worker] = Some((id, self.now + effective));
        self.record(TraceEvent::ComputeStart {
            worker,
            chunk,
            time: self.now,
        });
        scheduler.on_compute_start(worker, chunk, self.now);
        self.schedule(self.now + effective, Event::ComputeEnd { id });
    }

    /// Integrate pool progress from the last update to `now`.
    fn update_pool_progress(&mut self) {
        let dt = self.now - self.pool_updated;
        if dt > 0.0 {
            for t in &mut self.pool {
                t.remaining = (t.remaining - t.rate * dt).max(0.0);
            }
        }
        self.pool_updated = self.now;
    }

    /// Max-min fair allocation of the uplink capacity across the pool,
    /// each stream capped by its own link rate.
    fn recompute_pool_rates(&mut self) {
        match self.config.uplink_capacity {
            None => {
                for t in &mut self.pool {
                    t.rate = t.link_rate;
                }
            }
            Some(capacity) => {
                let mut remaining_capacity = capacity;
                let mut unassigned = std::mem::take(&mut self.unassigned_buf);
                unassigned.clear();
                unassigned.extend(0..self.pool.len());
                // Water-filling: streams capped below the fair share get
                // their cap; the rest split what remains.
                loop {
                    if unassigned.is_empty() {
                        break;
                    }
                    let share = remaining_capacity / unassigned.len() as f64;
                    let mut progressed = false;
                    unassigned.retain(|&i| {
                        if self.pool[i].link_rate <= share {
                            self.pool[i].rate = self.pool[i].link_rate;
                            remaining_capacity -= self.pool[i].link_rate;
                            progressed = true;
                            false
                        } else {
                            true
                        }
                    });
                    if !progressed {
                        let share = remaining_capacity / unassigned.len() as f64;
                        for &i in &unassigned {
                            self.pool[i].rate = share;
                        }
                        break;
                    }
                }
                self.unassigned_buf = unassigned;
            }
        }
    }

    /// Invalidate outstanding pool checks and schedule the next one.
    fn schedule_pool_check(&mut self) {
        self.pool_epoch += 1;
        if self.pool.is_empty() {
            return;
        }
        let eta = self
            .pool
            .iter()
            .map(|t| {
                if t.rate > 0.0 {
                    t.remaining / t.rate
                } else {
                    f64::INFINITY
                }
            })
            .fold(f64::INFINITY, f64::min);
        debug_assert!(eta.is_finite(), "pool transfer with zero rate");
        let epoch = self.pool_epoch;
        self.schedule(self.now + eta, Event::PoolCheck { epoch });
    }

    /// Complete every pool transfer whose data has fully crossed the
    /// master's interface — or whose leftover residue would take less than
    /// half an ulp of `now` to send: its completion check would be queued
    /// at exactly `now`, integrate zero progress, and spin forever.
    fn drain_completed_transfers(&mut self) {
        let mut i = 0;
        while i < self.pool.len() {
            let t = &self.pool[i];
            if t.remaining <= POOL_EPS || self.now + t.remaining / t.rate <= self.now {
                let t = self.pool.remove(i);
                self.dec_sending();
                if t.is_return {
                    let (worker, bytes, _) = self.returns[t.id];
                    self.returned_work += bytes;
                    self.record(TraceEvent::ReturnEnd {
                        worker,
                        bytes,
                        time: self.now,
                    });
                } else {
                    let rec = &mut self.ledger[t.id];
                    rec.state = ChunkState::InFlight;
                    let (worker, chunk, fly_time) = (rec.worker, rec.size, rec.fly_time);
                    self.record(TraceEvent::SendEnd {
                        worker,
                        chunk,
                        time: self.now,
                    });
                    self.schedule(self.now + fly_time, Event::Arrival { id: t.id });
                }
            } else {
                i += 1;
            }
        }
    }

    /// Start queued output returns while send slots are free (returns have
    /// priority over new input dispatches: they complete the application).
    fn start_returns(&mut self) {
        while self.sending < self.config.max_concurrent_sends {
            let Some((worker, bytes)) = self.return_queue.pop_front() else {
                break;
            };
            self.inc_sending();
            let spec = self.platform.worker(worker);
            let factor = self.injector.comm_factor(worker);
            let setup = spec.net_latency * factor;
            let link_rate = self.realized_bandwidth(worker) / factor;
            self.record(TraceEvent::ReturnStart {
                worker,
                bytes,
                time: self.now,
            });
            let id = self.returns.len();
            self.returns.push((worker, bytes, link_rate));
            self.schedule(
                self.now + setup,
                Event::SetupDone {
                    id,
                    is_return: true,
                },
            );
        }
    }

    /// Let the scheduler use the free send slots. The scheduler reads the
    /// live per-worker views in place — the dispatch loop runs several
    /// times per chunk, so nothing is copied per consultation.
    fn try_dispatch(
        &mut self,
        scheduler: &mut dyn Scheduler,
        finished: &mut bool,
    ) -> Result<(), SimError> {
        while !*finished && self.sending < self.config.max_concurrent_sends {
            let decision = scheduler.next_dispatch(&SimView {
                time: self.now,
                workers: &self.views,
            });
            match decision {
                Decision::Wait => break,
                Decision::WaitUntil { time } => {
                    if !time.is_finite() || time < 0.0 {
                        return Err(SimError::InvalidTimer { time });
                    }
                    let due = time.max(self.now);
                    // A pending timer at or before `due` already
                    // guarantees the wake-up; only schedule otherwise.
                    if !self.pending_timers.iter().any(|&t| t <= due) {
                        self.pending_timers.push(due);
                        self.schedule(due, Event::Timer);
                    }
                    break;
                }
                Decision::Finished => *finished = true,
                Decision::Dispatch { worker, chunk } => {
                    self.dispatch_chunk(worker, chunk, false)?
                }
                Decision::Redispatch { worker, chunk } => {
                    self.dispatch_chunk(worker, chunk, true)?
                }
            }
        }
        Ok(())
    }

    /// Validate and start one input transfer; shared by `Dispatch` and
    /// `Redispatch`.
    fn dispatch_chunk(
        &mut self,
        worker: usize,
        chunk: f64,
        redispatch: bool,
    ) -> Result<(), SimError> {
        if worker >= self.views.len() || !chunk.is_finite() || chunk <= 0.0 {
            return Err(SimError::InvalidDispatch { worker, chunk });
        }
        self.inc_sending();
        self.num_chunks += 1;
        self.dispatched_work += chunk;
        let v = &mut self.views[worker];
        v.in_flight_chunks += 1;
        v.in_flight_work += chunk;
        v.assigned_work += chunk;

        // One perturbation draw covers the whole communication
        // operation: it stretches the setup latency, slows the
        // effective link rate, and stretches the in-flight
        // latency alike.
        let spec = self.platform.worker(worker);
        let factor = self.injector.comm_factor(worker);
        let setup = spec.net_latency * factor;
        let link_rate = self.realized_bandwidth(worker) / factor;
        let fly_time = spec.transfer_latency * factor;
        let unit_start = if redispatch {
            self.redispatched_work += chunk;
            self.record(TraceEvent::Redispatch {
                worker,
                chunk,
                time: self.now,
            });
            self.take_lost_units(chunk)
        } else {
            let u = self.next_unit;
            self.next_unit += chunk;
            u
        };
        let id = self.ledger.len();
        self.ledger.push(ChunkRecord {
            worker,
            size: chunk,
            unit_start,
            link_rate,
            fly_time,
            state: ChunkState::Sending,
        });
        self.outstanding_chunks += 1;

        self.record(TraceEvent::SendStart {
            worker,
            chunk,
            time: self.now,
        });
        self.schedule(
            self.now + setup,
            Event::SetupDone {
                id,
                is_return: false,
            },
        );
        Ok(())
    }

    /// Carve `chunk` units for a redispatch from the lost-unit pool, FIFO.
    ///
    /// Returns the first unit of the re-sent range. A redispatch no larger
    /// than the front lost range stays exactly contiguous (the common case:
    /// recovery schedulers split lost ranges, never merge them); a larger
    /// one greedily consumes several ranges and is tagged with the first —
    /// an approximation that only matters to trace-driven cost profiles.
    /// If the pool is empty (scheduler re-sent more than was lost), fresh
    /// units are carved instead.
    fn take_lost_units(&mut self, chunk: f64) -> f64 {
        let Some(&(start, len)) = self.lost_units.front() else {
            let u = self.next_unit;
            self.next_unit += chunk;
            return u;
        };
        if chunk < len - POOL_EPS {
            self.lost_units[0] = (start + chunk, len - chunk);
            return start;
        }
        self.lost_units.pop_front();
        let mut covered = len;
        while covered < chunk - POOL_EPS {
            let Some((s2, l2)) = self.lost_units.pop_front() else {
                break;
            };
            let needed = chunk - covered;
            if l2 > needed + POOL_EPS {
                self.lost_units.push_front((s2 + needed, l2 - needed));
                covered = chunk;
            } else {
                covered += l2;
            }
        }
        start
    }

    /// Destroy a dispatched chunk (fault semantics). Handles the per-state
    /// bookkeeping, marks the ledger record lost, and notifies the
    /// scheduler. Returns true when a data-phase pool transfer was removed
    /// (the caller must then recompute pool rates).
    fn lose_chunk(&mut self, id: usize, scheduler: &mut dyn Scheduler) -> bool {
        let rec = self.ledger[id];
        debug_assert!(rec.state.is_outstanding(), "losing a settled chunk");
        let worker = rec.worker;
        let mut pool_touched = false;
        match rec.state {
            ChunkState::Sending => {
                // Data phase: abort the transfer and free the slot now.
                // Setup phase: the slot stays busy until its `SetupDone`
                // fires, which sees the Lost state and frees it.
                if let Some(pos) = self.pool.iter().position(|t| !t.is_return && t.id == id) {
                    self.pool.remove(pos);
                    self.dec_sending();
                    pool_touched = true;
                }
                let v = &mut self.views[worker];
                v.in_flight_chunks -= 1;
                v.in_flight_work -= rec.size;
            }
            ChunkState::InFlight => {
                let v = &mut self.views[worker];
                v.in_flight_chunks -= 1;
                v.in_flight_work -= rec.size;
            }
            ChunkState::Queued => {
                let queue = &mut self.queues[worker];
                if let Some(pos) = queue.iter().position(|&qid| qid == id) {
                    queue.remove(pos);
                }
                let v = &mut self.views[worker];
                v.queued_chunks -= 1;
                v.queued_work -= rec.size;
            }
            ChunkState::Computing => {
                self.views[worker].computing = false;
                if let Some((cid, end)) = self.current_compute[worker].take() {
                    debug_assert_eq!(cid, id, "current-compute ledger mismatch");
                    // Refund the pre-credited busy time the worker will
                    // never spend; its stale `ComputeEnd` is ignored later.
                    self.per_worker_busy[worker] -= end - self.now;
                }
            }
            ChunkState::Completed | ChunkState::Lost => unreachable!("settled chunk"),
        }
        let stage = match rec.state {
            ChunkState::Sending => LostStage::Sending,
            ChunkState::InFlight => LostStage::InFlight,
            ChunkState::Queued => LostStage::Queued,
            ChunkState::Computing => LostStage::Computing,
            ChunkState::Completed | ChunkState::Lost => unreachable!("settled chunk"),
        };
        self.views[worker].assigned_work -= rec.size;
        self.ledger[id].state = ChunkState::Lost;
        self.outstanding_chunks -= 1;
        self.lost_work += rec.size;
        self.lost_chunks += 1;
        // Coalesce exactly adjacent ranges in place: one fault typically
        // destroys a worker's whole contiguous backlog, which would
        // otherwise enter the pool as one entry per chunk. Unit starts are
        // carved by exact f64 accumulation, so adjacency is an exact `==`.
        match self.lost_units.back_mut() {
            Some((start, len)) if *start + *len == rec.unit_start => *len += rec.size,
            _ => self.lost_units.push_back((rec.unit_start, rec.size)),
        }
        self.record(TraceEvent::ChunkLost {
            worker,
            chunk: rec.size,
            stage,
            time: self.now,
        });
        scheduler.on_chunk_lost(worker, rec.size, self.now);
        pool_touched
    }

    /// Apply one fault. Sets `*finished = false` whenever the fault may
    /// give the scheduler new work to do (losses to re-queue, a recovered
    /// worker to use), so the engine resumes consulting it.
    fn apply_fault(
        &mut self,
        worker: usize,
        action: FaultAction,
        scheduler: &mut dyn Scheduler,
        finished: &mut bool,
    ) {
        match action {
            FaultAction::Down => {
                if !self.views[worker].alive {
                    return; // already down
                }
                self.views[worker].alive = false;
                self.record(TraceEvent::WorkerDown {
                    worker,
                    time: self.now,
                });
                scheduler.on_worker_failed(worker, self.now);
                // Lost now: queued + computing chunks (the worker's memory)
                // and transfers occupying the master (setup or data phase).
                // Fly-phase chunks keep flying and die on arrival only if
                // the worker is still down then.
                let mut doomed = std::mem::take(&mut self.doomed_buf);
                doomed.clear();
                doomed.extend(self.ledger.iter().enumerate().filter_map(|(i, r)| {
                    (r.worker == worker
                        && matches!(
                            r.state,
                            ChunkState::Sending | ChunkState::Queued | ChunkState::Computing
                        ))
                    .then_some(i)
                }));
                self.destroy_chunks(&doomed, scheduler, finished);
                self.doomed_buf = doomed;
            }
            FaultAction::Up => {
                if self.views[worker].alive {
                    return; // already up
                }
                debug_assert!(self.queues[worker].is_empty(), "dead worker queue");
                self.views[worker].alive = true;
                self.record(TraceEvent::WorkerUp {
                    worker,
                    time: self.now,
                });
                scheduler.on_worker_recovered(worker, self.now);
                // The recovered worker is new capacity: re-consult the
                // scheduler even if it had declared itself finished.
                *finished = false;
            }
            FaultAction::LinkDrop => {
                // Everything currently in transit to the worker dies; its
                // queued/computing chunks already crossed the link safely.
                let mut doomed = std::mem::take(&mut self.doomed_buf);
                doomed.clear();
                doomed.extend(self.ledger.iter().enumerate().filter_map(|(i, r)| {
                    (r.worker == worker
                        && matches!(r.state, ChunkState::Sending | ChunkState::InFlight))
                    .then_some(i)
                }));
                self.destroy_chunks(&doomed, scheduler, finished);
                self.doomed_buf = doomed;
            }
        }
    }

    /// Lose a batch of chunks at the current time, fixing up the transfer
    /// pool once at the end.
    fn destroy_chunks(
        &mut self,
        ids: &[usize],
        scheduler: &mut dyn Scheduler,
        finished: &mut bool,
    ) {
        if ids.is_empty() {
            return;
        }
        self.update_pool_progress();
        let mut pool_touched = false;
        for &id in ids {
            pool_touched |= self.lose_chunk(id, scheduler);
        }
        if pool_touched {
            self.recompute_pool_rates();
            self.schedule_pool_check();
        }
        *finished = false;
    }

    /// Run the simulation to completion, consuming the engine.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(mut self, scheduler: &mut dyn Scheduler) -> Result<SimResult, SimError> {
        self.run_reusing(scheduler)
    }

    /// Run the simulation to completion without consuming the engine, so
    /// its buffers can be reused for the next run after [`Engine::reset`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    ///
    /// # Panics
    ///
    /// Panics if called again without an intervening [`Engine::reset`].
    pub fn run_reusing(&mut self, scheduler: &mut dyn Scheduler) -> Result<SimResult, SimError> {
        let outstanding_work = self.run_core(scheduler)?;
        let audit = self.finalize_audit(outstanding_work);
        let metrics = self.take_metrics();
        Ok(SimResult {
            makespan: self.now,
            num_chunks: self.num_chunks,
            dispatched_work: self.dispatched_work,
            returned_work: self.returned_work,
            per_worker_work: self.views.iter().map(|v| v.completed_work).collect(),
            per_worker_busy: std::mem::take(&mut self.per_worker_busy),
            lost_work: self.lost_work,
            lost_chunks: self.lost_chunks,
            redispatched_work: self.redispatched_work,
            outstanding_work,
            lost_ranges: self.lost_units.drain(..).collect(),
            events: self.events_processed,
            metrics,
            trace: self.take_trace(),
            audit,
        })
    }

    /// Run the simulation to completion and append the outcome to `cols`
    /// instead of building an owned [`SimResult`] — the batched-repetition
    /// primitive. Per-repetition vector fields land in the batch's reused
    /// column buffers, so a warm batch allocates nothing per repetition.
    /// Field for field, row `i` of `cols` holds exactly what the `i`-th
    /// sequential [`Engine::run_reusing`] would have returned.
    ///
    /// # Errors
    ///
    /// See [`SimError`]. On error nothing is appended.
    ///
    /// # Panics
    ///
    /// Panics if called again without an intervening [`Engine::reset`], or
    /// when `cols` already holds repetitions of a different worker count.
    pub fn run_reusing_into(
        &mut self,
        scheduler: &mut dyn Scheduler,
        cols: &mut RepColumns,
    ) -> Result<(), SimError> {
        let n = self.platform.num_workers();
        if cols.is_empty() {
            cols.num_workers = n;
            if cols.lost_offsets.is_empty() {
                cols.lost_offsets.push(0);
            }
        }
        assert_eq!(
            cols.num_workers, n,
            "column batch is for a different platform shape"
        );
        let outstanding_work = self.run_core(scheduler)?;
        let audit = self.finalize_audit(outstanding_work);
        let metrics = self.take_metrics();
        cols.makespan.push(self.now);
        cols.num_chunks.push(self.num_chunks);
        cols.dispatched_work.push(self.dispatched_work);
        cols.returned_work.push(self.returned_work);
        cols.completed_work
            .push(self.views.iter().map(|v| v.completed_work).sum());
        cols.lost_work.push(self.lost_work);
        cols.lost_chunks.push(self.lost_chunks);
        cols.redispatched_work.push(self.redispatched_work);
        cols.outstanding_work.push(outstanding_work);
        cols.events.push(self.events_processed);
        cols.per_worker_work
            .extend(self.views.iter().map(|v| v.completed_work));
        cols.per_worker_busy
            .extend_from_slice(&self.per_worker_busy);
        cols.lost_ranges.extend(self.lost_units.drain(..));
        cols.lost_offsets.push(cols.lost_ranges.len());
        cols.metrics.push(metrics);
        cols.trace.push(self.take_trace());
        cols.audit.push(audit);
        Ok(())
    }

    /// The event loop plus work-ledger close-out shared by both run
    /// tails ([`Engine::run_reusing`] / [`Engine::run_reusing_into`]).
    /// Returns the run's outstanding (dispatched but unsettled) work.
    fn run_core(&mut self, scheduler: &mut dyn Scheduler) -> Result<f64, SimError> {
        assert!(!self.used, "engine already ran; call reset() first");
        self.used = true;
        let mut finished = false;
        // Seed the first fault; each fault event enqueues its successor, so
        // exactly one is pending at a time and `FaultModel::None` consumes
        // no event sequence numbers (bit-identical fault-free runs).
        if let Some(f) = self.fault_injector.pop() {
            self.schedule(
                f.time,
                Event::Fault {
                    worker: f.worker,
                    action: f.action,
                },
            );
        }
        loop {
            // Returns first (they complete the run), then the scheduler.
            self.start_returns();
            self.try_dispatch(scheduler, &mut finished)?;

            // In fault mode, stop as soon as all work is settled: pending
            // fault events must not stretch the makespan, and with
            // crash-stop losses the queue can drain with work undone —
            // partial completion, not a scheduler deadlock. The same early
            // exit applies when scheduler timers are pending
            // (`Decision::WaitUntil`): a leftover wake-up after the last
            // real event must not stretch the makespan either.
            if (self.fault_mode || !self.pending_timers.is_empty())
                && finished
                && self.outstanding_chunks == 0
                && self.sending == 0
                && self.return_queue.is_empty()
            {
                break;
            }

            let Some((time, _seq, event)) = self.queue.pop() else {
                if finished || self.fault_mode {
                    break;
                }
                return Err(SimError::Deadlock { time: self.now });
            };
            self.events_processed += 1;
            if self.events_processed > self.config.max_events {
                return Err(SimError::EventLimitExceeded);
            }
            self.now = time;
            match event {
                Event::SetupDone { id, is_return } => {
                    let (remaining, link_rate) = if is_return {
                        let (_, bytes, link_rate) = self.returns[id];
                        (bytes, link_rate)
                    } else {
                        let rec = &self.ledger[id];
                        if rec.state == ChunkState::Lost {
                            // Destroyed during setup by a fault; the loss
                            // was accounted then — just free the send slot.
                            self.dec_sending();
                            continue;
                        }
                        (rec.size, rec.link_rate)
                    };
                    self.update_pool_progress();
                    self.pool.push(PoolTransfer {
                        remaining,
                        link_rate,
                        rate: 0.0,
                        is_return,
                        id,
                    });
                    self.recompute_pool_rates();
                    // A zero-size... chunks are > 0, but a chunk can finish
                    // instantly only with infinite rate; schedule normally.
                    self.schedule_pool_check();
                }
                Event::PoolCheck { epoch } => {
                    if epoch != self.pool_epoch {
                        continue; // Stale: the pool changed since.
                    }
                    self.update_pool_progress();
                    self.drain_completed_transfers();
                    self.recompute_pool_rates();
                    self.schedule_pool_check();
                }
                Event::Arrival { id } => {
                    let ChunkRecord {
                        worker,
                        size: chunk,
                        state,
                        ..
                    } = self.ledger[id];
                    if state != ChunkState::InFlight {
                        continue; // Destroyed mid-flight by a link drop.
                    }
                    if !self.views[worker].alive {
                        // Delivered to a crashed worker: destroyed on
                        // arrival (no Arrival is recorded — the worker
                        // never received it).
                        self.lose_chunk(id, scheduler);
                        finished = false;
                        continue;
                    }
                    self.ledger[id].state = ChunkState::Queued;
                    self.record(TraceEvent::Arrival {
                        worker,
                        chunk,
                        time: self.now,
                    });
                    let v = &mut self.views[worker];
                    v.in_flight_chunks -= 1;
                    v.in_flight_work -= chunk;
                    v.queued_chunks += 1;
                    v.queued_work += chunk;
                    self.queues[worker].push_back(id);
                    scheduler.on_arrival(worker, chunk, self.now);
                    if !self.views[worker].computing {
                        self.start_compute(worker, scheduler);
                    }
                }
                Event::ComputeEnd { id } => {
                    let ChunkRecord {
                        worker,
                        size: chunk,
                        state,
                        ..
                    } = self.ledger[id];
                    if state != ChunkState::Computing {
                        continue; // Stale: the chunk died with its worker.
                    }
                    self.ledger[id].state = ChunkState::Completed;
                    self.outstanding_chunks -= 1;
                    self.current_compute[worker] = None;
                    self.last_compute_end[worker] = self.now;
                    self.record(TraceEvent::ComputeEnd {
                        worker,
                        chunk,
                        time: self.now,
                    });
                    let v = &mut self.views[worker];
                    v.computing = false;
                    v.completed_chunks += 1;
                    v.completed_work += chunk;
                    scheduler.on_compute_end(worker, chunk, self.now);
                    if self.config.output_ratio > 0.0 {
                        self.return_queue
                            .push_back((worker, chunk * self.config.output_ratio));
                    }
                    self.start_compute(worker, scheduler);
                }
                Event::Fault { worker, action } => {
                    self.apply_fault(worker, action, scheduler, &mut finished);
                    if let Some(f) = self.fault_injector.pop() {
                        self.schedule(
                            f.time,
                            Event::Fault {
                                worker: f.worker,
                                action: f.action,
                            },
                        );
                    }
                }
                Event::Timer => {
                    // The wake-up itself is the whole effect: the loop's
                    // next iteration consults the scheduler at the new
                    // `now`. Drop the bookkeeping entry (timers pop in
                    // time order relative to each other, but earlier
                    // same-time entries may remain, so remove by value).
                    if let Some(i) = self.pending_timers.iter().position(|&t| t <= self.now) {
                        self.pending_timers.swap_remove(i);
                    }
                }
            }
        }

        let outstanding_work: f64 = self
            .ledger
            .iter()
            .filter(|r| r.state.is_outstanding())
            .map(|r| r.size)
            .sum();
        debug_assert!(
            {
                let residual = self.dispatched_work
                    - (self.views.iter().map(|v| v.completed_work).sum::<f64>()
                        + self.lost_work
                        + outstanding_work);
                residual.abs() <= 1e-6 * self.dispatched_work.abs().max(1.0)
            },
            "work-ledger conservation violated"
        );
        // Close a still-open interface-busy interval (fault-mode runs can
        // terminate while a doomed transfer nominally holds the link).
        if self.sending > 0 {
            self.link_busy += self.now - self.link_busy_since;
            self.link_busy_since = self.now;
        }
        Ok(outstanding_work)
    }

    /// Finalize the streaming invariant checker against the run's work
    /// ledger (when auditing was on).
    fn finalize_audit(&mut self, outstanding_work: f64) -> Option<Vec<InvariantFinding>> {
        let completed_work: f64 = self.views.iter().map(|v| v.completed_work).sum();
        let dispatched = self.dispatched_work;
        let lost = self.lost_work;
        self.checker.as_mut().map(|c| {
            c.finalize(WorkLedger {
                dispatched,
                completed: completed_work,
                lost,
                outstanding: outstanding_work,
            })
        })
    }

    /// Detach the run's metrics summary (when the trace mode records one).
    fn take_metrics(&mut self) -> Option<MetricsSummary> {
        self.config
            .trace_mode
            .records_summary()
            .then(|| MetricsSummary {
                trace_events: self.trace_events,
                link_busy: self.link_busy,
                per_worker_gap: std::mem::take(&mut self.gap_time),
                num_gaps: self.num_gaps,
                event_counts: std::mem::take(&mut self.counts),
                realized_speed_factors: self.speeds.as_ref().map(|s| {
                    s.compute
                        .iter()
                        .zip(&s.link)
                        .map(|(&c, &l)| (c, l))
                        .collect()
                }),
            })
    }

    /// Detach the run's full trace (when the trace mode records one).
    fn take_trace(&mut self) -> Option<Trace> {
        if self.config.trace_mode.records_trace() {
            Some(std::mem::take(&mut self.trace))
        } else {
            None
        }
    }
}

/// Convenience wrapper: build an [`Engine`] and run `scheduler` on
/// `platform` with the given injector and config.
pub fn simulate(
    platform: &Platform,
    scheduler: &mut dyn Scheduler,
    injector: ErrorInjector,
    config: SimConfig,
) -> Result<SimResult, SimError> {
    Engine::new(platform, injector, config).run(scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorModel;
    use crate::platform::{HomogeneousParams, WorkerSpec};

    /// Dispatches a fixed list of (worker, chunk) pairs eagerly.
    struct ListScheduler {
        plan: Vec<(usize, f64)>,
        next: usize,
    }

    impl ListScheduler {
        fn new(plan: Vec<(usize, f64)>) -> Self {
            ListScheduler { plan, next: 0 }
        }
    }

    impl Scheduler for ListScheduler {
        fn name(&self) -> String {
            "list".into()
        }
        fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
            if self.next >= self.plan.len() {
                return Decision::Finished;
            }
            let (worker, chunk) = self.plan[self.next];
            self.next += 1;
            Decision::Dispatch { worker, chunk }
        }
    }

    fn exact(platform: &Platform) -> ErrorInjector {
        let _ = platform;
        ErrorInjector::new(ErrorModel::None, 0)
    }

    fn traced() -> SimConfig {
        SimConfig {
            trace_mode: TraceMode::Full,
            ..Default::default()
        }
    }

    fn concurrent(k: usize, capacity: Option<f64>) -> SimConfig {
        SimConfig {
            trace_mode: TraceMode::Full,
            max_concurrent_sends: k,
            uplink_capacity: capacity,
            ..Default::default()
        }
    }

    #[test]
    fn single_worker_single_chunk() {
        // S = 2, B = 10, cLat = 0.5, nLat = 0.1, tLat = 0.05; chunk = 10.
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 2.0,
                bandwidth: 10.0,
                comp_latency: 0.5,
                net_latency: 0.1,
                transfer_latency: 0.05,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 10.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        // Send: 0.1 + 10/10 = 1.1; arrival at 1.15; compute 0.5 + 5 = 5.5.
        assert!((r.makespan - 6.65).abs() < 1e-9, "makespan {}", r.makespan);
        assert_eq!(r.num_chunks, 1);
        assert!((r.dispatched_work - 10.0).abs() < 1e-12);
        assert!(r.trace.unwrap().validate(1).is_empty());
    }

    #[test]
    fn two_chunks_pipeline_on_one_worker() {
        // Second chunk transfers while the first computes (front-end model).
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 10.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 10.0), (0, 10.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        // Send1 done at 1, compute1 [1, 11]; send2 done at 2 (overlapped),
        // compute2 [11, 21].
        assert!((r.makespan - 21.0).abs() < 1e-9, "makespan {}", r.makespan);
        let trace = r.trace.unwrap();
        assert!(trace.validate(1).is_empty());
        assert_eq!(trace.num_chunks(), 2);
    }

    #[test]
    fn sends_are_serialized_across_workers() {
        // Two workers, equal chunks: worker 1's transfer starts only after
        // worker 0's completes.
        let platform = Platform::homogeneous(
            2,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        // w0: recv at 5, compute [5, 10]; w1: recv at 10, compute [10, 15].
        assert!((r.makespan - 15.0).abs() < 1e-9);
        assert!((r.per_worker_work[0] - 5.0).abs() < 1e-12);
        assert!((r.per_worker_work[1] - 5.0).abs() < 1e-12);
        assert!(r.trace.unwrap().validate(2).is_empty());
    }

    #[test]
    fn tlat_overlaps_next_send() {
        // tLat = 10 is huge, but it must not delay the next transfer.
        let platform = Platform::homogeneous(
            2,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 10.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 1.0), (1, 1.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        // Link busy [0,1] and [1,2]; arrivals at 11 and 12; computes end at
        // 12 and 13.
        assert!((r.makespan - 13.0).abs() < 1e-9, "makespan {}", r.makespan);
        assert!(r.trace.unwrap().validate(2).is_empty());
    }

    #[test]
    fn fifo_queue_on_worker() {
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 100.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        // Three chunks arrive much faster than they compute; order preserved.
        let mut s = ListScheduler::new(vec![(0, 1.0), (0, 2.0), (0, 3.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        let trace = r.trace.unwrap();
        assert!(trace.validate(1).is_empty());
        let compute_order: Vec<f64> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ComputeStart { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect();
        assert_eq!(compute_order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn invalid_dispatch_rejected() {
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        for bad in [
            (5usize, 1.0),  // bad worker
            (0usize, 0.0),  // zero chunk
            (0usize, -1.0), // negative chunk
            (0usize, f64::NAN),
        ] {
            let mut s = ListScheduler::new(vec![bad]);
            let e =
                simulate(&platform, &mut s, exact(&platform), SimConfig::default()).unwrap_err();
            assert!(matches!(e, SimError::InvalidDispatch { .. }), "{bad:?}");
        }
    }

    #[test]
    fn waiting_forever_is_deadlock() {
        struct Waiter;
        impl Scheduler for Waiter {
            fn name(&self) -> String {
                "waiter".into()
            }
            fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
                Decision::Wait
            }
        }
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        let e = simulate(
            &platform,
            &mut Waiter,
            exact(&platform),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(e, SimError::Deadlock { .. }));
    }

    #[test]
    fn empty_schedule_is_ok() {
        struct Noop;
        impl Scheduler for Noop {
            fn name(&self) -> String {
                "noop".into()
            }
            fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
                Decision::Finished
            }
        }
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        let r = simulate(&platform, &mut Noop, exact(&platform), SimConfig::default()).unwrap();
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.num_chunks, 0);
    }

    #[test]
    fn event_limit_enforced() {
        let platform = HomogeneousParams::table1(1, 1.5, 0.0, 0.0).build().unwrap();
        let mut s = ListScheduler::new(vec![(0, 1.0); 100]);
        let cfg = SimConfig {
            max_events: 10,
            ..Default::default()
        };
        let e = simulate(&platform, &mut s, exact(&platform), cfg).unwrap_err();
        assert_eq!(e, SimError::EventLimitExceeded);
    }

    #[test]
    fn deterministic_with_errors() {
        let platform = HomogeneousParams::table1(4, 1.5, 0.2, 0.3).build().unwrap();
        let run = |seed| {
            let mut s = ListScheduler::new(vec![(0, 10.0), (1, 10.0), (2, 10.0), (3, 10.0)]);
            let inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.4 }, seed);
            simulate(&platform, &mut s, inj, SimConfig::default())
                .unwrap()
                .makespan
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn perturbed_run_still_valid() {
        let platform = HomogeneousParams::table1(3, 1.4, 0.1, 0.2).build().unwrap();
        let mut plan = Vec::new();
        for round in 0..5 {
            for w in 0..3 {
                plan.push((w, 1.0 + round as f64));
            }
        }
        let mut s = ListScheduler::new(plan);
        let inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.5 }, 99);
        let r = simulate(&platform, &mut s, inj, traced()).unwrap();
        assert!(r.trace.unwrap().validate(3).is_empty());
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn utilization_and_accounting() {
        let platform = HomogeneousParams::table1(2, 1.5, 0.0, 0.0).build().unwrap();
        let mut s = ListScheduler::new(vec![(0, 500.0), (1, 500.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), SimConfig::default()).unwrap();
        assert!((r.completed_work() - 1000.0).abs() < 1e-9);
        let u = r.mean_utilization();
        assert!(u > 0.5 && u <= 1.0, "utilization {u}");
    }

    // --- Concurrent-transfer extension ---

    #[test]
    fn concurrent_unconstrained_sends_overlap() {
        // Two workers, k = 2, no shared capacity: both transfers run at
        // their full link rates simultaneously.
        let platform = Platform::homogeneous(
            2,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), concurrent(2, None)).unwrap();
        // Both receive at t = 5 and compute [5, 10] — vs 15 serially.
        assert!((r.makespan - 10.0).abs() < 1e-9, "makespan {}", r.makespan);
        assert!(r.trace.unwrap().validate_with_concurrency(2, 2).is_empty());
    }

    #[test]
    fn concurrent_shared_capacity_is_fair() {
        // k = 2, shared capacity 1.0 = each link's rate: two equal streams
        // each get 0.5, so overlapping them buys nothing — same finish as
        // serial for the pair, but both arrive at t = 10.
        let platform = Platform::homogeneous(
            2,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let r = simulate(
            &platform,
            &mut s,
            exact(&platform),
            concurrent(2, Some(1.0)),
        )
        .unwrap();
        // Each stream at 0.5 units/s: arrivals at 10; computes [10, 15].
        assert!((r.makespan - 15.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn concurrent_max_min_respects_link_caps() {
        // Worker 0's link is slow (0.5); worker 1's is fast (4.0). With
        // capacity 2.0, max-min gives w0 its cap 0.5 and w1 the rest (1.5).
        let w0 = WorkerSpec {
            speed: 100.0,
            bandwidth: 0.5,
            comp_latency: 0.0,
            net_latency: 0.0,
            transfer_latency: 0.0,
        };
        let mut w1 = w0;
        w1.bandwidth = 4.0;
        let platform = Platform::new(vec![w0, w1]).unwrap();
        let mut s = ListScheduler::new(vec![(0, 3.0), (1, 3.0)]);
        let r = simulate(
            &platform,
            &mut s,
            exact(&platform),
            concurrent(2, Some(2.0)),
        )
        .unwrap();
        let trace = r.trace.unwrap();
        // w1 finishes its 3 units at 3/1.5 = 2.0 s; w0 at 3/0.5 = 6.0 s.
        // (After w1 completes, w0 is still capped by its link at 0.5.)
        let send_ends: Vec<(usize, f64)> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SendEnd { worker, time, .. } => Some((*worker, *time)),
                _ => None,
            })
            .collect();
        let w1_end = send_ends.iter().find(|(w, _)| *w == 1).unwrap().1;
        let w0_end = send_ends.iter().find(|(w, _)| *w == 0).unwrap().1;
        assert!((w1_end - 2.0).abs() < 1e-9, "w1 end {w1_end}");
        assert!((w0_end - 6.0).abs() < 1e-9, "w0 end {w0_end}");
    }

    #[test]
    fn concurrent_nlat_setups_overlap() {
        // The whole point of the extension: with k = N, the N·nLat serial
        // setup cost collapses to ~nLat.
        let platform = Platform::homogeneous(
            4,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 100.0,
                comp_latency: 0.0,
                net_latency: 1.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let plan: Vec<(usize, f64)> = (0..4).map(|w| (w, 10.0)).collect();
        let mut serial_s = ListScheduler::new(plan.clone());
        let serial = simulate(&platform, &mut serial_s, exact(&platform), traced()).unwrap();
        let mut conc_s = ListScheduler::new(plan);
        let conc = simulate(
            &platform,
            &mut conc_s,
            exact(&platform),
            concurrent(4, None),
        )
        .unwrap();
        // Serial: worker 3 receives after 4·(1 + 0.1) = 4.4 s; concurrent:
        // after 1.1 s.
        assert!(
            conc.makespan + 3.0 < serial.makespan + 1e-9,
            "concurrent {} vs serial {}",
            conc.makespan,
            serial.makespan
        );
    }

    #[test]
    fn concurrent_conserves_under_error() {
        let platform = HomogeneousParams::table1(5, 1.5, 0.2, 0.3).build().unwrap();
        let plan: Vec<(usize, f64)> = (0..20).map(|i| (i % 5, 50.0)).collect();
        let mut s = ListScheduler::new(plan);
        let inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.4 }, 17);
        let r = simulate(&platform, &mut s, inj, concurrent(3, Some(40.0))).unwrap();
        assert!((r.completed_work() - 1000.0).abs() < 1e-6);
        assert!(r.trace.unwrap().validate_with_concurrency(5, 3).is_empty());
    }

    #[test]
    fn serial_config_is_paper_model() {
        // k = 1 must behave exactly like the classic serial link.
        let platform = HomogeneousParams::table1(3, 1.5, 0.1, 0.2).build().unwrap();
        let plan: Vec<(usize, f64)> = (0..6).map(|i| (i % 3, 100.0)).collect();
        let mut s = ListScheduler::new(plan);
        let r = simulate(&platform, &mut s, exact(&platform), traced()).unwrap();
        // Strict serial-send validation passes.
        assert!(r.trace.unwrap().validate(3).is_empty());
    }

    // --- Output-data extension ---

    fn with_output(ratio: f64) -> SimConfig {
        SimConfig {
            trace_mode: TraceMode::Full,
            output_ratio: ratio,
            ..Default::default()
        }
    }

    #[test]
    fn output_returns_extend_the_makespan() {
        // One worker, one chunk, output ratio 0.5: after computing, 5 units
        // of results cross back over the link.
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 10.0,
                comp_latency: 0.0,
                net_latency: 0.1,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 10.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), with_output(0.5)).unwrap();
        // Input: 0.1 + 1.0 = 1.1; compute [1.1, 11.1]; return: 0.1 + 0.5.
        assert!((r.makespan - 11.7).abs() < 1e-9, "makespan {}", r.makespan);
        assert!((r.returned_work - 5.0).abs() < 1e-12);
        let trace = r.trace.unwrap();
        assert!(trace.validate(1).is_empty());
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::ReturnEnd { .. })));
    }

    #[test]
    fn returns_compete_with_input_sends() {
        // Worker 0's return must delay worker 1's second input chunk: the
        // interface is shared.
        let platform = Platform::homogeneous(
            2,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let plan = vec![(0, 2.0), (1, 2.0), (0, 2.0), (1, 2.0)];
        let mut s_no = ListScheduler::new(plan.clone());
        let no_output = simulate(&platform, &mut s_no, exact(&platform), traced()).unwrap();
        let mut s_out = ListScheduler::new(plan);
        let with_out = simulate(&platform, &mut s_out, exact(&platform), with_output(1.0)).unwrap();
        assert!(
            with_out.makespan > no_output.makespan + 1.0,
            "returns should cost link time: {} vs {}",
            with_out.makespan,
            no_output.makespan
        );
        assert!((with_out.returned_work - 8.0).abs() < 1e-9);
        assert!(with_out.trace.unwrap().validate(2).is_empty());
    }

    #[test]
    fn zero_output_ratio_matches_paper_model() {
        let platform = HomogeneousParams::table1(3, 1.5, 0.2, 0.1).build().unwrap();
        let plan: Vec<(usize, f64)> = (0..6).map(|i| (i % 3, 50.0)).collect();
        let mut a = ListScheduler::new(plan.clone());
        let ra = simulate(&platform, &mut a, exact(&platform), SimConfig::default()).unwrap();
        let mut b = ListScheduler::new(plan);
        let rb = simulate(&platform, &mut b, exact(&platform), with_output(0.0)).unwrap();
        assert_eq!(ra.makespan, rb.makespan);
        assert_eq!(rb.returned_work, 0.0);
    }

    #[test]
    fn output_with_concurrency_and_error_conserves() {
        let platform = HomogeneousParams::table1(4, 1.6, 0.2, 0.2).build().unwrap();
        let plan: Vec<(usize, f64)> = (0..12).map(|i| (i % 4, 25.0)).collect();
        let mut s = ListScheduler::new(plan);
        let cfg = SimConfig {
            trace_mode: TraceMode::Full,
            max_concurrent_sends: 2,
            uplink_capacity: Some(30.0),
            output_ratio: 0.25,
            ..Default::default()
        };
        let inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 5);
        let r = simulate(&platform, &mut s, inj, cfg).unwrap();
        assert!((r.completed_work() - 300.0).abs() < 1e-6);
        assert!((r.returned_work - 75.0).abs() < 1e-6);
        assert!(r.trace.unwrap().validate_with_concurrency(4, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "output ratio")]
    fn negative_output_ratio_rejected() {
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        let cfg = SimConfig {
            output_ratio: -0.5,
            ..Default::default()
        };
        let _ = Engine::new(&platform, ErrorInjector::new(ErrorModel::None, 0), cfg);
    }

    #[test]
    #[should_panic(expected = "send slot")]
    fn zero_send_slots_rejected() {
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        let cfg = SimConfig {
            max_concurrent_sends: 0,
            ..Default::default()
        };
        let _ = Engine::new(&platform, ErrorInjector::new(ErrorModel::None, 0), cfg);
    }

    // ---- fault injection ----

    use crate::faults::{FaultModel, FaultPlan, PoissonFaults};

    /// A unit platform: speed 1, bandwidth 1, no latencies.
    fn unit_platform(n: usize) -> Platform {
        Platform::homogeneous(
            n,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap()
    }

    fn faulty(plan: FaultPlan) -> SimConfig {
        SimConfig {
            trace_mode: TraceMode::Full,
            faults: FaultModel::Plan(plan),
            ..Default::default()
        }
    }

    #[test]
    fn audit_is_clean_on_clean_runs_and_none_when_off() {
        let platform = unit_platform(2);
        // Off by default.
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let r = simulate(&platform, &mut s, exact(&platform), SimConfig::default()).unwrap();
        assert!(r.audit.is_none());
        // Audited, trace mode Off: checker runs without any stored trace.
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let cfg = SimConfig {
            audit: true,
            ..Default::default()
        };
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!(r.trace.is_none());
        assert_eq!(r.audit, Some(Vec::new()));
    }

    #[test]
    fn audit_is_clean_across_fault_lifecycle() {
        // Crash mid-computation with outstanding = 0: the streaming
        // checker must accept the loss-directed retirement exactly like
        // the post-hoc validator does.
        let platform = unit_platform(2);
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let cfg = SimConfig {
            audit: true,
            ..faulty(FaultPlan::new().crash(12.0, 1))
        };
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!((r.lost_work - 5.0).abs() < 1e-12);
        assert_eq!(r.audit, Some(Vec::new()));
        // And it agrees with the post-hoc validator.
        assert!(r.trace.unwrap().validate(2).is_empty());
    }

    #[test]
    fn audit_survives_engine_reuse() {
        let platform = unit_platform(1);
        let cfg = SimConfig {
            audit: true,
            ..Default::default()
        };
        let mut engine = Engine::new(&platform, exact(&platform), cfg);
        for _ in 0..3 {
            let mut s = ListScheduler::new(vec![(0, 4.0), (0, 6.0)]);
            let r = engine.run_reusing(&mut s).unwrap();
            assert_eq!(r.audit, Some(Vec::new()));
            engine.reset(exact(&platform));
        }
    }

    /// The checker's per-worker tables reach a fixed point under
    /// `reset`/`run_reusing`: after warm-up runs size them, a reset keeps
    /// them and 100 further repetitions do not grow them.
    #[test]
    fn audit_reset_reuse_does_not_grow() {
        let platform = unit_platform(3);
        let cfg = SimConfig {
            audit: true,
            ..Default::default()
        };
        let plan: Vec<(usize, f64)> = (0..12).map(|i| (i % 3, 1.0 + i as f64)).collect();
        let mut engine = Engine::new(&platform, exact(&platform), cfg);
        let rep = |engine: &mut Engine| {
            let mut s = ListScheduler::new(plan.clone());
            assert_eq!(engine.run_reusing(&mut s).unwrap().audit, Some(Vec::new()));
            engine.reset(exact(&platform));
            engine.checker.as_ref().unwrap().capacity_probe()
        };
        for _ in 0..3 {
            rep(&mut engine);
        }
        let warm = rep(&mut engine);
        assert!(warm > 0, "a reset must keep the checker's tables");
        for i in 0..100 {
            assert_eq!(rep(&mut engine), warm, "checker tables grew at rep {i}");
        }
    }

    #[test]
    fn crash_stop_loses_computing_chunk() {
        // w0: send [0,5], compute [5,10]. w1: send [5,10], compute [10,15],
        // crashed at 12 — its chunk is lost mid-computation.
        let platform = unit_platform(2);
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let cfg = faulty(FaultPlan::new().crash(12.0, 1));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!((r.completed_work() - 5.0).abs() < 1e-12);
        assert!((r.lost_work - 5.0).abs() < 1e-12);
        assert_eq!(r.lost_chunks, 1);
        assert!((r.outstanding_work).abs() < 1e-12);
        assert!(r.conservation_residual().abs() < 1e-9);
        // Worker 1's chunk covered units [5, 10) — never redispatched.
        assert_eq!(r.lost_ranges, vec![(5.0, 5.0)]);
        assert!((r.makespan - 12.0).abs() < 1e-9, "makespan {}", r.makespan);
        assert!(r.trace.unwrap().validate(2).is_empty());
    }

    #[test]
    fn crash_loses_queued_chunks_too() {
        // Fast link: both chunks are on the worker when it crashes at 0.5
        // (one computing, one queued). Everything dies with it.
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 100.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 0.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 1.0), (0, 3.0)]);
        let cfg = faulty(FaultPlan::new().crash(0.5, 0));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert_eq!(r.completed_work(), 0.0);
        assert!((r.lost_work - 4.0).abs() < 1e-12);
        assert_eq!(r.lost_chunks, 2);
        assert!(r.conservation_residual().abs() < 1e-9);
        assert!(r.trace.unwrap().validate(1).is_empty());
    }

    #[test]
    fn fly_phase_chunk_dies_on_arrival_at_dead_worker() {
        // tLat = 2: the chunk leaves the master at t=5 and is in its fly
        // phase when the worker crashes at 6; it is destroyed on arrival
        // (t=7), not at crash time.
        let platform = Platform::homogeneous(
            1,
            WorkerSpec {
                speed: 1.0,
                bandwidth: 1.0,
                comp_latency: 0.0,
                net_latency: 0.0,
                transfer_latency: 2.0,
            },
        )
        .unwrap();
        let mut s = ListScheduler::new(vec![(0, 5.0)]);
        let cfg = faulty(FaultPlan::new().crash(6.0, 0));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert_eq!(r.completed_work(), 0.0);
        assert!((r.lost_work - 5.0).abs() < 1e-12);
        assert!((r.makespan - 7.0).abs() < 1e-9, "makespan {}", r.makespan);
        let trace = r.trace.unwrap();
        // The loss happened at arrival time, after the crash.
        let lost_at = trace
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::ChunkLost { time, .. } => Some(*time),
                _ => None,
            })
            .unwrap();
        assert!((lost_at - 7.0).abs() < 1e-9);
        assert!(trace.validate(1).is_empty());
    }

    #[test]
    fn recovered_worker_computes_again() {
        // Crash at 2.5 kills the computing chunk and the one on the wire;
        // recovery at 3.0 lets the third chunk (dispatched at 2.5 when the
        // send slot freed) arrive at a live worker and complete.
        let platform = unit_platform(1);
        let mut s = ListScheduler::new(vec![(0, 2.0), (0, 2.0), (0, 2.0)]);
        let cfg = faulty(FaultPlan::new().crash_recover(2.5, 0, 0.5));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!((r.completed_work() - 2.0).abs() < 1e-12);
        assert!((r.lost_work - 4.0).abs() < 1e-12);
        assert!(r.conservation_residual().abs() < 1e-9);
        let trace = r.trace.unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerUp { worker: 0, .. })));
        assert!(trace.validate(1).is_empty());
    }

    #[test]
    fn link_drop_spares_worker_memory() {
        // At t=3 chunk 1 computes on the worker (safe) while chunk 2 is on
        // the wire (destroyed). The worker itself never goes down.
        let platform = unit_platform(1);
        let mut s = ListScheduler::new(vec![(0, 2.0), (0, 2.0)]);
        let cfg = faulty(FaultPlan::new().link_drop(3.0, 0));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!((r.completed_work() - 2.0).abs() < 1e-12);
        assert!((r.lost_work - 2.0).abs() < 1e-12);
        let trace = r.trace.unwrap();
        assert!(!trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WorkerDown { .. })));
        assert!(trace.validate(1).is_empty());
    }

    /// Dispatches one chunk, then re-sends anything reported lost.
    struct RedispatchOnLoss {
        sent: bool,
        pending: Option<f64>,
    }

    impl Scheduler for RedispatchOnLoss {
        fn name(&self) -> String {
            "redispatch-on-loss".into()
        }
        fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
            if !self.sent {
                self.sent = true;
                return Decision::Dispatch {
                    worker: 0,
                    chunk: 4.0,
                };
            }
            match self.pending.take() {
                Some(chunk) => Decision::Redispatch { worker: 0, chunk },
                None => Decision::Finished,
            }
        }
        fn on_chunk_lost(&mut self, _worker: usize, chunk: f64, _time: f64) {
            self.pending = Some(chunk);
        }
    }

    #[test]
    fn redispatch_recovers_lost_units() {
        // The link drop at t=1 destroys the send in progress; the scheduler
        // re-sends the same units and the run completes fully.
        let platform = unit_platform(1);
        let mut s = RedispatchOnLoss {
            sent: false,
            pending: None,
        };
        let cfg = faulty(FaultPlan::new().link_drop(1.0, 0));
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!((r.completed_work() - 4.0).abs() < 1e-12);
        assert!((r.lost_work - 4.0).abs() < 1e-12);
        assert!((r.redispatched_work - 4.0).abs() < 1e-12);
        assert!((r.dispatched_work - 8.0).abs() < 1e-12);
        // The lost unit range was consumed by the redispatch.
        assert!(r.lost_ranges.is_empty(), "{:?}", r.lost_ranges);
        assert!(r.conservation_residual().abs() < 1e-9);
        let trace = r.trace.unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Redispatch { .. })));
        assert!(trace.validate(1).is_empty());
    }

    #[test]
    fn invalid_redispatch_rejected() {
        struct Bad(Option<Decision>);
        impl Scheduler for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
                self.0.take().unwrap_or(Decision::Finished)
            }
        }
        let platform = HomogeneousParams::table1(2, 1.5, 0.1, 0.1).build().unwrap();
        for bad in [
            Decision::Redispatch {
                worker: 9,
                chunk: 1.0,
            },
            Decision::Redispatch {
                worker: 0,
                chunk: f64::NAN,
            },
            Decision::Redispatch {
                worker: 0,
                chunk: f64::INFINITY,
            },
            Decision::Redispatch {
                worker: 0,
                chunk: -2.0,
            },
            Decision::Dispatch {
                worker: 0,
                chunk: f64::INFINITY,
            },
        ] {
            let mut s = Bad(Some(bad));
            let e =
                simulate(&platform, &mut s, exact(&platform), SimConfig::default()).unwrap_err();
            assert!(matches!(e, SimError::InvalidDispatch { .. }), "{bad:?}");
        }
    }

    #[test]
    fn duplicate_down_and_up_are_no_ops() {
        // The second chunk (dispatched at 0.5 when the crash frees the send
        // slot) keeps the run alive across all four fault events.
        let platform = unit_platform(1);
        let mut s = ListScheduler::new(vec![(0, 2.0), (0, 2.0)]);
        let plan = FaultPlan::new()
            .crash(0.5, 0)
            .crash(0.6, 0) // already down
            .add(0.7, 0, crate::faults::FaultAction::Up)
            .add(0.8, 0, crate::faults::FaultAction::Up); // already up
        let r = simulate(&platform, &mut s, exact(&platform), faulty(plan)).unwrap();
        let trace = r.trace.unwrap();
        let downs = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::WorkerDown { .. }))
            .count();
        let ups = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::WorkerUp { .. }))
            .count();
        assert_eq!((downs, ups), (1, 1));
        assert!(trace.validate(1).is_empty());
    }

    #[test]
    fn poisson_fault_runs_are_reproducible() {
        let platform = HomogeneousParams::table1(4, 1.5, 0.2, 0.2).build().unwrap();
        let run = || {
            let plan: Vec<(usize, f64)> = (0..12).map(|i| (i % 4, 25.0)).collect();
            let mut s = ListScheduler::new(plan);
            let cfg = SimConfig {
                trace_mode: TraceMode::Full,
                faults: FaultModel::Poisson(PoissonFaults::crash_recovery(40.0, 10.0, 1000.0, 7)),
                ..Default::default()
            };
            let inj = ErrorInjector::new(ErrorModel::TruncatedNormal { error: 0.3 }, 5);
            simulate(&platform, &mut s, inj, cfg).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.lost_work.to_bits(), b.lost_work.to_bits());
        assert_eq!(a.lost_chunks, b.lost_chunks);
        assert!(a.conservation_residual().abs() < 1e-9);
        assert!(a.trace.unwrap().validate(4).is_empty());
    }

    #[test]
    fn fault_mode_partial_completion_is_not_deadlock() {
        // Crash-stop with no recovery scheduler: the run ends with work
        // lost, but that is a partial result, not a deadlock error.
        let platform = unit_platform(2);
        let mut s = ListScheduler::new(vec![(0, 5.0), (1, 5.0)]);
        let cfg = SimConfig {
            faults: FaultModel::Plan(FaultPlan::new().crash(6.0, 1)),
            ..Default::default()
        };
        let r = simulate(&platform, &mut s, exact(&platform), cfg).unwrap();
        assert!(r.lost_work > 0.0);
        assert!(r.completed_work() < r.dispatched_work);
    }
}
