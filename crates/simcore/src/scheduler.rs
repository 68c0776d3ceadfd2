//! The online scheduling interface between algorithms and the engine.
//!
//! All algorithms in the suite — including the "precalculated" ones like UMR
//! and multi-installment — are expressed as *online policies*: whenever the
//! master's network interface is free, the engine asks the scheduler what to
//! send next. Precalculated schedules simply replay a fixed list; reactive
//! schedulers (Factoring, RUMR's greedy components) inspect the live
//! [`SimView`] to make demand-driven decisions. This uniform interface is
//! what lets the paper's robustness experiments compare both families under
//! identical prediction errors.

/// What the scheduler wants the master to do now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Send `chunk` workload units to `worker` (0-based) immediately.
    Dispatch {
        /// Destination worker.
        worker: usize,
        /// Chunk size in workload units; must be finite and > 0.
        chunk: f64,
    },
    /// Like [`Decision::Dispatch`], but flags the chunk as *redispatched*
    /// work — a re-send of workload that was previously lost to a fault.
    /// The engine treats it identically to a dispatch for platform
    /// semantics, but accounts it separately (`SimResult::redispatched_work`,
    /// `TraceEvent::Redispatch`) so degradation studies can distinguish
    /// first-pass from recovery traffic.
    Redispatch {
        /// Destination worker.
        worker: usize,
        /// Chunk size in workload units; must be finite and > 0.
        chunk: f64,
    },
    /// Nothing to send right now; ask again after the next simulation event.
    Wait,
    /// Nothing to send before the given simulation time. Like
    /// [`Decision::Wait`], but the engine additionally guarantees a wake-up
    /// consultation no later than `time` (it may still consult earlier,
    /// after any intervening event). Multi-load schedulers use this to
    /// sleep until the next job release without deadlocking the engine
    /// when no other event is pending; `time` must be finite and
    /// non-negative, and a `time` in the past behaves exactly like
    /// [`Decision::Wait`] with an immediate wake-up.
    WaitUntil {
        /// Absolute simulation time of the requested wake-up.
        time: f64,
    },
    /// The whole workload has been dispatched; never ask again — unless
    /// work is later lost to a fault, in which case the engine resumes
    /// consulting the scheduler (recovery-aware schedulers then re-queue
    /// the lost work; plain schedulers just return `Finished` again).
    Finished,
}

/// Live per-worker state visible to schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerView {
    /// False while the worker is crashed (fault injection). Dead workers
    /// accept no computation; chunks sent to them are lost on arrival.
    /// Always `true` when fault injection is disabled.
    pub alive: bool,
    /// True while a chunk's computation is in progress.
    pub computing: bool,
    /// Chunks received but not yet started.
    pub queued_chunks: usize,
    /// Workload units received but not yet started.
    pub queued_work: f64,
    /// Chunks dispatched (including one currently being sent) but not yet
    /// arrived at the worker.
    pub in_flight_chunks: usize,
    /// Workload units in flight.
    pub in_flight_work: f64,
    /// Total workload units ever dispatched to this worker.
    pub assigned_work: f64,
    /// Total workload units whose computation completed.
    pub completed_work: f64,
    /// Number of chunks whose computation completed.
    pub completed_chunks: usize,
}

impl Default for WorkerView {
    /// A fresh, idle, *alive* worker.
    fn default() -> Self {
        WorkerView {
            alive: true,
            computing: false,
            queued_chunks: 0,
            queued_work: 0.0,
            in_flight_chunks: 0,
            in_flight_work: 0.0,
            assigned_work: 0.0,
            completed_work: 0.0,
            completed_chunks: 0,
        }
    }
}

impl WorkerView {
    /// A worker is *hungry* when it is alive and has nothing to do and
    /// nothing on the way: not computing, an empty local queue, and no
    /// in-flight transfer. RUMR's out-of-order dispatch and all pull-based
    /// schedulers key off this predicate, which makes every pull-based
    /// policy avoid crashed workers automatically.
    #[inline]
    pub fn is_hungry(&self) -> bool {
        self.alive && !self.computing && self.queued_chunks == 0 && self.in_flight_chunks == 0
    }

    /// Workload units dispatched to this worker whose computation has not
    /// completed yet (in flight + queued + currently computing).
    #[inline]
    pub fn outstanding_work(&self) -> f64 {
        self.assigned_work - self.completed_work
    }
}

/// Read-only view handed to the scheduler on every decision point. It
/// borrows the engine's live per-worker state (nothing is copied), so it
/// is valid only for the duration of the call; schedulers that need the
/// state later must copy what they need.
#[derive(Debug)]
pub struct SimView<'a> {
    /// Current simulation time in seconds.
    pub time: f64,
    /// Per-worker live state, indexed by worker id.
    pub workers: &'a [WorkerView],
}

impl SimView<'_> {
    /// Index of the first hungry worker, if any.
    pub fn first_hungry(&self) -> Option<usize> {
        self.workers.iter().position(WorkerView::is_hungry)
    }

    /// Among hungry workers, the one with the least assigned work
    /// (deterministic tie-break: lowest index). `None` when nobody is
    /// hungry.
    pub fn least_loaded_hungry(&self) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_hungry())
            .min_by(|(i, a), (j, b)| {
                a.assigned_work
                    .partial_cmp(&b.assigned_work)
                    .expect("finite work totals")
                    .then(i.cmp(j))
            })
            .map(|(i, _)| i)
    }
}

/// An online scheduling policy driven by the simulation engine.
///
/// The engine calls [`Scheduler::next_dispatch`] whenever the master's
/// interface is free — at time 0, after every `SendEnd`, and after any other
/// event following a [`Decision::Wait`]. Once a scheduler returns
/// [`Decision::Finished`] it is never consulted again.
pub trait Scheduler {
    /// Human-readable algorithm name (used in reports).
    fn name(&self) -> String;

    /// Decide the master's next action. See [`Decision`].
    fn next_dispatch(&mut self, view: &SimView<'_>) -> Decision;

    /// Notification: a chunk's computation started on `worker` at `time`.
    ///
    /// Together with [`Scheduler::on_compute_end`] this lets reactive
    /// schedulers *measure* effective computation times and compare them to
    /// the platform's predictions — the basis of the online error
    /// estimation the paper's §6 sketches as future work (implemented in
    /// this suite as the adaptive RUMR variant).
    fn on_compute_start(&mut self, worker: usize, chunk: f64, time: f64) {
        let _ = (worker, chunk, time);
    }

    /// Notification: a chunk's computation completed on `worker` at `time`.
    fn on_compute_end(&mut self, worker: usize, chunk: f64, time: f64) {
        let _ = (worker, chunk, time);
    }

    /// Notification: a chunk fully arrived at `worker` at `time`.
    fn on_arrival(&mut self, worker: usize, chunk: f64, time: f64) {
        let _ = (worker, chunk, time);
    }

    /// Notification: `worker` crashed at `time` (fault injection). Any
    /// work it held is reported separately through
    /// [`Scheduler::on_chunk_lost`], once per lost chunk, immediately after
    /// this call.
    fn on_worker_failed(&mut self, worker: usize, time: f64) {
        let _ = (worker, time);
    }

    /// Notification: `worker` came back up at `time` with an empty queue
    /// (crash-recovery fault model).
    fn on_worker_recovered(&mut self, worker: usize, time: f64) {
        let _ = (worker, time);
    }

    /// Notification: a dispatched chunk of `chunk` units bound for (or held
    /// by) `worker` was destroyed at `time` by a fault. Recovery-aware
    /// schedulers re-queue the work (see `Decision::Redispatch`); plain
    /// schedulers ignore it and simply under-complete.
    fn on_chunk_lost(&mut self, worker: usize, chunk: f64, time: f64) {
        let _ = (worker, chunk, time);
    }
}

/// Boxed schedulers are schedulers, so wrappers like a recovery layer can
/// compose with `Box<dyn Scheduler>` produced by scheduler factories.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn next_dispatch(&mut self, view: &SimView<'_>) -> Decision {
        (**self).next_dispatch(view)
    }
    fn on_compute_start(&mut self, worker: usize, chunk: f64, time: f64) {
        (**self).on_compute_start(worker, chunk, time)
    }
    fn on_compute_end(&mut self, worker: usize, chunk: f64, time: f64) {
        (**self).on_compute_end(worker, chunk, time)
    }
    fn on_arrival(&mut self, worker: usize, chunk: f64, time: f64) {
        (**self).on_arrival(worker, chunk, time)
    }
    fn on_worker_failed(&mut self, worker: usize, time: f64) {
        (**self).on_worker_failed(worker, time)
    }
    fn on_worker_recovered(&mut self, worker: usize, time: f64) {
        (**self).on_worker_recovered(worker, time)
    }
    fn on_chunk_lost(&mut self, worker: usize, chunk: f64, time: f64) {
        (**self).on_chunk_lost(worker, chunk, time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hungry_predicate() {
        let mut w = WorkerView::default();
        assert!(w.is_hungry());
        w.computing = true;
        assert!(!w.is_hungry());
        w.computing = false;
        w.queued_chunks = 1;
        assert!(!w.is_hungry());
        w.queued_chunks = 0;
        w.in_flight_chunks = 1;
        assert!(!w.is_hungry());
    }

    #[test]
    fn outstanding_work() {
        let w = WorkerView {
            assigned_work: 10.0,
            completed_work: 4.0,
            ..Default::default()
        };
        assert!((w.outstanding_work() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn view_helpers() {
        let workers = vec![
            WorkerView {
                computing: true,
                ..Default::default()
            },
            WorkerView {
                assigned_work: 5.0,
                ..Default::default()
            },
            WorkerView {
                assigned_work: 2.0,
                ..Default::default()
            },
        ];
        let view = SimView {
            time: 0.0,
            workers: &workers,
        };
        assert_eq!(view.first_hungry(), Some(1));
        assert_eq!(view.least_loaded_hungry(), Some(2));

        let busy = vec![WorkerView {
            computing: true,
            ..Default::default()
        }];
        let view = SimView {
            time: 0.0,
            workers: &busy,
        };
        assert_eq!(view.first_hungry(), None);
        assert_eq!(view.least_loaded_hungry(), None);
    }

    #[test]
    fn least_loaded_tie_break_is_lowest_index() {
        let workers = vec![WorkerView::default(), WorkerView::default()];
        let view = SimView {
            time: 0.0,
            workers: &workers,
        };
        assert_eq!(view.least_loaded_hungry(), Some(0));
    }
}
