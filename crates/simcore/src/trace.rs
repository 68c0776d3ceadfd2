//! Execution traces and their validation.
//!
//! The engine can record every simulated event. Traces serve three purposes:
//!
//! 1. **Debugging / inspection** — an ASCII Gantt chart ([`Trace::gantt`]).
//! 2. **Validation** — [`Trace::validate`] replays the stored events through
//!    the streaming [`InvariantChecker`], which checks the physical
//!    invariants of the platform model (serial master link, one computation
//!    at a time per worker, computation only after data arrival, workload
//!    conservation). The property-based test suite runs every scheduler
//!    through this.
//! 3. **Metrics** — per-worker busy/idle time, used by the examples.

use crate::invariants::{InvariantChecker, InvariantFinding, WorkLedger};

/// Which lifecycle stage a chunk was in when a fault destroyed it. Lets the
/// invariant checker retire the chunk from exactly the right stage even
/// when several same-sized chunks are live at once (factoring rounds send
/// equal sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostStage {
    /// The master was still pushing it (setup or data phase).
    Sending,
    /// Fly phase: it had left the master but not yet arrived.
    InFlight,
    /// Sitting in the worker's local queue.
    Queued,
    /// Being computed.
    Computing,
}

/// One timestamped simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The master started sending `chunk` units to `worker`.
    SendStart {
        /// Destination worker (0-based).
        worker: usize,
        /// Chunk size in workload units.
        chunk: f64,
        /// Simulation time (s).
        time: f64,
    },
    /// The master's interface finished pushing the chunk (link freed).
    SendEnd {
        /// Destination worker.
        worker: usize,
        /// Chunk size.
        chunk: f64,
        /// Simulation time.
        time: f64,
    },
    /// The last byte reached the worker (after `tLat`); the chunk is now in
    /// the worker's local queue.
    Arrival {
        /// Receiving worker.
        worker: usize,
        /// Chunk size.
        chunk: f64,
        /// Simulation time.
        time: f64,
    },
    /// The worker began computing a chunk.
    ComputeStart {
        /// Computing worker.
        worker: usize,
        /// Chunk size.
        chunk: f64,
        /// Simulation time.
        time: f64,
    },
    /// The worker finished computing a chunk.
    ComputeEnd {
        /// Computing worker.
        worker: usize,
        /// Chunk size.
        chunk: f64,
        /// Simulation time.
        time: f64,
    },
    /// The worker began returning output data to the master (output-data
    /// extension; never emitted under the paper's input-only model).
    ReturnStart {
        /// Sending worker.
        worker: usize,
        /// Output size in workload-equivalent units.
        bytes: f64,
        /// Simulation time.
        time: f64,
    },
    /// The master finished receiving a worker's output data.
    ReturnEnd {
        /// Sending worker.
        worker: usize,
        /// Output size.
        bytes: f64,
        /// Simulation time.
        time: f64,
    },
    /// The worker crashed (fault injection). Chunks it held are reported by
    /// individual [`TraceEvent::ChunkLost`] events.
    WorkerDown {
        /// Crashed worker.
        worker: usize,
        /// Simulation time.
        time: f64,
    },
    /// The worker came back up with an empty queue (crash-recovery).
    WorkerUp {
        /// Recovered worker.
        worker: usize,
        /// Simulation time.
        time: f64,
    },
    /// A dispatched chunk was destroyed by a fault — mid-transfer, queued,
    /// or mid-computation.
    ChunkLost {
        /// Worker the chunk was bound for or held by.
        worker: usize,
        /// Chunk size in workload units.
        chunk: f64,
        /// Lifecycle stage the chunk was in when destroyed.
        stage: LostStage,
        /// Simulation time.
        time: f64,
    },
    /// Marker: the next `SendStart` to this worker re-sends previously lost
    /// work (`Decision::Redispatch`). Carries no platform semantics.
    Redispatch {
        /// Destination worker.
        worker: usize,
        /// Chunk size in workload units.
        chunk: f64,
        /// Simulation time.
        time: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> f64 {
        match *self {
            TraceEvent::SendStart { time, .. }
            | TraceEvent::SendEnd { time, .. }
            | TraceEvent::Arrival { time, .. }
            | TraceEvent::ComputeStart { time, .. }
            | TraceEvent::ComputeEnd { time, .. }
            | TraceEvent::ReturnStart { time, .. }
            | TraceEvent::ReturnEnd { time, .. }
            | TraceEvent::WorkerDown { time, .. }
            | TraceEvent::WorkerUp { time, .. }
            | TraceEvent::ChunkLost { time, .. }
            | TraceEvent::Redispatch { time, .. } => time,
        }
    }

    /// The worker the event refers to.
    pub fn worker(&self) -> usize {
        match *self {
            TraceEvent::SendStart { worker, .. }
            | TraceEvent::SendEnd { worker, .. }
            | TraceEvent::Arrival { worker, .. }
            | TraceEvent::ComputeStart { worker, .. }
            | TraceEvent::ComputeEnd { worker, .. }
            | TraceEvent::ReturnStart { worker, .. }
            | TraceEvent::ReturnEnd { worker, .. }
            | TraceEvent::WorkerDown { worker, .. }
            | TraceEvent::WorkerUp { worker, .. }
            | TraceEvent::ChunkLost { worker, .. }
            | TraceEvent::Redispatch { worker, .. } => worker,
        }
    }
}

/// Chronological record of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an event (engine use).
    pub(crate) fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// All recorded events, in the order they fired.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total workload units for which a `SendStart` was recorded.
    pub fn dispatched_work(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SendStart { chunk, .. } => Some(chunk),
                _ => None,
            })
            .sum()
    }

    /// Total workload units for which a `ComputeEnd` was recorded.
    pub fn computed_work(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ComputeEnd { chunk, .. } => Some(chunk),
                _ => None,
            })
            .sum()
    }

    /// Total workload units destroyed by faults (`ChunkLost` events).
    pub fn lost_work(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkLost { chunk, .. } => Some(chunk),
                _ => None,
            })
            .sum()
    }

    /// Number of chunks dispatched.
    pub fn num_chunks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SendStart { .. }))
            .count()
    }

    /// Check the physical invariants of the platform model by replaying
    /// the stored events through an [`InvariantChecker`]; returns every
    /// finding (empty = valid).
    ///
    /// Invariants:
    /// 1. Events are chronological, with finite non-negative times/chunks.
    /// 2. Master sends never overlap (`SendStart`/`SendEnd` alternate) —
    ///    the paper's serial-link model. For concurrent-transfer runs use
    ///    [`Trace::validate_with_concurrency`].
    /// 3. Per worker, computations never overlap and consume previously
    ///    arrived chunks in FIFO order.
    /// 4. `Arrival` follows the matching `SendEnd`; `ComputeStart` follows
    ///    the arrival of the chunk it consumes.
    /// 5. Every dispatched unit of workload is eventually computed **or
    ///    explicitly lost to a fault** (`ChunkLost`); a lost chunk is
    ///    removed from whatever lifecycle stage it occupied.
    /// 6. Fault events alternate sanely: no `WorkerDown` while down, no
    ///    `WorkerUp` while up.
    ///
    /// Like the live checker, the replay keeps the first 32 findings and
    /// appends a suppression notice for the rest.
    pub fn validate(&self, num_workers: usize) -> Vec<InvariantFinding> {
        self.validate_with_concurrency(num_workers, 1)
    }

    /// [`Trace::validate`] generalized to a master allowed `max_sends`
    /// simultaneous transfers (the concurrent-transfer extension).
    pub fn validate_with_concurrency(
        &self,
        num_workers: usize,
        max_sends: usize,
    ) -> Vec<InvariantFinding> {
        let mut checker = InvariantChecker::new(num_workers, max_sends);
        for e in &self.events {
            checker.observe(e);
        }
        // The trace is its own ledger. Nothing counts as outstanding, so
        // the end-state and conservation checks always run: everything
        // dispatched must be computed or explicitly lost.
        checker.finalize(WorkLedger {
            dispatched: self.dispatched_work(),
            completed: self.computed_work(),
            lost: self.lost_work(),
            outstanding: 0.0,
        })
    }

    /// Per-worker busy time (sum of computation intervals).
    pub fn busy_time(&self, num_workers: usize) -> Vec<f64> {
        let mut busy = vec![0.0; num_workers];
        let mut start: Vec<Option<f64>> = vec![None; num_workers];
        for e in &self.events {
            match *e {
                TraceEvent::ComputeStart { worker, time, .. } if worker < num_workers => {
                    start[worker] = Some(time);
                }
                TraceEvent::ComputeEnd { worker, time, .. } if worker < num_workers => {
                    if let Some(s) = start[worker].take() {
                        busy[worker] += time - s;
                    }
                }
                _ => {}
            }
        }
        busy
    }

    /// Export the trace as CSV (`event,worker,chunk,time`), suitable for
    /// external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("event,worker,chunk,time\n");
        for e in &self.events {
            let (name, worker, chunk, time) = match *e {
                TraceEvent::SendStart {
                    worker,
                    chunk,
                    time,
                } => ("send_start", worker, chunk, time),
                TraceEvent::SendEnd {
                    worker,
                    chunk,
                    time,
                } => ("send_end", worker, chunk, time),
                TraceEvent::Arrival {
                    worker,
                    chunk,
                    time,
                } => ("arrival", worker, chunk, time),
                TraceEvent::ComputeStart {
                    worker,
                    chunk,
                    time,
                } => ("compute_start", worker, chunk, time),
                TraceEvent::ComputeEnd {
                    worker,
                    chunk,
                    time,
                } => ("compute_end", worker, chunk, time),
                TraceEvent::ReturnStart {
                    worker,
                    bytes,
                    time,
                } => ("return_start", worker, bytes, time),
                TraceEvent::ReturnEnd {
                    worker,
                    bytes,
                    time,
                } => ("return_end", worker, bytes, time),
                TraceEvent::WorkerDown { worker, time } => ("worker_down", worker, 0.0, time),
                TraceEvent::WorkerUp { worker, time } => ("worker_up", worker, 0.0, time),
                TraceEvent::ChunkLost {
                    worker,
                    chunk,
                    time,
                    ..
                } => ("chunk_lost", worker, chunk, time),
                TraceEvent::Redispatch {
                    worker,
                    chunk,
                    time,
                } => ("redispatch", worker, chunk, time),
            };
            out.push_str(&format!("{name},{worker},{chunk},{time}\n"));
        }
        out
    }

    /// Render a compact ASCII Gantt chart: one row per worker (`#` compute,
    /// `.` idle) plus a master row (`=` sending). `width` is the number of
    /// character columns the makespan is scaled to.
    pub fn gantt(&self, num_workers: usize, width: usize) -> String {
        let makespan = self.events.iter().map(|e| e.time()).fold(0.0_f64, f64::max);
        if makespan <= 0.0 || width == 0 {
            return String::from("(empty trace)\n");
        }
        let col = |t: f64| ((t / makespan) * width as f64).round() as usize;

        let mut rows = vec![vec![b'.'; width + 1]; num_workers + 1];
        let mut compute_start: Vec<Option<f64>> = vec![None; num_workers];
        let mut send_start: Option<f64> = None;
        for e in &self.events {
            match *e {
                TraceEvent::SendStart { time, .. } => send_start = Some(time),
                TraceEvent::SendEnd { time, .. } => {
                    if let Some(s) = send_start.take() {
                        for cell in &mut rows[0][col(s)..=col(time).min(width)] {
                            *cell = b'=';
                        }
                    }
                }
                TraceEvent::ComputeStart { worker, time, .. } if worker < num_workers => {
                    compute_start[worker] = Some(time);
                }
                TraceEvent::ComputeEnd { worker, time, .. } if worker < num_workers => {
                    if let Some(s) = compute_start[worker].take() {
                        for cell in &mut rows[worker + 1][col(s)..=col(time).min(width)] {
                            *cell = b'#';
                        }
                    }
                }
                _ => {}
            }
        }
        // Downtime overlay (`x`): crashed intervals, open ones running to
        // the end of the chart.
        let mut down_since: Vec<Option<f64>> = vec![None; num_workers];
        for e in &self.events {
            match *e {
                TraceEvent::WorkerDown { worker, time } if worker < num_workers => {
                    down_since[worker] = Some(time);
                }
                TraceEvent::WorkerUp { worker, time } if worker < num_workers => {
                    if let Some(s) = down_since[worker].take() {
                        for cell in &mut rows[worker + 1][col(s)..=col(time).min(width)] {
                            if *cell == b'.' {
                                *cell = b'x';
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (w, since) in down_since.iter().enumerate() {
            if let Some(s) = since {
                for cell in &mut rows[w + 1][col(*s)..=width] {
                    if *cell == b'.' {
                        *cell = b'x';
                    }
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("master |{}|\n", String::from_utf8_lossy(&rows[0])));
        for (w, row) in rows.iter().enumerate().skip(1) {
            out.push_str(&format!(
                "w{:<5} |{}|\n",
                w - 1,
                String::from_utf8_lossy(row)
            ));
        }
        out.push_str(&format!("0 {:>width$.3} s\n", makespan, width = width));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::InvariantKind;

    fn has(findings: &[InvariantFinding], kind: InvariantKind) -> bool {
        findings.iter().any(|f| f.kind == kind)
    }

    fn valid_trace() -> Trace {
        let mut t = Trace::new();
        // Master sends 2 chunks to workers 0 and 1 sequentially; each
        // computes after arrival.
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::SendStart {
            worker: 1,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        });
        t.push(TraceEvent::Arrival {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 1,
            chunk: 5.0,
            time: 2.0,
        });
        t.push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 5.0,
            time: 6.0,
        });
        t.push(TraceEvent::ComputeEnd {
            worker: 1,
            chunk: 5.0,
            time: 7.0,
        });
        t
    }

    #[test]
    fn valid_trace_passes() {
        assert!(valid_trace().validate(2).is_empty());
    }

    #[test]
    fn accounting() {
        let t = valid_trace();
        assert!((t.dispatched_work() - 10.0).abs() < 1e-12);
        assert!((t.computed_work() - 10.0).abs() < 1e-12);
        assert_eq!(t.num_chunks(), 2);
        let busy = t.busy_time(2);
        assert!((busy[0] - 5.0).abs() < 1e-12);
        assert!((busy[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn detects_overlapping_sends() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendStart {
            worker: 1,
            chunk: 1.0,
            time: 0.5,
        });
        assert!(has(&t.validate(2), InvariantKind::MasterOccupation));
    }

    #[test]
    fn detects_out_of_order() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 5.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 1.0,
        });
        assert!(has(&t.validate(1), InvariantKind::NonMonotoneTime));
    }

    #[test]
    fn detects_compute_without_arrival() {
        let mut t = Trace::new();
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        assert!(has(&t.validate(1), InvariantKind::Causality));
    }

    #[test]
    fn detects_overlapping_computation() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 0.1,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 1.0,
            time: 0.1,
        });
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 2.0,
            time: 0.1,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 2.0,
            time: 0.2,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 2.0,
            time: 0.2,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 0.2,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 2.0,
            time: 0.3,
        });
        assert!(has(&t.validate(1), InvariantKind::SerialCompute));
    }

    #[test]
    fn detects_workload_mismatch() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        // Never computed.
        assert!(has(&t.validate(1), InvariantKind::LedgerMismatch));
    }

    #[test]
    fn detects_unterminated_send() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 0.0,
            time: 0.0,
        });
        assert!(has(&t.validate(1), InvariantKind::MasterOccupation));
    }

    #[test]
    fn detects_invalid_values() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: f64::NAN,
            time: 0.0,
        });
        assert!(!t.validate(1).is_empty());

        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 5,
            chunk: 1.0,
            time: 0.0,
        });
        assert!(!t.validate(1).is_empty());

        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: -1.0,
        });
        assert!(!t.validate(1).is_empty());
    }

    #[test]
    fn csv_export() {
        let csv = valid_trace().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "event,worker,chunk,time");
        assert_eq!(lines.next().unwrap(), "send_start,0,5,0");
        assert_eq!(csv.lines().count(), 11);
        assert!(csv.contains("compute_end,1,5,7"));
    }

    #[test]
    fn gantt_renders() {
        let g = valid_trace().gantt(2, 40);
        assert!(g.contains("master"));
        assert!(g.contains('#'));
        assert!(g.contains('='));
        assert!(Trace::new().gantt(2, 40).contains("empty"));
    }

    /// A crash mid-transfer: worker 1 dies while its chunk is on the wire,
    /// so the SendStart is never matched by a SendEnd.
    fn faulty_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::SendStart {
            worker: 1,
            chunk: 5.0,
            time: 1.0,
        });
        t.push(TraceEvent::WorkerDown {
            worker: 1,
            time: 1.5,
        });
        t.push(TraceEvent::ChunkLost {
            worker: 1,
            chunk: 5.0,
            stage: LostStage::Sending,
            time: 1.5,
        });
        t.push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 5.0,
            time: 6.0,
        });
        t
    }

    #[test]
    fn mid_transfer_loss_validates_cleanly() {
        let t = faulty_trace();
        assert!(t.validate(2).is_empty(), "{:?}", t.validate(2));
        assert!((t.lost_work() - 5.0).abs() < 1e-12);
        // Lost work counts toward conservation: 10 dispatched = 5 + 5.
        assert!((t.dispatched_work() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn down_up_cycle_validates() {
        let mut t = faulty_trace();
        t.push(TraceEvent::WorkerUp {
            worker: 1,
            time: 7.0,
        });
        assert!(t.validate(2).is_empty());
    }

    #[test]
    fn detects_double_down() {
        let mut t = faulty_trace();
        t.push(TraceEvent::WorkerDown {
            worker: 1,
            time: 7.0,
        });
        assert!(t
            .validate(2)
            .iter()
            .any(|f| f.kind == InvariantKind::Causality && f.worker == Some(1)));
    }

    #[test]
    fn detects_spurious_up() {
        let mut t = valid_trace();
        t.push(TraceEvent::WorkerUp {
            worker: 0,
            time: 8.0,
        });
        assert!(t
            .validate(2)
            .iter()
            .any(|f| f.kind == InvariantKind::Causality && f.worker == Some(0)));
    }

    #[test]
    fn detects_phantom_chunk_loss() {
        // Claiming a loss in a stage the chunk never reached is a
        // causality violation (here: nothing was ever sent to worker 1).
        let mut t = valid_trace();
        t.push(TraceEvent::ChunkLost {
            worker: 1,
            chunk: 5.0,
            stage: LostStage::Queued,
            time: 8.0,
        });
        assert!(t
            .validate(2)
            .iter()
            .any(|f| f.kind == InvariantKind::Causality
                && f.worker == Some(1)
                && f.detail.contains("never reached")));
    }

    #[test]
    fn detects_wrong_stage_chunk_loss() {
        // The chunk really was lost mid-send; corrupting the stage to
        // Computing must be flagged.
        let t = faulty_trace();
        let events = t.events().to_vec();
        let mut corrupted = Trace::new();
        for e in events {
            corrupted.push(match e {
                TraceEvent::ChunkLost {
                    worker,
                    chunk,
                    time,
                    ..
                } => TraceEvent::ChunkLost {
                    worker,
                    chunk,
                    stage: LostStage::Computing,
                    time,
                },
                other => other,
            });
        }
        assert!(!corrupted.validate(2).is_empty());
    }

    #[test]
    fn csv_includes_fault_events() {
        let csv = faulty_trace().to_csv();
        assert!(csv.contains("worker_down,1,0,1.5"));
        assert!(csv.contains("chunk_lost,1,5,1.5"));
    }

    #[test]
    fn gantt_marks_downtime() {
        let mut t = faulty_trace();
        t.push(TraceEvent::WorkerUp {
            worker: 1,
            time: 4.0,
        });
        let g = t.gantt(2, 40);
        assert!(g.contains('x'), "{g}");
    }
}
