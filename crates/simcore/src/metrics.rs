//! Post-run trace analytics.
//!
//! The paper reasons about schedules in terms of *overlap* (is the master's
//! dispatching hidden under computation?) and *gaps* (does a worker idle
//! because its next chunk isn't there yet — §4.2(ii))? This module computes
//! those quantities from an execution [`Trace`]:
//!
//! * per-worker computation gaps (idle intervals between consecutive
//!   computations after the first arrival),
//! * master-link utilization,
//! * the chunk-size timeline (the increase-then-decrease signature of
//!   RUMR is directly visible in it).

use crate::trace::{Trace, TraceEvent};

/// Per-event-type counters, maintained incrementally under
/// [`crate::TraceMode::MetricsOnly`] and [`crate::TraceMode::Full`].
///
/// The benchmark harness uses these to attribute an ns/event regression to
/// an event class (did the run dispatch more? lose more? redispatch more?)
/// without re-running in `Full` mode and scanning a stored trace. A
/// transient link drop surfaces only as its `chunk_losses` — it has no
/// worker up/down marker of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Input dispatches started (`SendStart`), redispatches included.
    pub dispatches: u64,
    /// Chunks delivered to a worker's front end (`Arrival`).
    pub arrivals: u64,
    /// Computations finished (`ComputeEnd`).
    pub computes: u64,
    /// Output returns completed (`ReturnEnd`; output-data extension).
    pub returns: u64,
    /// Worker state transitions (`WorkerDown` + `WorkerUp`).
    pub faults: u64,
    /// Chunks destroyed by faults (`ChunkLost`).
    pub chunk_losses: u64,
    /// Lost work re-sent (`Redispatch` markers).
    pub redispatches: u64,
    /// Most events the engine's queue held at once (stale pool checks and
    /// events of lost chunks included): the queue's depth, `O(N)` on a
    /// star of `N` workers.
    pub peak_pending: u64,
}

impl EventCounts {
    /// Fold one trace event into the counters (engine use).
    pub fn count(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::SendStart { .. } => self.dispatches += 1,
            TraceEvent::Arrival { .. } => self.arrivals += 1,
            TraceEvent::ComputeEnd { .. } => self.computes += 1,
            TraceEvent::ReturnEnd { .. } => self.returns += 1,
            TraceEvent::WorkerDown { .. } | TraceEvent::WorkerUp { .. } => self.faults += 1,
            TraceEvent::ChunkLost { .. } => self.chunk_losses += 1,
            TraceEvent::Redispatch { .. } => self.redispatches += 1,
            _ => {}
        }
    }
}

/// Cheap aggregate metrics the engine maintains *incrementally* during a
/// run under [`crate::TraceMode::MetricsOnly`] or
/// [`crate::TraceMode::Full`] — no event storage, no post-run scan.
///
/// These cover the quantities sweeps actually consume (link utilization and
/// worker idle gaps, §4.2(ii) of the paper) at a fraction of the cost of
/// recording a full [`Trace`] and running [`TraceMetrics::from_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Number of trace events the run generated (whether or not a full
    /// trace stored them).
    pub trace_events: u64,
    /// Total time the master's interface had at least one active transfer.
    pub link_busy: f64,
    /// Per-worker idle time between consecutive computations.
    pub per_worker_gap: Vec<f64>,
    /// Number of distinct idle gaps across all workers.
    pub num_gaps: usize,
    /// Per-event-type counter table (see [`EventCounts`]).
    pub event_counts: EventCounts,
    /// Per-worker `(compute, link)` realized/declared rate factors the run
    /// executed under, when a [`crate::SpeedModel`] other than `Declared`
    /// was active; `None` in the trusting regime. Lets metric consumers
    /// attribute a makespan to the machine that was actually revealed.
    pub realized_speed_factors: Option<Vec<(f64, f64)>>,
}

impl MetricsSummary {
    /// Fraction of the makespan the master's interface spent busy.
    pub fn link_utilization(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            return 0.0;
        }
        self.link_busy / makespan
    }

    /// Total idle-gap time summed over workers.
    pub fn total_gap_time(&self) -> f64 {
        self.per_worker_gap.iter().sum()
    }
}

/// An idle interval on a worker between two computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gap {
    /// Worker that idled.
    pub worker: usize,
    /// Gap start (end of the previous computation).
    pub start: f64,
    /// Gap end (start of the next computation).
    pub end: f64,
}

impl Gap {
    /// Gap length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Aggregated metrics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetrics {
    /// Application makespan (time of the last event).
    pub makespan: f64,
    /// Fraction of the makespan the master's interface spent sending.
    pub link_utilization: f64,
    /// Mean fraction of the post-first-arrival window each worker spent
    /// computing (1 = perfectly gap-free, the UMR design goal).
    pub mean_compute_density: f64,
    /// Every idle gap between consecutive computations on a worker.
    pub gaps: Vec<Gap>,
    /// Chunk sizes in dispatch order.
    pub chunk_timeline: Vec<f64>,
    /// Workload units destroyed by faults (sum over `ChunkLost` events).
    pub work_lost: f64,
    /// Workload units re-sent after a loss (sum over `Redispatch` markers).
    pub work_redispatched: f64,
    /// Seconds each worker spent crashed. Down intervals still open at the
    /// end of the trace are counted up to the makespan.
    pub per_worker_downtime: Vec<f64>,
}

impl TraceMetrics {
    /// Compute metrics from a trace over `num_workers` workers.
    pub fn from_trace(trace: &Trace, num_workers: usize) -> Self {
        let makespan = trace
            .events()
            .iter()
            .map(TraceEvent::time)
            .fold(0.0_f64, f64::max);

        let mut link_busy = 0.0;
        let mut send_start: Option<f64> = None;
        let mut chunk_timeline = Vec::new();

        let mut first_compute: Vec<Option<f64>> = vec![None; num_workers];
        let mut last_compute_end: Vec<Option<f64>> = vec![None; num_workers];
        let mut busy: Vec<f64> = vec![0.0; num_workers];
        let mut current_start: Vec<Option<f64>> = vec![None; num_workers];
        let mut gaps = Vec::new();

        let mut work_lost = 0.0;
        let mut work_redispatched = 0.0;
        let mut per_worker_downtime = vec![0.0; num_workers];
        let mut down_since: Vec<Option<f64>> = vec![None; num_workers];

        for event in trace.events() {
            match *event {
                TraceEvent::SendStart { chunk, time, .. } => {
                    send_start = Some(time);
                    chunk_timeline.push(chunk);
                }
                TraceEvent::SendEnd { time, .. } => {
                    if let Some(s) = send_start.take() {
                        link_busy += time - s;
                    }
                }
                TraceEvent::ComputeStart { worker, time, .. } if worker < num_workers => {
                    if first_compute[worker].is_none() {
                        first_compute[worker] = Some(time);
                    }
                    if let Some(prev_end) = last_compute_end[worker] {
                        if time > prev_end + 1e-12 {
                            gaps.push(Gap {
                                worker,
                                start: prev_end,
                                end: time,
                            });
                        }
                    }
                    current_start[worker] = Some(time);
                }
                TraceEvent::ComputeEnd { worker, time, .. } if worker < num_workers => {
                    if let Some(s) = current_start[worker].take() {
                        busy[worker] += time - s;
                    }
                    last_compute_end[worker] = Some(time);
                }
                TraceEvent::ChunkLost { chunk, .. } => {
                    work_lost += chunk;
                }
                TraceEvent::Redispatch { chunk, .. } => {
                    work_redispatched += chunk;
                }
                TraceEvent::WorkerDown { worker, time } if worker < num_workers => {
                    down_since[worker] = Some(time);
                }
                TraceEvent::WorkerUp { worker, time } if worker < num_workers => {
                    if let Some(s) = down_since[worker].take() {
                        per_worker_downtime[worker] += time - s;
                    }
                }
                _ => {}
            }
        }
        for (w, since) in down_since.iter().enumerate() {
            if let Some(s) = since {
                per_worker_downtime[w] += makespan - s;
            }
        }

        let mut density_sum = 0.0;
        let mut density_count = 0usize;
        for w in 0..num_workers {
            if let (Some(first), Some(last)) = (first_compute[w], last_compute_end[w]) {
                let window = last - first;
                if window > 0.0 {
                    density_sum += busy[w] / window;
                    density_count += 1;
                }
            }
        }

        TraceMetrics {
            makespan,
            link_utilization: if makespan > 0.0 {
                link_busy / makespan
            } else {
                0.0
            },
            mean_compute_density: if density_count > 0 {
                density_sum / density_count as f64
            } else {
                0.0
            },
            gaps,
            chunk_timeline,
            work_lost,
            work_redispatched,
            per_worker_downtime,
        }
    }

    /// Total idle time across all gaps.
    pub fn total_gap_time(&self) -> f64 {
        self.gaps.iter().map(Gap::duration).sum()
    }

    /// Index of the largest chunk in the dispatch timeline, if any — for an
    /// original RUMR run this marks the phase-1/phase-2 boundary.
    pub fn peak_chunk_index(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in self.chunk_timeline.iter().enumerate() {
            if best.map(|(_, b)| c > b).unwrap_or(true) {
                best = Some((i, c));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Completion metrics for one job of a multi-load run.
///
/// Optional fields are `None` when the job never finished — possible only
/// under faults without recovery (lost work is never re-sent, so the job
/// under-completes). Fault-free multi-load runs always complete every job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMetrics {
    /// Job index in the submitted set.
    pub job: usize,
    /// Release time of the job.
    pub release: f64,
    /// Total workload units of the job.
    pub size: f64,
    /// Time of the job's first dispatch, `None` if nothing was sent.
    pub first_dispatch: Option<f64>,
    /// Time the job's last workload unit finished computing.
    pub completion: Option<f64>,
    /// `completion - release`.
    pub response: Option<f64>,
    /// `response / lower_bound`; `>= 1` for every correct policy.
    pub stretch: Option<f64>,
    /// Universal single-load analytic lower bound on this job's response
    /// time (idle dedicated platform; see `JobSet::response_lower_bound`).
    pub lower_bound: f64,
    /// Workload units dispatched on the job's behalf (redispatches
    /// included).
    pub dispatched: f64,
    /// Workload units whose computation completed.
    pub completed: f64,
    /// Workload units destroyed by faults.
    pub lost: f64,
}

/// Cross-job fairness summary of a multi-load run.
///
/// Stretch (response time over the job's analytic lower bound) is the
/// standard size-normalized responsiveness measure; Jain's index
/// `(Σx)² / (n·Σx²)` over per-job stretches is 1 when all jobs are slowed
/// equally and approaches `1/n` when one job absorbs all the delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessSummary {
    /// Jobs that completed (and so have a stretch).
    pub completed_jobs: usize,
    /// Largest per-job stretch, `NaN` when no job completed.
    pub max_stretch: f64,
    /// Mean per-job stretch, `NaN` when no job completed.
    pub mean_stretch: f64,
    /// Jain's fairness index over per-job stretches, `NaN` when no job
    /// completed.
    pub jain_index: f64,
}

impl FairnessSummary {
    /// Summarize a run from its per-job metrics; jobs without a stretch
    /// (never completed) are excluded.
    pub fn from_jobs(jobs: &[JobMetrics]) -> Self {
        let stretches: Vec<f64> = jobs.iter().filter_map(|j| j.stretch).collect();
        if stretches.is_empty() {
            return FairnessSummary {
                completed_jobs: 0,
                max_stretch: f64::NAN,
                mean_stretch: f64::NAN,
                jain_index: f64::NAN,
            };
        }
        let n = stretches.len() as f64;
        let sum: f64 = stretches.iter().sum();
        let sum_sq: f64 = stretches.iter().map(|s| s * s).sum();
        FairnessSummary {
            completed_jobs: stretches.len(),
            max_stretch: stretches.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
            mean_stretch: sum / n,
            jain_index: (sum * sum) / (n * sum_sq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn trace_two_workers() -> Trace {
        let mut t = Trace::new();
        let mut push = |e| t.push(e);
        // Worker 0: computes [1,3] and [5,6] — a gap [3,5].
        push(TraceEvent::SendStart {
            worker: 0,
            chunk: 2.0,
            time: 0.0,
        });
        push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 2.0,
            time: 1.0,
        });
        push(TraceEvent::Arrival {
            worker: 0,
            chunk: 2.0,
            time: 1.0,
        });
        push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 2.0,
            time: 1.0,
        });
        push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 2.0,
            time: 3.0,
        });
        push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 4.0,
        });
        push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 5.0,
        });
        push(TraceEvent::Arrival {
            worker: 0,
            chunk: 1.0,
            time: 5.0,
        });
        push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 5.0,
        });
        push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 1.0,
            time: 6.0,
        });
        t
    }

    #[test]
    fn gap_detection() {
        let m = TraceMetrics::from_trace(&trace_two_workers(), 2);
        assert_eq!(m.gaps.len(), 1);
        let gap = m.gaps[0];
        assert_eq!(gap.worker, 0);
        assert!((gap.start - 3.0).abs() < 1e-12);
        assert!((gap.end - 5.0).abs() < 1e-12);
        assert!((gap.duration() - 2.0).abs() < 1e-12);
        assert!((m.total_gap_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn link_utilization_and_density() {
        let m = TraceMetrics::from_trace(&trace_two_workers(), 2);
        assert!((m.makespan - 6.0).abs() < 1e-12);
        // Link busy [0,1] and [4,5] of 6 s.
        assert!((m.link_utilization - 2.0 / 6.0).abs() < 1e-12);
        // Worker 0 computes 3 s in window [1,6]: density 0.6.
        assert!((m.mean_compute_density - 0.6).abs() < 1e-12);
    }

    #[test]
    fn chunk_timeline() {
        let m = TraceMetrics::from_trace(&trace_two_workers(), 2);
        assert_eq!(m.chunk_timeline, vec![2.0, 1.0]);
        assert_eq!(m.peak_chunk_index(), Some(0));
    }

    #[test]
    fn empty_trace() {
        let m = TraceMetrics::from_trace(&Trace::new(), 3);
        assert_eq!(m.makespan, 0.0);
        assert_eq!(m.link_utilization, 0.0);
        assert_eq!(m.mean_compute_density, 0.0);
        assert!(m.gaps.is_empty());
        assert!(m.peak_chunk_index().is_none());
    }

    #[test]
    fn gapless_run_has_density_one() {
        let mut t = Trace::new();
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 0.5,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 1.0,
            time: 0.5,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 0.5,
        });
        t.push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 1.0,
            time: 1.5,
        });
        t.push(TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.5,
        });
        t.push(TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 1.0,
        });
        t.push(TraceEvent::Arrival {
            worker: 0,
            chunk: 1.0,
            time: 1.0,
        });
        t.push(TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 1.5,
        });
        t.push(TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 1.0,
            time: 2.5,
        });
        let m = TraceMetrics::from_trace(&t, 1);
        assert!(m.gaps.is_empty());
        assert!((m.mean_compute_density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_accounting() {
        let mut t = trace_two_workers();
        t.push(TraceEvent::WorkerDown {
            worker: 1,
            time: 2.0,
        });
        t.push(TraceEvent::ChunkLost {
            worker: 1,
            chunk: 3.0,
            stage: crate::trace::LostStage::Computing,
            time: 2.0,
        });
        t.push(TraceEvent::WorkerUp {
            worker: 1,
            time: 4.5,
        });
        t.push(TraceEvent::Redispatch {
            worker: 0,
            chunk: 3.0,
            time: 5.0,
        });
        // Worker 0 goes down at 5.5 and never recovers: open interval
        // counts up to the makespan (6.0).
        t.push(TraceEvent::WorkerDown {
            worker: 0,
            time: 5.5,
        });
        let m = TraceMetrics::from_trace(&t, 2);
        assert!((m.work_lost - 3.0).abs() < 1e-12);
        assert!((m.work_redispatched - 3.0).abs() < 1e-12);
        assert!((m.per_worker_downtime[1] - 2.5).abs() < 1e-12);
        assert!((m.per_worker_downtime[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fault_free_trace_has_zero_fault_metrics() {
        let m = TraceMetrics::from_trace(&trace_two_workers(), 2);
        assert_eq!(m.work_lost, 0.0);
        assert_eq!(m.work_redispatched, 0.0);
        assert!(m.per_worker_downtime.iter().all(|&d| d == 0.0));
    }

    fn job(job: usize, stretch: Option<f64>) -> JobMetrics {
        JobMetrics {
            job,
            release: 0.0,
            size: 100.0,
            first_dispatch: Some(0.0),
            completion: stretch.map(|s| s * 10.0),
            response: stretch.map(|s| s * 10.0),
            stretch,
            lower_bound: 10.0,
            dispatched: 100.0,
            completed: if stretch.is_some() { 100.0 } else { 50.0 },
            lost: 0.0,
        }
    }

    #[test]
    fn fairness_equal_stretches_is_perfectly_fair() {
        let jobs = vec![job(0, Some(2.0)), job(1, Some(2.0)), job(2, Some(2.0))];
        let f = FairnessSummary::from_jobs(&jobs);
        assert_eq!(f.completed_jobs, 3);
        assert!((f.max_stretch - 2.0).abs() < 1e-12);
        assert!((f.mean_stretch - 2.0).abs() < 1e-12);
        assert!((f.jain_index - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_skewed_stretches_lower_jain() {
        let jobs = vec![job(0, Some(1.0)), job(1, Some(9.0))];
        let f = FairnessSummary::from_jobs(&jobs);
        assert!((f.max_stretch - 9.0).abs() < 1e-12);
        assert!((f.mean_stretch - 5.0).abs() < 1e-12);
        // Jain = (10)^2 / (2 * 82) ≈ 0.6098 — far from fair.
        assert!((f.jain_index - 100.0 / 164.0).abs() < 1e-12);
        assert!(f.jain_index < 0.75);
    }

    #[test]
    fn fairness_excludes_incomplete_jobs() {
        let jobs = vec![job(0, Some(3.0)), job(1, None)];
        let f = FairnessSummary::from_jobs(&jobs);
        assert_eq!(f.completed_jobs, 1);
        assert!((f.jain_index - 1.0).abs() < 1e-12);

        let none = FairnessSummary::from_jobs(&[job(0, None)]);
        assert_eq!(none.completed_jobs, 0);
        assert!(none.max_stretch.is_nan());
        assert!(none.mean_stretch.is_nan());
        assert!(none.jain_index.is_nan());
    }
}
