//! Streaming invariant checking: the physical platform model, asserted
//! while the engine runs.
//!
//! The [`InvariantChecker`] here consumes each [`TraceEvent`] as the engine
//! emits it — the engine calls it from its event recorder, which fires in
//! **every** trace mode — so audits run under `MetricsOnly` (or even `Off`)
//! with O(live chunks) memory instead of O(events).
//! [`Trace::validate`](crate::Trace::validate) replays a stored trace
//! through this checker, so live audits and post-hoc validation share one
//! rule set.
//!
//! Checked while streaming:
//!
//! * **Monotone event time** — no event may fire before its predecessor.
//! * **Serial master occupation** — at most `max_sends` transfers
//!   (`nLat + chunk/B` intervals, and output returns) open at once.
//! * **Per-worker serial compute** — one computation at a time, consuming
//!   arrived chunks in FIFO order.
//! * **Causality** — arrival only after a completed send, compute only
//!   after arrival, fault events alternate sanely, a lost chunk is retired
//!   from exactly the lifecycle stage it occupied.
//! * **Value sanity** — finite, non-negative times and chunk sizes.
//!
//! At the end of the run, [`InvariantChecker::finalize`] closes the books:
//! structural end-state (no dangling transfers or computations — skipped
//! when the engine legitimately gave up on unreachable work after faults)
//! and **work conservation against the engine's own ledger**: the sums of
//! chunk sizes observed in the event stream must reproduce the
//! dispatched/completed/lost totals the engine reports.
//!
//! Enable via [`SimConfig::audit`](crate::SimConfig); findings are returned
//! in [`SimResult::audit`](crate::SimResult).

use std::fmt;

use crate::trace::{LostStage, TraceEvent};

/// Float tolerance for matching chunk sizes and comparing event times.
/// Event times come from sums of perturbed durations, so exact equality
/// can't be demanded.
const TIME_EPS: f64 = 1e-9;

/// Findings kept verbatim before the checker starts counting instead of
/// storing (one engine bug typically violates an invariant at every event,
/// and an audit report needs the first few, not millions).
const MAX_FINDINGS: usize = 32;

/// The invariant class a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// An event fired earlier than its predecessor.
    NonMonotoneTime,
    /// The master had more simultaneous transfers open than the platform
    /// allows (or a transfer ended that was never started).
    MasterOccupation,
    /// A worker computed two chunks at once, or a computation ended that
    /// never started.
    SerialCompute,
    /// A causal edge was violated (arrival without send, compute without
    /// arrival, fault-event misordering, loss from a wrong stage).
    Causality,
    /// A non-finite or negative time or chunk size.
    InvalidValue,
    /// The event stream's work sums disagree with the engine's ledger, or
    /// dispatched work is not fully accounted as computed + lost.
    LedgerMismatch,
    /// Multi-load arbitration violated a job's release time: work was
    /// dispatched on a job's behalf before the job arrived.
    JobRelease,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvariantKind::NonMonotoneTime => "non-monotone event time",
            InvariantKind::MasterOccupation => "master occupation violated",
            InvariantKind::SerialCompute => "serial compute violated",
            InvariantKind::Causality => "causality violated",
            InvariantKind::InvalidValue => "invalid value",
            InvariantKind::LedgerMismatch => "ledger mismatch",
            InvariantKind::JobRelease => "dispatch before job release",
        })
    }
}

/// One invariant violation caught by the streaming checker.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantFinding {
    /// Which invariant class was violated.
    pub kind: InvariantKind,
    /// 0-based index of the offending event in the run's event stream
    /// (`usize::MAX` for end-of-run findings).
    pub event_index: usize,
    /// Simulation time of the offending event (end-of-run findings carry
    /// the final event's time).
    pub time: f64,
    /// Worker involved, if the violation is worker-local.
    pub worker: Option<usize>,
    /// Human-readable description of what exactly went wrong.
    pub detail: String,
}

impl fmt::Display for InvariantFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.kind)?;
        if self.event_index != usize::MAX {
            write!(f, "event {} ", self.event_index)?;
        }
        write!(f, "t={:.6}: {}", self.time, self.detail)?;
        if let Some(w) = self.worker {
            write!(f, " (worker {w})")?;
        }
        Ok(())
    }
}

/// The engine's end-of-run work ledger, handed to
/// [`InvariantChecker::finalize`] for cross-checking against the event
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkLedger {
    /// Workload units the engine dispatched (sum over send starts).
    pub dispatched: f64,
    /// Workload units the engine recorded as completed.
    pub completed: f64,
    /// Workload units the engine recorded as destroyed by faults.
    pub lost: f64,
    /// Workload units the engine reports as dispatched-but-unaccounted at
    /// termination (non-zero only when a faulty run gave up on unreachable
    /// work; structural end-state checks are skipped in that case).
    pub outstanding: f64,
}

/// Streaming checker of the platform model's physical invariants.
///
/// Runs *inside* the engine with no stored trace:
/// feed every emitted [`TraceEvent`] to [`InvariantChecker::observe`], then
/// call [`InvariantChecker::finalize`] with the engine's [`WorkLedger`].
/// [`Trace::validate`](crate::Trace::validate) replays a stored trace
/// through this checker, with the trace's own work sums as the ledger.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    num_workers: usize,
    max_sends: usize,
    event_index: usize,
    last_time: f64,
    // Chunk-lifecycle state.
    open_sends: Vec<Vec<f64>>,
    open_returns: Vec<Vec<f64>>,
    open_send_count: usize,
    sent_not_arrived: Vec<std::collections::VecDeque<f64>>,
    queued: Vec<std::collections::VecDeque<f64>>,
    computing: Vec<Option<f64>>,
    alive: Vec<bool>,
    // Observed work sums for the ledger cross-check.
    seen_dispatched: f64,
    seen_computed: f64,
    seen_lost: f64,
    findings: Vec<InvariantFinding>,
    suppressed: usize,
}

impl InvariantChecker {
    /// A checker for a platform with `num_workers` workers and at most
    /// `max_sends` concurrent master transfers (1 = the paper's serial
    /// link).
    pub fn new(num_workers: usize, max_sends: usize) -> Self {
        InvariantChecker {
            num_workers,
            max_sends,
            event_index: 0,
            last_time: 0.0,
            open_sends: vec![Vec::new(); num_workers],
            open_returns: vec![Vec::new(); num_workers],
            open_send_count: 0,
            sent_not_arrived: vec![Default::default(); num_workers],
            queued: vec![Default::default(); num_workers],
            computing: vec![None; num_workers],
            alive: vec![true; num_workers],
            seen_dispatched: 0.0,
            seen_computed: 0.0,
            seen_lost: 0.0,
            findings: Vec::new(),
            suppressed: 0,
        }
    }

    /// Reset to the initial state (engine reuse between repetitions),
    /// keeping every table's allocation. The pattern names every field, so
    /// a new field does not compile until it is reset here too.
    pub fn reset(&mut self) {
        let InvariantChecker {
            num_workers: _,
            max_sends: _,
            event_index,
            last_time,
            open_sends,
            open_returns,
            open_send_count,
            sent_not_arrived,
            queued,
            computing,
            alive,
            seen_dispatched,
            seen_computed,
            seen_lost,
            findings,
            suppressed,
        } = self;
        *event_index = 0;
        *last_time = 0.0;
        open_sends.iter_mut().for_each(Vec::clear);
        open_returns.iter_mut().for_each(Vec::clear);
        *open_send_count = 0;
        sent_not_arrived.iter_mut().for_each(|q| q.clear());
        queued.iter_mut().for_each(|q| q.clear());
        computing.fill(None);
        alive.fill(true);
        *seen_dispatched = 0.0;
        *seen_computed = 0.0;
        *seen_lost = 0.0;
        findings.clear();
        *suppressed = 0;
    }

    /// Total allocated capacity (entries) of the per-worker tables. The
    /// engine's reuse test asserts this stops growing across `reset`s.
    #[cfg(test)]
    pub(crate) fn capacity_probe(&self) -> usize {
        let vecs = self.open_sends.iter().chain(&self.open_returns);
        let deques = self.sent_not_arrived.iter().chain(&self.queued);
        vecs.map(Vec::capacity).sum::<usize>() + deques.map(|q| q.capacity()).sum::<usize>()
    }

    /// Findings recorded so far.
    pub fn findings(&self) -> &[InvariantFinding] {
        &self.findings
    }

    /// Violations dropped after the findings cap was reached.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    fn report(
        &mut self,
        kind: InvariantKind,
        time: f64,
        worker: Option<usize>,
        detail: impl Into<String>,
    ) {
        if self.findings.len() >= MAX_FINDINGS {
            self.suppressed += 1;
            return;
        }
        self.findings.push(InvariantFinding {
            kind,
            event_index: self.event_index,
            time,
            worker,
            detail: detail.into(),
        });
    }

    /// Feed one emitted event through the state machine.
    pub fn observe(&mut self, e: &TraceEvent) {
        let t = e.time();
        let w = e.worker();
        if !t.is_finite() || t < 0.0 {
            self.report(
                InvariantKind::InvalidValue,
                t,
                Some(w),
                format!("event time {t} is not a finite non-negative number"),
            );
            self.event_index += 1;
            return;
        }
        if w >= self.num_workers {
            self.report(
                InvariantKind::InvalidValue,
                t,
                Some(w),
                format!("worker index {w} out of range (< {})", self.num_workers),
            );
            self.event_index += 1;
            return;
        }
        if t < self.last_time - TIME_EPS {
            self.report(
                InvariantKind::NonMonotoneTime,
                t,
                Some(w),
                format!("time {t} precedes previous event at {}", self.last_time),
            );
        }
        self.last_time = self.last_time.max(t);

        let near = |a: f64, b: f64| (a - b).abs() < TIME_EPS;
        match *e {
            TraceEvent::SendStart { worker, chunk, .. } => {
                if !chunk.is_finite() || chunk < 0.0 {
                    self.report(
                        InvariantKind::InvalidValue,
                        t,
                        Some(worker),
                        format!("chunk size {chunk} is not a finite non-negative number"),
                    );
                }
                if self.open_send_count >= self.max_sends {
                    self.report(
                        InvariantKind::MasterOccupation,
                        t,
                        Some(worker),
                        format!(
                            "send of {chunk} started with {} transfer(s) already open (max {})",
                            self.open_send_count, self.max_sends
                        ),
                    );
                }
                self.seen_dispatched += chunk;
                self.open_sends[worker].push(chunk);
                self.open_send_count += 1;
            }
            TraceEvent::SendEnd { worker, chunk, .. } => {
                match self.open_sends[worker]
                    .iter()
                    .position(|&sc| near(sc, chunk))
                {
                    Some(pos) => {
                        self.open_sends[worker].remove(pos);
                        self.open_send_count -= 1;
                        self.sent_not_arrived[worker].push_back(chunk);
                    }
                    None => self.report(
                        InvariantKind::MasterOccupation,
                        t,
                        Some(worker),
                        format!("send of {chunk} ended but was never started"),
                    ),
                }
            }
            TraceEvent::Arrival { worker, chunk, .. } => {
                match self.sent_not_arrived[worker].pop_front() {
                    Some(sc) if near(sc, chunk) => self.queued[worker].push_back(chunk),
                    _ => self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        format!("chunk {chunk} arrived without a completed send"),
                    ),
                }
            }
            TraceEvent::ComputeStart { worker, chunk, .. } => {
                if let Some(busy) = self.computing[worker] {
                    self.report(
                        InvariantKind::SerialCompute,
                        t,
                        Some(worker),
                        format!("compute of {chunk} started while {busy} still computing"),
                    );
                }
                match self.queued[worker].pop_front() {
                    Some(qc) if near(qc, chunk) => self.computing[worker] = Some(chunk),
                    _ => self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        format!("compute of {chunk} started before the chunk arrived"),
                    ),
                }
            }
            TraceEvent::ComputeEnd { worker, chunk, .. } => {
                self.seen_computed += chunk;
                match self.computing[worker].take() {
                    Some(cc) if near(cc, chunk) => {}
                    _ => self.report(
                        InvariantKind::SerialCompute,
                        t,
                        Some(worker),
                        format!("compute of {chunk} ended but was not running"),
                    ),
                }
            }
            TraceEvent::ReturnStart { worker, bytes, .. } => {
                if !bytes.is_finite() || bytes < 0.0 {
                    self.report(
                        InvariantKind::InvalidValue,
                        t,
                        Some(worker),
                        format!("return size {bytes} is not a finite non-negative number"),
                    );
                }
                if self.open_send_count >= self.max_sends {
                    self.report(
                        InvariantKind::MasterOccupation,
                        t,
                        Some(worker),
                        format!(
                            "return of {bytes} started with {} transfer(s) already open (max {})",
                            self.open_send_count, self.max_sends
                        ),
                    );
                }
                self.open_returns[worker].push(bytes);
                self.open_send_count += 1;
            }
            TraceEvent::ReturnEnd { worker, bytes, .. } => {
                match self.open_returns[worker]
                    .iter()
                    .position(|&b| near(b, bytes))
                {
                    Some(pos) => {
                        self.open_returns[worker].remove(pos);
                        self.open_send_count -= 1;
                    }
                    None => self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        format!("return of {bytes} completed without a matching start"),
                    ),
                }
            }
            TraceEvent::WorkerDown { worker, .. } => {
                if !self.alive[worker] {
                    self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        "worker went down while already down",
                    );
                }
                self.alive[worker] = false;
            }
            TraceEvent::WorkerUp { worker, .. } => {
                if self.alive[worker] {
                    self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        "worker recovered while already up",
                    );
                }
                self.alive[worker] = true;
            }
            TraceEvent::ChunkLost {
                worker,
                chunk,
                stage,
                ..
            } => {
                if !chunk.is_finite() || chunk < 0.0 {
                    self.report(
                        InvariantKind::InvalidValue,
                        t,
                        Some(worker),
                        format!("lost chunk size {chunk} is not a finite non-negative number"),
                    );
                    self.event_index += 1;
                    return;
                }
                self.seen_lost += chunk;
                let found = match stage {
                    LostStage::Computing => self.computing[worker]
                        .filter(|&c| near(c, chunk))
                        .map(|_| self.computing[worker] = None)
                        .is_some(),
                    LostStage::Queued => self.queued[worker]
                        .iter()
                        .position(|&c| near(c, chunk))
                        .map(|pos| {
                            self.queued[worker].remove(pos);
                        })
                        .is_some(),
                    LostStage::InFlight => self.sent_not_arrived[worker]
                        .iter()
                        .position(|&c| near(c, chunk))
                        .map(|pos| {
                            self.sent_not_arrived[worker].remove(pos);
                        })
                        .is_some(),
                    LostStage::Sending => self.open_sends[worker]
                        .iter()
                        .position(|&c| near(c, chunk))
                        .map(|pos| {
                            self.open_sends[worker].remove(pos);
                            self.open_send_count -= 1;
                        })
                        .is_some(),
                };
                if !found {
                    self.report(
                        InvariantKind::Causality,
                        t,
                        Some(worker),
                        format!("chunk {chunk} lost in stage {stage:?} it never reached"),
                    );
                }
            }
            TraceEvent::Redispatch { .. } => {
                // Accounting marker; the transfer is the SendStart after it.
            }
        }
        self.event_index += 1;
    }

    /// Close the books: structural end-state plus conservation against the
    /// engine's ledger. Returns all findings (streamed + final), leaving
    /// the checker in a consumed state; a suppression notice is appended
    /// when more than `MAX_FINDINGS` (32) violations occurred.
    ///
    /// When `ledger.outstanding` is materially non-zero the run ended with
    /// the engine giving up on unreachable work (faulty run), so dangling
    /// transfers/computations are expected and the structural checks are
    /// skipped; the ledger identity `dispatched = completed + lost +
    /// outstanding` is checked regardless.
    pub fn finalize(&mut self, ledger: WorkLedger) -> Vec<InvariantFinding> {
        self.event_index = usize::MAX;
        let t = self.last_time;
        let scale = ledger.dispatched.abs().max(1.0);
        let gave_up = ledger.outstanding.abs() > 1e-6 * scale;

        if !gave_up {
            if self.open_send_count > 0 {
                self.report(
                    InvariantKind::MasterOccupation,
                    t,
                    None,
                    format!(
                        "{} transfer(s) still open at end of run",
                        self.open_send_count
                    ),
                );
            }
            for w in 0..self.num_workers {
                if let Some(c) = self.computing[w] {
                    self.report(
                        InvariantKind::SerialCompute,
                        t,
                        Some(w),
                        format!("chunk {c} still computing at end of run"),
                    );
                }
            }
        }

        // The event stream must reproduce the engine's own ledger …
        for (what, seen, reported) in [
            ("dispatched", self.seen_dispatched, ledger.dispatched),
            ("completed", self.seen_computed, ledger.completed),
            ("lost", self.seen_lost, ledger.lost),
        ] {
            if (seen - reported).abs() > 1e-6 * scale {
                self.report(
                    InvariantKind::LedgerMismatch,
                    t,
                    None,
                    format!("event stream saw {seen} {what} work, ledger reports {reported}"),
                );
            }
        }
        // … and the ledger itself must balance.
        let accounted = ledger.completed + ledger.lost + ledger.outstanding;
        if (ledger.dispatched - accounted).abs() > 1e-6 * scale {
            self.report(
                InvariantKind::LedgerMismatch,
                t,
                None,
                format!(
                    "dispatched {} but completed {} + lost {} + outstanding {} = {accounted}",
                    ledger.dispatched, ledger.completed, ledger.lost, ledger.outstanding
                ),
            );
        }

        if self.suppressed > 0 {
            let n = self.suppressed;
            self.findings.push(InvariantFinding {
                kind: InvariantKind::LedgerMismatch,
                event_index: usize::MAX,
                time: t,
                worker: None,
                detail: format!("…and {n} further violation(s) suppressed"),
            });
        }
        std::mem::take(&mut self.findings)
    }
}

/// One job's end-of-run work totals, handed to
/// [`MultiJobChecker::finalize`] by the multi-load arbitration layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLedgerEntry {
    /// Workload units dispatched on the job's behalf (redispatches
    /// included).
    pub dispatched: f64,
    /// Workload units whose computation completed.
    pub completed: f64,
    /// Workload units destroyed by faults.
    pub lost: f64,
}

/// Multi-load companion to [`InvariantChecker`]: per-job ledger and
/// cross-job master-exclusivity checks.
///
/// The engine-level checker audits the *physics* (serial master, serial
/// compute, global work conservation) but is blind to job identity — a
/// multi-load run that charged job A's chunk to job B, or served a job
/// before its release, passes it cleanly. This checker consumes the
/// arbitration layer's job-attributed observations instead:
///
/// * [`observe_dispatch`](MultiJobChecker::observe_dispatch) — every
///   dispatch, checked against the job's release time, accumulated into
///   the per-job dispatched sum.
/// * [`observe_send_interval`](MultiJobChecker::observe_send_interval) —
///   the master-occupation interval of each send in dispatch order;
///   intervals of *different* jobs must not overlap on a serial master
///   (same-job overlap is already the engine checker's
///   `MasterOccupation`).
/// * [`finalize`](MultiJobChecker::finalize) — per-job work conservation:
///   the dispatches seen must reproduce each job's reported ledger, and
///   each ledger must balance (`dispatched = completed + lost` up to the
///   job's declared outstanding remainder).
#[derive(Debug, Clone)]
pub struct MultiJobChecker {
    releases: Vec<f64>,
    seen_dispatched: Vec<f64>,
    last_send: Option<(usize, f64)>,
    findings: Vec<InvariantFinding>,
    suppressed: usize,
}

impl MultiJobChecker {
    /// A checker for jobs with the given release times.
    pub fn new(releases: Vec<f64>) -> Self {
        let n = releases.len();
        MultiJobChecker {
            releases,
            seen_dispatched: vec![0.0; n],
            last_send: None,
            findings: Vec::new(),
            suppressed: 0,
        }
    }

    fn report(&mut self, kind: InvariantKind, time: f64, detail: String) {
        if self.findings.len() >= MAX_FINDINGS {
            self.suppressed += 1;
            return;
        }
        self.findings.push(InvariantFinding {
            kind,
            event_index: usize::MAX,
            time,
            worker: None,
            detail,
        });
    }

    /// Record one dispatch attributed to `job` at `time` for `chunk`
    /// units. Flags dispatches before the job's release and unknown job
    /// indices.
    pub fn observe_dispatch(&mut self, job: usize, time: f64, chunk: f64) {
        let Some(&release) = self.releases.get(job) else {
            self.report(
                InvariantKind::JobRelease,
                time,
                format!("dispatch attributed to unknown job {job}"),
            );
            return;
        };
        if time < release - TIME_EPS {
            self.report(
                InvariantKind::JobRelease,
                time,
                format!("job {job} dispatched at t={time} before its release {release}"),
            );
        }
        self.seen_dispatched[job] += chunk;
    }

    /// Record one master-occupation interval `[start, end]` attributed to
    /// `job`, in dispatch order. Two consecutive intervals belonging to
    /// different jobs must not overlap.
    pub fn observe_send_interval(&mut self, job: usize, start: f64, end: f64) {
        if let Some((prev_job, prev_end)) = self.last_send {
            if prev_job != job && start < prev_end - TIME_EPS {
                self.report(
                    InvariantKind::MasterOccupation,
                    start,
                    format!(
                        "job {job}'s send starts at t={start} while job {prev_job}'s \
                         send is still open until t={prev_end}"
                    ),
                );
            }
        }
        self.last_send = Some((job, end.max(start)));
    }

    /// Close the books: each job's observed dispatches must reproduce its
    /// reported ledger, and each ledger must balance. `gave_up` skips the
    /// balance check (faulty runs without recovery legitimately leave
    /// lost work unaccounted as completed). Returns all findings and
    /// resets the checker.
    pub fn finalize(&mut self, per_job: &[JobLedgerEntry], gave_up: bool) -> Vec<InvariantFinding> {
        if per_job.len() != self.releases.len() {
            let (got, want) = (per_job.len(), self.releases.len());
            self.report(
                InvariantKind::LedgerMismatch,
                0.0,
                format!("{got} job ledgers reported for {want} jobs"),
            );
        }
        for (j, entry) in per_job.iter().enumerate() {
            let seen = self.seen_dispatched.get(j).copied().unwrap_or(0.0);
            let scale = entry.dispatched.abs().max(1.0);
            if (seen - entry.dispatched).abs() > 1e-6 * scale {
                self.report(
                    InvariantKind::LedgerMismatch,
                    0.0,
                    format!(
                        "job {j}: dispatch stream saw {seen} units, ledger reports {}",
                        entry.dispatched
                    ),
                );
            }
            let accounted = entry.completed + entry.lost;
            if !gave_up && (entry.dispatched - accounted).abs() > 1e-6 * scale {
                self.report(
                    InvariantKind::LedgerMismatch,
                    0.0,
                    format!(
                        "job {j}: dispatched {} but completed {} + lost {} = {accounted}",
                        entry.dispatched, entry.completed, entry.lost
                    ),
                );
            }
        }
        if self.suppressed > 0 {
            let n = self.suppressed;
            self.findings.push(InvariantFinding {
                kind: InvariantKind::LedgerMismatch,
                event_index: usize::MAX,
                time: 0.0,
                worker: None,
                detail: format!("…and {n} further violation(s) suppressed"),
            });
        }
        self.last_send = None;
        self.seen_dispatched.iter_mut().for_each(|d| *d = 0.0);
        self.suppressed = 0;
        std::mem::take(&mut self.findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_ledger(dispatched: f64, completed: f64, lost: f64) -> WorkLedger {
        WorkLedger {
            dispatched,
            completed,
            lost,
            outstanding: dispatched - completed - lost,
        }
    }

    /// The trace module's valid fixture fed to the checker directly: two
    /// chunks, serial sends, serial computes.
    fn feed_valid(checker: &mut InvariantChecker) {
        let events = [
            TraceEvent::SendStart {
                worker: 0,
                chunk: 5.0,
                time: 0.0,
            },
            TraceEvent::SendEnd {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::Arrival {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::SendStart {
                worker: 1,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::ComputeStart {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::SendEnd {
                worker: 1,
                chunk: 5.0,
                time: 2.0,
            },
            TraceEvent::Arrival {
                worker: 1,
                chunk: 5.0,
                time: 2.0,
            },
            TraceEvent::ComputeStart {
                worker: 1,
                chunk: 5.0,
                time: 2.0,
            },
            TraceEvent::ComputeEnd {
                worker: 0,
                chunk: 5.0,
                time: 6.0,
            },
            TraceEvent::ComputeEnd {
                worker: 1,
                chunk: 5.0,
                time: 7.0,
            },
        ];
        for e in &events {
            checker.observe(e);
        }
    }

    #[test]
    fn clean_run_has_no_findings() {
        let mut c = InvariantChecker::new(2, 1);
        feed_valid(&mut c);
        let findings = c.finalize(clean_ledger(10.0, 10.0, 0.0));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn detects_overlapping_sends() {
        let mut c = InvariantChecker::new(2, 1);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        c.observe(&TraceEvent::SendStart {
            worker: 1,
            chunk: 1.0,
            time: 0.5,
        });
        assert!(c
            .findings()
            .iter()
            .any(|f| f.kind == InvariantKind::MasterOccupation));
    }

    #[test]
    fn respects_concurrency_limit() {
        let mut c = InvariantChecker::new(2, 2);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        c.observe(&TraceEvent::SendStart {
            worker: 1,
            chunk: 1.0,
            time: 0.5,
        });
        assert!(c.findings().is_empty(), "two opens allowed at max_sends=2");
    }

    #[test]
    fn detects_non_monotone_time() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: 1.0,
            time: 5.0,
        });
        c.observe(&TraceEvent::SendEnd {
            worker: 0,
            chunk: 1.0,
            time: 1.0,
        });
        assert!(c
            .findings()
            .iter()
            .any(|f| f.kind == InvariantKind::NonMonotoneTime));
    }

    #[test]
    fn detects_compute_without_arrival() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        assert!(c
            .findings()
            .iter()
            .any(|f| f.kind == InvariantKind::Causality));
    }

    #[test]
    fn detects_overlapping_computation() {
        let mut c = InvariantChecker::new(1, 1);
        for e in [
            TraceEvent::SendStart {
                worker: 0,
                chunk: 1.0,
                time: 0.0,
            },
            TraceEvent::SendEnd {
                worker: 0,
                chunk: 1.0,
                time: 0.1,
            },
            TraceEvent::Arrival {
                worker: 0,
                chunk: 1.0,
                time: 0.1,
            },
            TraceEvent::SendStart {
                worker: 0,
                chunk: 2.0,
                time: 0.1,
            },
            TraceEvent::SendEnd {
                worker: 0,
                chunk: 2.0,
                time: 0.2,
            },
            TraceEvent::Arrival {
                worker: 0,
                chunk: 2.0,
                time: 0.2,
            },
            TraceEvent::ComputeStart {
                worker: 0,
                chunk: 1.0,
                time: 0.2,
            },
            TraceEvent::ComputeStart {
                worker: 0,
                chunk: 2.0,
                time: 0.3,
            },
        ] {
            c.observe(&e);
        }
        assert!(c
            .findings()
            .iter()
            .any(|f| f.kind == InvariantKind::SerialCompute));
    }

    #[test]
    fn detects_invalid_values() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: f64::NAN,
            time: 0.0,
        });
        c.observe(&TraceEvent::SendStart {
            worker: 7,
            chunk: 1.0,
            time: 0.0,
        });
        c.observe(&TraceEvent::ComputeEnd {
            worker: 0,
            chunk: 1.0,
            time: f64::INFINITY,
        });
        let kinds: Vec<_> = c.findings().iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|&&k| k == InvariantKind::InvalidValue)
                .count(),
            3,
            "{kinds:?}"
        );
    }

    #[test]
    fn detects_dangling_state_at_end() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        });
        let findings = c.finalize(WorkLedger {
            dispatched: 5.0,
            completed: 0.0,
            lost: 0.0,
            outstanding: 0.0,
        });
        assert!(findings
            .iter()
            .any(|f| f.kind == InvariantKind::MasterOccupation));
        // dispatched ≠ completed + lost + outstanding too:
        assert!(findings
            .iter()
            .any(|f| f.kind == InvariantKind::LedgerMismatch));
    }

    #[test]
    fn gave_up_run_skips_structural_checks() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::SendStart {
            worker: 0,
            chunk: 5.0,
            time: 0.0,
        });
        // The engine reports 5.0 outstanding: it gave up on unreachable
        // work, so the dangling transfer is expected.
        let findings = c.finalize(WorkLedger {
            dispatched: 5.0,
            completed: 0.0,
            lost: 0.0,
            outstanding: 5.0,
        });
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn detects_ledger_mismatch() {
        let mut c = InvariantChecker::new(2, 1);
        feed_valid(&mut c);
        // Engine claims it completed more than the stream shows.
        let findings = c.finalize(WorkLedger {
            dispatched: 10.0,
            completed: 12.0,
            lost: 0.0,
            outstanding: 0.0,
        });
        assert!(findings
            .iter()
            .any(|f| f.kind == InvariantKind::LedgerMismatch));
    }

    #[test]
    fn fault_lifecycle_is_clean() {
        let mut c = InvariantChecker::new(2, 1);
        for e in [
            TraceEvent::SendStart {
                worker: 0,
                chunk: 5.0,
                time: 0.0,
            },
            TraceEvent::SendEnd {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::Arrival {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::ComputeStart {
                worker: 0,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::SendStart {
                worker: 1,
                chunk: 5.0,
                time: 1.0,
            },
            TraceEvent::WorkerDown {
                worker: 1,
                time: 1.5,
            },
            TraceEvent::ChunkLost {
                worker: 1,
                chunk: 5.0,
                stage: LostStage::Sending,
                time: 1.5,
            },
            TraceEvent::WorkerUp {
                worker: 1,
                time: 4.0,
            },
            TraceEvent::ComputeEnd {
                worker: 0,
                chunk: 5.0,
                time: 6.0,
            },
        ] {
            c.observe(&e);
        }
        let findings = c.finalize(clean_ledger(10.0, 5.0, 5.0));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn detects_wrong_stage_loss_and_double_down() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe(&TraceEvent::ChunkLost {
            worker: 0,
            chunk: 5.0,
            stage: LostStage::Queued,
            time: 0.0,
        });
        c.observe(&TraceEvent::WorkerDown {
            worker: 0,
            time: 1.0,
        });
        c.observe(&TraceEvent::WorkerDown {
            worker: 0,
            time: 2.0,
        });
        c.observe(&TraceEvent::WorkerUp {
            worker: 0,
            time: 3.0,
        });
        c.observe(&TraceEvent::WorkerUp {
            worker: 0,
            time: 4.0,
        });
        let causality = c
            .findings()
            .iter()
            .filter(|f| f.kind == InvariantKind::Causality)
            .count();
        assert_eq!(causality, 3, "{:?}", c.findings());
    }

    #[test]
    fn findings_are_capped_with_suppression_notice() {
        let mut c = InvariantChecker::new(1, 1);
        for i in 0..(MAX_FINDINGS + 10) {
            // Every one of these is a causality violation.
            c.observe(&TraceEvent::ComputeStart {
                worker: 0,
                chunk: 1.0,
                time: i as f64,
            });
        }
        assert_eq!(c.findings().len(), MAX_FINDINGS);
        assert!(c.suppressed() > 0);
        let findings = c.finalize(WorkLedger {
            dispatched: 0.0,
            completed: 0.0,
            lost: 0.0,
            outstanding: 0.0,
        });
        assert!(findings.last().unwrap().detail.contains("suppressed"));
    }

    #[test]
    fn reset_clears_state() {
        let mut c = InvariantChecker::new(2, 1);
        c.observe(&TraceEvent::ComputeStart {
            worker: 0,
            chunk: 1.0,
            time: 0.0,
        });
        assert!(!c.findings().is_empty());
        c.reset();
        assert!(c.findings().is_empty());
        feed_valid(&mut c);
        assert!(c.finalize(clean_ledger(10.0, 10.0, 0.0)).is_empty());
    }

    #[test]
    fn findings_display() {
        let f = InvariantFinding {
            kind: InvariantKind::SerialCompute,
            event_index: 3,
            time: 1.5,
            worker: Some(2),
            detail: "x".into(),
        };
        let s = format!("{f}");
        assert!(s.contains("serial compute"), "{s}");
        assert!(s.contains("event 3"), "{s}");
        assert!(s.contains("worker 2"), "{s}");
        for k in [
            InvariantKind::NonMonotoneTime,
            InvariantKind::MasterOccupation,
            InvariantKind::Causality,
            InvariantKind::InvalidValue,
            InvariantKind::LedgerMismatch,
            InvariantKind::JobRelease,
        ] {
            assert!(!format!("{k}").is_empty());
        }
    }

    #[test]
    fn multi_job_clean_run_has_no_findings() {
        let mut c = MultiJobChecker::new(vec![0.0, 10.0]);
        c.observe_dispatch(0, 0.0, 60.0);
        c.observe_send_interval(0, 0.0, 2.0);
        c.observe_dispatch(1, 10.0, 40.0);
        c.observe_send_interval(1, 10.0, 11.0);
        c.observe_dispatch(0, 11.0, 40.0);
        c.observe_send_interval(0, 11.0, 12.0);
        let findings = c.finalize(
            &[
                JobLedgerEntry {
                    dispatched: 100.0,
                    completed: 100.0,
                    lost: 0.0,
                },
                JobLedgerEntry {
                    dispatched: 40.0,
                    completed: 40.0,
                    lost: 0.0,
                },
            ],
            false,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn multi_job_flags_dispatch_before_release() {
        let mut c = MultiJobChecker::new(vec![0.0, 10.0]);
        c.observe_dispatch(1, 5.0, 40.0);
        let findings = c.finalize(
            &[
                JobLedgerEntry {
                    dispatched: 0.0,
                    completed: 0.0,
                    lost: 0.0,
                },
                JobLedgerEntry {
                    dispatched: 40.0,
                    completed: 40.0,
                    lost: 0.0,
                },
            ],
            false,
        );
        assert!(
            findings.iter().any(|f| f.kind == InvariantKind::JobRelease),
            "{findings:?}"
        );
    }

    #[test]
    fn multi_job_flags_cross_job_overlap() {
        let mut c = MultiJobChecker::new(vec![0.0, 0.0]);
        c.observe_dispatch(0, 0.0, 50.0);
        c.observe_send_interval(0, 0.0, 2.0);
        c.observe_dispatch(1, 1.0, 50.0);
        c.observe_send_interval(1, 1.0, 3.0); // opens before job 0's closes
        let findings = c.finalize(
            &[
                JobLedgerEntry {
                    dispatched: 50.0,
                    completed: 50.0,
                    lost: 0.0,
                },
                JobLedgerEntry {
                    dispatched: 50.0,
                    completed: 50.0,
                    lost: 0.0,
                },
            ],
            false,
        );
        assert!(
            findings
                .iter()
                .any(|f| f.kind == InvariantKind::MasterOccupation),
            "{findings:?}"
        );
    }

    #[test]
    fn multi_job_flags_ledger_mismatch() {
        let mut c = MultiJobChecker::new(vec![0.0]);
        c.observe_dispatch(0, 0.0, 50.0);
        // Stream saw 50 dispatched, ledger claims 70; and 70 != 30 + 0.
        let findings = c.finalize(
            &[JobLedgerEntry {
                dispatched: 70.0,
                completed: 30.0,
                lost: 0.0,
            }],
            false,
        );
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.kind == InvariantKind::LedgerMismatch)
                .count(),
            2,
            "{findings:?}"
        );
        // gave_up skips the balance check but not the stream cross-check.
        let mut c = MultiJobChecker::new(vec![0.0]);
        c.observe_dispatch(0, 0.0, 70.0);
        let findings = c.finalize(
            &[JobLedgerEntry {
                dispatched: 70.0,
                completed: 30.0,
                lost: 0.0,
            }],
            true,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
