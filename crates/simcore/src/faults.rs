//! Fault injection: worker crashes, recoveries, and transient link failures.
//!
//! The RUMR paper evaluates robustness against *performance-prediction
//! errors* only; real platforms also lose resources outright. This module
//! adds a failure model on top of the §3.1 platform:
//!
//! * **Crash-stop / crash-recovery workers** — a worker goes down at some
//!   time, instantly losing its queued and in-progress chunks; with a
//!   recovery time it later comes back up with an empty queue (its memory
//!   is wiped — chunks must be re-sent).
//! * **Transient link failures** — a link drop destroys every chunk
//!   currently in transit to a worker (setup, data, or fly phase) without
//!   taking the worker itself down.
//!
//! Fault times come either from a hand-written deterministic [`FaultPlan`]
//! (reproducible unit tests, examples) or from seeded Poisson processes
//! ([`PoissonFaults`]) for statistical sweeps. Either way the whole fault
//! sequence is materialized up front, so a simulation remains a pure
//! function of (platform, scheduler, error seed, fault model).
//!
//! What a fault does to in-flight work is defined by the engine (see
//! `docs/PLATFORM.md`, "Fault model"); this module only decides *when*
//! faults happen and *to whom*.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// What happens to a worker at a fault instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The worker crashes: queued and computing chunks are lost, transfers
    /// to it are aborted, and it accepts no work until a matching
    /// [`FaultAction::Up`].
    Down,
    /// The worker comes back up with an empty queue.
    Up,
    /// The link to the worker drops momentarily, destroying every chunk
    /// currently in transit to it. The worker itself stays up.
    LinkDrop,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time at which the fault strikes (s).
    pub time: f64,
    /// Affected worker (0-based).
    pub worker: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic, hand-written fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a fault; events may be added in any order.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative time.
    pub fn add(mut self, time: f64, worker: usize, action: FaultAction) -> Self {
        assert!(
            time.is_finite() && time >= 0.0,
            "fault time must be finite and non-negative"
        );
        self.events.push(FaultEvent {
            time,
            worker,
            action,
        });
        self
    }

    /// Crash `worker` at `time` and never recover it (crash-stop).
    pub fn crash(self, time: f64, worker: usize) -> Self {
        self.add(time, worker, FaultAction::Down)
    }

    /// Crash `worker` at `time` and bring it back up at `time + downtime`.
    pub fn crash_recover(self, time: f64, worker: usize, downtime: f64) -> Self {
        assert!(downtime > 0.0, "downtime must be positive");
        self.add(time, worker, FaultAction::Down)
            .add(time + downtime, worker, FaultAction::Up)
    }

    /// Drop the link to `worker` at `time`.
    pub fn link_drop(self, time: f64, worker: usize) -> Self {
        self.add(time, worker, FaultAction::LinkDrop)
    }

    /// The scheduled events (unsorted, as added).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Seeded stochastic fault model: per-worker Poisson failure processes.
///
/// Each worker independently alternates up/down periods: time-to-failure is
/// exponential with mean `mttf`, and (when `mttr` is set) time-to-repair is
/// exponential with mean `mttr`. `mttr = None` makes every failure
/// crash-stop. Optionally, an independent Poisson process of transient link
/// drops with mean inter-arrival `link_mtbf` runs per worker. Events are
/// generated up to `horizon` at injector construction, deterministically
/// from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonFaults {
    /// Mean time to failure per worker (s). Must be finite and positive.
    pub mttf: f64,
    /// Mean time to repair (s); `None` = crash-stop (no recovery).
    pub mttr: Option<f64>,
    /// Mean time between transient link drops per worker (s); `None`
    /// disables link faults.
    pub link_mtbf: Option<f64>,
    /// Generation horizon (s): no fault is generated past this time. Must
    /// be finite and positive; pick it comfortably above the expected
    /// makespan.
    pub horizon: f64,
    /// RNG seed for the fault processes (independent of the error seed).
    pub seed: u64,
}

impl PoissonFaults {
    /// Crash-stop failures with the given mean time to failure.
    pub fn crash_stop(mttf: f64, horizon: f64, seed: u64) -> Self {
        PoissonFaults {
            mttf,
            mttr: None,
            link_mtbf: None,
            horizon,
            seed,
        }
    }

    /// Crash-recovery failures.
    pub fn crash_recovery(mttf: f64, mttr: f64, horizon: f64, seed: u64) -> Self {
        PoissonFaults {
            mttf,
            mttr: Some(mttr),
            link_mtbf: None,
            horizon,
            seed,
        }
    }

    /// Check the parameters: `mttf` and `horizon` finite and positive, and
    /// `mttr` and `link_mtbf`, where set, finite and positive too.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a message.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        for (name, x) in [
            ("mttf", Some(self.mttf)),
            ("horizon", Some(self.horizon)),
            ("mttr", self.mttr),
            ("link_mtbf", self.link_mtbf),
        ] {
            if !x.is_none_or(positive) {
                return Err(format!("{name} must be finite and positive"));
            }
        }
        Ok(())
    }

    /// Materialize the fault sequence for `num_workers` workers.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::validate`]'s message on a parameter out of
    /// range.
    fn generate(&self, num_workers: usize) -> Vec<FaultEvent> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut events = Vec::new();
        for w in 0..num_workers {
            // One independent stream per (worker, process); the SplitMix-style
            // mixing in `seed_from_u64` decorrelates the consecutive seeds.
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut t = 0.0;
            loop {
                t += exponential(&mut rng, self.mttf);
                if t > self.horizon {
                    break;
                }
                events.push(FaultEvent {
                    time: t,
                    worker: w,
                    action: FaultAction::Down,
                });
                match self.mttr {
                    None => break, // crash-stop: down forever
                    Some(mttr) => {
                        t += exponential(&mut rng, mttr);
                        if t > self.horizon {
                            break;
                        }
                        events.push(FaultEvent {
                            time: t,
                            worker: w,
                            action: FaultAction::Up,
                        });
                    }
                }
            }
            if let Some(mtbf) = self.link_mtbf {
                let mut rng = StdRng::seed_from_u64(
                    self.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5D15_D00D,
                );
                let mut t = 0.0;
                loop {
                    t += exponential(&mut rng, mtbf);
                    if t > self.horizon {
                        break;
                    }
                    events.push(FaultEvent {
                        time: t,
                        worker: w,
                        action: FaultAction::LinkDrop,
                    });
                }
            }
        }
        events
    }
}

/// Exponential variate with the given mean (inverse-CDF method).
fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen(); // [0, 1)
    -mean * (1.0 - u).ln()
}

/// The fault model of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FaultModel {
    /// No faults — the paper's reliable platform. The engine's behavior is
    /// bit-identical to a build without fault support.
    #[default]
    None,
    /// A deterministic, hand-written schedule.
    Plan(FaultPlan),
    /// Seeded per-worker Poisson failure processes.
    Poisson(PoissonFaults),
}

impl FaultModel {
    /// True when the model can produce at least the *possibility* of a
    /// fault (the engine enables its fault paths on this).
    pub fn is_active(&self) -> bool {
        !matches!(self, FaultModel::None)
    }
}

/// Iterator over a run's fault sequence, in time order (engine use).
///
/// The sequence is materialized and sorted once at construction; `pop`
/// only advances a cursor, and [`FaultInjector::rewind`] restarts it.
/// Repetition loops (`Engine::reset`) therefore replay the identical
/// sequence without re-generating or re-sorting it — for Poisson models
/// that regeneration used to be a measurable share of every faulty
/// repetition.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The full materialized sequence, chronological.
    events: Vec<FaultEvent>,
    /// Index of the next event to pop.
    next: usize,
}

impl FaultInjector {
    /// Materialize `model` for a platform of `num_workers` workers.
    ///
    /// Events are sorted by time (ties: worker index, then `Down` before
    /// `Up` before `LinkDrop` as added), and events targeting workers
    /// outside `0..num_workers` are dropped.
    pub fn new(model: &FaultModel, num_workers: usize) -> Self {
        let mut events = match model {
            FaultModel::None => Vec::new(),
            FaultModel::Plan(plan) => plan.events().to_vec(),
            FaultModel::Poisson(p) => p.generate(num_workers),
        };
        events.retain(|e| e.worker < num_workers);
        // Stable sort keeps insertion order among exact ties.
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("fault times are finite"));
        FaultInjector { events, next: 0 }
    }

    /// Time of the next fault, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.events.get(self.next).map(|e| e.time)
    }

    /// Return the next fault and advance the cursor.
    pub fn pop(&mut self) -> Option<FaultEvent> {
        let e = self.events.get(self.next).copied();
        self.next += usize::from(e.is_some());
        e
    }

    /// True when no faults remain.
    pub fn is_empty(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Restart the sequence from the beginning (engine reuse across
    /// repetitions).
    pub fn rewind(&mut self) {
        self.next = 0;
    }

    /// The not-yet-popped tail of the sequence, chronological.
    pub fn remaining(&self) -> &[FaultEvent] {
        &self.events[self.next..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders() {
        let plan = FaultPlan::new()
            .crash(5.0, 1)
            .crash_recover(2.0, 0, 3.0)
            .link_drop(4.0, 2);
        let mut inj = FaultInjector::new(&FaultModel::Plan(plan), 3);
        let order: Vec<(f64, usize, FaultAction)> = std::iter::from_fn(|| inj.pop())
            .map(|e| (e.time, e.worker, e.action))
            .collect();
        assert_eq!(
            order,
            vec![
                (2.0, 0, FaultAction::Down),
                (4.0, 2, FaultAction::LinkDrop),
                // Tie at t=5: stable sort keeps insertion order, and the
                // crash of worker 1 was added before worker 0's recovery.
                (5.0, 1, FaultAction::Down),
                (5.0, 0, FaultAction::Up),
            ]
        );
    }

    #[test]
    fn plan_tie_keeps_insertion_order() {
        let plan = FaultPlan::new().crash(1.0, 5).crash(1.0, 2);
        let mut inj = FaultInjector::new(&FaultModel::Plan(plan), 8);
        assert_eq!(inj.pop().unwrap().worker, 5);
        assert_eq!(inj.pop().unwrap().worker, 2);
    }

    #[test]
    fn out_of_range_workers_dropped() {
        let plan = FaultPlan::new().crash(1.0, 9);
        let inj = FaultInjector::new(&FaultModel::Plan(plan), 3);
        assert!(inj.is_empty());
    }

    #[test]
    fn none_model_is_empty() {
        assert!(FaultInjector::new(&FaultModel::None, 10).is_empty());
        assert!(!FaultModel::None.is_active());
        assert!(FaultModel::Plan(FaultPlan::new()).is_active());
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let p = PoissonFaults::crash_recovery(50.0, 10.0, 500.0, 7);
        let a = FaultInjector::new(&FaultModel::Poisson(p), 6);
        let b = FaultInjector::new(&FaultModel::Poisson(p), 6);
        assert_eq!(a.remaining(), b.remaining());
        assert!(!a.is_empty(), "mttf 50 over horizon 500 should fault");
        let times: Vec<f64> = a.remaining().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted by time");
        assert!(times.iter().all(|&t| t <= 500.0));

        let c = FaultInjector::new(
            &FaultModel::Poisson(PoissonFaults::crash_recovery(50.0, 10.0, 500.0, 8)),
            6,
        );
        assert_ne!(a.remaining(), c.remaining(), "seed must matter");
    }

    #[test]
    fn poisson_crash_stop_has_one_down_per_worker() {
        let p = PoissonFaults::crash_stop(10.0, 10_000.0, 3);
        let inj = FaultInjector::new(&FaultModel::Poisson(p), 4);
        for w in 0..4 {
            let downs = inj
                .remaining()
                .iter()
                .filter(|e| e.worker == w && e.action == FaultAction::Down)
                .count();
            assert_eq!(downs, 1, "crash-stop: exactly one Down for worker {w}");
        }
        assert!(inj
            .remaining()
            .iter()
            .all(|e| e.action == FaultAction::Down));
    }

    #[test]
    fn poisson_alternates_down_up() {
        let p = PoissonFaults::crash_recovery(20.0, 5.0, 2_000.0, 11);
        let mut inj = FaultInjector::new(&FaultModel::Poisson(p), 1);
        let mut down = false;
        while let Some(e) = inj.pop() {
            match e.action {
                FaultAction::Down => {
                    assert!(!down, "Down while already down");
                    down = true;
                }
                FaultAction::Up => {
                    assert!(down, "Up while already up");
                    down = false;
                }
                FaultAction::LinkDrop => unreachable!("no link faults configured"),
            }
        }
    }

    #[test]
    fn poisson_link_drops_generated() {
        let p = PoissonFaults {
            mttf: 1e12, // effectively never crash
            mttr: None,
            link_mtbf: Some(30.0),
            horizon: 1_000.0,
            seed: 5,
        };
        let inj = FaultInjector::new(&FaultModel::Poisson(p), 3);
        assert!(inj
            .remaining()
            .iter()
            .any(|e| e.action == FaultAction::LinkDrop));
        assert!(inj
            .remaining()
            .iter()
            .all(|e| e.action == FaultAction::LinkDrop));
    }

    #[test]
    #[should_panic(expected = "fault time")]
    fn plan_rejects_bad_time() {
        let _ = FaultPlan::new().crash(f64::NAN, 0);
    }
}
