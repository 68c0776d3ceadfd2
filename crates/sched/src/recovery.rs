//! Recovery-aware scheduling: a composable wrapper that survives faults.
//!
//! The paper's schedulers assume a reliable platform: once a chunk is
//! dispatched it will be computed. Under the fault model (crashed workers,
//! dropped links — see `dls_sim::faults`) that assumption breaks in two
//! ways: dispatched work can be *destroyed*, and a worker can silently stop
//! being a valid destination. [`Recovering`] retrofits any inner
//! [`Scheduler`] with both repairs:
//!
//! * **Re-queue lost work.** Every `on_chunk_lost` notification lands in a
//!   backlog that is re-sent as [`Decision::Redispatch`] chunks, sized with
//!   a factoring-style rule (each redispatch covers `1/factor` of the
//!   backlog per trusted worker, floored at `min_chunk`) so the recovery
//!   tail stays robust against further prediction error — the same
//!   reasoning RUMR applies to its phase 2.
//! * **Route around dead and freshly-recovered workers.** Dispatches the
//!   inner scheduler aims at a crashed worker are retargeted to the
//!   least-loaded trusted worker. A worker that just recovered is not
//!   trusted again immediately: it must sit out a backoff period that
//!   doubles (by default) with each failure, which keeps a flapping worker
//!   from repeatedly eating chunks.
//!
//! With no faults injected the wrapper is a strict pass-through: it makes
//! exactly the inner scheduler's decisions, so wrapping is free on the
//! reliable platform.

use dls_sim::{Decision, Scheduler, SimView};

const EPS: f64 = 1e-9;

/// Tuning knobs for [`Recovering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Backoff after a worker's first recovery before it is trusted with
    /// work again (s).
    pub initial_backoff: f64,
    /// Multiplier applied to the backoff on every subsequent failure of the
    /// same worker (exponential backoff).
    pub backoff_factor: f64,
    /// Factoring divisor for backlog redispatch: each redispatch covers
    /// `backlog / (factor * trusted_workers)`. Must exceed 1.
    pub factor: f64,
    /// Smallest redispatch chunk; the final sliver of backlog is sent
    /// whole rather than split below this.
    pub min_chunk: f64,
    /// When set, a worker whose *observed* compute times exceed its
    /// declared predictions by more than this relative slack (over a
    /// window of [`RecoveryConfig::divergence_min_samples`] chunks) is
    /// treated like a recovered-from fault: it loses trust for one
    /// exponential-backoff period and new work is routed around it. Feed
    /// the declared rates via [`Recovering::with_declared_rates`].
    /// `None` (the default) disables the check entirely.
    pub divergence_threshold: Option<f64>,
    /// Completed chunks a worker must accumulate before the divergence
    /// check may fire (guards against judging on one noisy sample).
    pub divergence_min_samples: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            initial_backoff: 5.0,
            backoff_factor: 2.0,
            factor: 2.0,
            min_chunk: 1.0,
            divergence_threshold: None,
            divergence_min_samples: 3,
        }
    }
}

impl RecoveryConfig {
    /// Set the first post-recovery distrust period (builder style).
    pub fn with_initial_backoff(mut self, initial_backoff: f64) -> Self {
        self.initial_backoff = initial_backoff;
        self
    }

    /// Set the per-failure backoff multiplier (builder style).
    pub fn with_backoff_factor(mut self, backoff_factor: f64) -> Self {
        self.backoff_factor = backoff_factor;
        self
    }

    /// Enable divergence-triggered distrust: a worker running more than
    /// `threshold` (relative) slower than declared over a window of
    /// `min_samples` chunks is backed off like a flapping worker.
    pub fn with_divergence(mut self, threshold: f64, min_samples: u32) -> Self {
        self.divergence_threshold = Some(threshold);
        self.divergence_min_samples = min_samples;
        self
    }

    /// Check the tuning: `factor` above 1, `min_chunk` positive,
    /// `initial_backoff` non-negative, `backoff_factor` at least 1, a set
    /// `divergence_threshold` positive, all finite, and
    /// `divergence_min_samples` at least 1. [`Recovering::with_config`]
    /// panics with this message.
    ///
    /// # Errors
    ///
    /// The first parameter out of range, as a message.
    pub fn validate(&self) -> Result<(), String> {
        for (holds, broken) in [
            (
                self.factor > 1.0 && self.factor.is_finite(),
                "factor must exceed 1",
            ),
            (
                self.min_chunk > 0.0 && self.min_chunk.is_finite(),
                "min_chunk must be positive",
            ),
            (
                self.initial_backoff >= 0.0 && self.initial_backoff.is_finite(),
                "initial_backoff must be finite and non-negative",
            ),
            (
                self.backoff_factor >= 1.0 && self.backoff_factor.is_finite(),
                "backoff_factor must be at least 1",
            ),
            (
                self.divergence_threshold
                    .is_none_or(|t| t > 0.0 && t.is_finite()),
                "divergence_threshold must be positive and finite",
            ),
            (
                self.divergence_min_samples >= 1,
                "divergence_min_samples must be at least 1",
            ),
        ] {
            if !holds {
                return Err(broken.into());
            }
        }
        Ok(())
    }
}

/// Per-worker observation window for the divergence check: actual vs.
/// declared compute time of the chunks finished since the last reset.
#[derive(Debug, Clone, Copy, Default)]
struct RateWindow {
    /// When the chunk currently computing started.
    started: f64,
    /// Observed compute seconds in the window.
    obs_time: f64,
    /// Declared (predicted) compute seconds for the same chunks.
    decl_time: f64,
    /// Workload units finished in the window.
    obs_work: f64,
    /// Chunks finished in the window.
    samples: u32,
    /// Divergence triggers so far (not reset with the window).
    divergences: u32,
}

/// Wraps any scheduler with lost-work redispatch, dead-worker rerouting,
/// and post-recovery backoff. See the module docs.
#[derive(Debug)]
pub struct Recovering<S> {
    inner: S,
    config: RecoveryConfig,
    /// Lost workload units not yet re-sent.
    backlog: f64,
    /// Inner dispatch that could not be placed anywhere (all workers dead
    /// at the time); `(chunk, was_redispatch)`.
    stash: Option<(f64, bool)>,
    /// Per-worker failure count (sized lazily from the view).
    failures: Vec<u32>,
    /// Time before which a recovered worker is not trusted with new work.
    trust_after: Vec<f64>,
    /// Declared `(comp_latency, speed)` per worker; empty unless
    /// [`Recovering::with_declared_rates`] was called. The divergence
    /// check needs both to predict a chunk's declared compute time.
    declared: Vec<(f64, f64)>,
    /// Per-worker observation windows for the divergence check.
    windows: Vec<RateWindow>,
    inner_finished: bool,
}

impl<S: Scheduler> Recovering<S> {
    /// Wrap `inner` with the default [`RecoveryConfig`].
    pub fn new(inner: S) -> Self {
        Recovering::with_config(inner, RecoveryConfig::default())
    }

    /// Wrap `inner` with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics with [`RecoveryConfig::validate`]'s message if `config`
    /// breaks one of its rules.
    pub fn with_config(inner: S, config: RecoveryConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        Recovering {
            inner,
            config,
            backlog: 0.0,
            stash: None,
            failures: Vec::new(),
            trust_after: Vec::new(),
            declared: Vec::new(),
            windows: Vec::new(),
            inner_finished: false,
        }
    }

    /// Supply the declared `(comp_latency, speed)` of every worker so the
    /// divergence check ([`RecoveryConfig::divergence_threshold`]) can
    /// predict what each chunk *should* have cost. Without this call the
    /// check never fires.
    pub fn with_declared_rates(mut self, declared: Vec<(f64, f64)>) -> Self {
        self.declared = declared;
        self
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Lost workload units awaiting redispatch.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Divergence triggers recorded against `worker` so far.
    pub fn divergences(&self, worker: usize) -> u32 {
        self.windows.get(worker).map_or(0, |w| w.divergences)
    }

    /// Observed compute rate of `worker` over its current observation
    /// window (units per second, latency amortized in), or `None` before
    /// any chunk finished. This is the "updated rate estimate" the wrapper
    /// acts on when declaring divergence.
    pub fn observed_rate(&self, worker: usize) -> Option<f64> {
        let w = self.windows.get(worker)?;
        (w.obs_time > 0.0).then(|| w.obs_work / w.obs_time)
    }

    fn ensure_sized(&mut self, n: usize) {
        if self.failures.len() < n {
            self.failures.resize(n, 0);
            self.trust_after.resize(n, 0.0);
        }
        if self.windows.len() < n {
            self.windows.resize(n, RateWindow::default());
        }
    }

    /// Exponential backoff for a worker's `failures`-th distrust event.
    fn backoff_for(&self, failures: u32) -> f64 {
        let n = failures.saturating_sub(1);
        self.config.initial_backoff * self.config.backoff_factor.powi(n as i32)
    }

    /// A worker is *trusted* when it is up and past its post-recovery
    /// backoff window.
    fn trusted(&self, view: &SimView<'_>, w: usize) -> bool {
        view.workers[w].alive && view.time >= self.trust_after[w] - EPS
    }

    /// Best alternative destination: least-loaded (by assigned work)
    /// trusted worker, falling back to any live worker when nobody is
    /// trusted (a backoff must not strand work on an otherwise-idle
    /// platform). `None` when every worker is down.
    fn best_target(&self, view: &SimView<'_>, require_hungry: bool) -> Option<usize> {
        let pick = |trusted_only: bool| {
            view.workers
                .iter()
                .enumerate()
                .filter(|&(w, v)| {
                    v.alive
                        && (!trusted_only || self.trusted(view, w))
                        && (!require_hungry || v.is_hungry())
                })
                .min_by(|(i, a), (j, b)| {
                    a.assigned_work
                        .partial_cmp(&b.assigned_work)
                        .expect("finite work totals")
                        .then(i.cmp(j))
                })
                .map(|(w, _)| w)
        };
        pick(true).or_else(|| {
            if self.no_trusted_worker(view) {
                pick(false)
            } else {
                None
            }
        })
    }

    fn no_trusted_worker(&self, view: &SimView<'_>) -> bool {
        (0..view.workers.len()).all(|w| !self.trusted(view, w))
    }

    /// Route an inner dispatch away from untrusted destinations.
    fn route(&mut self, view: &SimView<'_>, worker: usize, chunk: f64, redis: bool) -> Decision {
        let emit = |worker: usize| {
            if redis {
                Decision::Redispatch { worker, chunk }
            } else {
                Decision::Dispatch { worker, chunk }
            }
        };
        if worker < view.workers.len() && self.trusted(view, worker) {
            return emit(worker);
        }
        match self.best_target(view, false) {
            Some(alt) => emit(alt),
            None => {
                // Every worker is down: park the chunk and retry later.
                self.stash = Some((chunk, redis));
                Decision::Wait
            }
        }
    }

    /// Factoring-style chunk for the next backlog redispatch.
    fn backlog_chunk(&self, view: &SimView<'_>) -> f64 {
        let trusted = (0..view.workers.len())
            .filter(|&w| self.trusted(view, w))
            .count()
            .max(1);
        let ideal = self.backlog / (self.config.factor * trusted as f64);
        let chunk = ideal.max(self.config.min_chunk).min(self.backlog);
        // Don't leave a sliver smaller than min_chunk behind.
        if self.backlog - chunk < self.config.min_chunk {
            self.backlog
        } else {
            chunk
        }
    }
}

impl<S: Scheduler> Scheduler for Recovering<S> {
    fn name(&self) -> String {
        format!("recovering({})", self.inner.name())
    }

    fn next_dispatch(&mut self, view: &SimView<'_>) -> Decision {
        self.ensure_sized(view.workers.len());

        // 1. A previously unplaceable chunk gets first claim on capacity.
        if let Some((chunk, redis)) = self.stash.take() {
            let d = self.route(view, usize::MAX, chunk, redis);
            if d != Decision::Wait {
                return d;
            }
            // Still nowhere to go (route() re-stashed it).
            return Decision::Wait;
        }

        // 2. The inner scheduler's own plan, rerouted if needed.
        if !self.inner_finished {
            match self.inner.next_dispatch(view) {
                Decision::Dispatch { worker, chunk } => {
                    return self.route(view, worker, chunk, false)
                }
                Decision::Redispatch { worker, chunk } => {
                    return self.route(view, worker, chunk, true)
                }
                Decision::Finished => self.inner_finished = true,
                timed @ Decision::WaitUntil { .. } => {
                    // Inner wants a timed wake-up (multi-load layering);
                    // backlog work still preempts it on an idle trusted
                    // worker, otherwise pass the wake-up request through.
                    if self.backlog > EPS {
                        if let Some(w) = self.best_target(view, true) {
                            let chunk = self.backlog_chunk(view);
                            self.backlog -= chunk;
                            return Decision::Redispatch { worker: w, chunk };
                        }
                    }
                    return timed;
                }
                Decision::Wait => {
                    // Inner is waiting on its own logic; only preempt it
                    // with backlog work if a trusted worker sits idle.
                    if self.backlog > EPS {
                        if let Some(w) = self.best_target(view, true) {
                            let chunk = self.backlog_chunk(view);
                            self.backlog -= chunk;
                            return Decision::Redispatch { worker: w, chunk };
                        }
                    }
                    return Decision::Wait;
                }
            }
        }

        // 3. Inner is done: drain the backlog demand-driven.
        if self.backlog > EPS {
            if let Some(w) = self.best_target(view, true) {
                let chunk = self.backlog_chunk(view);
                self.backlog -= chunk;
                return Decision::Redispatch { worker: w, chunk };
            }
            // Workers busy or everyone down; the engine will ask again
            // after the next event (or end the run if nothing can happen).
            return Decision::Wait;
        }
        Decision::Finished
    }

    fn on_compute_start(&mut self, worker: usize, chunk: f64, time: f64) {
        if self.config.divergence_threshold.is_some() {
            self.ensure_sized(worker + 1);
            self.windows[worker].started = time;
        }
        self.inner.on_compute_start(worker, chunk, time);
    }

    fn on_compute_end(&mut self, worker: usize, chunk: f64, time: f64) {
        if let (Some(threshold), Some(&(clat, speed))) =
            (self.config.divergence_threshold, self.declared.get(worker))
        {
            self.ensure_sized(worker + 1);
            let w = &mut self.windows[worker];
            w.obs_time += (time - w.started).max(0.0);
            w.decl_time += clat + chunk / speed;
            w.obs_work += chunk;
            w.samples += 1;
            let diverged = w.samples >= self.config.divergence_min_samples
                && w.obs_time > w.decl_time * (1.0 + threshold);
            if diverged {
                // Same treatment as a fault: count it, distrust the worker
                // for one backoff period, start a fresh observation window
                // so recovery is judged on post-backoff behavior.
                *w = RateWindow {
                    divergences: w.divergences + 1,
                    ..RateWindow::default()
                };
                self.failures[worker] += 1;
                self.trust_after[worker] = time + self.backoff_for(self.failures[worker]);
            }
        }
        self.inner.on_compute_end(worker, chunk, time);
    }

    fn on_arrival(&mut self, worker: usize, chunk: f64, time: f64) {
        self.inner.on_arrival(worker, chunk, time);
    }

    fn on_worker_failed(&mut self, worker: usize, time: f64) {
        self.ensure_sized(worker + 1);
        self.failures[worker] += 1;
        self.inner.on_worker_failed(worker, time);
    }

    fn on_worker_recovered(&mut self, worker: usize, time: f64) {
        self.ensure_sized(worker + 1);
        // Exponential backoff in the number of failures so far.
        self.trust_after[worker] = time + self.backoff_for(self.failures[worker]);
        self.inner.on_worker_recovered(worker, time);
    }

    fn on_chunk_lost(&mut self, worker: usize, chunk: f64, time: f64) {
        self.backlog += chunk;
        self.inner.on_chunk_lost(worker, chunk, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sim::WorkerView;

    /// Replays a fixed list of decisions.
    struct Scripted {
        decisions: Vec<Decision>,
        next: usize,
    }

    impl Scripted {
        fn new(decisions: Vec<Decision>) -> Self {
            Scripted { decisions, next: 0 }
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn next_dispatch(&mut self, _view: &SimView<'_>) -> Decision {
            let d = self
                .decisions
                .get(self.next)
                .copied()
                .unwrap_or(Decision::Finished);
            self.next += 1;
            d
        }
    }

    fn idle_workers(n: usize) -> Vec<WorkerView> {
        vec![WorkerView::default(); n]
    }

    #[test]
    fn passthrough_without_faults() {
        let inner = Scripted::new(vec![
            Decision::Dispatch {
                worker: 1,
                chunk: 3.0,
            },
            Decision::Finished,
        ]);
        let mut r = Recovering::new(inner);
        let workers = idle_workers(2);
        let view = SimView {
            time: 0.0,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 1,
                chunk: 3.0
            }
        );
        assert_eq!(r.next_dispatch(&view), Decision::Finished);
        assert_eq!(r.name(), "recovering(scripted)");
    }

    #[test]
    fn reroutes_away_from_dead_worker() {
        let inner = Scripted::new(vec![Decision::Dispatch {
            worker: 0,
            chunk: 4.0,
        }]);
        let mut r = Recovering::new(inner);
        let mut workers = idle_workers(3);
        workers[0].alive = false;
        workers[2].assigned_work = 1.0;
        let view = SimView {
            time: 0.0,
            workers: &workers,
        };
        // Least-loaded live worker is 1.
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 1,
                chunk: 4.0
            }
        );
    }

    #[test]
    fn stashes_when_everyone_is_down() {
        let inner = Scripted::new(vec![Decision::Dispatch {
            worker: 0,
            chunk: 4.0,
        }]);
        let mut r = Recovering::new(inner);
        let mut workers = idle_workers(2);
        workers[0].alive = false;
        workers[1].alive = false;
        let view = SimView {
            time: 0.0,
            workers: &workers,
        };
        assert_eq!(r.next_dispatch(&view), Decision::Wait);
        // Worker 1 comes back: the stashed chunk goes out first.
        let mut workers = idle_workers(2);
        workers[0].alive = false;
        let view = SimView {
            time: 1.0,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 1,
                chunk: 4.0
            }
        );
    }

    #[test]
    fn drains_backlog_after_inner_finishes() {
        let mut r = Recovering::with_config(
            Scripted::new(vec![Decision::Finished]),
            RecoveryConfig {
                factor: 2.0,
                min_chunk: 1.0,
                ..Default::default()
            },
        );
        r.on_chunk_lost(0, 10.0, 5.0);
        let workers = idle_workers(2);
        let view = SimView {
            time: 6.0,
            workers: &workers,
        };
        let mut total = 0.0;
        loop {
            match r.next_dispatch(&view) {
                Decision::Redispatch { chunk, .. } => {
                    assert!(chunk >= 1.0 - 1e-12);
                    total += chunk;
                }
                Decision::Finished => break,
                other => panic!("unexpected decision: {other:?}"),
            }
        }
        assert!((total - 10.0).abs() < 1e-9);
        assert!(r.backlog() < 1e-9);
    }

    #[test]
    fn recovered_worker_sits_out_backoff() {
        let cfg = RecoveryConfig {
            initial_backoff: 10.0,
            backoff_factor: 2.0,
            ..Default::default()
        };
        let inner = Scripted::new(vec![
            Decision::Dispatch {
                worker: 0,
                chunk: 2.0,
            },
            Decision::Dispatch {
                worker: 0,
                chunk: 2.0,
            },
        ]);
        let mut r = Recovering::with_config(inner, cfg);
        r.on_worker_failed(0, 1.0);
        r.on_worker_recovered(0, 2.0); // trusted again at 12.0
        let workers = idle_workers(2);
        // At t=5 worker 0 is up but untrusted: rerouted to worker 1.
        let view = SimView {
            time: 5.0,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 1,
                chunk: 2.0
            }
        );
        // Past the backoff it is trusted again.
        let view = SimView {
            time: 12.5,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 0,
                chunk: 2.0
            }
        );
    }

    #[test]
    fn backoff_doubles_with_each_failure() {
        let cfg = RecoveryConfig {
            initial_backoff: 10.0,
            backoff_factor: 2.0,
            ..Default::default()
        };
        let mut r = Recovering::with_config(Scripted::new(vec![]), cfg);
        r.on_worker_failed(0, 1.0);
        r.on_worker_recovered(0, 2.0);
        assert!((r.trust_after[0] - 12.0).abs() < 1e-12);
        r.on_worker_failed(0, 20.0);
        r.on_worker_recovered(0, 21.0);
        assert!((r.trust_after[0] - 41.0).abs() < 1e-12);
    }

    #[test]
    fn backlog_preempts_inner_wait() {
        let inner = Scripted::new(vec![Decision::Wait]);
        let mut r = Recovering::new(inner);
        r.on_chunk_lost(1, 3.0, 0.0);
        let workers = idle_workers(2);
        let view = SimView {
            time: 1.0,
            workers: &workers,
        };
        match r.next_dispatch(&view) {
            Decision::Redispatch { chunk, .. } => assert!(chunk > 0.0),
            other => panic!("unexpected decision: {other:?}"),
        }
    }

    #[test]
    fn config_builder_sets_backoff_knobs() {
        let cfg = RecoveryConfig::default()
            .with_initial_backoff(7.5)
            .with_backoff_factor(3.0)
            .with_divergence(0.5, 2);
        assert_eq!(cfg.initial_backoff, 7.5);
        assert_eq!(cfg.backoff_factor, 3.0);
        assert_eq!(cfg.divergence_threshold, Some(0.5));
        assert_eq!(cfg.divergence_min_samples, 2);
    }

    #[test]
    fn divergence_distrusts_a_sandbagging_worker() {
        let cfg = RecoveryConfig::default()
            .with_initial_backoff(10.0)
            .with_divergence(0.5, 2);
        // Declared: no latency, speed 1 → a 4-unit chunk should take 4 s.
        let inner = Scripted::new(vec![
            Decision::Dispatch {
                worker: 0,
                chunk: 2.0,
            };
            4
        ]);
        let mut r =
            Recovering::with_config(inner, cfg).with_declared_rates(vec![(0.0, 1.0), (0.0, 1.0)]);

        // Worker 0 runs at a quarter of its declared speed: 4-unit chunks
        // take 16 s instead of 4 s. Two samples trip the 50 % threshold.
        r.on_compute_start(0, 4.0, 0.0);
        r.on_compute_end(0, 4.0, 16.0);
        assert_eq!(r.divergences(0), 0, "one sample must not be enough");
        r.on_compute_start(0, 4.0, 16.0);
        r.on_compute_end(0, 4.0, 32.0);
        assert_eq!(r.divergences(0), 1);

        // Distrusted: the inner plan aimed at worker 0 reroutes to 1
        // until the backoff (32 + 10) expires.
        let workers = idle_workers(2);
        let view = SimView {
            time: 33.0,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 1,
                chunk: 2.0
            }
        );
        let view = SimView {
            time: 42.5,
            workers: &workers,
        };
        assert_eq!(
            r.next_dispatch(&view),
            Decision::Dispatch {
                worker: 0,
                chunk: 2.0
            }
        );
    }

    #[test]
    fn honest_worker_never_trips_divergence() {
        let cfg = RecoveryConfig::default().with_divergence(0.5, 2);
        let mut r = Recovering::with_config(Scripted::new(vec![]), cfg)
            .with_declared_rates(vec![(0.1, 2.0)]);
        for i in 0..10 {
            let t0 = i as f64 * 2.2;
            r.on_compute_start(0, 4.0, t0);
            // Declared cost: 0.1 + 4/2 = 2.1 s; observed 2.2 s is within
            // the 50 % slack.
            r.on_compute_end(0, 4.0, t0 + 2.2);
        }
        assert_eq!(r.divergences(0), 0);
        let rate = r.observed_rate(0).unwrap();
        assert!((rate - 4.0 / 2.2).abs() < 1e-12);
    }

    #[test]
    fn divergence_without_declared_rates_is_inert() {
        let cfg = RecoveryConfig::default().with_divergence(0.5, 1);
        let mut r = Recovering::with_config(Scripted::new(vec![]), cfg);
        r.on_compute_start(0, 4.0, 0.0);
        r.on_compute_end(0, 4.0, 1000.0);
        assert_eq!(r.divergences(0), 0);
    }

    #[test]
    #[should_panic(expected = "divergence_threshold must be positive")]
    fn bad_divergence_threshold_rejected() {
        let _ = Recovering::with_config(
            Scripted::new(vec![]),
            RecoveryConfig::default().with_divergence(0.0, 3),
        );
    }

    #[test]
    #[should_panic(expected = "factor must exceed 1")]
    fn bad_factor_rejected() {
        let _ = Recovering::with_config(
            Scripted::new(vec![]),
            RecoveryConfig {
                factor: 1.0,
                ..Default::default()
            },
        );
    }
}
