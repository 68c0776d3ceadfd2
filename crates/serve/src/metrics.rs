//! Service instrumentation, rendered as Prometheus text exposition.
//!
//! All counters live behind one [`Metrics`] value shared (via `Arc`)
//! between the acceptor, the worker pool, the `/jobs` runner, and the
//! `/metrics` handler. Atomics cover the hot single-value counters; the
//! per-`(endpoint, status)` request counts, per-endpoint latency
//! aggregates, and per-slot engine-run counts sit behind short-lived
//! poison-recovering mutexes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rumr::FastPathMiss;

use crate::sync::lock;

#[derive(Debug, Default, Clone)]
struct Latency {
    sum: f64,
    count: u64,
    max: f64,
}

/// Shared service counters. All methods take `&self`; the type is
/// `Send + Sync`.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    latency: Mutex<BTreeMap<&'static str, Latency>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sim_cache_hits: AtomicU64,
    sim_cache_misses: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicI64,
    accept_errors: AtomicU64,
    shard_requests: Mutex<BTreeMap<usize, u64>>,
    fastpath_analytic: AtomicU64,
    /// Engine answers on fast-path-eligible endpoints, indexed by
    /// `FastPathMiss as usize`.
    fastpath_misses: [AtomicU64; FastPathMiss::ALL.len()],
    /// Finished audits; bumped last, with `Release`, so a reader that
    /// loads it with `Acquire` also sees that audit's verdict and time.
    fastpath_audited: AtomicU64,
    /// Wall time of the finished audits: sum and max, in nanoseconds.
    fastpath_audit_ns: AtomicU64,
    fastpath_audit_max_ns: AtomicU64,
    fastpath_divergences: AtomicU64,
    fastpath_audit_errors: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record a completed request: endpoint label, response status, wall
    /// time spent handling it. The label is a fixed string from the
    /// route table, never text from the request, so the series stay few
    /// and every label is valid exposition text.
    pub fn observe(&self, endpoint: &'static str, status: u16, seconds: f64) {
        *lock(&self.requests).entry((endpoint, status)).or_insert(0) += 1;
        let mut latency = lock(&self.latency);
        let entry = latency.entry(endpoint).or_default();
        entry.sum += seconds;
        entry.count += 1;
        entry.max = entry.max.max(seconds);
    }

    /// Count a plan-cache hit.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a plan-cache miss.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Count a `/simulate` response-cache hit.
    pub fn sim_cache_hit(&self) {
        self.sim_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a `/simulate` response-cache miss.
    pub fn sim_cache_miss(&self) {
        self.sim_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `/simulate` response-cache hits so far.
    pub fn sim_cache_hits(&self) -> u64 {
        self.sim_cache_hits.load(Ordering::Relaxed)
    }

    /// Count a connection rejected with 503 because the queue was full.
    pub fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Rejections so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// A connection entered the request queue.
    pub fn enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left the request queue.
    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count a failed `accept()` on the listener.
    pub fn accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Accept failures so far.
    pub fn accept_errors_total(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Count an answer served from the analytic fast path (oracle closed
    /// form, no engine run).
    pub fn fastpath_analytic(&self) {
        self.fastpath_analytic.fetch_add(1, Ordering::Relaxed);
    }

    /// Analytic fast-path answers so far.
    pub fn fastpath_analytic_total(&self) -> u64 {
        self.fastpath_analytic.load(Ordering::Relaxed)
    }

    /// Count a fast-path-eligible endpoint falling back to the engine,
    /// by the reason the fast path declined it.
    pub fn fastpath_miss(&self, miss: FastPathMiss) {
        self.fastpath_misses[miss as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Engine-path answers declined for `miss` so far.
    pub fn fastpath_miss_total(&self, miss: FastPathMiss) -> u64 {
        self.fastpath_misses[miss as usize].load(Ordering::Relaxed)
    }

    /// Engine-path answers on fast-path-eligible endpoints so far: the
    /// sum over every miss reason.
    pub fn fastpath_engine_total(&self) -> u64 {
        FastPathMiss::ALL
            .iter()
            .map(|&miss| self.fastpath_miss_total(miss))
            .sum()
    }

    /// Count a finished audit of an analytic answer and its wall time.
    /// Call it last, after the audit's verdict counters: the count is
    /// published with `Release`, so once [`Self::fastpath_audited_total`]
    /// counts an audit, that audit's divergence or error and its time are
    /// visible too.
    pub fn fastpath_audited(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.fastpath_audit_ns.fetch_add(ns, Ordering::Relaxed);
        self.fastpath_audit_max_ns.fetch_max(ns, Ordering::Relaxed);
        self.fastpath_audited.fetch_add(1, Ordering::Release);
    }

    /// Finished audits of analytic answers so far.
    pub fn fastpath_audited_total(&self) -> u64 {
        self.fastpath_audited.load(Ordering::Acquire)
    }

    /// Count an audit divergence: the engine re-run disagreed with the
    /// analytic answer beyond the oracle tolerance.
    pub fn fastpath_divergence(&self) {
        self.fastpath_divergences.fetch_add(1, Ordering::Relaxed);
    }

    /// Audit divergences so far. Nonzero means the closed forms and the
    /// engine disagree — a correctness bug, fatal in CI.
    pub fn fastpath_divergences_total(&self) -> u64 {
        self.fastpath_divergences.load(Ordering::Relaxed)
    }

    /// Count an audit run the engine could not finish (an error such as
    /// the event limit), so it has no makespan to compare.
    pub fn fastpath_audit_error(&self) {
        self.fastpath_audit_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Audit runs that ended in an engine error so far.
    pub fn fastpath_audit_errors_total(&self) -> u64 {
        self.fastpath_audit_errors.load(Ordering::Relaxed)
    }

    /// Count a `/simulate` engine run in engine slot `shard`.
    pub fn observe_shard(&self, shard: usize) {
        *lock(&self.shard_requests).entry(shard).or_insert(0) += 1;
    }

    /// `/simulate` engine runs per engine slot (slot index → runs).
    pub fn shard_requests(&self) -> BTreeMap<usize, u64> {
        lock(&self.shard_requests).clone()
    }

    /// Render the Prometheus text exposition format, with the eviction
    /// counters of the plan and `/simulate` caches, which the caches keep.
    pub fn render(&self, plan_evictions: u64, sim_evictions: u64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP dls_serve_requests_total Requests handled, by endpoint and status.\n");
        out.push_str("# TYPE dls_serve_requests_total counter\n");
        for ((endpoint, status), count) in lock(&self.requests).iter() {
            let _ = writeln!(
                out,
                "dls_serve_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }

        out.push_str("# HELP dls_serve_request_seconds Request handling latency, by endpoint.\n");
        out.push_str("# TYPE dls_serve_request_seconds summary\n");
        for (endpoint, l) in lock(&self.latency).iter() {
            let _ = writeln!(
                out,
                "dls_serve_request_seconds_sum{{endpoint=\"{endpoint}\"}} {}",
                l.sum
            );
            let _ = writeln!(
                out,
                "dls_serve_request_seconds_count{{endpoint=\"{endpoint}\"}} {}",
                l.count
            );
            let _ = writeln!(
                out,
                "dls_serve_request_seconds_max{{endpoint=\"{endpoint}\"}} {}",
                l.max
            );
        }

        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        out.push_str("# HELP dls_serve_plan_cache_hits_total Plan cache hits.\n");
        out.push_str("# TYPE dls_serve_plan_cache_hits_total counter\n");
        let _ = writeln!(out, "dls_serve_plan_cache_hits_total {hits}");
        out.push_str("# HELP dls_serve_plan_cache_misses_total Plan cache misses.\n");
        out.push_str("# TYPE dls_serve_plan_cache_misses_total counter\n");
        let _ = writeln!(out, "dls_serve_plan_cache_misses_total {misses}");
        out.push_str(
            "# HELP dls_serve_plan_cache_hit_ratio Hits / (hits + misses), 0 when idle.\n",
        );
        out.push_str("# TYPE dls_serve_plan_cache_hit_ratio gauge\n");
        let _ = writeln!(
            out,
            "dls_serve_plan_cache_hit_ratio {}",
            ratio(hits, misses)
        );

        let sim_hits = self.sim_cache_hits.load(Ordering::Relaxed);
        let sim_misses = self.sim_cache_misses.load(Ordering::Relaxed);
        out.push_str("# HELP dls_serve_sim_cache_hits_total Simulate response cache hits.\n");
        out.push_str("# TYPE dls_serve_sim_cache_hits_total counter\n");
        let _ = writeln!(out, "dls_serve_sim_cache_hits_total {sim_hits}");
        out.push_str("# HELP dls_serve_sim_cache_misses_total Simulate response cache misses.\n");
        out.push_str("# TYPE dls_serve_sim_cache_misses_total counter\n");
        let _ = writeln!(out, "dls_serve_sim_cache_misses_total {sim_misses}");
        out.push_str("# HELP dls_serve_sim_cache_hit_ratio Hits / (hits + misses), 0 when idle.\n");
        out.push_str("# TYPE dls_serve_sim_cache_hit_ratio gauge\n");
        let _ = writeln!(
            out,
            "dls_serve_sim_cache_hit_ratio {}",
            ratio(sim_hits, sim_misses)
        );

        out.push_str("# HELP dls_serve_queue_depth Connections waiting in the request queue.\n");
        out.push_str("# TYPE dls_serve_queue_depth gauge\n");
        let _ = writeln!(
            out,
            "dls_serve_queue_depth {}",
            self.queue_depth.load(Ordering::Relaxed).max(0)
        );

        out.push_str(
            "# HELP dls_serve_rejected_total Connections rejected with 503 (queue full).\n",
        );
        out.push_str("# TYPE dls_serve_rejected_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_rejected_total {}",
            self.rejected.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP dls_serve_accept_errors_total Failed accept() calls on the listener.\n",
        );
        out.push_str("# TYPE dls_serve_accept_errors_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_accept_errors_total {}",
            self.accept_errors.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP dls_serve_fastpath_analytic_total Answers served from the analytic fast path.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_analytic_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_analytic_total {}",
            self.fastpath_analytic.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP dls_serve_fastpath_engine_total Engine-path answers on fast-path-eligible endpoints.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_engine_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_engine_total {}",
            self.fastpath_engine_total()
        );
        out.push_str(
            "# HELP dls_serve_fastpath_miss_total Engine-path answers on fast-path-eligible endpoints, by the first failed eligibility condition.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_miss_total counter\n");
        for miss in FastPathMiss::ALL {
            let _ = writeln!(
                out,
                "dls_serve_fastpath_miss_total{{reason=\"{}\"}} {}",
                miss.label(),
                self.fastpath_miss_total(miss)
            );
        }
        out.push_str(
            "# HELP dls_serve_fastpath_audited_total Analytic answers re-run through the engine by the sampled audit, counted when the audit finishes.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_audited_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_audited_total {}",
            self.fastpath_audited_total()
        );
        out.push_str(
            "# HELP dls_serve_fastpath_audit_seconds Wall time of the finished audits (count: dls_serve_fastpath_audited_total).\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_audit_seconds summary\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_audit_seconds_sum {}",
            seconds(&self.fastpath_audit_ns)
        );
        let _ = writeln!(
            out,
            "dls_serve_fastpath_audit_seconds_max {}",
            seconds(&self.fastpath_audit_max_ns)
        );
        out.push_str(
            "# HELP dls_serve_fastpath_divergence_total Audit re-runs that disagreed with the analytic answer.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_divergence_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_divergence_total {}",
            self.fastpath_divergences.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP dls_serve_fastpath_audit_errors_total Audit re-runs that ended in an engine error.\n",
        );
        out.push_str("# TYPE dls_serve_fastpath_audit_errors_total counter\n");
        let _ = writeln!(
            out,
            "dls_serve_fastpath_audit_errors_total {}",
            self.fastpath_audit_errors.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP dls_serve_shard_requests_total Simulate engine runs, by the engine slot that ran them.\n",
        );
        out.push_str("# TYPE dls_serve_shard_requests_total counter\n");
        for (shard, count) in lock(&self.shard_requests).iter() {
            let _ = writeln!(
                out,
                "dls_serve_shard_requests_total{{shard=\"{shard}\"}} {count}"
            );
        }
        out.push_str("# HELP dls_serve_plan_cache_evictions_total Plan cache LRU evictions.\n");
        out.push_str("# TYPE dls_serve_plan_cache_evictions_total counter\n");
        let _ = writeln!(out, "dls_serve_plan_cache_evictions_total {plan_evictions}");
        out.push_str(
            "# HELP dls_serve_sim_cache_evictions_total Simulate response cache LRU evictions.\n",
        );
        out.push_str("# TYPE dls_serve_sim_cache_evictions_total counter\n");
        let _ = writeln!(out, "dls_serve_sim_cache_evictions_total {sim_evictions}");
        out
    }
}

fn seconds(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 / 1e9
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_counts_and_ratio() {
        let m = Metrics::new();
        m.observe("/plan", 200, 0.010);
        m.observe("/plan", 200, 0.030);
        m.observe("/simulate", 400, 0.001);
        m.cache_hit();
        m.cache_miss();
        m.cache_miss();
        m.sim_cache_hit();
        m.sim_cache_hit();
        m.sim_cache_miss();
        m.rejected();
        m.enqueued();
        m.accept_error();
        m.observe_shard(1);
        m.observe_shard(1);
        m.observe_shard(3);
        m.fastpath_analytic();
        m.fastpath_analytic();
        m.fastpath_miss(FastPathMiss::NoOracle);
        m.fastpath_miss(FastPathMiss::PredictionErrors);
        m.fastpath_miss(FastPathMiss::PredictionErrors);
        m.fastpath_audited(Duration::from_millis(30));
        m.fastpath_audited(Duration::from_millis(10));
        m.fastpath_divergence();
        m.fastpath_audit_error();
        let text = m.render(4, 5);
        assert!(text.contains("dls_serve_requests_total{endpoint=\"/plan\",status=\"200\"} 2"));
        assert!(text.contains("dls_serve_requests_total{endpoint=\"/simulate\",status=\"400\"} 1"));
        assert!(text.contains("dls_serve_request_seconds_count{endpoint=\"/plan\"} 2"));
        assert!(text.contains("dls_serve_request_seconds_max{endpoint=\"/plan\"} 0.03"));
        assert!(text.contains("dls_serve_plan_cache_hits_total 1"));
        assert!(text.contains("dls_serve_plan_cache_misses_total 2"));
        assert!(text.contains("dls_serve_plan_cache_hit_ratio 0.3333333333333333"));
        assert!(text.contains("dls_serve_sim_cache_hits_total 2"));
        assert!(text.contains("dls_serve_sim_cache_misses_total 1"));
        assert!(text.contains("dls_serve_sim_cache_hit_ratio 0.6666666666666666"));
        assert!(text.contains("dls_serve_queue_depth 1"));
        assert!(text.contains("dls_serve_rejected_total 1"));
        assert!(text.contains("dls_serve_accept_errors_total 1"));
        assert!(text.contains("dls_serve_shard_requests_total{shard=\"1\"} 2"));
        assert!(text.contains("dls_serve_shard_requests_total{shard=\"3\"} 1"));
        assert_eq!(m.shard_requests().get(&1), Some(&2));
        assert!(text.contains("dls_serve_fastpath_analytic_total 2"));
        assert!(text.contains("dls_serve_fastpath_engine_total 3"));
        assert!(text.contains("dls_serve_fastpath_miss_total{reason=\"prediction_errors\"} 2"));
        assert!(text.contains("dls_serve_fastpath_miss_total{reason=\"no_oracle\"} 1"));
        assert!(text.contains("dls_serve_fastpath_miss_total{reason=\"inexact_oracle\"} 0"));
        assert_eq!(m.fastpath_engine_total(), 3);
        assert!(text.contains("dls_serve_fastpath_audited_total 2"));
        assert!(text.contains("dls_serve_fastpath_audit_seconds_sum 0.04"));
        assert!(text.contains("dls_serve_fastpath_audit_seconds_max 0.03"));
        assert_eq!(m.fastpath_audited_total(), 2);
        assert!(text.contains("dls_serve_fastpath_divergence_total 1"));
        assert!(text.contains("dls_serve_fastpath_audit_errors_total 1"));
        assert!(text.contains("dls_serve_plan_cache_evictions_total 4"));
        assert!(text.contains("dls_serve_sim_cache_evictions_total 5"));
        assert_eq!(m.fastpath_analytic_total(), 2);
        assert_eq!(m.fastpath_divergences_total(), 1);
        assert_eq!(m.fastpath_audit_errors_total(), 1);
    }
}
