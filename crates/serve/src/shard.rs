//! Engine shards: per-core simulation workers with scenario affinity.
//!
//! `/simulate` execution no longer happens on the HTTP worker that parsed
//! the request. Instead each decoded request is routed — by a stable hash
//! of its *scenario* (platform + workload + error model) — to one of N
//! engine shards, each a dedicated thread owning a warm
//! [`rumr::ScenarioRunner`]. Same-scenario requests always land on the
//! same shard, so they run on the same engine allocations regardless of
//! which connection or HTTP worker carried them; this generalizes the old
//! per-worker "reuse streak" (which only helped when consecutive requests
//! on one worker happened to match) into deterministic affinity.
//!
//! This module is only the plumbing: per-shard bounded queues and a
//! one-shot reply slot. The simulation logic lives in
//! [`crate::server`], which spawns the shard threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::api::SimulateRequest;
use crate::http::Response;
use crate::sync::{lock, wait_timeout};

/// A `/simulate` request in flight to a shard, with the slot its result
/// must be delivered to.
pub(crate) struct ShardJob {
    /// The decoded request.
    pub sim: Box<SimulateRequest>,
    /// The request's plan cache key, composed by the HTTP worker; `None`
    /// when the spec already carries a solved prototype.
    pub plan_key: Option<String>,
    /// Where the shard deposits the response.
    pub reply: std::sync::Arc<Reply>,
}

/// A one-shot reply slot: the HTTP worker blocks on it while the shard
/// computes the response.
#[derive(Default)]
pub(crate) struct Reply {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Reply {
    /// Deposit the response and wake the waiting worker.
    pub fn set(&self, response: Response) {
        *lock(&self.slot) = Some(response);
        self.ready.notify_all();
    }

    /// Block until the response arrives. During shutdown, gives an
    /// in-flight shard a short grace period and then gives up (`None`) so
    /// a worker never deadlocks on a shard that already exited.
    pub fn wait(&self, shutdown: &AtomicBool) -> Option<Response> {
        let mut guard = lock(&self.slot);
        loop {
            if let Some(response) = guard.take() {
                return Some(response);
            }
            if shutdown.load(Ordering::SeqCst) {
                guard = wait_timeout(&self.ready, guard, Duration::from_millis(250));
                return guard.take();
            }
            guard = wait_timeout(&self.ready, guard, Duration::from_millis(50));
        }
    }
}

struct ShardQueue {
    queue: Mutex<VecDeque<ShardJob>>,
    available: Condvar,
}

/// The shard queues: one bounded-by-construction FIFO per engine shard.
/// (The connection queue upstream already bounds in-flight work; shard
/// queues only ever hold requests whose connections are being served.)
pub(crate) struct ShardPool {
    shards: Vec<ShardQueue>,
}

impl ShardPool {
    /// A pool of `n` shard queues (`n >= 1`).
    pub fn new(n: usize) -> Self {
        ShardPool {
            shards: (0..n.max(1))
                .map(|_| ShardQueue {
                    queue: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Enqueue a job on shard `idx` and wake its thread.
    pub fn submit(&self, idx: usize, job: ShardJob) {
        let shard = &self.shards[idx];
        lock(&shard.queue).push_back(job);
        shard.available.notify_all();
    }

    /// Pop the next job for shard `idx`, blocking until one arrives.
    /// Returns `None` only when shutdown is signalled *and* the queue is
    /// drained — queued jobs always get answered.
    pub fn pop(&self, idx: usize, shutdown: &AtomicBool) -> Option<ShardJob> {
        let shard = &self.shards[idx];
        let mut queue = lock(&shard.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = wait_timeout(&shard.available, queue, Duration::from_millis(50));
        }
    }

    /// Wake every shard thread (shutdown path).
    pub fn notify_all(&self) {
        for shard in &self.shards {
            shard.available.notify_all();
        }
    }
}

/// The shard a scenario key routes to: a stable function of the key only,
/// so every worker sends the same scenario to the same shard.
pub(crate) fn shard_index(key: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (rumr::fnv1a(key.as_bytes()) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in 1..8 {
            for key in ["a", "b", "scenario-key", ""] {
                let idx = shard_index(key, shards);
                assert!(idx < shards);
                assert_eq!(idx, shard_index(key, shards), "routing must be stable");
            }
        }
        // Distinct keys spread across shards (not all on one).
        let hits: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_index(&format!("key-{i}"), 4))
            .collect();
        assert!(
            hits.len() > 1,
            "64 keys should hit more than one of 4 shards"
        );
    }
}
