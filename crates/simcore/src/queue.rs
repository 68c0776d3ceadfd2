//! The engine's pending-event queue: a binary heap on `(time, seq)`.
//!
//! The engine needs one operation pair — insert an event keyed by
//! `(time, seq)` and remove the smallest such key — and its determinism
//! contract requires the *exact* `(time, seq)` ascending total order, so
//! simultaneous events fire in insertion (`seq`) order.
//!
//! Each key is one `u128`, `(time bits) << 64 | seq`; for the non-negative
//! times the engine pushes, the bits of an `f64` order exactly like its
//! value. A star platform holds `O(N)` pending events (`N + 2` on the
//! paper's Table 1 stars), so the heap stays a few levels deep. The property
//! test in this module pins the pop order against a reference heap over
//! random push/pop/clear histories; `docs/BENCHMARKS.md` ("Event queue")
//! records the measurements behind this design.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: the key `(time bits) << 64 | seq`, which orders like
/// `(time, seq)`, and the caller's payload, ordered in reverse so that the
/// std max-heap pops the smallest key.
#[derive(Debug)]
struct Entry<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Pending-event priority queue over `(time, seq)` keys. `pop` always
/// returns the entry with the smallest key.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> EventQueue<T> {
    /// Create a queue pre-sized for roughly `capacity` simultaneously
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Debug probe: allocated capacity (entries) of the heap. Used by the
    /// reuse tests to assert that repetition loops stop growing
    /// allocations.
    pub fn capacity_probe(&self) -> usize {
        self.heap.capacity()
    }

    /// Insert an entry. `time` must be finite and non-negative (`-0.0`
    /// is queued as `+0.0`).
    #[inline]
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        let key = ((time + 0.0).to_bits() as u128) << 64 | seq as u128;
        self.heap.push(Entry { key, item });
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        let Entry { key, item } = self.heap.pop()?;
        Some((f64::from_bits((key >> 64) as u64), key as u64, item))
    }

    /// Empty the queue, keeping the heap's allocation for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// The reference the queue must match: a binary min-heap on
    /// `(time bits, seq)`. For the non-negative times the engine pushes,
    /// `f64::to_bits` orders exactly like the values.
    type RefHeap = BinaryHeap<Reverse<(u64, u64)>>;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop().map(|(t, s, _)| (t, s))).collect()
    }

    fn pop_bits<T>(q: &mut EventQueue<T>) -> Option<(u64, u64)> {
        q.pop().map(|(t, s, _)| (t.to_bits(), s))
    }

    fn drain_bits<T>(q: &mut EventQueue<T>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| pop_bits(q)).collect()
    }

    fn drain_heap(h: &mut RefHeap) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| h.pop().map(|Reverse(k)| k)).collect()
    }

    /// Push the same entry into the queue and the reference heap.
    fn push_both(q: &mut EventQueue<()>, h: &mut RefHeap, time: f64, seq: u64) {
        q.push(time, seq, ());
        h.push(Reverse((time.to_bits(), seq)));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::with_capacity(8);
        assert_eq!(q.pop(), None);
        q.push(3.0, 0, 0);
        q.push(1.0, 1, 1);
        q.push(2.0, 2, 2);
        q.push(1.0, 3, 3); // same time as seq 1: seq breaks the tie
        assert_eq!(drain(&mut q), vec![(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]);
    }

    proptest! {
        /// For any push/pop/clear history the queue pops the reference
        /// heap's exact `(time, seq)` sequence and holds as many entries
        /// after every operation. The drawn parameters shape a
        /// xorshift-driven history: the weights of simultaneous (due at
        /// the time last popped), near-future and far-future (fault-style)
        /// pushes, the time scale, the pop probability, and a `clear()`
        /// every `clear_every` rounds, the way engine repetitions reuse the
        /// queue.
        #[test]
        fn matches_reference_heap(
            seed in 1u64..u64::MAX,
            (w_sim, w_near, w_far) in (0u64..=4, 1u64..=8, 0u64..=4),
            scale in 0.001f64..1000.0,
            pop_pct in 20u64..=90,
            clear_every in 16u64..=800,
            capacity in 1usize..=256,
        ) {
            let mut q = EventQueue::with_capacity(capacity);
            let mut heap = RefHeap::new();
            let (mut seq, mut now) = (0u64, 0.0f64);
            let mut x = seed;
            let mut rand = move || {
                // xorshift: deterministic pseudo-random stream, no RNG dep.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for round in 1..=3000u64 {
                for _ in 0..rand() % 4 {
                    let r = rand();
                    let pick = r % (w_sim + w_near + w_far);
                    let dt = if pick < w_sim {
                        0.0
                    } else if pick < w_sim + w_near {
                        ((r >> 8) % 1000) as f64 / 997.0
                    } else {
                        50.0 + ((r >> 8) % 5000) as f64
                    };
                    push_both(&mut q, &mut heap, now + dt * scale, seq);
                    seq += 1;
                    prop_assert_eq!(q.len(), heap.len(), "round {} push", round);
                }
                if rand() % 100 < pop_pct {
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(pop_bits(&mut q), want, "round {} pop", round);
                    if let Some((bits, _)) = want {
                        now = f64::from_bits(bits);
                    }
                    prop_assert_eq!(q.len(), heap.len(), "round {} pop", round);
                }
                if round % clear_every == 0 {
                    q.clear();
                    heap.clear();
                    now = 0.0;
                    prop_assert_eq!(q.len(), 0, "round {} clear", round);
                }
            }
            prop_assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut q = EventQueue::with_capacity(8);
        for rep in 0..5 {
            for i in 0..500u64 {
                q.push(i as f64 * 0.01, i, ());
            }
            assert_eq!(drain(&mut q).len(), 500, "rep {rep}");
            q.clear();
            assert_eq!(q.len(), 0);
        }
        let probe_after_warm = q.capacity_probe();
        for _ in 0..20 {
            for i in 0..500u64 {
                q.push(i as f64 * 0.01, i, ());
            }
            while q.pop().is_some() {}
            q.clear();
        }
        assert_eq!(
            q.capacity_probe(),
            probe_after_warm,
            "steady-state repetitions must not grow the queue's buffers"
        );
    }

    #[test]
    fn extreme_timestamps_match_heap() {
        // The queue must match the heap (and terminate) at any
        // representable timestamp; a bucketed queue once spun forever on
        // times whose `time/width` left u64 range.
        let mut q = EventQueue::with_capacity(8);
        let mut heap = RefHeap::new();
        let times = [0.0, 1.0, 4.7e18, 1e19, 2.5e19, 1e300, f64::MAX];
        for (i, &t) in times.iter().enumerate() {
            push_both(&mut q, &mut heap, t, i as u64);
        }
        assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
        // Interleaved variant: pop past a small time first, then push
        // huge ones, some due at the time just popped.
        push_both(&mut q, &mut heap, 0.5, 100);
        push_both(&mut q, &mut heap, 9.9e18, 101);
        assert_eq!(pop_bits(&mut q), heap.pop().map(|Reverse(k)| k));
        push_both(&mut q, &mut heap, 8.8e18, 102);
        push_both(&mut q, &mut heap, 0.5, 103);
        assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
    }
}
