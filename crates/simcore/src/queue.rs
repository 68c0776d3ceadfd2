//! The engine's pending-event queue: a calendar queue (Brown '88).
//!
//! The engine needs one operation pair — insert an event keyed by
//! `(time, seq)` and remove the smallest such key — and its determinism
//! contract requires the *exact* `(time, seq)` ascending total order, so
//! simultaneous events fire in insertion (`seq`) order.
//!
//! Events hash into time buckets of width `w`, the dequeue cursor walks the
//! buckets in time order, and events beyond the bucket window wait in a
//! sorted overflow rung. Amortized `O(1)` per operation for the
//! near-monotone, bounded-horizon timestamps a DES produces. The bucket
//! width re-tunes itself from the observed event rate whenever the queue is
//! cleared ([`EventQueue::clear`]), so repetition loops that reuse the
//! queue run with a width fitted to the previous run.
//!
//! The bucketing only ever *partitions* the key order (all keys in bucket
//! `d` sort strictly before all keys in bucket `d + 1`), never reorders it,
//! so the queue pops exactly the sequence a binary heap on `(time, seq)`
//! would. The property test in this module pins that against a reference
//! heap over random push/pop/clear histories; `docs/BENCHMARKS.md`
//! ("Event queue") records why the engine uses this queue and not a heap.

/// One queued entry: the ordering key plus the caller's payload.
type Entry<T> = (f64, u64, T);

#[inline]
fn key<T>(e: &Entry<T>) -> (f64, u64) {
    (e.0, e.1)
}

/// Compare two `(time, seq)` keys; times must be finite (the engine
/// asserts this on every push).
#[inline]
fn key_lt(a: (f64, u64), b: (f64, u64)) -> bool {
    match a.0.partial_cmp(&b.0).expect("event times are finite") {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

/// Smallest and largest bucket widths the tuner may pick. The lower bound
/// keeps `time / width` well inside `u64` range for any simulation-scale
/// timestamp; the upper bound keeps day indices meaningful.
const MIN_WIDTH: f64 = 1e-9;
const MAX_WIDTH: f64 = 1e12;

/// Largest day index [`EventQueue::day`] may return. The raw `f64 → u64`
/// cast saturates at `u64::MAX` for `time/width ≳ 1.8e19`, which pinned the
/// dequeue window against the integer ceiling: after the overflow jump set
/// `cur_day` to a saturated day, `day < cur_day.saturating_add(nbuckets)`
/// was unsatisfiable and `pop` spun forever. Clamping one bit lower keeps
/// the window arithmetic exact; all days this large collapse into a single
/// sorted bucket, which still preserves the `(time, seq)` order.
const MAX_DAY: u64 = u64::MAX >> 1;

/// Target mean entries per bucket when re-tuning the width: a couple of
/// entries keeps the sorted-insert cheap while the cursor rarely walks an
/// empty bucket.
const WIDTH_EVENTS_PER_BUCKET: f64 = 3.0;

/// Pending-event priority queue over `(time, seq)` keys: a calendar queue
/// simplified to a sliding window. `pop` always returns the entry with the
/// smallest key; keys are unique because the engine never reuses a
/// sequence number within a run.
///
/// Time is divided into *days* of width `width`; day `d` covers
/// `[d·width, (d+1)·width)`. The queue keeps a window of `buckets.len()`
/// (a power of two) consecutive days starting at `cur_day`, mapping day
/// `d` to bucket `d % buckets.len()`; entries beyond the window sit in
/// the sorted `overflow` rung and migrate into buckets as the cursor
/// advances. Each bucket is kept sorted *descending* by `(time, seq)`, so
/// the minimum is a `Vec::pop` from the back.
///
/// Correctness does not depend on the width: bucketing by
/// `floor(time / width)` preserves the key order between buckets, each
/// in-window day owns exactly one bucket, and overflow entries are by
/// construction later than every in-window entry. Width only moves cost
/// between empty-bucket cursor walks (too small) and long sorted inserts
/// (too large).
#[derive(Debug)]
pub struct EventQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// `buckets.len() - 1`; bucket index is `day & day_mask`.
    day_mask: u64,
    width: f64,
    inv_width: f64,
    /// Day the dequeue cursor is on. Never decreases within a run.
    cur_day: u64,
    len: usize,
    /// Entries with `day >= cur_day + buckets.len()`, sorted descending by
    /// `(time, seq)` (minimum at the back).
    overflow: Vec<Entry<T>>,
    /// Pop statistics of the current run, for the width re-tune on
    /// `clear`.
    pops: u64,
    first_pop_time: f64,
    last_pop_time: f64,
}

impl<T> EventQueue<T> {
    /// Create a queue pre-sized for roughly `capacity` simultaneously
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = capacity.max(64).next_power_of_two();
        EventQueue {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            day_mask: nbuckets as u64 - 1,
            width: 0.25,
            inv_width: 4.0,
            cur_day: 0,
            len: 0,
            overflow: Vec::new(),
            pops: 0,
            first_pop_time: 0.0,
            last_pop_time: 0.0,
        }
    }

    /// Number of pending entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Debug probe: total allocated capacity (entries) across the queue's
    /// internal buffers, plus the bucket count. Used by the reuse tests to
    /// assert that repetition loops stop growing allocations.
    pub fn capacity_probe(&self) -> usize {
        self.buckets.len()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.overflow.capacity()
    }

    #[inline]
    fn day(&self, time: f64) -> u64 {
        // Saturating cast: negative → 0 (cannot occur; the engine clamps
        // times to `now ≥ 0`), and times are finite by the push contract.
        // The `MAX_DAY` clamp keeps extreme `time/width` ratios off the
        // u64 ceiling — see the constant's doc for the failure mode.
        ((time * self.inv_width) as u64).min(MAX_DAY)
    }

    /// Insert into the bucket owning `day`, keeping it sorted descending.
    #[inline]
    fn insert_bucket(&mut self, day: u64, entry: Entry<T>) {
        let bucket = &mut self.buckets[(day & self.day_mask) as usize];
        let k = key(&entry);
        // Descending: everything greater than the new key stays in front.
        let pos = bucket.partition_point(|e| key_lt(k, key(e)));
        bucket.insert(pos, entry);
    }

    /// Insert an entry. `time` must be finite and non-negative.
    #[inline]
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        debug_assert!(time.is_finite() && time >= 0.0, "event time {time}");
        let d = self.day(time);
        self.len += 1;
        if d >= self.cur_day.saturating_add(self.buckets.len() as u64) {
            let entry = (time, seq, item);
            let k = key(&entry);
            let pos = self.overflow.partition_point(|e| key_lt(k, key(e)));
            self.overflow.insert(pos, entry);
        } else {
            // A day before the cursor (possible right after a resize
            // re-based the window) clamps onto the cursor's bucket; the
            // sorted bucket still pops it first, so order is preserved.
            self.insert_bucket(d.max(self.cur_day), (time, seq, item));
            if self.len - self.overflow.len() > 4 * self.buckets.len() {
                self.grow();
            }
        }
    }

    /// Remove and return the entry with the smallest `(time, seq)` key.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Migrate overflow entries whose day has entered the window.
            while let Some(e) = self.overflow.last() {
                let d = self.day(e.0);
                if d < self.cur_day.saturating_add(self.buckets.len() as u64) {
                    let entry = self.overflow.pop().expect("just peeked");
                    self.insert_bucket(d.max(self.cur_day), entry);
                } else {
                    break;
                }
            }
            if self.len == self.overflow.len() {
                // Every remaining entry is beyond the window: jump the
                // cursor to the earliest one instead of walking day by day.
                let t = self.overflow.last().expect("len > 0").0;
                self.cur_day = self.day(t);
                continue;
            }
            let slot = (self.cur_day & self.day_mask) as usize;
            if let Some(entry) = self.buckets[slot].pop() {
                self.len -= 1;
                if self.pops == 0 {
                    self.first_pop_time = entry.0;
                }
                self.last_pop_time = entry.0;
                self.pops += 1;
                return Some(entry);
            }
            self.cur_day += 1;
        }
    }

    /// Double the bucket count and re-base the window on the earliest
    /// pending entry. `O(len)`; triggered only when occupancy exceeds
    /// four entries per bucket, so the cost amortizes.
    fn grow(&mut self) {
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        entries.append(&mut self.overflow);
        let nbuckets = (self.buckets.len() * 2).max(64);
        self.buckets.resize_with(nbuckets, Vec::new);
        self.day_mask = nbuckets as u64 - 1;
        let tmin = entries.iter().map(|e| e.0).fold(f64::INFINITY, f64::min);
        if tmin.is_finite() {
            self.cur_day = self.day(tmin);
        }
        let total = std::mem::replace(&mut self.len, 0);
        for (time, seq, item) in entries {
            self.push(time, seq, item);
        }
        debug_assert_eq!(self.len, total);
    }

    /// Empty the queue, keeping every buffer's allocation for reuse, and
    /// re-tune the bucket width from the finished run's observed event
    /// rate, so the next run over the same scenario starts fitted.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.overflow.clear();
        self.len = 0;
        self.cur_day = 0;
        // Re-tune the width to the finished run's mean event spacing, so
        // the next run over the same scenario starts with ~3 entries per
        // occupied bucket instead of the construction-time guess.
        if self.pops >= 64 {
            let span = self.last_pop_time - self.first_pop_time;
            if span > 0.0 {
                let mean_gap = span / self.pops as f64;
                self.set_width(mean_gap * WIDTH_EVENTS_PER_BUCKET);
            }
        }
        self.pops = 0;
        self.first_pop_time = 0.0;
        self.last_pop_time = 0.0;
    }

    fn set_width(&mut self, width: f64) {
        let w = width.clamp(MIN_WIDTH, MAX_WIDTH);
        self.width = w;
        self.inv_width = 1.0 / w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference the calendar queue must match: a binary min-heap on
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
        /// For any push/pop/clear history the calendar queue pops the
        /// reference heap's exact `(time, seq)` sequence and holds as many
        /// entries after every operation. The drawn parameters shape a
        /// xorshift-driven history: the weights of simultaneous,
        /// near-future and far-future (fault-style) pushes, the time scale
        /// (which moves the event spacing against the bucket width), the
        /// pop probability, and a `clear()` every `clear_every` rounds,
        /// which re-tunes the width the way engine repetitions do.
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
    fn grow_preserves_order() {
        let mut q = EventQueue::with_capacity(1);
        let mut heap = RefHeap::new();
        // Push far more entries than buckets, all clustered: forces grow().
        for i in 0..5000u64 {
            push_both(&mut q, &mut heap, (i % 7) as f64 * 1e-3, i);
        }
        assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
    }

    #[test]
    fn clear_retains_capacity_and_retunes() {
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
            "steady-state repetitions must not grow the calendar's buffers"
        );
    }

    #[test]
    fn extreme_timestamps_match_heap() {
        // Regression: before the MAX_DAY clamp, any timestamp with
        // `time/width` beyond u64 range saturated to day u64::MAX; the
        // overflow jump then set `cur_day` to the saturated day, the
        // migration window `day < cur_day + nbuckets` became unsatisfiable,
        // and pop() looped forever. The queue must match the heap (and
        // terminate) at any representable timestamp.
        let mut q = EventQueue::with_capacity(8);
        let mut heap = RefHeap::new();
        let times = [0.0, 1.0, 4.7e18, 1e19, 2.5e19, 1e300, f64::MAX];
        for (i, &t) in times.iter().enumerate() {
            push_both(&mut q, &mut heap, t, i as u64);
        }
        assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
        // Interleaved variant: advance the cursor first, then force the
        // overflow jump straight to a saturating day.
        push_both(&mut q, &mut heap, 0.5, 100);
        push_both(&mut q, &mut heap, 9.9e18, 101);
        assert_eq!(pop_bits(&mut q), heap.pop().map(|Reverse(k)| k));
        push_both(&mut q, &mut heap, 8.8e18, 102);
        assert_eq!(drain_bits(&mut q), drain_heap(&mut heap));
    }

    #[test]
    fn overflow_jump_skips_empty_days() {
        let mut q = EventQueue::with_capacity(8);
        q.push(0.0, 0, ());
        q.push(1e6, 1, ()); // far beyond the initial window
        q.push(2e6, 2, ());
        assert_eq!(drain(&mut q), vec![(0.0, 0), (1e6, 1), (2e6, 2)]);
    }
}
