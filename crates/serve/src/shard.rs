//! Engine slots: the bound on how many `/simulate` engine runs happen at
//! once.
//!
//! An engine `/simulate` runs on the HTTP worker that decoded it, inside
//! one of `shards` slots ([`crate::server::ServerConfig::shards`]). A
//! slot is an index taken from a free list and handed back when its
//! [`Slot`] drops, so a worker waits only while every slot is busy, and
//! `/metrics` counts runs by the slot that ran them.

use std::sync::{Condvar, Mutex, PoisonError};

use crate::sync::lock;

/// The free slot indices, a stack: the slot freed last is lent first
/// (slot 0, until two runs first overlap).
pub(crate) struct EngineSlots {
    free: Mutex<Vec<usize>>,
    released: Condvar,
}

impl EngineSlots {
    /// `n` slots (at least one).
    pub fn new(n: usize) -> Self {
        EngineSlots {
            free: Mutex::new((0..n.max(1)).rev().collect()),
            released: Condvar::new(),
        }
    }

    /// Take a free slot, waiting while every slot is busy.
    pub fn acquire(&self) -> Slot<'_> {
        let mut free = lock(&self.free);
        loop {
            if let Some(index) = free.pop() {
                return Slot { slots: self, index };
            }
            free = self
                .released
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A taken slot; dropping it frees the slot and wakes one waiter.
pub(crate) struct Slot<'a> {
    slots: &'a EngineSlots,
    /// The slot's index, in `0..shards`.
    pub index: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        lock(&self.slots.free).push(self.index);
        self.slots.released.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_returned_on_drop_and_lent_last_freed_first() {
        let slots = EngineSlots::new(2);
        let first = slots.acquire();
        let second = slots.acquire();
        assert_eq!((first.index, second.index), (0, 1));
        drop(second);
        drop(first);
        assert_eq!(slots.acquire().index, 0);
        assert_eq!(slots.acquire().index, 0, "a dropped slot is free again");
        assert_eq!(EngineSlots::new(0).acquire().index, 0, "at least one slot");
    }
}
