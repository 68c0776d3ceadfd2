//! Poison-recovering lock helpers.
//!
//! Every shared mutex in the service (connection queue, job table, caches,
//! metrics maps, engine slots) is locked through these helpers instead of
//! `.lock().unwrap()`. A worker that panics while holding a lock poisons
//! it; with bare `unwrap()` the next locker panics too, and the cascade
//! takes down the acceptor and every other worker. The service's shared
//! state is a queue/table of independent entries — a panic mid-update
//! cannot leave it logically corrupt in a way that is worse than losing
//! the panicking request — so recovering the guard and continuing is
//! strictly better than dying.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock a mutex, recovering the guard if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout` that recovers a poisoned guard instead of
/// propagating the panic. The timeout result is dropped: every caller
/// re-checks its predicate in a loop anyway.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(e) => e.into_inner().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Mutex::new(7);
        // Poison it: panic while holding the guard (in another thread so
        // this test survives).
        let _ = std::thread::spawn({
            let m: &'static Mutex<i32> = Box::leak(Box::new(Mutex::new(0)));
            move || {
                let _g = m.lock().unwrap();
                panic!("poison");
            }
        })
        .join();
        assert_eq!(*lock(&m), 7, "clean mutex still locks");

        let poisoned: &'static Mutex<i32> = Box::leak(Box::new(Mutex::new(42)));
        let _ = std::thread::spawn(move || {
            let _g = poisoned.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(poisoned.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock(poisoned), 42, "helper recovers the guard");
    }
}
