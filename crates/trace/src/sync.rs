//! Poison-tolerant locking for the long-running daemons.
//!
//! `daed` and `daeg` convert handler panics into error responses and keep
//! serving, so a mutex poisoned by such a panic must stay usable. That is
//! sound only where every update leaves the guarded data valid at every
//! step — counters, histograms, queues, caches whose inserts are atomic
//! per entry. Each call site vouches for that; this module is the one
//! place the recovery itself is spelled.

use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

/// Unwraps a lock (or condvar-wait) result, taking the guard out of a
/// poison error instead of panicking.
pub fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(m.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_mutex_stays_usable() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 2);
    }
}
