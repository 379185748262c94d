//! Host locks for rank-shared model state.
//!
//! Under the cooperative scheduler a rank's owed yield must be taken before
//! it observes or changes anything another rank can see (see
//! [`crate::time::ClockGate`]). Every lock that guards such state is
//! therefore an interaction point: [`Mutex::lock`] and [`Mutex::try_lock`]
//! call [`interaction_point`] and then lock. That makes the safe thing the
//! default — a lock added to the model later yields where it must without
//! its author knowing the scheduler exists. Inside an
//! [`crate::time::atomic_section`] nothing is owed, so nested locks cost one
//! thread-local read.
//!
//! [`NoYieldMutex`] is the opt-out, for state whose locking order no rank
//! can observe: commutative observers (metrics, trace sinks) and per-rank
//! bookkeeping. Opting out wrongly can reorder shared events; *forgetting*
//! to opt out only costs a token hand-off per charge again.

use crate::time::interaction_point;
use std::fmt;

pub use parking_lot::MutexGuard;

/// A lock that is **not** a scheduler interaction point (the raw vendored
/// mutex). Only for state that is not rank-shared model state; say why at
/// the declaration.
pub use parking_lot::Mutex as NoYieldMutex;

/// A mutual-exclusion lock over rank-shared state: acquiring it first takes
/// the yield the calling rank owes, if any.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: parking_lot::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        interaction_point();
        self.inner.lock()
    }

    /// The outcome is part of the model (a held lock means another rank is
    /// inside), so this is a point exactly like [`Mutex::lock`].
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        interaction_point();
        self.inner.try_lock()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{atomic_section, enter_rank, Clock, ClockGate, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct CountingGate(AtomicUsize);

    impl ClockGate for CountingGate {
        fn yield_now(&self, _rank: usize, _now: SimTime) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn lock_and_try_lock_take_the_owed_yield_outside_a_section_only() {
        let gate = Arc::new(CountingGate::default());
        let clock = Arc::new(Clock::new());
        let _rank = enter_rank(
            Arc::clone(&gate) as Arc<dyn ClockGate>,
            0,
            Arc::clone(&clock),
        );
        let yields = || gate.0.load(Ordering::Relaxed);
        let m = Mutex::new(0u32);
        let raw = NoYieldMutex::new(0u32);

        clock.advance(SimTime::from_nanos(1));
        *raw.lock() += 1; // opted out: still owed
        assert_eq!(yields(), 0);
        *m.lock() += 1;
        assert_eq!(yields(), 1);
        *m.lock() += 1; // nothing owed
        assert_eq!(yields(), 1);

        clock.advance(SimTime::from_nanos(1));
        assert!(m.try_lock().is_some());
        assert_eq!(yields(), 2);

        // Inside a section the entry already took it and charges owe nothing.
        clock.advance(SimTime::from_nanos(1));
        let _atomic = atomic_section();
        assert_eq!(yields(), 3);
        clock.advance(SimTime::from_nanos(1));
        *m.lock() += 1;
        assert_eq!(yields(), 3);
        assert_eq!(*m.lock(), 3);
    }
}
