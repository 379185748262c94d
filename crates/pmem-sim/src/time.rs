//! Virtual time: the simulation's notion of nanoseconds.
//!
//! All performance numbers in this workspace are *virtual*: each simulated
//! rank owns a [`Clock`] that it advances as it performs modelled work
//! (device transfers, memory copies, syscalls, message exchanges). Real
//! wall-clock time never enters the model, which makes every experiment
//! deterministic and independent of the host machine.

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is used both as an instant (nanoseconds since simulation start)
/// and as a duration; the arithmetic is identical and keeping one type avoids
/// a large amount of conversion noise in the cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds expressed as a float (useful for model math).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative virtual durations are meaningless");
        SimTime((s * 1e9).round() as u64)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; spans never go negative.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// The time needed to move `bytes` at `bytes_per_sec`, rounded up to a
    /// whole nanosecond so repeated tiny transfers are never free.
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        debug_assert!(bytes_per_sec > 0, "zero-bandwidth resource");
        // ceil(bytes * 1e9 / bw) using u128 to avoid overflow at GB scale.
        let ns = ((bytes as u128) * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimTime(ns as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Observer invoked after every charge on a *gated* clock.
///
/// This is the hook a cooperative scheduler (see `mpi-sim`) installs to turn
/// every virtual-time charge into a potential yield point: the implementation
/// may park the calling thread until it is that rank's turn to run again.
/// Clocks without a gate (background clocks, unit tests) never call it.
pub trait ClockGate: Send + Sync + fmt::Debug {
    /// The rank owning the clock just advanced it to `now`.
    fn charged(&self, rank: usize, now: SimTime);
}

thread_local! {
    /// Depth of nested [`atomic_section`]s on this thread. While non-zero,
    /// gated clocks on this thread charge without yielding.
    static ATOMIC_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII marker for a critical section that must not yield to the scheduler.
///
/// Code that charges a clock while holding a host-side lock (hashtable
/// stripes, the pool heap, filesystem state, ...) opens an atomic section
/// first; otherwise a cooperative scheduler could park this thread mid-lock
/// and hand the token to a rank that then blocks on the same lock forever.
/// Sections nest, and the handle is deliberately `!Send` — it marks a region
/// of *this thread's* call stack.
#[must_use = "the section ends when this guard is dropped"]
#[derive(Debug)]
pub struct AtomicSection {
    _not_send: PhantomData<*const ()>,
}

/// Open an [`AtomicSection`] on the current thread.
pub fn atomic_section() -> AtomicSection {
    ATOMIC_DEPTH.with(|d| d.set(d.get() + 1));
    AtomicSection {
        _not_send: PhantomData,
    }
}

impl Drop for AtomicSection {
    fn drop(&mut self) {
        ATOMIC_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Whether the current thread is inside an [`atomic_section`].
pub fn in_atomic_section() -> bool {
    ATOMIC_DEPTH.with(|d| d.get() > 0)
}

/// A per-rank virtual clock.
///
/// The clock is shared (behind `Arc`) between the rank's call stack and the
/// shared resources it touches, so the counter is atomic; a rank only ever
/// moves its own clock forward.
#[derive(Debug, Default)]
pub struct Clock {
    now: AtomicU64,
    /// Trace lane this clock's activity is attributed to (rank id for rank
    /// clocks, reserved ids for background clocks). Purely diagnostic: the
    /// cost model never reads it.
    lane: u64,
    /// Scheduler hook: `(gate, rank)` notified after every charge. Installed
    /// at most once, by the communicator that owns this clock.
    gate: OnceLock<(Arc<dyn ClockGate>, usize)>,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            now: AtomicU64::new(0),
            lane: 0,
            gate: OnceLock::new(),
        }
    }

    /// A clock whose trace spans land on the given lane.
    pub fn with_lane(lane: u64) -> Self {
        Clock {
            now: AtomicU64::new(0),
            lane,
            gate: OnceLock::new(),
        }
    }

    pub fn starting_at(t: SimTime) -> Self {
        Clock {
            now: AtomicU64::new(t.0),
            lane: 0,
            gate: OnceLock::new(),
        }
    }

    /// Install a scheduler gate: `gate.charged(rank, now)` runs after every
    /// subsequent charge (outside atomic sections). At most one gate per
    /// clock; later calls are ignored.
    pub fn set_gate(&self, gate: Arc<dyn ClockGate>, rank: usize) {
        let _ = self.gate.set((gate, rank));
    }

    #[inline]
    fn after_charge(&self, now: SimTime) {
        if let Some((gate, rank)) = self.gate.get() {
            if !in_atomic_section() {
                gate.charged(*rank, now);
            }
        }
    }

    /// Trace lane this clock reports spans on.
    #[inline]
    pub fn lane(&self) -> u64 {
        self.lane
    }

    /// Current virtual time of this rank.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.now.load(Ordering::Relaxed))
    }

    /// Advance by `d` and return the new instant. Crate-private: the one
    /// caller is `Machine`'s private `charge`, so every nanosecond a clock
    /// moves is attributed there (jumps to an instant go through
    /// `Machine::charge_wait`, which charges the distance).
    #[inline]
    pub(crate) fn advance(&self, d: SimTime) -> SimTime {
        let now = SimTime(self.now.fetch_add(d.0, Ordering::Relaxed) + d.0);
        self.after_charge(now);
        now
    }

    /// Reset to zero (start of a fresh timed region).
    pub fn reset(&self) {
        self.now.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 30 GB/s is well under 1ns but must not be free.
        let t = SimTime::for_transfer(1, 30_000_000_000);
        assert_eq!(t, SimTime::from_nanos(1));
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 8 GB at 8 GB/s = 1 second.
        let t = SimTime::for_transfer(8_000_000_000, 8_000_000_000);
        assert_eq!(t.as_secs_f64(), 1.0);
    }

    #[test]
    fn transfer_zero_bytes_is_free() {
        assert_eq!(SimTime::for_transfer(0, 1), SimTime::ZERO);
    }

    #[test]
    fn transfer_huge_values_do_not_overflow() {
        // 1 TB at 1 GB/s = 1000 seconds; intermediate product exceeds u64.
        let t = SimTime::for_transfer(1_000_000_000_000, 1_000_000_000);
        assert_eq!(t.as_secs_f64(), 1000.0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimTime::from_nanos(5));
        c.advance(SimTime::from_nanos(7));
        assert_eq!(c.now(), SimTime::from_nanos(12));
    }

    #[derive(Debug, Default)]
    struct CountingGate {
        calls: std::sync::Mutex<Vec<(usize, SimTime)>>,
    }

    impl ClockGate for CountingGate {
        fn charged(&self, rank: usize, now: SimTime) {
            self.calls.lock().unwrap().push((rank, now));
        }
    }

    #[test]
    fn gated_clock_reports_every_charge() {
        let gate = Arc::new(CountingGate::default());
        let c = Clock::new();
        c.set_gate(Arc::clone(&gate) as Arc<dyn ClockGate>, 3);
        c.advance(SimTime::from_nanos(5));
        c.advance(SimTime::from_nanos(4));
        assert_eq!(
            *gate.calls.lock().unwrap(),
            vec![(3, SimTime::from_nanos(5)), (3, SimTime::from_nanos(9))]
        );
    }

    #[test]
    fn atomic_section_suppresses_the_gate() {
        let gate = Arc::new(CountingGate::default());
        let c = Clock::new();
        c.set_gate(Arc::clone(&gate) as Arc<dyn ClockGate>, 0);
        {
            let _outer = atomic_section();
            c.advance(SimTime::from_nanos(1));
            {
                let _inner = atomic_section();
                c.advance(SimTime::from_nanos(1));
            }
            c.advance(SimTime::from_nanos(1));
            assert!(in_atomic_section());
        }
        assert!(!in_atomic_section());
        assert!(gate.calls.lock().unwrap().is_empty());
        c.advance(SimTime::from_nanos(1));
        assert_eq!(gate.calls.lock().unwrap().len(), 1);
        // Time advanced normally throughout.
        assert_eq!(c.now(), SimTime::from_nanos(4));
    }

    #[test]
    fn ungated_clock_never_looks_for_a_scheduler() {
        let c = Clock::new();
        c.advance(SimTime::from_nanos(5));
        assert_eq!(c.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_millis(5000).to_string(), "5.000s");
    }

    #[test]
    fn sim_time_sum_and_scalar_ops() {
        let total: SimTime = [SimTime(1), SimTime(2), SimTime(3)].into_iter().sum();
        assert_eq!(total, SimTime(6));
        assert_eq!(SimTime(6) * 2, SimTime(12));
        assert_eq!(SimTime(6) / 2, SimTime(3));
        assert_eq!(SimTime(6).saturating_sub(SimTime(10)), SimTime::ZERO);
    }
}
