//! Virtual time: the simulation's notion of nanoseconds.
//!
//! All performance numbers in this workspace are *virtual*: each simulated
//! rank owns a [`Clock`] that it advances as it performs modelled work
//! (device transfers, memory copies, syscalls, message exchanges). Real
//! wall-clock time never enters the model, which makes every experiment
//! deterministic and independent of the host machine.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::iter::Sum;
use std::marker::PhantomData;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; spans never go negative.
    #[inline]
    pub(crate) fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub(crate) fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    #[inline]
    pub(crate) fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// The time needed to move `bytes` at `bytes_per_sec`, rounded up to a
    /// whole nanosecond so repeated tiny transfers are never free.
    #[inline]
    pub(crate) fn for_transfer(bytes: u64, bytes_per_sec: u64) -> SimTime {
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

/// The cooperative scheduler's yield hook (see `mpi-sim`).
///
/// A charge never calls it. A charge on a *gated* clock — the clock of a rank
/// thread registered with [`enter_rank`] — outside an [`atomic_section`] only
/// marks the clock *yield owed*; the owed yield is taken at the rank's next
/// [`interaction_point`], the next moment it can observe or change state
/// another rank can see. Between the charge and that point the rank touches
/// nothing shared, so every shared event still happens in (virtual time at
/// the event, rank id) order. Clocks that are not gated (background clocks,
/// single-rank handles, unit tests) never owe anything.
pub trait ClockGate: Send + Sync + fmt::Debug {
    /// `rank` reached an interaction point owing a yield, its clock reading
    /// `now`. The implementation may park the calling thread until it is
    /// that rank's turn to run again.
    fn yield_now(&self, rank: usize, now: SimTime);
}

/// What a rank thread registers: where its owed yield goes.
struct RankTurn {
    gate: Arc<dyn ClockGate>,
    rank: usize,
    clock: Arc<Clock>,
}

thread_local! {
    /// Depth of nested [`atomic_section`]s on this thread. While non-zero,
    /// charges on this thread owe no yield.
    static ATOMIC_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The rank this thread runs, if a scheduler registered one: how
    /// [`atomic_section`] and [`crate::sync::Mutex`], neither of which sees
    /// a clock, find the owed flag.
    static RANK_TURN: RefCell<Option<RankTurn>> = const { RefCell::new(None) };
}

/// RAII registration of the current thread as a scheduled rank; see
/// [`enter_rank`]. Dropping it (return or unwind) clears the registration.
#[must_use = "the thread stops being a scheduled rank when this guard is dropped"]
#[derive(Debug)]
pub struct RankGuard {
    _not_send: PhantomData<*const ()>,
}

/// Register the current thread as `rank` of a cooperatively scheduled job:
/// `clock` becomes gated (its charges mark a yield owed) and every
/// [`interaction_point`] on this thread hands an owed yield to `gate`.
pub fn enter_rank(gate: Arc<dyn ClockGate>, rank: usize, clock: Arc<Clock>) -> RankGuard {
    clock.gated.store(true, Ordering::Relaxed);
    let prev = RANK_TURN.with(|t| t.borrow_mut().replace(RankTurn { gate, rank, clock }));
    assert!(prev.is_none(), "thread already runs a scheduled rank");
    RankGuard {
        _not_send: PhantomData,
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        RANK_TURN.with(|t| t.borrow_mut().take());
    }
}

/// Take the yield this thread's rank owes, if any.
///
/// Call it immediately before observing or changing rank-shared state that
/// no [`atomic_section`] entry and no [`crate::sync::Mutex`] acquisition
/// already precedes (a lock-free read of a shared word, a mailbox). On a
/// thread that runs no scheduled rank, or whose rank owes nothing, it does
/// nothing — in particular inside an atomic section, where nothing is ever
/// owed (the entry took it and charges inside mark none).
#[inline]
pub fn interaction_point() {
    RANK_TURN.with(|t| {
        if let Some(turn) = t.borrow().as_ref() {
            if turn.clock.yield_owed.load(Ordering::Relaxed) {
                debug_assert!(!in_atomic_section(), "a yield owed inside a section");
                turn.clock.yield_owed.store(false, Ordering::Relaxed);
                turn.gate.yield_now(turn.rank, turn.clock.now());
            }
        }
    });
}

/// RAII marker for a critical section that must not yield to the scheduler.
///
/// Code that charges a clock while holding a host-side lock (hashtable
/// stripes, the pool heap, filesystem state, ...) opens an atomic section
/// *before* taking the lock: entering the outermost section is an
/// [`interaction_point`], and charges made inside owe no yield, so a
/// cooperative scheduler never parks this thread mid-lock and hands the
/// token to a rank that then blocks on the same lock forever.
/// Sections nest, and the handle is deliberately `!Send` — it marks a region
/// of *this thread's* call stack.
#[must_use = "the section ends when this guard is dropped"]
#[derive(Debug)]
pub struct AtomicSection {
    _not_send: PhantomData<*const ()>,
}

/// Open an `AtomicSection` on the current thread. (Only the outermost
/// entry can find a yield owed; nested ones take nothing.)
pub fn atomic_section() -> AtomicSection {
    interaction_point();
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
pub(crate) fn in_atomic_section() -> bool {
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
    /// Set once by [`enter_rank`]: this is a scheduled rank's clock.
    gated: AtomicBool,
    /// A charge outside an atomic section happened since the rank's last
    /// yield; taken at its next [`interaction_point`].
    yield_owed: AtomicBool,
}

impl Clock {
    pub fn new() -> Self {
        Clock::default()
    }

    /// A clock whose trace spans land on the given lane.
    pub fn with_lane(lane: u64) -> Self {
        Clock {
            lane,
            ..Clock::default()
        }
    }

    /// Trace lane this clock reports spans on.
    #[inline]
    pub(crate) fn lane(&self) -> u64 {
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
        if self.gated.load(Ordering::Relaxed) && !in_atomic_section() {
            self.yield_owed.store(true, Ordering::Relaxed);
        }
        now
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
        fn yield_now(&self, rank: usize, now: SimTime) {
            self.calls.lock().unwrap().push((rank, now));
        }
    }

    fn gated_clock(rank: usize) -> (Arc<CountingGate>, Arc<Clock>, RankGuard) {
        let gate = Arc::new(CountingGate::default());
        let c = Arc::new(Clock::new());
        let guard = enter_rank(
            Arc::clone(&gate) as Arc<dyn ClockGate>,
            rank,
            Arc::clone(&c),
        );
        (gate, c, guard)
    }

    #[test]
    fn a_charge_marks_the_yield_owed_and_a_point_takes_it_once() {
        let (gate, c, guard) = gated_clock(3);
        c.advance(SimTime::from_nanos(5));
        c.advance(SimTime::from_nanos(4));
        // Charges alone never reach the scheduler.
        assert!(gate.calls.lock().unwrap().is_empty());
        interaction_point();
        interaction_point(); // nothing owed any more
        assert_eq!(
            *gate.calls.lock().unwrap(),
            vec![(3, SimTime::from_nanos(9))]
        );
        // Once the registration is gone a point finds nobody to yield to.
        c.advance(SimTime::from_nanos(1));
        drop(guard);
        interaction_point();
        assert_eq!(gate.calls.lock().unwrap().len(), 1);
    }

    #[test]
    fn a_section_entry_takes_the_owed_yield_and_charges_inside_owe_nothing() {
        let (gate, c, _guard) = gated_clock(0);
        c.advance(SimTime::from_nanos(1));
        {
            let _outer = atomic_section();
            assert_eq!(
                *gate.calls.lock().unwrap(),
                vec![(0, SimTime::from_nanos(1))]
            );
            c.advance(SimTime::from_nanos(1));
            {
                // Only the outermost entry is a point.
                let _inner = atomic_section();
                c.advance(SimTime::from_nanos(1));
            }
            c.advance(SimTime::from_nanos(1));
            assert!(in_atomic_section());
        }
        assert!(!in_atomic_section());
        // The three charges inside left nothing owed.
        let _next = atomic_section();
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
