//! Deterministic cooperative rank scheduling.
//!
//! At ≥2 ranks the simulation used to inherit the host's thread
//! interleaving: hashtable chain layout, page-fault attribution and trace
//! span order varied run to run even though every *cost* was virtual. The
//! [`Scheduler`] removes the host from the picture: rank threads take turns,
//! and the next turn always goes to the runnable rank with the **lowest
//! virtual clock** (rank id breaks ties), so the whole multi-rank job becomes
//! one deterministic sequential program. The same machine, the same
//! configuration, any host core count: bit-identical results.
//!
//! **Deferred yields.** A charge does not reach the scheduler: it only marks
//! the rank's clock *yield owed*. The rank hands the token back — publishing
//! its clock and letting every earlier runnable rank go first — at its next
//! *interaction point*, the next moment it can observe or change state
//! another rank can see: an outermost [`pmem_sim::atomic_section`] entry, a
//! [`pmem_sim::sync::Mutex`] acquisition, an explicit
//! [`pmem_sim::interaction_point`] (a lock-free read of a shared word, the
//! mailbox in `send`/`recv`), or parking in `recv`. Between the charge and
//! that point the rank touches nothing shared, so moving the yield there
//! commutes with everything other ranks do: shared events still happen in
//! (virtual time at the event, rank id) order, at a token hand-off per
//! interaction instead of one per charge. A rank that owes nothing does not
//! consult the scheduler.
//!
//! [`SchedMode::FreeThreaded`] keeps the old behaviour (real OS threads
//! racing) for tests that deliberately exercise host concurrency.

use parking_lot::{Condvar, Mutex, MutexGuard};
use pmem_sim::{ClockGate, SimTime};

/// How the ranks of a [`crate::World`] are interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Cooperative virtual-time order: deterministic, bit-reproducible.
    #[default]
    Deterministic,
    /// Free-running OS threads: real host concurrency, nondeterministic
    /// interleaving (virtual-time *costs* are still schedule-independent
    /// where the model says so).
    FreeThreaded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// May run when the scheduler picks it (includes "not yet spawned").
    Runnable,
    /// Parked in `recv` on an empty mailbox; a send flips it back.
    Blocked,
    /// Rank body returned.
    Done,
}

#[derive(Debug)]
struct SchedState {
    /// Each rank's last published virtual time, in nanoseconds.
    times: Vec<u64>,
    status: Vec<Status>,
    /// The rank currently holding the execution token, if any.
    current: Option<usize>,
    /// First fatal error (rank panic or detected deadlock). Every parked
    /// rank wakes and re-panics with this message.
    poison: Option<String>,
    /// Times the token moved from one rank to another.
    handoffs: u64,
}

/// The cooperative rank scheduler (one per deterministic [`crate::World`]).
#[derive(Debug)]
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    /// One condvar per rank: each rank only ever waits on its own, so a
    /// handoff wakes exactly the intended thread.
    cvs: Vec<Condvar>,
}

impl Scheduler {
    pub(crate) fn new(size: usize) -> Self {
        assert!(size > 0);
        Scheduler {
            state: Mutex::new(SchedState {
                times: vec![0; size],
                status: vec![Status::Runnable; size],
                // Rank 0 holds the token from the start; everyone ties at
                // t=0 and the rank id breaks the tie.
                current: Some(0),
                poison: None,
                handoffs: 0,
            }),
            cvs: (0..size).map(|_| Condvar::new()).collect(),
        }
    }

    /// The runnable rank that must run next: lowest virtual time, rank id
    /// breaking ties.
    fn pick_next(st: &SchedState) -> Option<usize> {
        (0..st.times.len())
            .filter(|&r| st.status[r] == Status::Runnable)
            .min_by_key(|&r| (st.times[r], r))
    }

    fn check_poison(st: &SchedState) {
        if let Some(msg) = &st.poison {
            panic!("world poisoned: {msg}");
        }
    }

    /// Park until `rank` holds the token (and is runnable). Panics if the
    /// world is poisoned while waiting.
    fn wait_for_token(&self, rank: usize, st: &mut MutexGuard<'_, SchedState>) {
        loop {
            Self::check_poison(st);
            if st.current == Some(rank) && st.status[rank] == Status::Runnable {
                return;
            }
            self.cvs[rank].wait(st);
        }
    }

    /// Hand the token to `next` (which must differ from the caller's rank).
    fn hand_to(&self, st: &mut SchedState, next: usize) {
        st.current = Some(next);
        st.handoffs += 1;
        self.cvs[next].notify_one();
    }

    /// Called by a rank thread before running the rank body: blocks until
    /// the scheduler's turn order reaches this rank for the first time.
    pub(crate) fn start(&self, rank: usize) {
        let mut st = self.state.lock();
        self.wait_for_token(rank, &mut st);
    }

    /// The rank body returned: retire the rank and pass the token on.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.state.lock();
        st.status[rank] = Status::Done;
        if st.current == Some(rank) {
            st.current = None;
        }
        match Self::pick_next(&st) {
            Some(next) => self.hand_to(&mut st, next),
            None => self.check_all_parked(&mut st),
        }
    }

    /// Token hand-offs so far (each one is a condvar wake-up plus a park).
    pub(crate) fn handoffs(&self) -> u64 {
        self.state.lock().handoffs
    }

    /// A send made `dest`'s mailbox non-empty: a rank parked in `recv`
    /// becomes runnable again (it actually resumes at the sender's next
    /// yield, when the virtual-time order says so).
    pub(crate) fn unblock(&self, dest: usize) {
        let mut st = self.state.lock();
        if st.status[dest] == Status::Blocked {
            st.status[dest] = Status::Runnable;
        }
    }

    /// Called by `recv` when the mailbox is empty: give up the token and
    /// park until a sender unblocks this rank *and* the turn order comes
    /// back around. The caller took its owed yield before looking at the
    /// mailbox, so the time this rank is ordered by when it wakes is already
    /// published. The caller re-checks its mailbox afterwards (a wakeup
    /// may be for a different (src, tag) than the one awaited).
    pub(crate) fn block_on_recv(&self, rank: usize) {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        st.status[rank] = Status::Blocked;
        st.current = None;
        match Self::pick_next(&st) {
            Some(next) => self.hand_to(&mut st, next),
            None => self.check_all_parked(&mut st),
        }
        self.wait_for_token(rank, &mut st);
    }

    /// No rank is runnable. If any are still blocked in `recv` no message
    /// can ever arrive for them — poison deterministically instead of
    /// hanging the process.
    fn check_all_parked(&self, st: &mut SchedState) {
        let blocked: Vec<usize> = (0..st.status.len())
            .filter(|&r| st.status[r] == Status::Blocked)
            .collect();
        if blocked.is_empty() || st.poison.is_some() {
            return;
        }
        let msg = format!(
            "deterministic deadlock: rank(s) {blocked:?} blocked in recv with no runnable peer"
        );
        st.poison = Some(msg);
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// Record a fatal error and wake every parked rank so it can re-panic
    /// instead of waiting forever. First message wins.
    pub(crate) fn poison(&self, msg: &str) {
        let mut st = self.state.lock();
        if st.poison.is_none() {
            st.poison = Some(msg.to_string());
        }
        for cv in &self.cvs {
            cv.notify_all();
        }
    }
}

impl ClockGate for Scheduler {
    /// The yield: `rank` reached an interaction point owing one, its clock at
    /// `now`. Publish the time, hand the token to whichever runnable rank is
    /// now earliest, and if that is someone else, park until it comes back
    /// around.
    fn yield_now(&self, rank: usize, now: SimTime) {
        let mut st = self.state.lock();
        Self::check_poison(&st);
        let t = &mut st.times[rank];
        *t = (*t).max(now.as_nanos());
        #[allow(clippy::expect_used, reason = "the yielding rank is runnable")]
        let next =
            Self::pick_next(&st).expect("the yielding rank is runnable, so a runnable rank exists");
        if next != rank {
            self.hand_to(&mut st, next);
            self.wait_for_token(rank, &mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_lowest_time_then_lowest_rank() {
        let st = SchedState {
            times: vec![5, 3, 3, 9],
            status: vec![Status::Runnable; 4],
            current: None,
            poison: None,
            handoffs: 0,
        };
        assert_eq!(Scheduler::pick_next(&st), Some(1));
    }

    #[test]
    fn blocked_and_done_ranks_are_skipped() {
        let st = SchedState {
            times: vec![0, 1, 2],
            status: vec![Status::Done, Status::Blocked, Status::Runnable],
            current: None,
            poison: None,
            handoffs: 0,
        };
        assert_eq!(Scheduler::pick_next(&st), Some(2));
    }

    #[test]
    fn unblock_only_touches_blocked_ranks() {
        let s = Scheduler::new(2);
        s.state.lock().status[1] = Status::Blocked;
        s.unblock(1);
        assert_eq!(s.state.lock().status[1], Status::Runnable);
        s.state.lock().status[0] = Status::Done;
        s.unblock(0);
        assert_eq!(s.state.lock().status[0], Status::Done);
    }

    #[test]
    fn all_blocked_is_poisoned_not_hung() {
        let s = Scheduler::new(2);
        {
            let mut st = s.state.lock();
            st.status[0] = Status::Done;
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.block_on_recv(1);
        }))
        .expect_err("deadlock must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deterministic deadlock"), "got: {msg}");
    }
}
