//! Communicators and point-to-point messaging.
//!
//! Ranks are threads; a [`World`] is the shared mail system plus the machine
//! model. Every rank owns a virtual [`Clock`]. A send moves real bytes into
//! the receiver's mailbox and stamps them with the *virtual delivery time*
//! (sender clock + contended fabric transfer); a receive blocks (host time)
//! until the message exists and then advances the receiver's clock to the
//! delivery stamp. Collectives are built from these primitives with the
//! textbook algorithms (dissemination barrier, binomial-tree broadcast), so
//! communication cost emerges from the message pattern rather than a formula.

use crate::sched::{SchedMode, Scheduler};
use parking_lot::{Condvar, Mutex};
use pmem_sim::{Clock, Machine, SimTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Message key: (source rank, tag).
type Key = (usize, u64);
/// A delivered message: payload + virtual delivery instant.
type Delivery = (Vec<u8>, SimTime);

#[derive(Debug)]
struct Mailbox {
    queues: Mutex<HashMap<Key, VecDeque<Delivery>>>,
    signal: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queues: Mutex::new(HashMap::new()),
            signal: Condvar::new(),
        }
    }
}

/// The shared state of a simulated MPI job.
#[derive(Debug)]
pub struct World {
    machine: Arc<Machine>,
    size: usize,
    mailboxes: Vec<Mailbox>,
    /// Cooperative scheduler (present in [`SchedMode::Deterministic`]).
    sched: Option<Arc<Scheduler>>,
    /// First rank panic, if any. A poisoned world wakes every blocked
    /// receiver so a dead rank cannot deadlock its peers.
    poison: Mutex<Option<String>>,
}

impl World {
    /// A deterministic world (see `World::with_mode`).
    pub fn new(machine: Arc<Machine>, size: usize) -> Arc<Self> {
        Self::with_mode(machine, size, SchedMode::Deterministic)
    }

    pub(crate) fn with_mode(machine: Arc<Machine>, size: usize, mode: SchedMode) -> Arc<Self> {
        assert!(size > 0, "a world needs at least one rank");
        machine.set_active_ranks(size);
        Arc::new(World {
            machine,
            size,
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            sched: match mode {
                SchedMode::Deterministic => Some(Arc::new(Scheduler::new(size))),
                SchedMode::FreeThreaded => None,
            },
            poison: Mutex::new(None),
        })
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    pub(crate) fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The cooperative scheduler, if this world is deterministic.
    pub(crate) fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.sched.as_ref()
    }

    /// How often the execution token has moved between ranks so far (zero
    /// in a free-threaded world): the host-side price of determinism.
    pub fn handoffs(&self) -> u64 {
        self.sched.as_ref().map_or(0, |s| s.handoffs())
    }

    /// Mark the world dead (a rank panicked) and wake every blocked
    /// receiver. The first message wins; later panics are usually the
    /// secondary "world poisoned" ones from woken peers.
    pub(crate) fn poison(&self, msg: String) {
        if let Some(sched) = &self.sched {
            sched.poison(&msg);
        }
        {
            let mut p = self.poison.lock();
            if p.is_none() {
                *p = Some(msg);
            }
        }
        for mbox in &self.mailboxes {
            // Lock the queue while notifying so a receiver between its
            // poison check and its wait cannot miss the wakeup.
            let _q = mbox.queues.lock();
            mbox.signal.notify_all();
        }
    }

    /// The first rank panic recorded by [`World::poison`], if any.
    pub(crate) fn poison_message(&self) -> Option<String> {
        self.poison.lock().clone()
    }

    fn check_poison(&self) {
        if let Some(msg) = self.poison.lock().as_deref() {
            panic!("world poisoned: {msg}");
        }
    }
}

/// A per-rank communicator handle (the `MPI_COMM_WORLD` of a rank).
#[derive(Debug, Clone)]
pub struct Comm {
    world: Arc<World>,
    rank: usize,
    clock: Arc<Clock>,
}

/// Reduction operators supported by `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReduceOp {
    Max,
    Min,
}

impl Comm {
    pub fn new(world: Arc<World>, rank: usize) -> Self {
        assert!(rank < world.size());
        // Each rank's clock reports trace spans on its own lane.
        let clock = Arc::new(Clock::with_lane(rank as u64));
        Comm { world, rank, clock }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.world.size()
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn clock_arc(&self) -> Arc<Clock> {
        Arc::clone(&self.clock)
    }

    pub fn machine(&self) -> &Arc<Machine> {
        self.world.machine()
    }

    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    // ---- point to point ----

    /// Asynchronous send (buffered, like a small-message MPI_Send).
    pub fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        assert!(dest < self.size(), "send to rank {dest} of {}", self.size());
        let delivery = self
            .machine()
            .charge_message(&self.clock, data.len() as u64);
        let mbox = &self.world.mailboxes[dest];
        // The mailbox is rank-shared: every earlier rank goes first.
        pmem_sim::interaction_point();
        {
            let mut queues = mbox.queues.lock();
            queues
                .entry((self.rank, tag))
                .or_default()
                .push_back((data.to_vec(), delivery));
            mbox.signal.notify_all();
        }
        if let Some(sched) = self.world.scheduler() {
            // A receiver parked on an empty mailbox is runnable again; it
            // resumes at this rank's next yield point.
            sched.unblock(dest);
        }
    }

    /// Blocking receive of the next message from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        assert!(src < self.size(), "recv from rank {src} of {}", self.size());
        let mut span = self.machine().span(&self.clock, "mpi", "recv.wait");
        let mbox = &self.world.mailboxes[self.rank];
        let (data, delivery) = match self.world.scheduler() {
            // Deterministic mode: park on the scheduler, not the mailbox.
            // While this rank holds the token no sender can run, so the
            // check-then-block sequence cannot lose a wakeup.
            Some(sched) => {
                // Looking into the mailbox (and parking on it) is an
                // interaction: take the owed yield first. Nothing below
                // charges before the message is popped.
                pmem_sim::interaction_point();
                loop {
                    if let Some(msg) = self.try_pop(src, tag) {
                        break msg;
                    }
                    sched.block_on_recv(self.rank);
                }
            }
            // Free-threaded mode: the classic condvar wait.
            None => {
                let mut queues = mbox.queues.lock();
                loop {
                    self.world.check_poison();
                    if let Some(msg) = queues.get_mut(&(src, tag)).and_then(|q| q.pop_front()) {
                        break msg;
                    }
                    mbox.signal.wait(&mut queues);
                }
            }
        };
        // Virtual time: the message cannot be consumed before it was
        // delivered. The jump is a wait, not work: it keeps its own label.
        self.machine()
            .charge_wait(&self.clock, delivery, "mpi.wait");
        span.set_arg("bytes", data.len() as u64);
        data
    }

    /// Pop the next queued message from `src` with `tag`, if any.
    fn try_pop(&self, src: usize, tag: u64) -> Option<Delivery> {
        let mbox = &self.world.mailboxes[self.rank];
        let mut queues = mbox.queues.lock();
        queues.get_mut(&(src, tag)).and_then(|q| q.pop_front())
    }

    // ---- collectives ----

    /// Dissemination barrier: ⌈log₂ P⌉ rounds of zero-byte messages. After
    /// the barrier every participant's clock reflects the slowest rank.
    pub fn barrier(&self) {
        let _span = self.machine().span(&self.clock, "mpi", "barrier");
        let p = self.size();
        if p == 1 {
            return;
        }
        let mut round = 0u64;
        let mut dist = 1usize;
        while dist < p {
            let to = (self.rank + dist) % p;
            let from = (self.rank + p - dist) % p;
            self.send(to, TAG_BARRIER + round, &[]);
            let _ = self.recv(from, TAG_BARRIER + round);
            dist *= 2;
            round += 1;
        }
    }

    /// Binomial-tree broadcast from `root`. Returns the payload on all ranks.
    pub fn bcast(&self, root: usize, data: Option<&[u8]>) -> Vec<u8> {
        let mut span = self.machine().span(&self.clock, "mpi", "bcast");
        let p = self.size();
        // Rotate so the root is virtual rank 0.
        let vrank = (self.rank + p - root) % p;
        #[allow(
            clippy::expect_used,
            reason = "the root's payload is the caller's to supply"
        )]
        let mut payload = (self.rank == root).then(|| {
            data.expect("root must supply the broadcast payload")
                .to_vec()
        });
        // Receive first (non-roots), from the peer that owns our subtree.
        if vrank != 0 {
            let mut mask = 1usize;
            while mask < p {
                if vrank & mask != 0 {
                    let vsrc = vrank & !mask;
                    let src = (vsrc + root) % p;
                    payload = Some(self.recv(src, TAG_BCAST));
                    break;
                }
                mask <<= 1;
            }
        }
        // Then forward down our subtree.
        #[allow(
            clippy::expect_used,
            reason = "the root holds it, every other rank received it"
        )]
        let data = payload.expect("bcast payload must be set by now");
        // Top bit of the ⌈log₂ P⌉-round tree (zero rounds for one rank).
        let mut mask = p.next_power_of_two() >> 1;
        while mask > 0 {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 {
                let vdest = vrank | mask;
                if vdest < p {
                    let dest = (vdest + root) % p;
                    self.send(dest, TAG_BCAST, &data);
                }
            }
            mask >>= 1;
        }
        span.set_arg("bytes", data.len() as u64);
        data
    }

    /// Gather variable-length buffers to `root`. Returns `Some(rank-ordered
    /// payloads)` on the root, `None` elsewhere.
    pub(crate) fn gatherv(&self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let _span = self
            .machine()
            .span(&self.clock, "mpi", "gatherv")
            .arg("bytes", data.len() as u64);
        if self.rank == root {
            let mut out = vec![Vec::new(); self.size()];
            out[root] = data.to_vec();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv(src, TAG_GATHER);
                }
            }
            Some(out)
        } else {
            self.send(root, TAG_GATHER, data);
            None
        }
    }

    /// All ranks end up with every rank's buffer (gather + broadcast).
    pub fn allgatherv(&self, data: &[u8]) -> Vec<Vec<u8>> {
        // Only the root gathers, so only the root packs.
        let packed = self.gatherv(0, data).map(|bufs| pack_lengths(&bufs));
        let bytes = self.bcast(0, packed.as_deref());
        unpack_lengths(&bytes)
    }

    /// Personalized all-to-all: `sends[i]` goes to rank `i`; returns the
    /// rank-ordered buffers received. The core of two-phase I/O shuffles.
    /// Rotation schedule: at step `s` every rank sends to `rank+s` and
    /// receives from `rank-s`, which is balanced for any rank count (sends
    /// are buffered, so the blocking receive cannot deadlock).
    pub(crate) fn alltoallv(&self, sends: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let _span = self
            .machine()
            .span(&self.clock, "mpi", "alltoallv")
            .arg("bytes", sends.iter().map(|b| b.len() as u64).sum());
        assert_eq!(sends.len(), self.size(), "one send buffer per rank");
        let p = self.size();
        let mut out = vec![Vec::new(); p];
        out[self.rank] = sends[self.rank].clone();
        for step in 1..p {
            let to = (self.rank + step) % p;
            let from = (self.rank + p - step) % p;
            self.send(to, TAG_A2A + step as u64, &sends[to]);
            out[from] = self.recv(from, TAG_A2A + step as u64);
        }
        out
    }

    /// Reduce `value` across ranks with `op`; `Some(result)` on root.
    pub(crate) fn reduce_u64(&self, root: usize, value: u64, op: ReduceOp) -> Option<u64> {
        let gathered = self.gatherv(root, &value.to_le_bytes())?;
        let vals = gathered.iter().map(|b| le_u64(b, 0));
        Some(match op {
            ReduceOp::Max => vals.max().unwrap_or(0),
            ReduceOp::Min => vals.min().unwrap_or(0),
        })
    }

    /// Allreduce: reduce + broadcast.
    pub(crate) fn allreduce_u64(&self, value: u64, op: ReduceOp) -> u64 {
        let reduced = self
            .reduce_u64(0, value, op)
            .map(|v| v.to_le_bytes().to_vec());
        le_u64(&self.bcast(0, reduced.as_deref()), 0)
    }
}

const TAG_BARRIER: u64 = 1 << 40;
const TAG_BCAST: u64 = 2 << 40;
const TAG_GATHER: u64 = 3 << 40;
const TAG_A2A: u64 = 4 << 40;

/// The little-endian word at `at` of `bytes` (an index past them panics).
pub(crate) fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| bytes[at + i]))
}

/// Length-prefixed packing for vectors of buffers.
pub(crate) fn pack_lengths(bufs: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + bufs.iter().map(|b| 8 + b.len()).sum::<usize>());
    out.extend_from_slice(&(bufs.len() as u64).to_le_bytes());
    for b in bufs {
        out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        out.extend_from_slice(b);
    }
    out
}

/// Inverse of [`pack_lengths`].
pub(crate) fn unpack_lengths(bytes: &[u8]) -> Vec<Vec<u8>> {
    let n = le_u64(bytes, 0) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 8;
    for _ in 0..n {
        let len = le_u64(bytes, pos) as usize;
        pos += 8;
        out.push(bytes[pos..pos + len].to_vec());
        pos += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_world;
    use pmem_sim::Machine;

    #[test]
    fn send_recv_moves_data_and_time() {
        let machine = Machine::chameleon();
        let results = run_world(machine, 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"payload");
                0
            } else {
                let data = comm.recv(0, 7);
                assert_eq!(data, b"payload");
                assert!(comm.now() > SimTime::ZERO, "recv must advance virtual time");
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let machine = Machine::chameleon();
        run_world(machine, 4, |comm| {
            if comm.rank() == 2 {
                // One slow rank.
                comm.machine().charge_compute_labeled(
                    comm.clock(),
                    SimTime::from_millis(5),
                    "skew",
                );
            }
            comm.barrier();
            assert!(
                comm.now() >= SimTime::from_millis(5),
                "barrier must wait for the slowest rank"
            );
        });
    }

    #[test]
    fn bcast_reaches_every_rank() {
        for p in [1, 2, 3, 5, 8] {
            let machine = Machine::chameleon();
            run_world(machine, p, move |comm| {
                let data = if comm.rank() == 0 {
                    Some(&b"model-config"[..])
                } else {
                    None
                };
                let got = comm.bcast(0, data);
                assert_eq!(got, b"model-config");
            });
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let machine = Machine::chameleon();
        run_world(machine, 5, |comm| {
            let data = if comm.rank() == 3 {
                Some(&b"hello"[..])
            } else {
                None
            };
            assert_eq!(comm.bcast(3, data), b"hello");
        });
    }

    #[test]
    fn gatherv_collects_in_rank_order() {
        let machine = Machine::chameleon();
        run_world(machine, 4, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            if let Some(all) = comm.gatherv(0, &mine) {
                assert_eq!(comm.rank(), 0);
                for (r, buf) in all.iter().enumerate() {
                    assert_eq!(buf, &vec![r as u8; r + 1]);
                }
            }
        });
    }

    #[test]
    fn allgatherv_gives_everyone_everything() {
        let machine = Machine::chameleon();
        run_world(machine, 3, |comm| {
            let mine = format!("rank{}", comm.rank()).into_bytes();
            let all = comm.allgatherv(&mine);
            assert_eq!(all.len(), 3);
            for (r, buf) in all.iter().enumerate() {
                assert_eq!(buf, format!("rank{r}").as_bytes());
            }
        });
    }

    #[test]
    fn alltoallv_is_a_global_transpose() {
        for p in [2, 3, 4, 7] {
            let machine = Machine::chameleon();
            run_world(machine, p, move |comm| {
                let sends: Vec<Vec<u8>> = (0..comm.size())
                    .map(|dest| format!("{}->{}", comm.rank(), dest).into_bytes())
                    .collect();
                let recvd = comm.alltoallv(&sends);
                for (src, buf) in recvd.iter().enumerate() {
                    assert_eq!(buf, format!("{}->{}", src, comm.rank()).as_bytes());
                }
            });
        }
    }

    #[test]
    fn allreduce_computes_extrema() {
        let machine = Machine::chameleon();
        run_world(machine, 6, |comm| {
            // 4, 3, 2, 1, 6, 5: neither extremum sits on the first or the
            // last rank.
            let v = (comm.rank() as u64 * 5 + 3) % 6 + 1;
            assert_eq!(comm.allreduce_u64(v, ReduceOp::Max), 6);
            assert_eq!(comm.allreduce_u64(v, ReduceOp::Min), 1);
            let rooted = comm.reduce_u64(2, v, ReduceOp::Max);
            assert_eq!(rooted, (comm.rank() == 2).then_some(6));
        });
    }

    #[test]
    fn message_bytes_are_accounted() {
        let machine = Machine::chameleon();
        let m2 = Arc::clone(&machine);
        run_world(machine, 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 1000]);
            } else {
                comm.recv(0, 1);
            }
        });
        let s = m2.stats.snapshot();
        assert_eq!(s.net_bytes, 1000);
        assert_eq!(s.net_messages, 1);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bufs = vec![b"".to_vec(), b"abc".to_vec(), vec![9; 100]];
        assert_eq!(unpack_lengths(&pack_lengths(&bufs)), bufs);
    }
}
