//! Launching a simulated MPI job: one thread per rank.

use crate::comm::{Comm, World};
use crate::sched::SchedMode;
use pmem_sim::{ClockGate, Machine, SimTime};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run `body` on `size` ranks (threads) and collect per-rank results in rank
/// order, under the default [`SchedMode::Deterministic`] scheduler. A panic
/// in any rank poisons the world — peers blocked in `recv` wake up instead
/// of deadlocking — and propagates from this call with the original rank's
/// message.
pub fn run_world<T, F>(machine: Arc<Machine>, size: usize, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    run_world_mode(machine, size, SchedMode::Deterministic, body)
}

/// [`run_world`] with an explicit scheduling mode.
pub fn run_world_mode<T, F>(machine: Arc<Machine>, size: usize, mode: SchedMode, body: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    let world = World::with_mode(machine, size, mode);
    let body = Arc::new(body);
    let mut handles = Vec::with_capacity(size);
    for rank in 0..size {
        let world = Arc::clone(&world);
        let body = Arc::clone(&body);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(4 << 20)
                .spawn(move || {
                    match catch_unwind(AssertUnwindSafe(|| {
                        let comm = Comm::new(Arc::clone(&world), rank);
                        // Under the deterministic scheduler this thread is
                        // the rank (its owed yields go to the scheduler; the
                        // registration ends on return and on unwind), and it
                        // may not touch shared state before its first turn.
                        let _turn = world.scheduler().map(|sched| {
                            let gate = Arc::clone(sched) as Arc<dyn ClockGate>;
                            let turn = pmem_sim::enter_rank(gate, rank, comm.clock_arc());
                            sched.start(rank);
                            turn
                        });
                        let out = body(comm);
                        if let Some(sched) = world.scheduler() {
                            sched.finish(rank);
                        }
                        out
                    })) {
                        Ok(v) => v,
                        Err(e) => {
                            world.poison(format!(
                                "rank {rank} panicked (thread {}): {}",
                                std::thread::current().name().unwrap_or("<unnamed>"),
                                payload_str(&*e)
                            ));
                            std::panic::resume_unwind(e);
                        }
                    }
                })
                .expect("spawn rank thread"),
        );
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    if results.iter().any(|r| r.is_err()) {
        match world.poison_message() {
            Some(msg) => panic!("{msg}"),
            None => panic!("rank thread panicked"),
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("checked above"))
        .collect()
}

/// Render a panic payload for the poison message. Typed (non-string)
/// payloads still yield a diagnostic: their `TypeId`, which can be matched
/// against the panicking code's error type.
fn payload_str(e: &(dyn Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        format!("non-string panic payload of type {:?}", e.type_id())
    }
}

/// Run a job and return each rank's final virtual time plus the job time
/// (the slowest rank — what the paper's wall-clock measurement reports).
pub fn run_timed<F>(machine: Arc<Machine>, size: usize, body: F) -> (Vec<SimTime>, SimTime)
where
    F: Fn(&Comm) + Send + Sync + 'static,
{
    let times = run_world(machine, size, move |comm| {
        body(&comm);
        comm.now()
    });
    let job = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    (times, job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_rank_order() {
        let machine = Machine::chameleon();
        let out = run_world(machine, 8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn active_rank_count_is_published() {
        let machine = Machine::chameleon();
        let m = Arc::clone(&machine);
        run_world(machine, 5, |_| {});
        assert_eq!(m.active_ranks(), 5);
    }

    #[test]
    fn rank_panic_poisons_world_instead_of_deadlocking_peers() {
        let machine = Machine::chameleon();
        // Rank 0 dies before sending; ranks 1..3 block in recv on it. Without
        // poisoning this deadlocks forever; with it, run_world panics with
        // the original message.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(machine, 4, |comm| {
                if comm.rank() == 0 {
                    panic!("rank zero exploded");
                }
                comm.recv(0, 1)
            })
        }));
        let err = result.expect_err("run_world must propagate the rank panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("rank 0 panicked") && msg.contains("rank zero exploded"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn poison_message_names_rank_thread_and_payload_type() {
        #[derive(Debug)]
        struct TypedError;

        let machine = Machine::chameleon();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(machine, 2, |comm| {
                if comm.rank() == 1 {
                    std::panic::panic_any(TypedError);
                }
                comm.recv(1, 1)
            })
        }));
        let err = result.expect_err("run_world must propagate the rank panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("rank 1 panicked")
                && msg.contains("thread rank-1")
                && msg.contains("non-string panic payload of type"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn free_threaded_mode_still_runs_all_ranks() {
        let machine = Machine::chameleon();
        let out = run_world_mode(machine, 8, crate::SchedMode::FreeThreaded, |comm| {
            comm.machine().charge_syscall(comm.clock());
            comm.rank()
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    /// Run `body` on 8 deterministic ranks; returns the world's hand-offs.
    fn handoffs_of(body: impl Fn(&Comm) + Send + Sync + 'static) -> u64 {
        let worlds = run_world(Machine::chameleon(), 8, move |comm| {
            body(&comm);
            Arc::clone(comm.world())
        });
        worlds[0].handoffs()
    }

    #[test]
    fn charges_alone_hand_the_token_over_only_at_finish() {
        let handoffs = handoffs_of(|comm| {
            for _ in 0..1_000 {
                comm.machine().charge_syscall(comm.clock());
            }
        });
        // Each rank runs start to finish on its first turn: seven finishes
        // pass the token on, the last one has nobody left.
        assert_eq!(handoffs, 7);
    }

    #[test]
    fn a_section_costs_at_most_one_handoff() {
        let handoffs = handoffs_of(|comm| {
            for _ in 0..100 {
                for _ in 0..10 {
                    comm.machine().charge_syscall(comm.clock());
                }
                let _atomic = pmem_sim::atomic_section();
                // Charges inside owe nothing; the exit is not a point.
                comm.machine().charge_syscall(comm.clock());
            }
        });
        assert!(
            (8 * 50..=8 * 100 + 7).contains(&handoffs),
            "{handoffs} hand-offs for 800 sections"
        );
    }

    #[test]
    fn shared_events_happen_in_virtual_time_then_rank_order() {
        use pmem_sim::sync::Mutex;
        // Every rank mixes private charges of seeded random sizes with the
        // three kinds of interaction (section entry, rank-shared lock,
        // send/recv round the ring) and logs (now, rank) at each section or
        // lock. All ranks draw the same kind at a step, so the ring closes.
        let run = || {
            let log = Arc::new(Mutex::new(Vec::<(u64, usize)>::new()));
            let shared = Arc::clone(&log);
            let ends = run_world(Machine::chameleon(), 8, move |comm| {
                let mut rng = pmem_sim::DetRng::new(comm.rank() as u64);
                let mut kinds = pmem_sim::DetRng::new(99);
                let charge = |n: u64| {
                    let dt = SimTime::from_nanos(n);
                    comm.machine()
                        .charge_compute_labeled(comm.clock(), dt, "work");
                };
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                for step in 0..200u64 {
                    // At least one, so the time logged below is the time the
                    // point publishes (a charge made inside a section moves
                    // the clock without being published until the next
                    // charge outside one).
                    for _ in 0..1 + rng.index(3) {
                        charge(rng.gen_range(1, 5_000));
                    }
                    match kinds.index(4) {
                        0 => {
                            let _atomic = pmem_sim::atomic_section();
                            shared.lock().push((comm.now().as_nanos(), comm.rank()));
                            charge(rng.gen_range(1, 500)); // owes nothing
                        }
                        1 => shared.lock().push((comm.now().as_nanos(), comm.rank())),
                        2 => {
                            comm.send(next, step, &[0u8; 16]);
                            comm.recv(prev, step);
                        }
                        _ => {}
                    }
                    if step % 16 == 15 {
                        comm.barrier();
                    }
                }
                comm.now()
            });
            let log = std::mem::take(&mut *log.lock());
            (log, ends)
        };
        let (log, ends) = run();
        assert!(log.len() > 400, "only {} shared events", log.len());
        assert!(log.is_sorted(), "shared events out of (time, rank) order");
        assert_eq!((log, ends), run(), "two runs differ");
    }

    #[test]
    fn run_timed_reports_slowest_rank() {
        let machine = Machine::chameleon();
        let (times, job) = run_timed(machine, 3, |comm| {
            let delay = SimTime::from_micros(comm.rank() as u64 * 100);
            comm.machine()
                .charge_compute_labeled(comm.clock(), delay, "delay");
        });
        assert_eq!(times.len(), 3);
        assert_eq!(job, SimTime::from_micros(200));
    }
}
