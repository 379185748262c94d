//! Launching a simulated MPI job: one thread per rank.

use crate::comm::{Comm, World};
use crate::sched::SchedMode;
use pmem_sim::{Machine, SimTime};
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
                        // Under the deterministic scheduler a rank may not
                        // touch shared state before its first turn.
                        if let Some(sched) = world.scheduler() {
                            sched.start(rank);
                        }
                        let out = body(Comm::new(Arc::clone(&world), rank));
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
