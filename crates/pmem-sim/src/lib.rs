//! # pmem-sim — emulated persistent memory with a virtual-time cost model
//!
//! This crate is the hardware substrate of the pMEMCPY reproduction. The
//! paper (Logan et al., CLUSTER'21) evaluated on *emulated* PMEM — DRAM with
//! injected latency and bandwidth limits per the Strata methodology: 300 ns
//! read / 125 ns write latency, 30 GB/s read / 8 GB/s write bandwidth. We
//! reproduce the same idea deterministically: real bytes move through a
//! [`device::PmemDevice`] backed by host memory, while every operation also
//! advances a per-rank virtual [`time::Clock`] according to the
//! [`machine::Machine`] cost model. Shared resources (PMEM bandwidth, the
//! DRAM bus, the fabric) follow the machine's deterministic fluid-share
//! model, which yields realistic contention and saturation without needing
//! the paper's 24-core testbed.
//!
//! Layers above this crate:
//! * `pmdk-sim` — PMDK-style pools, transactions, persistent data structures.
//! * `simfs` — the simulated kernel I/O path (POSIX page-cache vs DAX).
//! * `mpi-sim` — thread-backed MPI ranks and collectives.
//!
//! ## Example
//!
//! ```
//! use pmem_sim::{Machine, PmemDevice, PersistenceMode, Clock};
//!
//! let machine = Machine::chameleon();
//! let dev = PmemDevice::new(machine, 1 << 20, PersistenceMode::Tracked);
//! let clock = Clock::new();
//! dev.write(&clock, 0, b"checkpoint");
//! dev.persist(&clock, 0, 10);
//! dev.crash(); // persisted data survives
//! assert_eq!(dev.read_vec_untimed(0, 10), b"checkpoint");
//! ```

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod device;
pub mod flight;
mod machine;
mod metrics;
mod mmap;
mod persistence;
pub mod profile;
mod rng;
mod stats;
pub mod sync;
mod time;
pub mod trace;

pub use device::{PersistenceMode, PmemDevice, WINDOW};
pub use flight::{EventCode, FlightRecorder};
pub use machine::{FlushStrategy, Machine, MachineConfig};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use mmap::DaxMapping;
pub use persistence::crash_subsets;
pub use rng::DetRng;
pub use stats::StatsSnapshot;
pub use time::{atomic_section, enter_rank, interaction_point, Clock, ClockGate, SimTime};
pub use trace::{chrome_trace_json, CollectingSink, TraceSpan, CKPT_LANE, DRAIN_LANE};
