//! # mpi-sim — simulated MPI for a single emulated node
//!
//! The paper runs 8–48 MPI ranks (openmpi 3.1.6) on one 24-core node. This
//! crate reproduces that environment with threads: each rank owns a virtual
//! clock, point-to-point messages move real bytes and charge the shared
//! fabric model, and collectives are the textbook algorithms (dissemination
//! barrier, binomial broadcast, pairwise all-to-all) so that communication
//! cost *emerges* from message patterns.
//!
//! [`file::MpiFile`] adds MPI-IO over `simfs`, including ROMIO-style
//! two-phase collective I/O — the data-rearrangement machinery that
//! HDF5/NetCDF4/pNetCDF-style libraries pay for and that pMEMCPY avoids by
//! writing each rank's data independently.
//!
//! [`datatype::Subarray`] provides MPI_Type_create_subarray-equivalent
//! run enumeration for N-D block decompositions.

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod comm;
mod datatype;
mod file;
mod runner;
mod sched;

pub use comm::{Comm, World};
pub use datatype::Subarray;
pub use file::{MpiFile, ReadSegment, WriteSegment};
pub use runner::{run_world, run_world_mode};
pub use sched::SchedMode;
