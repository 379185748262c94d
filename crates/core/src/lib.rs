//! # pMEMCPY — a simple, lightweight, and portable I/O library for storing
//! data in persistent memory
//!
//! A from-scratch Rust reproduction of the CLUSTER'21 paper by Logan,
//! Lofstead, Levy, Widener, Sun and Kougkas. pMEMCPY gives HPC applications
//! a memcpy-like key-value interface to node-local PMEM:
//!
//! * data structures are **serialized directly into the DAX-mapped PMEM** —
//!   no DRAM staging buffer, no kernel `read`/`write` copies;
//! * each rank stores the sub-array it owns **independently** (no collective
//!   data rearrangement);
//! * metadata is minimal: a PMDK-managed **persistent hashtable with
//!   chaining** (default) or the PMEM filesystem's directory tree;
//! * the **MAP_SYNC** crash-consistency flag is a configuration toggle — the
//!   paper's PMCPY-A (off) vs PMCPY-B (on).
//!
//! ## Quickstart (Fig. 3 of the paper)
//!
//! ```
//! use pmemcpy::{MmapTarget, Pmem};
//! use pmem_sim::{Machine, PersistenceMode, PmemDevice};
//! use mpi_sim::run_world;
//! use std::sync::Arc;
//!
//! let device = PmemDevice::new(Machine::chameleon(), 32 << 20, PersistenceMode::Fast);
//! let dev = Arc::clone(&device);
//! run_world(Arc::clone(device.machine()), 4, move |comm| {
//!     let nprocs = comm.size() as u64;
//!     let count = 100u64;
//!     let off = count * comm.rank() as u64;
//!     let dimsf = count * nprocs;
//!     let data = vec![comm.rank() as f64; count as usize];
//!
//!     let mut pmem = Pmem::new();
//!     pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
//!     if comm.rank() == 0 {
//!         pmem.alloc::<f64>("A", &[dimsf]).unwrap();
//!     }
//!     comm.barrier();
//!     pmem.store_block("A", &data, &[off], &[count]).unwrap();
//!     comm.barrier();
//!     let mut back = vec![0f64; count as usize];
//!     pmem.load_block("A", &mut back, &[off], &[count]).unwrap();
//!     assert_eq!(back, data);
//!     pmem.munmap().unwrap();
//! });
//! ```

pub mod api;
pub mod batch;
pub mod drain;
pub mod element;
pub mod error;
pub mod layout;
pub mod options;
pub mod read;
pub mod region;
pub mod registry;
pub mod sink;
pub mod write_behind;

pub use api::{MmapTarget, Pmem};
pub use batch::WriteBatch;
pub use drain::DrainReport;
pub use element::{Element, Pod};
pub use error::{PmemCpyError, Result};
pub use options::Options;
pub use read::{GetHandle, ReadBatch, ReadResults};
