//! # pmdk-sim — a PMDK-style persistent object store (simplified, in Rust)
//!
//! pMEMCPY manages PMEM through PMDK's `libpmemobj`: memory-mapped pools, a
//! transactional allocator and persistent data structures.
//! This crate reimplements that substrate from scratch over the emulated
//! device in `pmem-sim`, following the algorithms described in Scargall,
//! *Programming Persistent Memory* (ch. "PMDK Internals"):
//!
//! * [`pool::PmemPool`] — superblock-validated pools with a root object.
//! * [`alloc`] — a segregated best-fit heap whose free list is volatile and
//!   rebuilt on open; a single persisted block header is the commit point of
//!   every allocation.
//! * [`tx`] — lane-based undo-log transactions with allocation/free intents;
//!   pool open rolls interrupted transactions back (ACTIVE) or forward
//!   (COMMITTING).
//! * [`hashtable::PersistentHashtable`] — the flat-namespace metadata index
//!   pMEMCPY stores variable metadata in (§3 "Data Layout": "a hashtable
//!   with chaining").
//!
//! The crate is deliberately honest about what is volatile and what is
//! persistent: everything needed for recovery lives in the device; caches and
//! free lists are reconstructed at `open`, exactly as PMDK does.

pub mod alloc;
pub mod doctor;
pub mod error;
pub mod hashtable;
pub mod layout;
pub mod log;
pub mod pool;
pub mod tx;

pub use error::{PmdkError, Result};
pub use hashtable::PersistentHashtable;
pub use log::PersistentLog;
pub use pool::{FailPointGuard, FailPoints, PmemPool};
pub use tx::Tx;
