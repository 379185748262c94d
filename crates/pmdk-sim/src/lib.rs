//! # pmdk-sim — a PMDK-style persistent object store (simplified, in Rust)
//!
//! pMEMCPY manages PMEM through PMDK's `libpmemobj`: memory-mapped pools, a
//! transactional allocator and persistent data structures.
//! This crate reimplements that substrate from scratch over the emulated
//! device in `pmem-sim`, following the algorithms described in Scargall,
//! *Programming Persistent Memory* (ch. "PMDK Internals"):
//!
//! * [`pool::PmemPool`] — superblock-validated pools with a root object.
//! * `alloc` — a best-fit heap whose free map is volatile, coalesced by
//!   address and rebuilt on open; a single persisted block header is the
//!   commit point of every allocation, and a free is one state word.
//! * `tx` — lane-based undo-log transactions with allocation intents; a
//!   free's state word rides the undo log, `IDLE` is every commit point, and
//!   pool open rolls an interrupted (ACTIVE) transaction back.
//! * [`hashtable::PersistentHashtable`] — the flat-namespace metadata index
//!   pMEMCPY stores variable metadata in (§3 "Data Layout": "a hashtable
//!   with chaining").
//!
//! The crate is deliberately honest about what is volatile and what is
//! persistent: everything needed for recovery lives in the device; caches and
//! free lists are reconstructed at `open`, exactly as PMDK does.

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod alloc;
pub mod doctor;
mod error;
pub mod hashtable;
pub mod layout;
mod log;
mod pool;
mod tx;

pub use error::PmdkError;
pub use hashtable::PersistentHashtable;
pub use log::PersistentLog;
pub use pool::PmemPool;
pub use tx::Tx;
