//! # simfs — the simulated kernel storage stack
//!
//! The paper's performance argument is copy-count and kernel-crossing
//! arithmetic: POSIX `read`/`write` cost a syscall and a copy per call, DAX
//! `mmap` costs page faults once and nothing afterwards, and MAP_SYNC adds a
//! synchronous filesystem-metadata flush to every write fault. This crate
//! provides a virtual filesystem over the emulated PMEM device that charges
//! exactly those costs, in two mount modes:
//!
//! * [`vfs::MountMode::Dax`] — EXT4-DAX on PMEM (the paper's testbed mount):
//!   syscalls copy user↔media directly; files can be `mmap`ed, optionally
//!   with MAP_SYNC.
//! * [`vfs::MountMode::PageCache`] — a conventional cached filesystem, for
//!   the burst-buffer / mass-storage tier comparisons.
//!
//! Files are single-extent (contiguous on the device), which is what makes
//! whole-file DAX mappings possible; the extent allocator relocates files
//! that outgrow their reservation and charges the move at media rates.

#![warn(unreachable_pub)]

mod error;
mod extents;
mod path;
mod vfs;

pub use error::{FsError, Result};
pub use vfs::{EntryKind, MountMode, SimFs};
