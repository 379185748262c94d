//! Operation counters for the simulated machine.
//!
//! Counters are advisory (Relaxed) and exist so tests and the benchmark
//! harness can assert structural properties — e.g. "the pMEMCPY write path
//! performed zero DRAM staging copies while the ADIOS path copied every byte
//! once" — independent of the timing model.
//!
//! ## Consistency contract
//!
//! Individual counter updates are atomic, but a [`Stats::snapshot`] is not:
//! it loads each field in turn, so a snapshot taken while ranks are still
//! charging can observe one logical operation half-applied (e.g. the bytes
//! of a persist but not yet its flush). Worse, [`Stats::reset`] racing a
//! concurrent snapshot can make a later [`StatsSnapshot::delta_since`]
//! under-report: fields read before the reset subtract a pre-reset baseline
//! from a post-reset value and saturate to zero. The contract is therefore:
//! **snapshot, delta and reset are only well-defined at quiescent points**
//! — instants where no rank is mutating, i.e. at rank barriers. The bench
//! harness enforces this by taking deltas through
//! `Machine::with_quiesced_stats` immediately after a closing barrier,
//! which re-reads until two consecutive snapshots agree.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! stats_fields {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live atomic counters, shared behind the [`crate::machine::Machine`].
        #[derive(Debug, Default)]
        pub struct Stats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Stats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Stats {
            /// Copy every counter. Not atomic as a whole — see the module
            /// docs: only well-defined at quiescent points (rank barriers);
            /// prefer `Machine::with_quiesced_stats` from measurement code.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Zero every counter. Must not race snapshots or charges (see
            /// the module docs) — call it only while all ranks are parked.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl StatsSnapshot {
            /// Field-wise difference (`self - earlier`), for measuring a
            /// region. Both snapshots must come from quiescent points with
            /// no `reset()` between them, otherwise the saturating
            /// subtraction silently under-reports (module docs).
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }
        }

        impl fmt::Display for StatsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(writeln!(f, "{:<24} {}", stringify!($name), self.$name)?;)+
                Ok(())
            }
        }
    };
}

stats_fields! {
    /// Bytes moved from CPU to the PMEM media.
    pmem_bytes_written,
    /// Bytes moved from the PMEM media to the CPU.
    pmem_bytes_read,
    /// Bytes copied between DRAM buffers (staging, page cache, shuffles).
    dram_bytes_copied,
    /// Kernel crossings (open/read/write/fsync/...).
    syscalls,
    /// Minor page faults taken on DAX mappings.
    page_faults,
    /// Per-page MAP_SYNC filesystem-metadata synchronizations.
    map_sync_page_syncs,
    /// Cacheline flush instructions (CLWB-equivalent ranges).
    flush_calls,
    /// Store fences (SFENCE-equivalent).
    fences,
    /// Bytes exchanged over the simulated fabric (MPI traffic).
    net_bytes,
    /// Messages exchanged over the simulated fabric.
    net_messages,
    /// Bytes written to the mass-storage / burst-buffer tier.
    storage_bytes_written,
    /// Pool transactions started (one undo-log lane claim each).
    pool_txs,
    /// Allocator free-list passes: one per carve `Heap::alloc_many` plans.
    alloc_passes,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Stats::default();
        s.pmem_bytes_written.fetch_add(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.pmem_bytes_written.fetch_add(50, Ordering::Relaxed);
        s.syscalls.fetch_add(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.pmem_bytes_written, 50);
        assert_eq!(d.syscalls, 3);
        assert_eq!(d.dram_bytes_copied, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let s = Stats::default();
        s.net_messages.fetch_add(7, Ordering::Relaxed);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn display_lists_all_fields() {
        let s = Stats::default().snapshot();
        let text = s.to_string();
        assert!(text.contains("pmem_bytes_written"));
        assert!(text.contains("map_sync_page_syncs"));
        assert!(text.contains("storage_bytes_written"));
    }
}
