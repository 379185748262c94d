//! The volatile shadow index.
//!
//! The stripe mutex *is* the lock of that stripe's slice of the volatile
//! DRAM shadow index (key → [`ValueRef`], write-through on every mutation,
//! rebuildable via [`PersistentHashtable::rebuild_shadow`]): a hit is lock →
//! map lookup → unlock, then the modelled probe cost is charged with
//! nothing held. A miss walks the chain in a single pass — one 24-byte
//! metadata read fetches an entry's whole `[hash][klen][vlen][next]` header
//! — with the stripe held, and publishes what it found under the same
//! guard. The shadow invariant is that a cached entry lives only at its
//! key's *current* route stripe; migration wholesale-clears source-stripe
//! shadows whenever a bucket's stripe changes across the split.

use super::route::{shadow_in, stripe_of};
use super::*;
use pmem_sim::SimTime;
use std::collections::HashMap;

/// Modelled cost of a DRAM shadow-index probe that hits (one cache-missy
/// hash lookup). Charged unconditionally so virtual time is identical with
/// metrics on or off.
const SHADOW_HIT_NS: u64 = 120;

/// One stripe's slice of the volatile shadow index: key → value location,
/// write-through on every put/remove.
pub(super) type Shadow = HashMap<Vec<u8>, ValueRef>;

impl PersistentHashtable {
    /// Enable/disable the shadow index at runtime; disabling drops every
    /// cached entry. Nothing in the product turns the cache off — this
    /// stays `pub` only because `benchmark/src/ladder.rs` (frozen) calls it
    /// to time cold chain walks against the cache.
    pub fn set_shadow_enabled(&self, enabled: bool) {
        self.shadow_enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            for s in &self.stripes {
                s.lock.lock().clear();
            }
        }
    }

    /// Number of cached key → value locations.
    #[cfg(test)]
    pub(super) fn shadow_len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock.lock().len()).sum()
    }

    /// Rebuild the shadow index from the persistent table: one full bucket
    /// scan, charged like any other metadata walk. Opening a pool leaves
    /// the cache cold by default (lazy population is free); callers that
    /// prefer a warm cache after `open` pay the scan cost explicitly here.
    /// Returns the number of entries installed.
    pub fn rebuild_shadow(&self, clock: &Clock) -> u64 {
        if !self.shadow_enabled.load(Ordering::Relaxed) {
            return 0;
        }
        let _atomic = pmem_sim::atomic_section();
        let mut installed = 0u64;
        // Snapshot the geometry under the resize lock so no bucket migrates
        // (changing its stripe) while the scan installs entries.
        let _resize = self.resize_lock.lock();
        let src = self.pool.charged(clock);
        for (array, buckets) in self.geo().head_runs() {
            // A head is as fresh as its run: hold the run's stripes (64
            // consecutive buckets are all of them) before fetching it.
            let mut held = self.lock_stripes(buckets.clone().take(STRIPES).map(stripe_of), true);
            for (slot, bucket, head) in read_heads(&src, array, buckets) {
                let shadow = shadow_in(&mut held, stripe_of(bucket));
                installed += self.degraded(walk_from(&src, slot, head, Fetch::Header, |e| {
                    shadow.insert(e.key(&src), value_ref_of(e));
                    true
                }));
            }
        }
        installed
    }

    /// Charge `hits` shadow-index hits. A hit replaces the whole PMEM chain
    /// walk with one DRAM hash probe, charged unconditionally (fixed cost,
    /// metrics on or off) under the `get.lookup.cached` phase. Misses are
    /// charge-free, so shadow-off and shadow-on-miss timings are identical.
    pub(super) fn charge_shadow_hits(&self, clock: &Clock, hits: usize) {
        let machine = self.pool.device().machine();
        for _ in 0..hits {
            let _cached = machine.phase(clock, "pmdk", "get.lookup.cached");
            machine.charge_compute_labeled(
                clock,
                SimTime::from_nanos(SHADOW_HIT_NS),
                "index.probe",
            );
        }
    }

    /// Drop any cached ref *before* the chain moves, so a transaction that
    /// fails after unlinking cannot leave one pointing at a freed entry.
    pub(super) fn shadow_invalidate(&self, shadow: &mut Shadow, key: &[u8]) {
        if !self.shadow_enabled.load(Ordering::Relaxed) {
            return;
        }
        if shadow.remove(key).is_some() {
            self.pool
                .device()
                .machine()
                .metric_counter_add("shadow.invalidations", 1);
        }
    }

    /// Cache a location: write-through after a put's transaction committed,
    /// or what a lookup's chain walk found.
    pub(super) fn shadow_store(&self, shadow: &mut Shadow, key: &[u8], vref: ValueRef) {
        if self.shadow_enabled.load(Ordering::Relaxed) {
            shadow.insert(key.to_vec(), vref);
        }
    }
}
