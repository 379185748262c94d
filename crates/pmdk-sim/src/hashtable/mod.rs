//! Persistent hashtable with chaining — pMEMCPY's flat metadata namespace.
//!
//! §3 of the paper: *"Metadata is stored in a flat namespace using a
//! hashtable with chaining. This utilizes the high parallelism and random
//! access characteristics of PMEM."*
//!
//! The on-pool layout (header, heads arrays, entries), its plausibility
//! rules and the one chain walk live in [`crate::layout`], shared with the
//! offline doctor. This file holds the handle; routing and stripe locking,
//! the mirror of the chains, mutation and lookup, and resize each have
//! their own.

mod mirror;
mod ops;
mod resize;
mod route;

use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::pool::PmemPool;
use mirror::Mirror;
use pmem_sim::sync::Mutex;
use pmem_sim::Clock;
use route::Stripe;
pub(crate) use route::STRIPES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a, fixed so tables are portable across runs/machines.
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn value_ref_of(e: &Entry) -> ValueRef {
    ValueRef {
        offset: e.value_off(),
        len: e.vlen as u64,
        header_len: e.hlen as u64,
    }
}

/// A handle to a persistent hashtable living in `pool`.
pub struct PersistentHashtable {
    pool: Arc<PmemPool>,
    header: u64,
    /// Volatile mirror of the persistent geometry. Copied out, never held
    /// across a charge or another lock.
    geo: Mutex<Geo>,
    stripes: Vec<Stripe>,
    /// Serializes split steps and the count's chunks; held across
    /// geometry publication.
    resize_lock: Mutex<()>,
    /// Buckets below this one are counted in the stripes' `live`: all of
    /// them (`u64::MAX`) on a created table, none on an opened one until
    /// its first mutation counts it, a chunk at a time (`resize.rs`).
    counted: AtomicU64,
    /// Unit tests pin a one-bucket table to build long chains.
    #[cfg(test)]
    auto_resize: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for PersistentHashtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentHashtable")
            .field("header", &self.header)
            .field("bucket_count", &self.bucket_count())
            .finish()
    }
}

/// Location of a value inside the pool (device offset + length), so callers
/// can stream data directly to/from PMEM without an intermediate copy, and
/// the header length its writer named ([`ENT_HLEN`]; 0 if none): a reader
/// that knows where the header ends loads the value in one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    pub offset: u64,
    pub len: u64,
    pub header_len: u64,
}

impl PersistentHashtable {
    /// Allocate and initialize a fresh table with `bucket_count` buckets;
    /// none, or more than the pool can hold, is refused before any alloc.
    pub fn create(clock: &Clock, pool: &Arc<PmemPool>, bucket_count: u64) -> Result<Self> {
        if bucket_count == 0 {
            return bad("a hashtable needs at least one bucket".into());
        }
        let bytes = bucket_count.saturating_mul(8);
        if bytes > pool.free_bytes() {
            return Err(PmdkError::OutOfMemory { requested: bytes });
        }
        let header = pool.alloc(clock, HDR_SIZE)?;
        let heads = pool.alloc(clock, bytes)?;
        let dev = pool.device();
        dev.zero_meta(clock, header as usize, HDR_SIZE as usize);
        dev.persist(clock, header as usize, HDR_SIZE as usize);
        dev.zero_meta(clock, heads as usize, bytes as usize);
        dev.persist(clock, heads as usize, bytes as usize);
        pool.write_u64(clock, header + HDR_HEADS, heads);
        pool.write_u64(clock, header + HDR_BUCKETS, bucket_count);
        let g = Geo {
            buckets: bucket_count,
            heads,
            ..Geo::default()
        };
        Ok(Self::attach(pool, header, g, true))
    }

    /// Attach to an existing table at `header`. The stored header must pass
    /// `Geo::check` — the rules the doctor applies — or the mount is
    /// refused. Nothing else is read, whether or not the table crashed:
    /// every bucket starts unknown to the mirror and uncounted.
    pub fn open(clock: &Clock, pool: &Arc<PmemPool>, header: u64) -> Result<Self> {
        let src = pool.charged(clock);
        let g = Geo::read(&src, header)?;
        g.check(&src)?;
        Ok(Self::attach(pool, header, g, false))
    }

    /// A handle on the table at `header`; a `fresh` one is mirrored and
    /// counted whole.
    fn attach(pool: &Arc<PmemPool>, header: u64, g: Geo, fresh: bool) -> Self {
        PersistentHashtable {
            pool: Arc::clone(pool),
            header,
            geo: Mutex::new(g),
            stripes: (0..STRIPES)
                .map(|sid| Stripe {
                    lock: Mutex::new(Mirror::new(sid, fresh, g.buckets)),
                    ..Stripe::default()
                })
                .collect(),
            resize_lock: Mutex::new(()),
            counted: AtomicU64::new(if fresh { u64::MAX } else { 0 }),
            #[cfg(test)]
            auto_resize: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Device offset of the table header (store it in your root object).
    pub fn header_offset(&self) -> u64 {
        self.header
    }

    pub fn bucket_count(&self) -> u64 {
        self.geo().buckets
    }

    /// Whether a split is in flight (old table not fully migrated).
    pub fn splitting(&self) -> bool {
        self.geo().old_buckets != 0
    }

    /// Pin the directory at its current geometry. Test-only: callers
    /// outside this module pre-size `bucket_count` instead.
    #[cfg(test)]
    fn set_auto_resize(&self, enabled: bool) {
        self.auto_resize.store(enabled, Ordering::Relaxed);
    }

    /// Number of live entries: a walk of every chain, as
    /// [`Self::chain_length_histogram`]. Not synchronized with writers.
    pub fn len(&self, clock: &Clock) -> u64 {
        let hist = self.chain_length_histogram(clock);
        hist.iter().zip(0..).map(|(n, len)| n * len).sum()
    }

    /// Nothing to do: the count is DRAM state, folded nowhere. Kept, with
    /// its signature, only because `benchmark/src/ladder.rs` (frozen) calls
    /// it before a restart.
    pub fn quiesce(&self, _clock: &Clock) -> Result<()> {
        Ok(())
    }

    fn geo(&self) -> Geo {
        *self.geo.lock()
    }

    /// Publish a new geometry (caller holds `resize_lock`).
    fn geo_store(&self, g: Geo) {
        *self.geo.lock() = g;
    }

    /// Read-path degradation: these signatures cannot carry a `Result`, so
    /// a walk that ended at a bad hop keeps what it saw and is counted.
    /// Returns the entries it fetched.
    fn degraded(&self, (hops, end): (u64, Result<()>)) -> u64 {
        if end.is_err() {
            let machine = self.pool.device().machine();
            machine.metric_counter_add("ht.chain.torn", 1);
        }
        hops
    }

    /// All keys, in unspecified order. Not synchronized with writers.
    pub fn keys(&self, clock: &Clock) -> Vec<Vec<u8>> {
        let src = self.pool.charged(clock);
        let mut out = vec![];
        for (slot, _, head) in self.geo().heads(&src) {
            self.degraded(walk_from(&src, slot, head, Fetch::Header, |e| {
                out.push(e.key(&src));
                true
            }));
        }
        out
    }

    /// Chain-length distribution: `hist[len]` = number of buckets whose
    /// chain holds exactly `len` entries (load-factor diagnostics — the
    /// storm workload's p99 comes from here). Not synchronized with
    /// writers.
    pub fn chain_length_histogram(&self, clock: &Clock) -> Vec<u64> {
        let src = self.pool.charged(clock);
        let mut hist = vec![0u64];
        for (slot, _, head) in self.geo().heads(&src) {
            let len = self.degraded(walk_from(&src, slot, head, Fetch::Link, |_| true)) as usize;
            if hist.len() <= len {
                hist.resize(len + 1, 0);
            }
            hist[len] += 1;
        }
        hist
    }

    /// Length of the longest chain (load-factor diagnostics / benches).
    pub fn max_chain_len(&self, clock: &Clock) -> u64 {
        (self.chain_length_histogram(clock).len() - 1) as u64
    }
}

#[cfg(test)]
mod tests;
