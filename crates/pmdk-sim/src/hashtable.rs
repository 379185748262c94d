//! Persistent hashtable with chaining — pMEMCPY's flat metadata namespace.
//!
//! §3 of the paper: *"Metadata is stored in a flat namespace using a
//! hashtable with chaining. This utilizes the high parallelism and random
//! access characteristics of PMEM."*
//!
//! The on-pool layout (header, heads arrays, entries), its plausibility
//! rules and the one chain walk live in [`crate::layout`], shared with the
//! offline doctor; this file owns routing, the shadow cache and migration.
//!
//! The directory is **online-resizable**: when the live-entry estimate
//! crosses `bucket_count / SPLIT_FACTOR`, a split doubles the directory by
//! allocating a fresh heads array, unzeroed, and publishing both tables plus
//! a persisted `split_cursor` in one transaction. Each subsequent *mutation*
//! helps migrate one chunk of old buckets (relink lo/hi partitions, write
//! the destination heads, advance the cursor) inside a single pool
//! transaction; lookups never migrate. Routing is derived from the
//! persistent triple `(old_buckets, cursor, buckets)`: a key whose old
//! bucket is at-or-past the cursor still lives in the old table; everything
//! else lives in the new one. A new-directory slot is thus *reachable* only
//! once the cursor has passed its source bucket, and a chunk's undo log
//! carries only what a rollback can reach: the relinked next pointers and
//! the cursor. A crash at any point replays it back to a consistent cursor
//! and consistent reachable slots, and the chunk's re-run overwrites what
//! the failed one — or the allocator — left in unreachable ones: resize
//! never stops the world, is crash-safe at every step, and costs each
//! mutation only the chunk it helps with. Because a split's old heads
//! array *is* the previous table, beginning a split changes no key's
//! physical slot — only migration does, and migration holds both affected
//! stripes.
//!
//! The entry count is sharded: inserts and removes bump a volatile
//! per-stripe delta (no cross-stripe RMW on the hot path) and set a
//! persistent dirty flag once per session; [`PersistentHashtable::quiesce`]
//! folds the deltas into the header under all stripe locks, and a reopen
//! after a crash with the dirty flag set recounts by walking the heads.
//!
//! All structural mutations run in a pool transaction (pointer snapshots +
//! alloc/free intents), so a crash at any point leaves a consistent table.
//! Values may be large; they are written into freshly-allocated space, with
//! no undo image, before the transaction links them. Bucket access is
//! striped with volatile locks — rebuilt trivially on open, like PMDK's
//! runtime lock state.
//!
//! There is one lock per stripe and readers take it too: a lookup routes
//! its key, locks the stripe, re-checks the route (a migration holds the
//! stripes it moves buckets between, so a route that is stable under the
//! lock stays stable) and probes. The stripe mutex *is* the lock of that
//! stripe's slice of the volatile DRAM shadow index (key → [`ValueRef`],
//! write-through on every mutation, rebuildable via
//! [`PersistentHashtable::rebuild_shadow`]): a hit is lock → map lookup →
//! unlock, then the modelled probe cost is charged with nothing held. A
//! miss walks the chain in a single pass — one 24-byte metadata read
//! fetches an entry's whole `[hash][klen][vlen][next]` header — with the
//! stripe held, and publishes what it found under the same guard. Every
//! charge made while a stripe is held sits inside a
//! [`pmem_sim::atomic_section`], so under the deterministic scheduler a
//! stripe is never found held and virtual time never depends on which
//! thread won it; free-threaded, a reader behind a writer waits on the
//! host and is billed nothing for the wait. The shadow invariant is that a
//! cached entry lives only at its key's *current* route stripe; migration
//! wholesale-clears source-stripe shadows whenever a bucket's stripe
//! changes across the split.

use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::pool::PmemPool;
use pmem_sim::flight::EventCode;
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub(crate) const STRIPES: usize = 64;

/// A split begins once `SPLIT_FACTOR × live_estimate > bucket_count`, so a
/// fully-migrated table sits at load factor ≤ 1/SPLIT_FACTOR. At 0.5 the
/// Poisson tail keeps the max chain ≤ 8 w.h.p. even at 10⁶ keys (the
/// creation-storm CI bound).
const SPLIT_FACTOR: u64 = 2;

/// Modelled cost of a DRAM shadow-index probe that hits (one cache-missy
/// hash lookup). Charged unconditionally so virtual time is identical with
/// metrics on or off.
const SHADOW_HIT_NS: u64 = 120;

/// FNV-1a, fixed so tables are portable across runs/machines.
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One stripe's slice of the volatile shadow index: key → value location,
/// write-through on every put/remove.
type Shadow = HashMap<Vec<u8>, ValueRef>;
type StripeGuard<'a> = pmem_sim::sync::MutexGuard<'a, Shadow>;

/// Per-stripe runtime state (volatile; rebuilt on open).
struct Stripe {
    /// The stripe mutex: every walk and every structural mutation of this
    /// stripe's chains holds it, and it owns the stripe's shadow slice, so
    /// the cache cannot be touched without it.
    lock: Mutex<Shadow>,
    /// Net live-entry delta since the last fold (inserts − removes on this
    /// stripe). Summed into the persisted count by `quiesce`.
    live: AtomicI64,
}

fn new_stripes() -> Vec<Stripe> {
    (0..STRIPES)
        .map(|_| Stripe {
            lock: Mutex::new(Shadow::new()),
            live: AtomicI64::new(0),
        })
        .collect()
}

/// Where a key lives *right now*: the device slot holding its chain head
/// and the stripe guarding that chain. Compared for equality to detect a
/// migration racing a lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    head_slot: u64,
    sid: usize,
}

/// The stripe guarding `bucket`'s chain (of either directory).
fn stripe_of(bucket: u64) -> usize {
    (bucket % STRIPES as u64) as usize
}

impl Geo {
    fn route(&self, hash: u64) -> Route {
        if self.old_buckets != 0 {
            let ob = hash % self.old_buckets;
            if ob >= self.cursor {
                return Route {
                    head_slot: self.old_heads + ob * 8,
                    sid: stripe_of(ob),
                };
            }
        }
        let b = hash % self.buckets;
        Route {
            head_slot: self.heads + b * 8,
            sid: stripe_of(b),
        }
    }
}

fn value_ref_of(e: &Entry) -> ValueRef {
    ValueRef {
        offset: e.value_off(),
        len: e.vlen as u64,
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
    /// Serializes split begin/advance; held across geometry publication.
    resize_lock: Mutex<()>,
    /// Serializes the first dirty-flag write of a session.
    dirty_lock: Mutex<()>,
    /// Volatile mirror of HDR_DIRTY (true ⇒ per-stripe deltas are live).
    count_dirty: AtomicBool,
    /// Volatile mirror of the last folded HDR_COUNT, so the split trigger
    /// never charges a pool read on the insert hot path.
    count_base: AtomicU64,
    /// Unit tests pin a one-bucket table to build long chains.
    #[cfg(test)]
    auto_resize: AtomicBool,
    /// Gates the volatile shadow index (see `set_shadow_enabled`).
    shadow_enabled: AtomicBool,
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
/// can stream data directly to/from PMEM without an intermediate copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    pub offset: u64,
    pub len: u64,
}

impl PersistentHashtable {
    /// Allocate and initialize a fresh table with `bucket_count` buckets.
    pub fn create(clock: &Clock, pool: &Arc<PmemPool>, bucket_count: u64) -> Result<Self> {
        assert!(bucket_count > 0, "hashtable needs at least one bucket");
        let header = pool.alloc(clock, HDR_SIZE)?;
        let heads = pool.alloc(clock, bucket_count * 8)?;
        pool.device()
            .zero_meta(clock, header as usize, HDR_SIZE as usize);
        pool.device()
            .persist(clock, header as usize, HDR_SIZE as usize);
        pool.device()
            .zero_meta(clock, heads as usize, (bucket_count * 8) as usize);
        pool.device()
            .persist(clock, heads as usize, (bucket_count * 8) as usize);
        pool.write_u64(clock, header + HDR_HEADS, heads);
        pool.write_u64(clock, header + HDR_BUCKETS, bucket_count);
        Ok(Self::attach(
            pool,
            header,
            Geo {
                buckets: bucket_count,
                heads,
                old_buckets: 0,
                old_heads: 0,
                cursor: 0,
            },
            0,
        ))
    }

    /// Attach to an existing table at `header`. The stored header must pass
    /// `TableHeader::check` — the rules the doctor applies — or the mount
    /// is refused. If the table crashed with unfolded per-stripe counts
    /// (dirty flag set), the count is recounted from the chains here. The
    /// shadow index starts cold (lookups repopulate it lazily); call
    /// [`PersistentHashtable::rebuild_shadow`] to warm it eagerly.
    pub fn open(clock: &Clock, pool: &Arc<PmemPool>, header: u64) -> Result<Self> {
        let src = pool.charged(clock);
        let hdr = TableHeader::read(&src, header)?;
        hdr.check(&src)?;
        let ht = Self::attach(pool, header, hdr.geo, hdr.count);
        if hdr.dirty == 1 {
            // Crashed with unfolded per-stripe deltas: recount from the
            // chains (cheap 8-byte next-pointer hops) and fold + clear in
            // ordered single-word persisted writes.
            let mut n = 0u64;
            for (slot, _, head) in hdr.geo.heads(&src) {
                let (links, end) = walk_from(&src, slot, head, Fetch::Link, |_| true);
                end?;
                n += links;
            }
            pool.write_u64(clock, header + HDR_COUNT, n);
            pool.write_u64(clock, header + HDR_DIRTY, 0);
            ht.count_base.store(n, Ordering::Relaxed);
        }
        Ok(ht)
    }

    fn attach(pool: &Arc<PmemPool>, header: u64, g: Geo, count: u64) -> Self {
        PersistentHashtable {
            pool: Arc::clone(pool),
            header,
            geo: Mutex::new(g),
            stripes: new_stripes(),
            resize_lock: Mutex::new(()),
            dirty_lock: Mutex::new(()),
            count_dirty: AtomicBool::new(false),
            count_base: AtomicU64::new(count),
            #[cfg(test)]
            auto_resize: AtomicBool::new(true),
            shadow_enabled: AtomicBool::new(true),
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
    /// outside this file pre-size `bucket_count` instead.
    #[cfg(test)]
    fn set_auto_resize(&self, enabled: bool) {
        self.auto_resize.store(enabled, Ordering::Relaxed);
    }

    /// Number of live entries: the last folded count plus every stripe's
    /// volatile delta.
    pub fn len(&self, clock: &Clock) -> u64 {
        let delta: i64 = self
            .stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum();
        (self.pool.read_u64(clock, self.header + HDR_COUNT) as i64 + delta).max(0) as u64
    }

    #[cfg(test)]
    fn is_empty(&self, clock: &Clock) -> bool {
        self.len(clock) == 0
    }

    /// Charge-free live-entry estimate for the split trigger (volatile
    /// words only — the insert hot path must not pay a pool read here).
    fn live_estimate(&self) -> u64 {
        let delta: i64 = self
            .stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum();
        (self.count_base.load(Ordering::Relaxed) as i64 + delta).max(0) as u64
    }

    fn geo(&self) -> Geo {
        *self.geo.lock()
    }

    /// Publish a new geometry (caller holds `resize_lock`).
    fn geo_store(&self, g: Geo) {
        *self.geo.lock() = g;
    }

    /// Acquire stripe `id` for a mutation, feeding the per-stripe heat map
    /// when metrics are enabled: every acquisition bumps
    /// `stripe.NN.acquires`, and an acquisition that found the stripe
    /// already held bumps `stripe.NN.contended` too. Under the deterministic
    /// scheduler the contended counts are always zero — charges under a
    /// stripe run in an atomic section, so the token never moves while a
    /// stripe is held — which makes nonzero values a free-threaded-only
    /// contention signal. Lookups lock `stripes[id].lock` directly and are
    /// not counted, so the heat map is a *write* heat map.
    fn lock_stripe(&self, id: usize) -> StripeGuard<'_> {
        // The 64 × 2 counter names, built once instead of per acquisition.
        static NAMES: OnceLock<Vec<[String; 2]>> = OnceLock::new();
        let names = |i| ["acquires", "contended"].map(|what| format!("stripe.{i:02}.{what}"));
        let machine = self.pool.device().machine();
        if machine.metrics_enabled() {
            let [acquires, contended] =
                &NAMES.get_or_init(|| (0..STRIPES).map(names).collect())[id];
            machine.metric_counter_add(acquires, 1);
            if let Some(guard) = self.stripes[id].lock.try_lock() {
                return guard;
            }
            machine.metric_counter_add(contended, 1);
        }
        self.stripes[id].lock.lock()
    }

    /// Acquire every stripe named in `ids`, once each and ascending (so
    /// concurrent multi-stripe operations cannot deadlock); the guards come
    /// back indexed by stripe.
    fn lock_stripes(
        &self,
        ids: impl IntoIterator<Item = usize>,
    ) -> [Option<StripeGuard<'_>>; STRIPES] {
        let mut wanted = [false; STRIPES];
        ids.into_iter().for_each(|i| wanted[i] = true);
        std::array::from_fn(|i| wanted[i].then(|| self.lock_stripe(i)))
    }

    // ---- sharded count: dirty flag + quiesce fold ----

    /// Mark the persistent count stale before the first count-changing
    /// mutation commits. A single persisted word (no transaction needed —
    /// an 8-byte write is atomic on the device), so a crash at any point
    /// after it forces the reopen recount and before it changed nothing.
    fn ensure_dirty(&self, clock: &Clock) {
        if self.count_dirty.load(Ordering::Acquire) {
            return;
        }
        let _serial = self.dirty_lock.lock();
        if self.count_dirty.load(Ordering::Acquire) {
            return;
        }
        self.pool.write_u64(clock, self.header + HDR_DIRTY, 1);
        self.count_dirty.store(true, Ordering::Release);
    }

    /// Fold the per-stripe live deltas into the persistent header and clear
    /// the dirty flag, in one transaction under every stripe lock. Cheap
    /// no-op (zero transactions, zero writes) when nothing changed the
    /// count since the last fold — a read-only session stays at zero
    /// pool transactions. Call at munmap/checkpoint boundaries.
    pub fn quiesce(&self, clock: &Clock) -> Result<()> {
        // A lock-free read of a word other ranks set: every earlier rank
        // goes first.
        pmem_sim::interaction_point();
        if !self.count_dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        let _atomic = pmem_sim::atomic_section();
        let _guards: Vec<_> = (0..STRIPES).map(|i| self.lock_stripe(i)).collect();
        let delta: i64 = self
            .stripes
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum();
        let folded = (self.count_base.load(Ordering::Relaxed) as i64 + delta).max(0) as u64;
        self.pool.tx(clock, |tx| {
            tx.set(self.header + HDR_COUNT, &folded.to_le_bytes())?;
            tx.set(self.header + HDR_DIRTY, &0u64.to_le_bytes())?;
            Ok(())
        })?;
        for s in &self.stripes {
            s.live.store(0, Ordering::Relaxed);
        }
        self.count_base.store(folded, Ordering::Relaxed);
        self.count_dirty.store(false, Ordering::Release);
        self.pool
            .flight()
            .record(clock, EventCode::CountFold, folded, 0);
        Ok(())
    }

    // ---- incremental resize ----

    /// Called at the top of every mutation (`put_group`, `remove`) and by
    /// nothing else — lookups never migrate: advance an in-flight split by
    /// one chunk, or begin one if the table is over threshold. An error
    /// beginning a split — e.g. the pool is too full to double the
    /// directory — defers it rather than failing the caller's operation.
    fn maybe_resize(&self, clock: &Clock) -> Result<()> {
        #[cfg(test)]
        if !self.auto_resize.load(Ordering::Relaxed) {
            return Ok(());
        }
        let g = self.geo();
        if g.old_buckets != 0 {
            return self.help_migrate(clock);
        }
        if self.live_estimate().saturating_mul(SPLIT_FACTOR) > g.buckets {
            match self.begin_split(clock) {
                Ok(()) => return self.help_migrate(clock),
                Err(_) => {
                    self.pool
                        .device()
                        .machine()
                        .metric_counter_add("ht.split.deferred", 1);
                }
            }
        }
        Ok(())
    }

    /// Double the directory: allocate a new heads array and publish
    /// `(old_buckets, old_heads, cursor=0, buckets×2, new_heads)` in one
    /// transaction, a cost that does not grow with the directory. The new
    /// array is not zeroed: at cursor 0 none of its slots is reachable
    /// ([`Geo::head_runs`]), and the chunk whose cursor passes a slot writes
    /// it first, 0 included — so each put that helps pays for the slots it
    /// migrates, and the put that trips the split pays for none. The old
    /// heads array becomes the old table in place, so no key's physical
    /// slot or stripe changes here — routing through the new geometry is
    /// identical until migration moves a bucket.
    fn begin_split(&self, clock: &Clock) -> Result<()> {
        let Some(_resize) = self.resize_lock.try_lock() else {
            return Ok(()); // someone else is already splitting
        };
        let g = self.geo();
        if g.old_buckets != 0 || self.live_estimate().saturating_mul(SPLIT_FACTOR) <= g.buckets {
            return Ok(());
        }
        let doubled = g
            .buckets
            .checked_mul(2)
            .ok_or_else(|| PmdkError::TxFailure("bucket count overflow".into()))?;
        let machine = self.pool.device().machine();
        let _phase = machine.phase(clock, "pmdk", "ht.resize");
        let new_heads = self.pool.tx(clock, |tx| {
            let new_heads = tx.alloc(doubled * 8)?;
            tx.set(self.header + HDR_OLD_BUCKETS, &g.buckets.to_le_bytes())?;
            tx.set(self.header + HDR_OLD_HEADS, &g.heads.to_le_bytes())?;
            tx.set(self.header + HDR_CURSOR, &0u64.to_le_bytes())?;
            tx.set(self.header + HDR_BUCKETS, &doubled.to_le_bytes())?;
            tx.set(self.header + HDR_HEADS, &new_heads.to_le_bytes())?;
            Ok(new_heads)
        })?;
        self.geo_store(Geo {
            buckets: doubled,
            heads: new_heads,
            old_buckets: g.buckets,
            old_heads: g.heads,
            cursor: 0,
        });
        machine.metric_counter_add("ht.splits.begun", 1);
        self.pool
            .flight()
            .record(clock, EventCode::SplitBegin, g.buckets, doubled);
        Ok(())
    }

    /// Migrate one chunk of old buckets: partition each chain into lo
    /// (`hash % new_buckets == b`) and hi (`== b + old_buckets`), relink
    /// both in place, stream the destination heads into the new directory
    /// and advance the persisted cursor — one transaction under the
    /// affected stripes' locks. Only what a rollback can reach is
    /// snapshotted: the `ENT_NEXT` relinks (still chained off the old head)
    /// and the cursor / retire words. Destination heads are unreachable
    /// until the cursor passes their bucket ([`Geo::head_slots`]), so they
    /// go in undo-free and always, 0 included: a re-run after a crash or
    /// abort overwrites whatever the failed run left. The old head is never
    /// routed to again and stays; the final chunk frees the old array.
    fn help_migrate(&self, clock: &Clock) -> Result<()> {
        let Some(_resize) = self.resize_lock.try_lock() else {
            return Ok(()); // another helper has this split chunk
        };
        let g = self.geo();
        if g.old_buckets == 0 {
            return Ok(());
        }
        let n = g.old_buckets;
        let start = g.cursor;
        // 32 chunks a split (clamped), so one begun at load 1/2 retires by
        // load 3/4, before the next can be due. The undo log holds relinks
        // only, 20 bytes each against the lane's ~15 KB: 764 a chunk, where
        // 256 buckets at that load hold ~192 entries and relink fewer. A
        // chunk that would relink more ends at the bucket that does not fit.
        let chunk = (n / 32).clamp(8, 256).min(n - start);
        let last = start + chunk;
        let machine = self.pool.device().machine();
        let _phase = machine.phase(clock, "pmdk", "ht.resize");
        let _span = machine
            .span(clock, "pmdk", "ht.migrate")
            .arg("buckets", chunk);

        // Source bucket b lives on stripe b%64; its lo half stays there,
        // its hi half moves to (b+n)%64. Lock both for the whole chunk.
        let sids = (start..last).flat_map(|b| [stripe_of(b), stripe_of(b + n)]);
        let _atomic = pmem_sim::atomic_section();
        let mut held = self.lock_stripes(sids);

        let mut entries_moved = 0u64;
        let src = self.pool.charged(clock);
        let end = self.pool.tx(clock, |tx| {
            // Destination heads: slots start..end (lo), start+n.. (hi).
            let mut runs = [Vec::new(), Vec::new()];
            let (mut end, mut words) = (start, Vec::new());
            // The chunk's source heads are one run: pinned by the stripes
            // held above, fetched once.
            for (slot, b, head) in read_heads(&src, g.old_heads, start..last) {
                // [lo, hi], each (entry, current next).
                let mut halves: [Vec<(u64, u64)>; 2] = Default::default();
                let (moved, walked) = walk_from(&src, slot, head, Fetch::Header, |e| {
                    halves[(e.hash % g.buckets != b) as usize].push((e.at, e.next));
                    true
                });
                walked?;
                // Each partition relinks in original order with a nul
                // tail; next pointers already correct are left untouched.
                // The walk is still holding each pre-image.
                let mut relinks = Vec::new();
                let mut heads = [0u64; 2];
                for (head, chain) in heads.iter_mut().zip(&halves) {
                    for &(e, cur_next) in chain.iter().rev() {
                        if cur_next != *head {
                            relinks.push((e + ENT_NEXT, cur_next, *head));
                        }
                        *head = e;
                    }
                }
                // Room for these and the three retire words, or stop here.
                if b > start && !tx.undo_fits((words.len() + relinks.len()) as u64 + 3) {
                    break;
                }
                words.append(&mut relinks);
                for (run, head) in runs.iter_mut().zip(heads) {
                    run.extend_from_slice(&head.to_le_bytes());
                }
                entries_moved += moved;
                end = b + 1;
            }
            tx.write_new(g.heads + start * 8, &runs[0]);
            tx.write_new(g.heads + (start + n) * 8, &runs[1]);
            // `g` mirrors the header (we hold `resize_lock`): no read-back.
            // One append logs the relinks and the cursor (or retire) words.
            if end == n {
                words.extend([
                    (self.header + HDR_CURSOR, start, 0),
                    (self.header + HDR_OLD_BUCKETS, n, 0),
                    (self.header + HDR_OLD_HEADS, g.old_heads, 0),
                ]);
            } else {
                words.push((self.header + HDR_CURSOR, start, end));
            }
            tx.set_words(&words)?;
            if end == n {
                tx.free(g.old_heads)?;
            }
            Ok(end)
        })?;

        if end == n {
            self.geo_store(Geo {
                old_buckets: 0,
                old_heads: 0,
                cursor: 0,
                ..g
            });
            machine.metric_counter_add("ht.splits", 1);
            self.pool
                .flight()
                .record(clock, EventCode::SplitRetire, n, 0);
        } else {
            self.geo_store(Geo { cursor: end, ..g });
            self.pool
                .flight()
                .record(clock, EventCode::SplitChunk, end, entries_moved);
        }
        // Shadow invariant: a cached ref lives only at its key's current
        // route stripe. When the old size is not a multiple of the stripe
        // count, a migrated hi entry changes stripes — drop the source
        // stripes' caches wholesale (volatile, charge-free) so no stale
        // ref can resurface after a later remove + re-split.
        if !n.is_multiple_of(STRIPES as u64) {
            for b in start..end {
                held[stripe_of(b)]
                    .as_mut()
                    .expect("a chunk holds its source stripes")
                    .clear();
            }
        }
        machine.metric_counter_add("ht.buckets_migrated", end - start);
        if entries_moved > 0 {
            machine.metric_counter_add("ht.entries_migrated", entries_moved);
        }
        Ok(())
    }

    /// Walk the chain at `head_slot` for `keys`, `(key, hash)` each (writer
    /// side, caller holds the stripe), in one pass that ends at the last of
    /// them it finds: every entry it passed, in chain order, and whether it
    /// is one of `keys`. An entry's `slot` is the pointer a splice rewrites;
    /// the first one's `at` is the head pointer the walk read. A bad hop
    /// refuses the mutation.
    fn find(
        &self,
        clock: &Clock,
        head_slot: u64,
        keys: &[(&[u8], u64)],
    ) -> Result<Vec<(Entry, bool)>> {
        let machine = self.pool.device().machine();
        let _span = machine.span(clock, "pmdk", "ht.probe");
        let src = self.pool.charged(clock);
        let (mut seen, mut left) = (Vec::new(), keys.len());
        let (hops, end) = walk_chain(&src, head_slot, Fetch::Header, |e| {
            let hit = (keys.iter()).any(|&(key, hash)| {
                e.hash == hash && e.klen as usize == key.len() && e.key(&src) == key
            });
            left -= hit as usize;
            seen.push((*e, hit));
            left > 0
        });
        machine.metric_hist_record("ht.chain_len", SimTime::from_nanos(hops));
        end.map(|()| seen)
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

    // ---- volatile shadow index ----

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
    fn shadow_len(&self) -> usize {
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
            let mut held = self.lock_stripes(buckets.clone().take(STRIPES).map(stripe_of));
            for (slot, bucket, head) in read_heads(&src, array, buckets) {
                let shadow = held[stripe_of(bucket)].as_mut().expect("a run's stripes");
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
    fn charge_shadow_hits(&self, clock: &Clock, hits: usize) {
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
    fn shadow_invalidate(&self, shadow: &mut Shadow, key: &[u8]) {
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
    fn shadow_store(&self, shadow: &mut Shadow, key: &[u8], vref: ValueRef) {
        if self.shadow_enabled.load(Ordering::Relaxed) {
            shadow.insert(key.to_vec(), vref);
        }
    }

    /// Insert (or replace) every `(key, val_len)` as **one pool
    /// transaction**, values first: one allocator pass carves every entry,
    /// and `fill(i, vref)` writes key `i`'s value into its window and flushes
    /// it — the caller serializes *directly into PMEM* (zero staging), into a
    /// block nothing reaches yet — or hands the value's bytes back for the
    /// entry's own store to carry (`put`: a value ready in memory is one
    /// store with its header). Then, under the touched stripes, one walk a
    /// bucket finds the keys replaced, each entry is stored whole with its
    /// `next`, and one undo append logs every head and unlink. One fence
    /// before the commit point makes heads, entries and values durable.
    ///
    /// Crash contract: a crash anywhere before the lane commit point, or an
    /// error from `fill`, rolls the *entire group* back (no key from the
    /// batch visible, every replaced entry intact); a key is never linked
    /// before its value is durable. Duplicate keys within one batch are
    /// rejected: two entries cannot both be linked under one key.
    pub fn put_many<'v>(
        &self,
        clock: &Clock,
        reqs: &[(&[u8], u64)],
        mut fill: impl FnMut(usize, ValueRef) -> Result<Option<&'v [u8]>>,
    ) -> Result<Vec<ValueRef>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        // The entry header stores the value length in 32 bits.
        if let Some(&(_, len)) = reqs.iter().find(|&&(_, len)| len > u32::MAX as u64) {
            return Err(PmdkError::ValueTooLarge { len });
        }
        let mut seen = std::collections::HashSet::with_capacity(reqs.len());
        if let Some((key, _)) = reqs.iter().find(|(key, _)| !seen.insert(*key)) {
            let key = String::from_utf8_lossy(key);
            return Err(PmdkError::TxFailure(format!(
                "duplicate key in batch: {key:?}"
            )));
        }
        let hashes: Vec<u64> = reqs.iter().map(|&(k, _)| fnv1a(k)).collect();
        self.maybe_resize(clock)?;

        let machine = self.pool.device().machine();
        let _atomic = pmem_sim::atomic_section();
        self.ensure_dirty(clock);
        let mut locked = None;
        let (refs, live) = self.pool.tx(clock, |tx| {
            let sizes: Vec<u64> = (reqs.iter())
                .map(|(k, len)| ENT_KEY + k.len() as u64 + len)
                .collect();
            let entries = tx.alloc_many(&sizes)?;
            let refs: Vec<ValueRef> = (reqs.iter().zip(&entries))
                .map(|(&(key, len), &at)| ValueRef {
                    offset: at + ENT_KEY + key.len() as u64,
                    len,
                })
                .collect();
            let carried: Vec<_> = (refs.iter().enumerate())
                .map(|(i, &vref)| fill(i, vref))
                .collect::<Result<_>>()?;
            // Route every key and lock the involved stripes in ascending
            // index order, so concurrent batches and single puts cannot
            // deadlock. A migration may have moved a bucket between routing
            // and lock acquisition; holding the stripes pins the survivors,
            // so one stable re-check suffices.
            let (routes, held) = locked.insert(loop {
                let g = self.geo();
                let routes: Vec<Route> = hashes.iter().map(|&h| g.route(h)).collect();
                let held = self.lock_stripes(routes.iter().map(|r| r.sid));
                let g2 = self.geo();
                if hashes.iter().zip(&routes).all(|(&h, r)| g2.route(h) == *r) {
                    break (routes, held);
                }
                machine.metric_counter_add("ht.route.retries", 1);
            });
            // Group per head slot: an ordered map keeps the splice order —
            // and thus every persisted byte — deterministic.
            let mut by_slot: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, r) in routes.iter().enumerate() {
                by_slot.entry(r.head_slot).or_default().push(i);
                let shadow = held[r.sid].as_mut().expect("every routed stripe is held");
                self.shadow_invalidate(shadow, reqs[i].0);
            }
            let (mut words, mut frees, mut live) = (Vec::new(), Vec::new(), Vec::new());
            for (&head_slot, idxs) in &by_slot {
                let keys: Vec<_> = idxs.iter().map(|&i| (reqs[i].0, hashes[i])).collect();
                let seen = self.find(clock, head_slot, &keys)?;
                // The new entries chain onto the old chain without the ones
                // replaced: a run of those is skipped by the pointer that
                // named its first — the head's folded into the head's own
                // write. The walk holds every pre-image.
                let head = seen.first().map_or(0, |(e, _)| e.at);
                let (mut rest, replaced) = (head, frees.len());
                for run in seen.chunk_by(|a, b| a.1 == b.1).filter(|run| run[0].1) {
                    let (first, last) = (run[0].0, run[run.len() - 1].0);
                    frees.extend(run.iter().map(|(e, _)| e.at));
                    if first.slot == head_slot {
                        rest = last.next;
                    } else {
                        words.push((first.slot, first.at, last.next));
                    }
                }
                // Each new entry stored whole and once, undo-free: nothing
                // reaches it until the head does.
                for &i in idxs {
                    let (key, vlen) = (reqs[i].0, reqs[i].1 as u32);
                    let entry = encode_entry(hashes[i], key, vlen, rest, carried[i]);
                    tx.write_new(entries[i], &entry);
                    rest = entries[i];
                }
                words.push((head_slot, head, rest));
                live.push((
                    routes[idxs[0]].sid,
                    (idxs.len() + replaced - frees.len()) as i64,
                ));
            }
            tx.free_many(&frees)?;
            tx.set_words(&words)?;
            Ok((refs, live))
        })?;
        let (routes, mut held) = locked.expect("a committed group holds its stripes");
        for (sid, d) in live {
            self.stripes[sid].live.fetch_add(d, Ordering::Relaxed);
        }
        for ((r, &(key, _)), &vref) in routes.iter().zip(reqs).zip(&refs) {
            let shadow = held[r.sid].as_mut().expect("every routed stripe is held");
            self.shadow_store(shadow, key, vref);
        }
        Ok(refs)
    }

    /// [`Self::put_many`] with a fill that writes nothing: each key is
    /// linked with whatever bytes its block held. Nothing in the product
    /// reserves without filling — this stays `pub`, with its signature, only
    /// because `benchmark/src/ladder.rs` (frozen) calls it to time the
    /// metadata half of a group put.
    pub fn put_reserve_many(&self, clock: &Clock, reqs: &[(&[u8], u64)]) -> Result<Vec<ValueRef>> {
        self.put_many(clock, reqs, |_, _| Ok(None))
    }

    /// Insert (or replace) `key → value` atomically: on a crash at any point
    /// the table holds either the complete old mapping or the complete new
    /// one.
    pub fn put(&self, clock: &Clock, key: &[u8], value: &[u8]) -> Result<ValueRef> {
        Ok(self.put_many(clock, &[(key, value.len() as u64)], |_, _| Ok(Some(value)))?[0])
    }

    /// Locate `key`'s value without copying it: a shadow-index probe under
    /// the key's stripe, then — on a miss — one chain walk with the stripe
    /// still held.
    pub fn get_ref(&self, clock: &Clock, key: &[u8]) -> Option<ValueRef> {
        self.get_ref_many(clock, &[key])[0]
    }

    /// Batched lookup: resolve every key with one chain walk per touched
    /// bucket. Keys are grouped by (stripe, head slot) in sorted order — the
    /// same deterministic grouping the write batches use for stripe
    /// acquisition — so keys sharing a bucket share its head/header reads,
    /// and each group resolves under its stripe; a group whose bucket
    /// migrated between routing and lock acquisition is routed again.
    /// Results are positionally parallel to `keys`. A lookup never migrates:
    /// a read-only session on a mid-split pool runs no pool transaction.
    pub fn get_ref_many(&self, clock: &Clock, keys: &[&[u8]]) -> Vec<Option<ValueRef>> {
        let mut out = vec![None; keys.len()];
        let keyed: Vec<(&[u8], u64)> = keys.iter().map(|&k| (k, fnv1a(k))).collect();
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        while !pending.is_empty() {
            let g = self.geo();
            let route = |i: usize| g.route(keyed[i].1);
            pending.sort_by_key(|&i| {
                let r = route(i);
                (r.sid, r.head_slot, i)
            });
            let mut moved = Vec::new();
            for group in pending.chunk_by(|&a, &b| route(a).head_slot == route(b).head_slot) {
                if !self.get_group(clock, &keyed, route(group[0]), group, &mut out) {
                    moved.extend_from_slice(group);
                }
            }
            pending = moved;
        }
        out
    }

    /// Lock the stripe guarding `hash`'s chain — through the heat map for a
    /// `write`, uncounted for a lookup. A migration may move the bucket
    /// between routing and lock acquisition; holding the stripe pins the
    /// route (migration locks it too), so one stable re-check suffices.
    fn lock_route(&self, hash: u64, write: bool) -> (Route, StripeGuard<'_>) {
        let machine = self.pool.device().machine();
        loop {
            let r = self.geo().route(hash);
            let guard = if write {
                self.lock_stripe(r.sid)
            } else {
                self.stripes[r.sid].lock.lock()
            };
            if self.geo().route(hash) == r {
                return (r, guard);
            }
            machine.metric_counter_add("ht.route.retries", 1);
        }
    }

    /// Resolve one route's worth of keys into `out` under the route's
    /// stripe. The stripe is released before the shadow hits are charged, so
    /// readers that hit hold it for a map lookup only. Returns false, with
    /// nothing resolved, if any key no longer routes here.
    fn get_group(
        &self,
        clock: &Clock,
        keyed: &[(&[u8], u64)],
        route: Route,
        group: &[usize],
        out: &mut [Option<ValueRef>],
    ) -> bool {
        let hits = {
            let _atomic = pmem_sim::atomic_section();
            let mut shadow = self.stripes[route.sid].lock.lock();
            let g = self.geo();
            if group.iter().any(|&i| g.route(keyed[i].1) != route) {
                let machine = self.pool.device().machine();
                machine.metric_counter_add("ht.route.retries", group.len() as u64);
                return false;
            }
            self.probe_held(clock, keyed, route.head_slot, group, &mut shadow, out)
        };
        self.charge_shadow_hits(clock, hits);
        true
    }

    /// Resolve `group` — indices of `(key, hash)` pairs on the chain at
    /// `head_slot` — into `out`. The caller holds the chain's stripe
    /// (`shadow` is its guard) inside an atomic section: shadow lookups
    /// first, then one single-pass walk for the misses, whose finds are
    /// published under the same guard. Returns the number of shadow hits,
    /// left for the caller to charge.
    fn probe_held(
        &self,
        clock: &Clock,
        keyed: &[(&[u8], u64)],
        head_slot: u64,
        group: &[usize],
        shadow: &mut Shadow,
        out: &mut [Option<ValueRef>],
    ) -> usize {
        let machine = self.pool.device().machine();
        let cached = self.shadow_enabled.load(Ordering::Relaxed);
        let mut cold: Vec<usize> = Vec::new();
        for &i in group {
            if cached {
                out[i] = shadow.get(keyed[i].0).copied();
                let outcome = if out[i].is_some() {
                    "shadow.hits"
                } else {
                    "shadow.misses"
                };
                machine.metric_counter_add(outcome, 1);
            }
            if out[i].is_none() {
                cold.push(i);
            }
        }
        let hits = group.len() - cold.len();
        if cold.is_empty() {
            return hits;
        }
        let _span = machine
            .span(clock, "pmdk", "ht.probe")
            .arg("keys", cold.len() as u64);
        let src = self.pool.charged(clock);
        let mut unresolved = cold.len();
        let mut key_reads = 0u64;
        let walked = walk_chain(&src, head_slot, Fetch::Header, |e| {
            let mut kbuf: Option<Vec<u8>> = None;
            for &i in &cold {
                let (key, hash) = keyed[i];
                if out[i].is_some() || e.hash != hash || e.klen as usize != key.len() {
                    continue;
                }
                // Key bytes are read once per entry even if several group
                // members share the hash.
                let k = kbuf.get_or_insert_with(|| {
                    key_reads += 1;
                    e.key(&src)
                });
                if k.as_slice() == key {
                    let vref = value_ref_of(e);
                    out[i] = Some(vref);
                    self.shadow_store(shadow, key, vref);
                    unresolved -= 1;
                }
            }
            unresolved > 0
        });
        let hops = self.degraded(walked);
        // Charged pool read ops: the head, each header, each key fetch.
        machine.metric_counter_add("get.lookup.pool_reads", 1 + hops + key_reads);
        machine.metric_hist_record("ht.chain_len", SimTime::from_nanos(hops));
        hits
    }

    /// Copy out `key`'s value. The byte copy runs with the stripe still
    /// held: resolving a ref and then reading the bytes unlocked would race
    /// a concurrent replace/remove that frees and recycles the value region
    /// between the two (a torn read of reused memory).
    pub fn get(&self, clock: &Clock, key: &[u8]) -> Option<Vec<u8>> {
        let hash = fnv1a(key);
        let _atomic = pmem_sim::atomic_section();
        let (r, mut shadow) = self.lock_route(hash, false);
        let mut out = [None];
        let hits = self.probe_held(
            clock,
            &[(key, hash)],
            r.head_slot,
            &[0],
            &mut shadow,
            &mut out,
        );
        self.charge_shadow_hits(clock, hits);
        let vref = out[0]?;
        let mut buf = vec![0u8; vref.len as usize];
        self.pool.read_bytes(clock, vref.offset, &mut buf);
        Some(buf)
    }

    pub fn contains(&self, clock: &Clock, key: &[u8]) -> bool {
        self.get_ref(clock, key).is_some()
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&self, clock: &Clock, key: &[u8]) -> Result<bool> {
        let hash = fnv1a(key);
        self.maybe_resize(clock)?;
        let _atomic = pmem_sim::atomic_section();
        let (r, mut shadow) = self.lock_route(hash, true);
        self.shadow_invalidate(&mut shadow, key);
        let Some(&(e, true)) = self.find(clock, r.head_slot, &[(key, hash)])?.last() else {
            return Ok(false);
        };
        self.ensure_dirty(clock);
        self.pool.tx(clock, |tx| {
            tx.set_words(&[(e.slot, e.at, e.next)])?;
            tx.free(e.at)
        })?;
        self.stripes[r.sid].live.fetch_sub(1, Ordering::Relaxed);
        Ok(true)
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
mod tests {
    use super::*;
    use crate::pool::tests::{crashed_at, last_uncommitted};
    use pmem_sim::{Machine, MetricsRegistry, PersistenceMode, PmemDevice};

    fn table(bytes: usize, buckets: u64) -> (PersistentHashtable, Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, buckets).unwrap();
        (ht, pool, clock)
    }

    fn reopen(
        ht: PersistentHashtable,
        pool: Arc<PmemPool>,
        clock: &Clock,
    ) -> (PersistentHashtable, Arc<PmemPool>) {
        let header = ht.header_offset();
        let dev = Arc::clone(pool.device());
        drop((ht, pool));
        let pool = PmemPool::open(clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::open(clock, &pool, header).unwrap();
        (ht, pool)
    }

    #[test]
    fn put_get_round_trip() {
        let (ht, _pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"temperature", b"310.5K").unwrap();
        assert_eq!(ht.get(&clock, b"temperature").unwrap(), b"310.5K");
        assert!(ht.get(&clock, b"pressure").is_none());
        assert_eq!(ht.len(&clock), 1);
    }

    #[test]
    fn replace_updates_value_and_keeps_count() {
        let (ht, pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"k", b"old").unwrap();
        ht.put(&clock, b"k", b"newer-value").unwrap();
        assert_eq!(ht.get(&clock, b"k").unwrap(), b"newer-value");
        assert_eq!(ht.len(&clock), 1);
        pool.check_heap().unwrap(); // replaced entry was freed
    }

    #[test]
    fn remove_unlinks_and_frees() {
        let (ht, pool, clock) = table(1 << 22, 4);
        // Force collisions with few buckets.
        for i in 0..20u32 {
            ht.put(&clock, format!("key{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(ht.len(&clock), 20);
        assert!(ht.remove(&clock, b"key7").unwrap());
        assert!(!ht.remove(&clock, b"key7").unwrap());
        assert!(ht.get(&clock, b"key7").is_none());
        assert_eq!(ht.get(&clock, b"key8").unwrap(), 8u32.to_le_bytes());
        assert_eq!(ht.len(&clock), 19);
        ht.quiesce(&clock).unwrap();
        pool.check_heap().unwrap();
    }

    #[test]
    fn chains_handle_collisions() {
        let (ht, _pool, clock) = table(1 << 22, 1); // everything collides
        ht.set_auto_resize(false); // pin the single bucket
        for i in 0..50u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(
                ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
        assert_eq!(ht.max_chain_len(&clock), 50);
    }

    #[test]
    fn keys_enumerates_everything() {
        let (ht, _pool, clock) = table(1 << 22, 8);
        for name in ["a", "bb", "ccc"] {
            ht.put(&clock, name.as_bytes(), b"v").unwrap();
        }
        let mut keys = ht.keys(&clock);
        keys.sort();
        assert_eq!(keys, vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]);
    }

    #[test]
    fn survives_reopen() {
        let (ht, pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"persisted", b"yes").unwrap();
        let (ht, _pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.get(&clock, b"persisted").unwrap(), b"yes");
        assert_eq!(ht.len(&clock), 1);
    }

    #[test]
    fn resize_grows_the_directory_and_preserves_contents() {
        let (ht, pool, clock) = table(1 << 23, 4);
        let mut expect = BTreeMap::new();
        for i in 0..300u32 {
            let k = format!("grow-{i}");
            ht.put(&clock, k.as_bytes(), &i.to_le_bytes()).unwrap();
            expect.insert(k.into_bytes(), i.to_le_bytes().to_vec());
        }
        // Drive any in-flight migration to completion.
        while ht.splitting() {
            ht.remove(&clock, b"absent").unwrap();
        }
        assert!(
            ht.bucket_count() > 300,
            "4 buckets must double past the live count, got {}",
            ht.bucket_count()
        );
        assert_eq!(ht.len(&clock), 300);
        for (k, v) in &expect {
            assert_eq!(&ht.get(&clock, k).unwrap(), v, "key {:?}", k);
        }
        let mut keys = ht.keys(&clock);
        keys.sort();
        assert_eq!(keys, expect.keys().cloned().collect::<Vec<_>>());
        assert!(
            ht.max_chain_len(&clock) <= 8,
            "post-split chains stay short"
        );
        ht.quiesce(&clock).unwrap();
        pool.check_heap().unwrap(); // retired heads arrays were freed
    }

    #[test]
    fn resized_table_survives_reopen_mid_split_and_after() {
        let (ht, pool, clock) = table(1 << 23, 64);
        // Insert until a split is actually in flight (the triggering put
        // migrates only the first chunk of the 64-bucket old table).
        let mut total = 0u32;
        while !ht.splitting() {
            ht.put(&clock, format!("k{total}").as_bytes(), &total.to_le_bytes())
                .unwrap();
            total += 1;
        }
        // Reopen mid-split: the persisted two-table state must route every
        // key correctly.
        let (ht, pool) = reopen(ht, pool, &clock);
        assert!(ht.splitting(), "split state survives reopen");
        assert_eq!(ht.len(&clock), total as u64);
        for i in 0..total {
            assert_eq!(
                ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
        // Finish the split and reopen once more.
        while ht.splitting() {
            ht.put(&clock, b"nudge", b"v").unwrap();
        }
        let (ht, _pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.len(&clock), total as u64 + 1);
        assert_eq!(ht.get(&clock, b"k20").unwrap(), 20u32.to_le_bytes());
    }

    #[test]
    fn quiesce_folds_sharded_count_and_clean_open_skips_recount() {
        let (ht, pool, clock) = table(1 << 22, 64);
        ht.set_auto_resize(false);
        for i in 0..10u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Mid-session: header still holds the last fold, deltas are live.
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_COUNT), 0);
        assert_eq!(ht.len(&clock), 10);
        ht.quiesce(&clock).unwrap();
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_COUNT), 10);
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_DIRTY), 0);
        // A second quiesce with nothing dirty is free: no transaction.
        let machine = Arc::clone(pool.device().machine());
        let before = machine.stats.snapshot();
        ht.quiesce(&clock).unwrap();
        assert_eq!(machine.stats.snapshot().delta_since(&before).pool_txs, 0);
        let (ht, _pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.len(&clock), 10);
    }

    #[test]
    fn dirty_crash_reopen_recounts_from_chains() {
        let (ht, pool, clock) = table(1 << 22, 64);
        for i in 0..7u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Crash without quiesce: dirty flag is set, header count stale.
        pool.device().crash();
        let (ht, pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.len(&clock), 7);
        // The recount folded + cleared the flag with plain persisted writes.
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_COUNT), 7);
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_DIRTY), 0);
    }

    #[test]
    fn open_rejects_implausible_headers() {
        let (ht, pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"k", b"v").unwrap();
        let header = ht.header_offset();
        // Heads array past the device: bucket count huge but < 1<<32, which
        // the old check accepted.
        pool.write_u64(&clock, header + HDR_BUCKETS, 1 << 30);
        assert!(matches!(
            PersistentHashtable::open(&clock, &pool, header),
            Err(PmdkError::BadPool(_))
        ));
        pool.write_u64(&clock, header + HDR_BUCKETS, 16);
        // Heads array on the device but below the heap (the doctor's rule,
        // now open's too).
        let heads = pool.read_u64(&clock, header + HDR_HEADS);
        pool.write_u64(&clock, header + HDR_HEADS, 4096);
        assert!(matches!(
            PersistentHashtable::open(&clock, &pool, header),
            Err(PmdkError::BadPool(_))
        ));
        pool.write_u64(&clock, header + HDR_HEADS, heads);
        // Split state that is not old×2.
        pool.write_u64(&clock, header + HDR_OLD_BUCKETS, 7);
        assert!(matches!(
            PersistentHashtable::open(&clock, &pool, header),
            Err(PmdkError::BadPool(_))
        ));
        pool.write_u64(&clock, header + HDR_OLD_BUCKETS, 0);
        // Cursor with no old table.
        pool.write_u64(&clock, header + HDR_CURSOR, 3);
        assert!(matches!(
            PersistentHashtable::open(&clock, &pool, header),
            Err(PmdkError::BadPool(_))
        ));
        pool.write_u64(&clock, header + HDR_CURSOR, 0);
        // Dirty-flag recount over a torn chain: a `next` that self-loops
        // must not hang the open, one that points past the device must not
        // trip the device's bounds assert.
        let entry = ht.get_ref(&clock, b"k").unwrap().offset - ENT_KEY - 1;
        for torn_next in [entry, pool.device().size() as u64 - 8] {
            pool.write_u64(&clock, header + HDR_DIRTY, 1);
            pool.write_u64(&clock, entry + ENT_NEXT, torn_next);
            assert!(matches!(
                PersistentHashtable::open(&clock, &pool, header),
                Err(PmdkError::BadPool(_))
            ));
        }
        pool.write_u64(&clock, entry + ENT_NEXT, 0);
        assert!(PersistentHashtable::open(&clock, &pool, header).is_ok());
    }

    /// A fill that writes `value(i)` into key `i`'s window and flushes it,
    /// as `Layout::store_many`'s does through its mapping.
    fn writing<'a>(
        pool: &'a PmemPool,
        clock: &'a Clock,
        value: impl Fn(usize) -> Vec<u8> + 'a,
    ) -> impl FnMut(usize, ValueRef) -> Result<Option<&'a [u8]>> + 'a {
        move |i, v| {
            let bytes = value(i);
            assert_eq!(bytes.len() as u64, v.len);
            pool.device().write_meta(clock, v.offset as usize, &bytes);
            pool.device().flush(clock, v.offset as usize, bytes.len());
            Ok(None)
        }
    }

    /// `put_reserve_many` is the group put with a fill that writes nothing:
    /// the caller writes the value in place afterwards.
    #[test]
    fn put_reserve_allows_direct_value_writes() {
        let (ht, pool, clock) = table(1 << 22, 16);
        let vref = ht.put_reserve_many(&clock, &[(b"array", 8)]).unwrap()[0];
        pool.write_bytes(&clock, vref.offset, &42u64.to_le_bytes());
        let got = ht.get(&clock, b"array").unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 42);
    }

    #[test]
    fn put_many_is_one_tx_one_alloc_pass() {
        let (ht, pool, clock) = table(1 << 22, 8);
        let machine = Arc::clone(pool.device().machine());
        let before = machine.stats.snapshot();
        let reqs: Vec<(&[u8], u64)> =
            vec![(b"alpha", 8), (b"beta", 16), (b"gamma", 8), (b"delta", 32)];
        let value = |i: usize| vec![reqs[i].0[0]; reqs[i].1 as usize];
        let refs = ht
            .put_many(&clock, &reqs, writing(&pool, &clock, value))
            .unwrap();
        let delta = machine.stats.snapshot().delta_since(&before);
        assert_eq!(delta.pool_txs, 1, "group commit must claim one lane");
        assert_eq!(delta.alloc_passes, 1, "group alloc must be one pass");
        assert_eq!(refs.len(), 4);
        for (i, ((key, vlen), vref)) in reqs.iter().zip(&refs).enumerate() {
            assert_eq!(vref.len, *vlen);
            assert_eq!(ht.get(&clock, key).unwrap(), value(i));
        }
        assert_eq!(ht.len(&clock), 4);
        pool.check_heap().unwrap();
    }

    #[test]
    fn put_many_replaces_and_inserts_mixed() {
        let (ht, pool, clock) = table(1 << 22, 1); // everything chains
        ht.set_auto_resize(false);
        ht.put(&clock, b"a", b"old-a").unwrap();
        ht.put(&clock, b"b", b"old-b").unwrap();
        ht.put(&clock, b"keep", b"kept").unwrap();
        // Replace two adjacent chain entries and insert two fresh keys in
        // one group.
        let reqs: Vec<(&[u8], u64)> = vec![(b"a", 5), (b"b", 5), (b"c", 5), (b"d", 5)];
        let value = |i: usize| [b"new-", reqs[i].0].concat();
        ht.put_many(&clock, &reqs, writing(&pool, &clock, value))
            .unwrap();
        assert_eq!(ht.len(&clock), 5);
        assert_eq!(ht.get(&clock, b"a").unwrap(), b"new-a");
        assert_eq!(ht.get(&clock, b"b").unwrap(), b"new-b");
        assert_eq!(ht.get(&clock, b"c").unwrap(), b"new-c");
        assert_eq!(ht.get(&clock, b"d").unwrap(), b"new-d");
        assert_eq!(ht.get(&clock, b"keep").unwrap(), b"kept");
        pool.check_heap().unwrap(); // replaced entries were freed
    }

    /// A fill that fails on its third key — a serializer error, say — rolls
    /// the whole group back: the values already written sit in blocks the
    /// rollback frees, no key of the group is visible, the key it would
    /// have replaced keeps its value, and the stripes and the lane are free.
    #[test]
    fn a_fill_that_fails_rolls_back_the_whole_group() {
        let (ht, pool, clock) = table(1 << 22, 4);
        ht.put(&clock, b"replaced", b"original").unwrap();
        let allocated = pool.allocated_bytes();
        let reqs: Vec<(&[u8], u64)> = vec![(b"n1", 8), (b"replaced", 8), (b"n2", 8), (b"n3", 8)];
        let err = {
            let mut fill = writing(&pool, &clock, |_| b"written!".to_vec());
            let failing = |i, v| match i {
                2 => Err(PmdkError::TxFailure("the serializer failed".into())),
                _ => fill(i, v),
            };
            ht.put_many(&clock, &reqs, failing).unwrap_err()
        };
        assert_eq!(err, PmdkError::TxFailure("the serializer failed".into()));
        for key in [&b"n1"[..], b"n2", b"n3"] {
            assert!(ht.get(&clock, key).is_none());
        }
        assert_eq!(ht.get(&clock, b"replaced").unwrap(), b"original");
        assert_eq!((ht.len(&clock), pool.allocated_bytes()), (1, allocated));
        assert!(ht.stripes.iter().all(|s| s.lock.try_lock().is_some()));
        pool.check_heap().unwrap();
        let (ht, pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.keys(&clock), vec![b"replaced".to_vec()]);
        pool.check_heap().unwrap();
    }

    /// `scenario` — it builds a table and returns the table's header and a
    /// mark — crashed at the last point before the mark at which a
    /// transaction is logged and not committed, and recovered.
    fn recovered_before_commit(
        bytes: usize,
        scenario: impl Fn(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> (u64, usize),
    ) -> (PersistentHashtable, Arc<PmemPool>, Clock) {
        let ((_, end), _) = crashed_at(bytes, usize::MAX, &scenario);
        let k = last_uncommitted(bytes, end, &scenario);
        let ((header, _), image) = crashed_at(bytes, k, &scenario);
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image.unwrap(), "test-layout").unwrap();
        let ht = PersistentHashtable::open(&clock, &pool, header).unwrap();
        (ht, pool, clock)
    }

    /// The head's undo record holds what the walk read, not a second media
    /// read (debug builds compare the two): a group that unlinks its
    /// bucket's first and last entries and splices onto the one between
    /// rolls back to the old chain, and commits to the new one.
    #[test]
    fn a_group_that_moves_its_head_rolls_back_and_commits_whole() {
        let reqs: Vec<(&[u8], u64)> = vec![(b"a", 3), (b"c", 3), (b"d", 3)];
        let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
            let ht = PersistentHashtable::create(clock, pool, 1).unwrap(); // c → b → a
            ht.set_auto_resize(false);
            for key in [b"a", b"b", b"c"] {
                ht.put(clock, key, b"old").unwrap();
            }
            ht.put_many(clock, &reqs, writing(pool, clock, |_| b"new".to_vec()))
                .unwrap();
            (ht.header_offset(), passed())
        });
        ht.set_auto_resize(false);
        for key in [b"a", b"b", b"c"] {
            assert_eq!(ht.get(&clock, key).unwrap(), b"old");
        }
        assert_eq!((ht.get(&clock, b"d"), ht.len(&clock)), (None, 3));

        ht.put_many(&clock, &reqs, writing(&pool, &clock, |_| b"new".to_vec()))
            .unwrap();
        for (key, want) in [
            (b"a", b"new"),
            (b"b", b"old"),
            (b"c", b"new"),
            (b"d", b"new"),
        ] {
            assert_eq!(ht.get(&clock, key).unwrap(), want);
        }
        assert_eq!(ht.len(&clock), 4);
        pool.check_heap().unwrap();
    }

    /// A put fetches its bucket's head pointer once — the walk's read serves
    /// the splice and the undo record — and its commit reads nothing back:
    /// the transaction knows which of its intents are frees.
    #[test]
    fn a_put_reads_its_bucket_head_once() {
        const BUCKETS: u64 = 4096;
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, BUCKETS).unwrap();
        ht.put(&clock, b"warm", b"sets the dirty flag").unwrap();
        let mut taken = std::collections::HashSet::from([fnv1a(b"warm") % BUCKETS]);
        let mut fresh = (0u32..)
            .map(|i| format!("k{i}").into_bytes())
            .filter(|k| taken.insert(fnv1a(k) % BUCKETS));
        let reads = || registry.snapshot().hists["pmem.meta_read"].count;
        // A key in an empty bucket: the walk's read of the head. A 64-alloc
        // group commits without reading its 64 intent slots back.
        for group in [1, 3, 64] {
            let keys: Vec<Vec<u8>> = fresh.by_ref().take(group).collect();
            let reqs: Vec<(&[u8], u64)> = keys.iter().map(|k| (k.as_slice(), 8)).collect();
            let before = reads();
            ht.put_many(&clock, &reqs, writing(&pool, &clock, |_| vec![7; 8]))
                .unwrap();
            assert_eq!(reads() - before, group as u64);
        }
    }

    #[test]
    fn put_many_rejects_duplicate_keys() {
        let (ht, pool, clock) = table(1 << 22, 8);
        let nothing = |_, _| Ok(None);
        let err = ht
            .put_many(&clock, &[(b"same", 4), (b"same", 8)], nothing)
            .unwrap_err();
        assert!(matches!(err, PmdkError::TxFailure(_)));
        // A length the entry header cannot hold is refused the same way:
        // an error, before anything is allocated.
        let err = ht
            .put_many(&clock, &[(b"fits", 4), (b"huge", 1 << 32)], nothing)
            .unwrap_err();
        assert_eq!(err, PmdkError::ValueTooLarge { len: 1 << 32 });
        assert!(ht.is_empty(&clock));
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_batch_rolls_back_the_whole_group() {
        let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
            let ht = PersistentHashtable::create(clock, pool, 4).unwrap();
            ht.put(clock, b"pre-existing", b"survives").unwrap();
            ht.put(clock, b"replaced", b"original").unwrap();
            let reqs: Vec<(&[u8], u64)> = vec![(b"n1", 8), (b"replaced", 8), (b"n2", 8)];
            ht.put_many(clock, &reqs, writing(pool, clock, |_| b"the new!".to_vec()))
                .unwrap();
            (ht.header_offset(), passed())
        });
        // None of the batch's keys are visible; replaced keeps its old value.
        assert!(ht.get(&clock, b"n1").is_none());
        assert!(ht.get(&clock, b"n2").is_none());
        assert_eq!(ht.get(&clock, b"replaced").unwrap(), b"original");
        assert_eq!(ht.get(&clock, b"pre-existing").unwrap(), b"survives");
        assert_eq!(ht.len(&clock), 2);
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_put_leaves_old_value() {
        // The replacement is logged in full — the head's undo record, the
        // new entry's intent — and never commits.
        let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
            let ht = PersistentHashtable::create(clock, pool, 16).unwrap();
            ht.put(clock, b"k", b"stable").unwrap();
            ht.put(clock, b"k", b"doomed").unwrap();
            (ht.header_offset(), passed())
        });
        assert_eq!(ht.get(&clock, b"k").unwrap(), b"stable");
        assert_eq!(ht.len(&clock), 1);
        pool.check_heap().unwrap();
    }

    #[test]
    fn failed_put_releases_its_stripes() {
        let (ht, _pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"k", b"stable").unwrap();
        // The pool cannot hold the replacement: the transaction fails at
        // its allocation and rolls back.
        let err = ht.put(&clock, b"k", &vec![0u8; 1 << 23]).unwrap_err();
        assert!(matches!(err, PmdkError::OutOfMemory { .. }));
        // The error path dropped every stripe guard, or this get — which
        // locks the same stripe — would never return.
        assert!(ht.stripes.iter().all(|s| s.lock.try_lock().is_some()));
        assert_eq!(ht.get(&clock, b"k").unwrap(), b"stable");
    }

    /// 33 keys in a 64-bucket table, a split begun over them, and its first
    /// migration chunk; the mark is the chunk's end.
    fn first_chunk(
        pool: &Arc<PmemPool>,
        clock: &Clock,
        passed: &dyn Fn() -> usize,
    ) -> (u64, usize) {
        let ht = PersistentHashtable::create(clock, pool, 64).unwrap();
        for i in 0..33u32 {
            ht.put(clock, format!("m{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        ht.begin_split(clock).unwrap();
        ht.help_migrate(clock).unwrap();
        (ht.header_offset(), passed())
    }

    #[test]
    fn crash_mid_migration_rolls_back_to_the_cursor() {
        // Every relink and the cursor are logged and written; the chunk's
        // transaction has not committed.
        let (ht, pool, clock) = recovered_before_commit(1 << 23, first_chunk);
        assert!(
            ht.splitting(),
            "split begin committed, migration rolled back"
        );
        assert_eq!(ht.geo().cursor, 0);
        assert_eq!(ht.len(&clock), 33);
        for i in 0..33u32 {
            assert_eq!(
                ht.get(&clock, format!("m{i}").as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
        // The interrupted migration resumes and completes.
        while ht.splitting() {
            ht.put(&clock, b"m33", &33u32.to_le_bytes()).unwrap();
        }
        assert_eq!(ht.len(&clock), 34);
        ht.quiesce(&clock).unwrap();
        pool.check_heap().unwrap();
    }

    /// `head_slots` is the one walker recount, `keys`, the histogram and
    /// the doctor share: it must yield exactly the slots a key can route
    /// to, under the stripe that guards them — never a destination slot the
    /// cursor has not passed (a rolled-back chunk may have left a head
    /// there).
    #[test]
    fn head_slots_are_exactly_the_slots_keys_route_to() {
        let split = Geo {
            buckets: 128,
            heads: 0x2000,
            old_buckets: 64,
            old_heads: 0x1000,
            cursor: 0,
        };
        let whole = Geo {
            old_buckets: 0,
            old_heads: 0,
            ..split
        };
        let mid = [0, 8, 63, 64].map(|cursor| Geo { cursor, ..split });
        for g in mid.into_iter().chain([whole]) {
            let mut walked: Vec<_> = g.head_slots().map(|(s, b)| (s, stripe_of(b))).collect();
            let expect = match g.old_buckets {
                0 => g.buckets,
                n => (n - g.cursor) + 2 * g.cursor,
            };
            assert_eq!(walked.len() as u64, expect, "{g:?}");
            let mut routed: Vec<_> = (0..g.buckets)
                .map(|h| g.route(h))
                .map(|r| (r.head_slot, r.sid))
                .collect();
            routed.sort_unstable();
            routed.dedup();
            walked.sort_unstable();
            assert_eq!(walked, routed, "{g:?}");
        }
    }

    /// A chunk that rolled back may leave its destination heads behind
    /// (undo-free, unfenced writes). If the partition they point into is emptied
    /// before the chunk re-runs — a mutator that found `resize_lock` busy
    /// does not help first — the re-run must overwrite them with 0, not
    /// skip the empty partition.
    #[test]
    fn a_rerun_chunk_overwrites_the_heads_a_rolled_back_one_left() {
        // The chunk's destination heads went in undo-free and were fenced
        // before the cursor's undo record: the crash that rolls the chunk
        // back leaves them on media.
        let (ht, pool, clock) = recovered_before_commit(1 << 23, first_chunk);
        let keys: Vec<String> = (0..33).map(|i| format!("m{i}")).collect();
        let g = ht.geo();
        assert_eq!((g.old_buckets, g.cursor), (64, 0), "chunk rolled back");
        // The first chunk is buckets 0..8; its destination heads went in.
        let in_chunk = |k: &&String| fnv1a(k.as_bytes()) % 64 < 8;
        let stale = |g: Geo| {
            let slots = (0..8).flat_map(|b| [b, b + 64]);
            slots
                .filter(|b| pool.read_u64(&clock, g.heads + b * 8) != 0)
                .count()
        };
        assert!(stale(g) > 0, "some key of 33 hashes into the first chunk");
        assert_eq!(ht.keys(&clock).len(), 33, "no walker follows them");
        assert_eq!(ht.chain_length_histogram(&clock).iter().sum::<u64>(), 64);

        // Empty those partitions without helping, then let the split run.
        ht.set_auto_resize(false);
        for k in keys.iter().filter(in_chunk) {
            assert!(ht.remove(&clock, k.as_bytes()).unwrap());
        }
        ht.set_auto_resize(true);
        while ht.splitting() {
            ht.remove(&clock, b"absent").unwrap();
        }
        assert_eq!(stale(g), 0, "freed entries are unreachable");
        let mut left: Vec<_> = keys.iter().filter(|k| !in_chunk(k)).cloned().collect();
        let mut found: Vec<_> = ht
            .keys(&clock)
            .into_iter()
            .map(|k| String::from_utf8(k).unwrap())
            .collect();
        left.sort();
        found.sort();
        assert_eq!(found, left);
        pool.check_heap().unwrap();
    }

    /// `begin_split` does not zero the new directory: a slot is read only
    /// once the chunk whose cursor passes it has written it. Here the new
    /// heads array is handed out from a freed block full of pointer-shaped
    /// garbage — live entries of other buckets, and self-pointers — and no
    /// walker, router or doctor may follow any of it, mid-split or after.
    #[test]
    fn a_split_onto_a_poisoned_block_follows_none_of_it() {
        const N: u64 = 64;
        let (ht, pool, clock) = table(1 << 23, N);
        let mut expect = BTreeMap::new();
        let put = |expect: &mut BTreeMap<_, _>, i: u32| {
            let (k, v) = (
                format!("p{i}"),
                format!("value-{i}").repeat(1 + i as usize % 3),
            );
            ht.put(&clock, k.as_bytes(), v.as_bytes()).unwrap();
            expect.insert(k.into_bytes(), v.into_bytes());
        };
        // 33 live keys: the next mutation begins a split.
        for i in 0..33 {
            put(&mut expect, i);
        }
        assert!(!ht.splitting());

        // A block the size of the doubled directory between two live ones
        // (no coalescing on free), poisoned, then freed.
        let poison = pool.alloc(&clock, 2 * N * 8).unwrap();
        pool.alloc(&clock, 64).unwrap();
        let live: Vec<(u64, u64)> = (expect.keys())
            .map(|k| {
                let entry = ht.get_ref(&clock, k).unwrap().offset - ENT_KEY - k.len() as u64;
                (fnv1a(k) % (2 * N), entry)
            })
            .collect();
        let garbage: Vec<u8> = (0..2 * N)
            .map(|b| match b % 2 {
                0 => poison + b * 8,
                _ => live.iter().find(|&&(home, _)| home != b).unwrap().1,
            })
            .flat_map(u64::to_le_bytes)
            .collect();
        pool.write_bytes(&clock, poison, &garbage);
        pool.free(&clock, poison).unwrap();

        put(&mut expect, 33);
        let g = ht.geo();
        assert_eq!(g.heads, poison, "the split reused the poisoned block");
        assert_eq!((g.old_buckets, g.cursor), (N, 8), "one chunk helped");
        let poisoned = |b: u64| pool.read_u64(&clock, g.heads + b * 8) != 0;
        assert!(
            (g.cursor..N).all(poisoned),
            "unreachable slots keep the garbage"
        );
        let walk = crate::doctor::walk_hashtable(pool.device(), ht.header_offset());
        assert!(walk.ok(), "{:?}", walk.errors);
        assert_eq!(walk.reachable, 34);

        // Puts and removes drive the split to its retirement.
        let mut i = 34;
        while ht.splitting() {
            put(&mut expect, i);
            if i % 3 == 0 {
                let k = format!("p{}", i / 3).into_bytes();
                assert!(ht.remove(&clock, &k).unwrap());
                expect.remove(&k);
            }
            i += 1;
        }
        assert_eq!(ht.bucket_count(), 2 * N);
        let mut listed = ht.keys(&clock);
        listed.sort();
        assert_eq!(
            listed,
            expect.keys().cloned().collect::<Vec<_>>(),
            "each key once"
        );
        for (k, v) in &expect {
            assert_eq!(&ht.get(&clock, k).unwrap(), v);
        }
        assert_eq!(ht.len(&clock), expect.len() as u64);
        let hist = ht.chain_length_histogram(&clock);
        assert_eq!(hist.iter().sum::<u64>(), 2 * N);
        let entries: u64 = hist.iter().zip(0..).map(|(n, len)| n * len).sum();
        assert_eq!(entries, expect.len() as u64);
        ht.quiesce(&clock).unwrap();
        pool.check_heap().unwrap();
    }

    /// Beginning a split allocates and publishes: the bytes it writes, the
    /// lines it flushes and its fences do not grow with the directory.
    #[test]
    fn beginning_a_split_costs_the_same_at_any_directory_size() {
        let cost = |n: u64| {
            let (ht, pool, clock) = table(1 << 23, n);
            for i in 0..=n / 2 {
                ht.put(&clock, format!("s{i}").as_bytes(), b"v").unwrap();
            }
            let stats = &pool.device().machine().stats;
            let before = stats.snapshot();
            ht.begin_split(&clock).unwrap();
            assert!(ht.splitting(), "{} keys over {n} buckets", n / 2 + 1);
            let d = stats.snapshot().delta_since(&before);
            (d.pmem_bytes_written, d.flush_calls, d.fences)
        };
        assert_eq!(cost(64), cost(4096));
    }

    /// A migration chunk of `c` buckets holding `m` entries is `1 + m`
    /// metadata reads — its source heads in one run, one header an entry —
    /// however many next pointers it rewrites: each pre-image is what the
    /// walk read, and the cursor's is the geometry the helper holds.
    #[test]
    fn a_chunk_costs_one_run_read_and_one_header_read_an_entry() {
        const N: u64 = 64;
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, N).unwrap();
        ht.set_auto_resize(false);
        let keys: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
        for k in &keys {
            ht.put(&clock, k.as_bytes(), b"v").unwrap();
        }
        ht.begin_split(&clock).unwrap();
        let seen = || {
            let snap = registry.snapshot();
            let undo = snap.counter("tx.undo_bytes");
            (snap.hists["pmem.meta_read"].count, undo)
        };
        let mut relinked = std::collections::BTreeSet::new();
        while ht.splitting() {
            let (start, (reads, undo)) = (ht.geo().cursor, seen());
            ht.help_migrate(&clock).unwrap();
            let end = match ht.geo().cursor {
                0 => N,
                cursor => cursor,
            };
            assert_eq!(end - start, 8, "a 64-bucket table moves 8 a chunk");
            let held = |k: &&String| (start..end).contains(&(fnv1a(k.as_bytes()) % N));
            let m = keys.iter().filter(held).count() as u64;
            let (reads, undo) = (seen().0 - reads, seen().1 - undo);
            assert_eq!(reads, 1 + m, "chunk {start}..{end}");
            // The cursor word (three words when the split retires) and the
            // relinks: 20 bytes of undo each.
            let words = if end == N { 3 } else { 1 };
            relinked.insert(undo / 20 - words);
        }
        assert!(
            relinked.len() > 2,
            "chunks that relink differently: {relinked:?}"
        );
        for k in &keys {
            assert!(ht.contains(&clock, k.as_bytes()), "{k} lost");
        }
        pool.check_heap().unwrap();
    }

    /// A head served from a run is only as fresh as the run, so
    /// `rebuild_shadow` fetches each run with the run's stripes held. One
    /// thread keeps replacing the entries at the heads of their chains
    /// (remove, then put: a fresh entry at the head, the old one freed and
    /// its block reused) while another rebuilds the cache; afterwards every
    /// cached ref must be the live entry of its key, not a freed one a stale
    /// head led to.
    #[test]
    fn rebuilding_the_shadow_races_no_head_it_follows() {
        let (ht, _pool, clock) = table(1 << 23, 256);
        let keys: Vec<String> = (0..96).map(|i| format!("head-{i}")).collect();
        for k in &keys {
            ht.put(&clock, k.as_bytes(), k.as_bytes()).unwrap();
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let clock = Clock::new();
                start.wait();
                for round in 0..40 {
                    for k in keys.iter().skip(round % 3).step_by(3) {
                        assert!(ht.remove(&clock, k.as_bytes()).unwrap());
                        ht.put(&clock, k.as_bytes(), k.as_bytes()).unwrap();
                    }
                }
            });
            let clock = Clock::new();
            start.wait();
            for _ in 0..40 {
                // At most one key is between its remove and its put.
                assert!(ht.rebuild_shadow(&clock) + 1 >= keys.len() as u64);
                std::thread::yield_now();
            }
        });
        let cached: Vec<(Vec<u8>, ValueRef)> = (ht.stripes.iter())
            .flat_map(|s| s.lock.lock().clone())
            .collect();
        assert_eq!(cached.len(), keys.len());
        ht.set_shadow_enabled(false); // cold walks from here on
        for (key, vref) in cached {
            assert_eq!(ht.get_ref(&clock, &key), Some(vref), "{key:?}");
            assert_eq!(ht.get(&clock, &key).unwrap(), key);
        }
    }

    /// The worst relink pattern a 256-bucket chunk can meet: every source
    /// chain is 8 long and alternates lo/hi, so 7 of its 8 next pointers
    /// are rewritten — 35 KB of undo against a 15 KB lane. The chunk ends
    /// at the last bucket that fits instead of overflowing (an overflow
    /// would fail this and every later mutation).
    #[test]
    fn one_chunk_of_the_worst_relink_pattern_fits_the_undo_log() {
        const N: u64 = 8192; // the smallest directory whose chunk is 256
        const CHUNK: u64 = 256;
        let (ht, pool, clock) = table(1 << 24, N);
        ht.set_auto_resize(false);
        // Per source bucket of the first chunk: four keys for each half.
        let mut picked: Vec<[Vec<String>; 2]> = vec![Default::default(); CHUNK as usize];
        let mut fillers = Vec::new();
        let mut missing = CHUNK * 8;
        for i in 0.. {
            let k = format!("w{i}");
            let h = fnv1a(k.as_bytes());
            if h % N >= CHUNK {
                if (fillers.len() as u64) < N / 2 {
                    fillers.push(k);
                }
                continue;
            }
            let half = &mut picked[(h % N) as usize][(h % (2 * N) / N) as usize];
            if half.len() < 4 {
                half.push(k);
                missing -= 1;
            }
            if missing == 0 {
                break;
            }
        }
        let mut all = fillers;
        for [lo, hi] in &picked {
            all.extend(lo.iter().zip(hi).flat_map(|(l, h)| [l.clone(), h.clone()]));
        }
        for k in &all {
            ht.put(&clock, k.as_bytes(), b"v").unwrap();
        }
        ht.begin_split(&clock).unwrap();
        assert!(ht.splitting(), "2 x {} keys > {N} buckets", all.len());
        ht.set_auto_resize(true);

        // A mutation that only helps: removing an absent key logs nothing.
        let registry = MetricsRegistry::new();
        pool.device().machine().set_metrics(Arc::clone(&registry));
        assert!(!ht.remove(&clock, b"absent").unwrap());
        let (undo, cursor) = (
            registry.snapshot().counter("tx.undo_bytes"),
            ht.geo().cursor,
        );
        // 7 relinks per bucket + the cursor word, 12 + 8 bytes each, and
        // room kept for the two more words a retiring chunk would log.
        assert_eq!(undo, (cursor * 7 + 1) * 20);
        let capacity = LANE_SIZE - LANE_HEADER_SIZE - LANE_INTENT_BYTES;
        assert!(undo + 2 * 20 <= capacity && undo + 7 * 20 > capacity - 3 * 20);
        assert!(cursor < CHUNK, "the whole chunk would have taken 35 KB");
        // The next chunk resumes at that bucket: one run read from there,
        // one header read an entry of every bucket it walked (the one that
        // no longer fit included), and it is cut short the same way.
        let reads = || registry.snapshot().hists["pmem.meta_read"].count;
        let before = reads();
        ht.help_migrate(&clock).unwrap();
        assert_eq!(ht.geo().cursor, 2 * cursor);
        assert_eq!(reads() - before, 1 + 8 * (cursor + 1));

        while ht.geo().cursor < CHUNK {
            ht.remove(&clock, b"absent").unwrap();
        }
        for k in &all {
            assert!(ht.contains(&clock, k.as_bytes()), "{k} lost");
        }
        assert_eq!(ht.keys(&clock).len(), all.len());
    }

    #[test]
    fn crash_at_count_fold_keeps_dirty_recount_path() {
        // The fold's two words are written and logged, not committed: the
        // rollback restores the dirty flag and the open recounts.
        let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
            let ht = PersistentHashtable::create(clock, pool, 64).unwrap();
            ht.set_auto_resize(false);
            for i in 0..5u32 {
                ht.put(clock, format!("f{i}").as_bytes(), b"v").unwrap();
            }
            ht.quiesce(clock).unwrap();
            (ht.header_offset(), passed())
        });
        assert_eq!(ht.len(&clock), 5);
        assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_DIRTY), 0);
    }

    #[test]
    fn concurrent_inserts_from_many_threads() {
        let (ht, _pool, clock) = table(1 << 23, 64);
        let ht = Arc::new(ht);
        let clock = Arc::new(clock);
        let mut handles = vec![];
        for t in 0..8 {
            let ht = Arc::clone(&ht);
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let key = format!("t{t}-k{i}");
                    ht.put(&clock, key.as_bytes(), key.as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ht.len(&clock), 200);
        for t in 0..8 {
            for i in 0..25 {
                let key = format!("t{t}-k{i}");
                assert_eq!(ht.get(&clock, key.as_bytes()).unwrap(), key.as_bytes());
            }
        }
    }

    #[test]
    fn a_racing_writer_costs_a_reader_no_virtual_time() {
        const GETS: u64 = 64;
        let (ht, _pool, clock) = table(1 << 22, 1);
        ht.set_auto_resize(false); // one chain: the reader walks past `hot`
        ht.set_shadow_enabled(false); // every get is a cold walk
        ht.put(&clock, b"cold", b"value").unwrap();
        ht.put(&clock, b"hot", b"v0").unwrap();
        let alone = Clock::new();
        assert_eq!(ht.get(&alone, b"cold").unwrap(), b"value");

        let stop = AtomicBool::new(false);
        let writing = std::sync::Barrier::new(2);
        let reader = Clock::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let clock = Clock::new();
                ht.put(&clock, b"hot", b"v1").unwrap();
                writing.wait();
                while !stop.load(Ordering::Relaxed) {
                    ht.put(&clock, b"hot", b"v2").unwrap();
                }
            });
            writing.wait();
            for _ in 0..GETS {
                // On one core, hand the writer the CPU so the next get
                // finds it preempted mid-put.
                std::thread::yield_now();
                assert_eq!(ht.get(&reader, b"cold").unwrap(), b"value");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // A get behind a put waits on the host; its clock is charged the
        // walk it made and nothing for the wait.
        assert_eq!(reader.now(), alone.now() * GETS);
    }

    #[test]
    fn concurrent_readers_and_writers_always_see_consistent_values() {
        // Stripe-lock stress: writers repeatedly overwrite the same keys
        // while readers get them — with resize enabled, so splits and
        // migrations race the readers too. Every read must return either a
        // complete old or complete new value — never torn bytes, never a
        // panic from chasing a recycled pointer.
        let (ht, _pool, clock) = table(1 << 24, 4); // few buckets: long chains
        let ht = Arc::new(ht);
        let clock = Arc::new(clock);
        let stop = Arc::new(AtomicBool::new(false));
        let keys: Vec<String> = (0..16).map(|i| format!("hot-{i}")).collect();
        for k in &keys {
            ht.put(&clock, k.as_bytes(), format!("{k}-v0").as_bytes())
                .unwrap();
        }
        let mut handles = vec![];
        for w in 0..2 {
            let ht = Arc::clone(&ht);
            let clock = Arc::clone(&clock);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 1..30u32 {
                    for k in keys.iter().skip(w).step_by(2) {
                        ht.put(&clock, k.as_bytes(), format!("{k}-v{round}").as_bytes())
                            .unwrap();
                    }
                }
            }));
        }
        for _ in 0..4 {
            let ht = Arc::clone(&ht);
            let clock = Arc::clone(&clock);
            let keys = keys.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in &keys {
                        let got = ht.get(&clock, k.as_bytes()).expect("hot key must exist");
                        let s = String::from_utf8(got).expect("value must be utf-8");
                        assert!(
                            s.starts_with(&format!("{k}-v")),
                            "torn read: key {k} returned {s:?}"
                        );
                    }
                }
            }));
        }
        for h in handles.drain(..2) {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn get_ref_many_matches_per_key_gets() {
        let (ht, _pool, clock) = table(1 << 22, 2); // heavy bucket sharing
        for i in 0..10u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let names: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
        let keys: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
        ht.set_shadow_enabled(false); // force the chain walks
        ht.set_shadow_enabled(true);
        let batched = ht.get_ref_many(&clock, &keys);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(batched[i], ht.get_ref(&clock, k), "key {i} diverged");
        }
        assert!(batched[10].is_none() && batched[11].is_none());
    }

    #[test]
    fn shadow_index_hits_skip_pool_reads_and_invalidate_on_mutation() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, 16).unwrap();
        ht.put(&clock, b"cached", b"value-1").unwrap();
        // put's write-through makes the very first get a shadow hit.
        let before = registry.snapshot();
        assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-1");
        let after = registry.snapshot();
        assert_eq!(
            after.counter("shadow.hits") - before.counter("shadow.hits"),
            1
        );
        assert_eq!(
            after.counter("get.lookup.pool_reads"),
            before.counter("get.lookup.pool_reads"),
            "a shadow hit must not charge chain-walk reads"
        );
        // Overwrite invalidates, then re-caches the new location.
        ht.put(&clock, b"cached", b"value-2").unwrap();
        assert!(registry.snapshot().counter("shadow.invalidations") >= 1);
        assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-2");
        // Remove invalidates; the next lookup walks and misses.
        ht.remove(&clock, b"cached").unwrap();
        assert!(ht.get(&clock, b"cached").is_none());
        let s = registry.snapshot();
        assert!(s.counter("shadow.invalidations") >= 2);
        assert!(s.counter("shadow.misses") >= 1);
    }

    #[test]
    fn single_pass_walk_charges_at_most_three_reads_per_key() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, 4096).unwrap();
        for i in 0..32u32 {
            ht.put(&clock, format!("var{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        ht.set_shadow_enabled(false); // cold walks only
        ht.set_shadow_enabled(true);
        let before = registry.snapshot().counter("get.lookup.pool_reads");
        for i in 0..32u32 {
            assert!(ht.get_ref(&clock, format!("var{i}").as_bytes()).is_some());
        }
        let reads = registry.snapshot().counter("get.lookup.pool_reads") - before;
        // Single-entry buckets: head + header + key = 3 charged reads per
        // key (the pre-batch walk paid 6: head, hash, klen, key, klen, vlen).
        assert!(
            reads <= 3 * 32,
            "expected ≤ 3 reads/key from the single-pass walk, got {reads} for 32 keys"
        );
    }

    #[test]
    fn chain_len_histogram_records_probe_depths() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, 1).unwrap();
        ht.set_auto_resize(false);
        ht.set_shadow_enabled(false);
        for i in 0..4u32 {
            ht.put(&clock, format!("c{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..4u32 {
            assert!(ht.get_ref(&clock, format!("c{i}").as_bytes()).is_some());
        }
        let snap = registry.snapshot();
        let total = snap.hists.get("ht.chain_len").map(|h| h.count).unwrap_or(0);
        assert!(total >= 8, "writer finds + reader walks must record depths");
    }

    #[test]
    fn rebuild_shadow_warms_the_cache_from_the_persistent_table() {
        let (ht, pool, clock) = table(1 << 22, 16);
        for i in 0..8u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let (ht, _pool) = reopen(ht, pool, &clock);
        assert_eq!(ht.shadow_len(), 0, "reopened tables start cold");
        assert_eq!(ht.rebuild_shadow(&clock), 8);
        assert_eq!(ht.shadow_len(), 8);
        for i in 0..8u32 {
            assert_eq!(
                ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
    }

    #[test]
    fn shadow_can_be_disabled() {
        let (ht, _pool, clock) = table(1 << 22, 16);
        ht.put(&clock, b"k", b"v").unwrap();
        assert!(ht.shadow_len() > 0);
        ht.set_shadow_enabled(false);
        assert_eq!(ht.shadow_len(), 0);
        assert_eq!(ht.get(&clock, b"k").unwrap(), b"v"); // chain walk still works
        assert_eq!(ht.shadow_len(), 0, "disabled cache must not repopulate");
        assert_eq!(ht.rebuild_shadow(&clock), 0);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values keep on-pool layouts portable across builds.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
