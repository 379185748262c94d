//! Incremental resize and the entry count.
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
//! The entry count, which only the split trigger reads, is DRAM state and
//! never persisted. Inserts and removes bump a per-stripe `live` (no
//! cross-stripe RMW on the hot path) when their bucket is *counted*: below
//! the handle's `counted` cursor, which a created table starts past every
//! bucket and an opened one at 0. An opened table is counted by its first
//! mutation once any split in flight at the mount has retired: it counts —
//! and mirrors — every chain, a chunk at a time under the chunk's stripes,
//! before it checks the trigger, so the trigger is exact however short the
//! session. A mutation checks the cursor under its stripe, so each entry is
//! counted once: by the chunk that walks its chain, or by its own bump.

use super::mirror::{search, Chain, Known, Mirror};
use super::route::{mirror_in, stripe_of, Route};
use super::*;
use crate::error::PmdkError;
use pmem_sim::flight::EventCode;
use std::ops::Range;

/// A split begins once `SPLIT_FACTOR × live_estimate > bucket_count`, so a
/// fully-migrated table sits at load factor ≤ 1/SPLIT_FACTOR. At 0.5 the
/// Poisson tail keeps the max chain ≤ 8 w.h.p. even at 10⁶ keys (the
/// creation-storm CI bound).
const SPLIT_FACTOR: u64 = 2;

/// The end of the chunk of buckets `start..` a helper takes out of `n`: 32
/// chunks a pass (clamped). A split begun at load 1/2 thus retires by load
/// 3/4, before the next can be due.
fn chunk_end(n: u64, start: u64) -> u64 {
    start + (n / 32).clamp(8, 256).min(n - start)
}

impl PersistentHashtable {
    /// The split trigger's count, charge-free (volatile words only — the
    /// insert hot path must not pay a pool read here): the entries of the
    /// counted buckets. A migration moves entries between stripes and not
    /// their counts, so only the sum is exact.
    pub(super) fn live_estimate(&self) -> u64 {
        let live: i64 = (self.stripes.iter())
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum();
        live.max(0) as u64
    }

    /// Add `n` to the count of the stripe holding bucket `r`, if the bucket
    /// is counted. The caller holds the stripe.
    pub(super) fn count(&self, r: Route, n: i64) {
        if r.bucket < self.counted.load(Ordering::Acquire) {
            self.stripes[r.sid].live.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Called at the top of every mutation (`put_many`, `remove`) and by
    /// nothing else — lookups never migrate: advance an in-flight split by
    /// one chunk, else count what is left of a table not yet counted whole
    /// and begin a split if the table is over threshold. An error
    /// beginning a split — e.g. the pool is too full to double the
    /// directory — defers it rather than failing the caller's operation.
    pub(super) fn maybe_resize(&self, clock: &Clock) -> Result<()> {
        #[cfg(test)]
        if !self.auto_resize.load(Ordering::Relaxed) {
            return Ok(());
        }
        let g = self.geo();
        if g.old_buckets != 0 {
            return self.help_migrate(clock);
        }
        if self.counted.load(Ordering::Acquire) < g.buckets {
            self.help_count(clock);
        }
        let due = self.live_estimate().saturating_mul(SPLIT_FACTOR) > g.buckets;
        if due && self.counted.load(Ordering::Acquire) >= g.buckets {
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
    pub(super) fn begin_split(&self, clock: &Clock) -> Result<()> {
        // The section opens before the resize lock, as in `help_migrate`.
        let _atomic = pmem_sim::atomic_section();
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
    /// (`hash % new_buckets == b`) and hi (`== b + old_buckets`) by mirrored
    /// hashes, relink both in place, stream the destination heads into the
    /// new directory and advance the persisted cursor — one transaction
    /// under the affected stripes' locks. Only what a rollback can reach is
    /// snapshotted: the `ENT_NEXT` relinks (still chained off the old head)
    /// and the cursor / retire words. Destination heads are unreachable
    /// until the cursor passes their bucket ([`Geo::head_slots`]), so they
    /// go in undo-free and always, 0 included: a re-run after a crash or
    /// abort overwrites whatever the failed run left. The old head is never
    /// routed to again and stays; the final chunk frees the old array.
    pub(super) fn help_migrate(&self, clock: &Clock) -> Result<()> {
        // The section opens before the resize lock is taken: a helper that
        // yielded holding it would have the ranks run meanwhile skip their
        // chunks, and the split lag the puts it is paid by.
        let _atomic = pmem_sim::atomic_section();
        let Some(_resize) = self.resize_lock.try_lock() else {
            return Ok(()); // another helper has this split chunk
        };
        let g = self.geo();
        if g.old_buckets == 0 {
            return Ok(());
        }
        let (n, start) = (g.old_buckets, g.cursor);
        // The undo log holds relinks only, 20 bytes each against the lane's
        // ~15 KB: 764 a chunk, where 256 buckets at load 1/2 hold ~192
        // entries and relink fewer. A chunk that would relink more ends at
        // the bucket that does not fit.
        let last = chunk_end(n, start);
        let machine = self.pool.device().machine();
        let _phase = machine.phase(clock, "pmdk", "ht.resize");
        let _span = machine
            .span(clock, "pmdk", "ht.migrate")
            .arg("buckets", last - start);

        // Source bucket b lives on stripe b%64; its lo half stays there,
        // its hi half moves to (b+n)%64. Lock both for the whole chunk.
        let sids = (start..last).flat_map(|b| [stripe_of(b), stripe_of(b + n)]);
        let mut held = self.lock_stripes(sids, true);

        let mut entries_moved = 0u64;
        let src = self.pool.charged(clock);
        let end = self.pool.tx(clock, |tx| {
            // Destination heads: slots start..end (lo), start+n.. (hi).
            let mut runs = [Vec::new(), Vec::new()];
            let (mut end, mut words, mut run) = (start, Vec::new(), None);
            for b in start..last {
                let mirror = mirror_in(&mut held, stripe_of(b));
                let c = self.whole(clock, &src, mirror, (g.old_heads, start..last), b, &mut run)?;
                // Each partition relinks in original order with a nul
                // tail; next pointers already correct are left untouched.
                // The mirror holds each pre-image.
                let (mut relinks, mut heads) = (Vec::new(), [0u64; 2]);
                for k in c.entries.iter().rev() {
                    let head = &mut heads[(k.e.hash % g.buckets != b) as usize];
                    if k.e.next != *head {
                        relinks.push((k.e.at + ENT_NEXT, k.e.next, *head));
                    }
                    *head = k.e.at;
                }
                let moved = c.entries.len() as u64;
                mirror.put(b, Some(c));
                // Room for these, the three retire words and the old
                // array's state word (smaller than a word's), or stop here.
                if b > start && !tx.undo_fits((words.len() + relinks.len()) as u64 + 4) {
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
            if end == n {
                tx.free(g.old_heads)?;
            }
            tx.set_words(&words)?;
            Ok(end)
        });
        // A committed chunk moves the hi half of each source bucket to its
        // destination; the lo half stays, under the same bucket number.
        for b in start..*end.as_ref().unwrap_or(&start) {
            let hi = |k: &Known| k.e.hash % g.buckets != b;
            let moved = mirror_in(&mut held, stripe_of(b)).split(b, g.heads + b * 8, hi);
            let (slot, mut dest) = (g.heads + (b + n) * 8, Chain::default());
            dest.relink(slot, &[], moved);
            mirror_in(&mut held, stripe_of(b + n)).put(b + n, Some(dest));
        }
        let end = end?;
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
        machine.metric_counter_add("ht.buckets_migrated", end - start);
        if entries_moved > 0 {
            machine.metric_counter_add("ht.entries_migrated", entries_moved);
        }
        Ok(())
    }

    /// Count what is left of an opened table, chunked as `help_migrate`
    /// is, each chunk under its stripes and the resize lock, advancing the
    /// `counted` cursor past it (`u64::MAX` at the last). All of it at once:
    /// a chunk a mutation leaves a session of under 32 mutations uncounted,
    /// and its table unsplit. If another helper holds the lock, it counts
    /// the rest. A counted chain is mirrored too; a torn one counts as
    /// empty and stays out of the mirror: nothing can insert into it.
    fn help_count(&self, clock: &Clock) {
        loop {
            let _atomic = pmem_sim::atomic_section();
            let Some(_resize) = self.resize_lock.try_lock() else {
                return; // another helper is counting
            };
            let (g, start) = (self.geo(), self.counted.load(Ordering::Acquire));
            if g.old_buckets != 0 || start >= g.buckets {
                return;
            }
            let last = chunk_end(g.buckets, start);
            let machine = self.pool.device().machine();
            let _phase = machine.phase(clock, "pmdk", "ht.resize");
            let _span = (machine.span(clock, "pmdk", "ht.count")).arg("buckets", last - start);
            let mut held = self.lock_stripes((start..last).map(stripe_of), true);
            let (src, mut run, mut found) = (self.pool.charged(clock), None, 0);
            for b in start..last {
                let mirror = mirror_in(&mut held, stripe_of(b));
                let c = self.whole(clock, &src, mirror, (g.heads, start..last), b, &mut run);
                found += c.as_ref().map_or(0, |c| c.entries.len() as i64);
                mirror.put(b, c.ok());
            }
            let live = &self.stripes[stripe_of(start)].live;
            live.fetch_add(found, Ordering::Relaxed);
            let counted = if last == g.buckets { u64::MAX } else { last };
            self.counted.store(counted, Ordering::Release);
        }
    }

    /// Bucket `b` whole, taken out of `mirror`: a probe when the mirror
    /// holds it complete (none when empty), else a walk from what the mirror
    /// knows, or from its head; a bad hop refuses. The heads of the chunk
    /// `(array, buckets)` are one run, pinned by the stripes the caller
    /// holds: fetched into `run` once, at the first bucket the mirror lacks.
    /// The caller puts the chain back.
    fn whole(
        &self,
        clock: &Clock,
        src: &impl Bytes,
        mirror: &mut Mirror,
        (array, buckets): (u64, Range<u64>),
        b: u64,
        run: &mut Option<Vec<u64>>,
    ) -> Result<Chain> {
        match mirror.take(b) {
            Some(c) if c.tail == 0 => {
                if c.head() != 0 {
                    self.charge_probe(clock, None);
                }
                Ok(c)
            }
            known => {
                let mut c = known.unwrap_or_else(|| {
                    let run = run.get_or_insert_with(|| {
                        let heads = read_heads(src, array, buckets.clone());
                        heads.map(|(_, _, head)| head).collect()
                    });
                    Chain::at(run[(b - buckets.start) as usize])
                });
                search(src, array + b * 8, &mut c, &[], true).2 .1?;
                Ok(c)
            }
        }
    }
}
