//! Incremental resize and the entry count.
//!
//! The directory is **online-resizable**: once the live-entry count
//! crosses `bucket_count / SPLIT_FACTOR`, a split doubles it, one *step* a
//! mutation (lookups never migrate). Every step is one pool transaction
//! that migrates one chunk of old buckets — relinks their lo/hi partitions
//! and writes the destination heads — and publishes the geometry it leaves.
//! The first step begins the split: it carves the doubled heads array,
//! unzeroed, and the table's array becomes the old one in place; the step
//! that reaches the old table's end retires it. Routing is derived from the
//! persistent triple `(old_buckets, cursor, buckets)`: a key whose old
//! bucket is at-or-past the cursor still lives in the old table; everything
//! else lives in the new one. A new-directory slot is thus *reachable* only
//! once the cursor has passed its source bucket, so a step logs only what a
//! rollback can reach, by value: the relinks and the header words it
//! changes. A crash rolls a step back to a consistent geometry — no split,
//! if it was the first — and its re-run overwrites what the failed one, or
//! the allocator, left in unreachable slots: resize never stops the world
//! and costs each mutation only the chunk it helps with.
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
    /// nothing else: count what is left of a table not yet counted whole,
    /// then take a split step if a split is in flight or due.
    pub(super) fn maybe_resize(&self, clock: &Clock) -> Result<()> {
        #[cfg(test)]
        if !self.auto_resize.load(Ordering::Relaxed) {
            return Ok(());
        }
        let g = self.geo();
        if g.old_buckets == 0 && self.counted.load(Ordering::Acquire) < g.buckets {
            self.help_count(clock);
        }
        let due = self.live_estimate().saturating_mul(SPLIT_FACTOR) > g.buckets;
        if g.old_buckets != 0 || due && self.counted.load(Ordering::Acquire) >= g.buckets {
            return self.help_migrate(clock);
        }
        Ok(())
    }

    /// One split step, one transaction under the chunk's stripes: from the
    /// geometry `g` to the next, `g'`. With no split in flight and one due,
    /// it begins one over `g`'s array. Each chain of the chunk splits into
    /// lo (`hash % 2n == b`) and hi (`== b + n`) by mirrored hashes,
    /// relinked in place. The step logs the relinks and each header word
    /// `g'` changes by value, then carves a begun split's array, whose
    /// count store counts them all, then stores. Destination heads are
    /// unreachable until the cursor passes their bucket
    /// ([`Geo::head_slots`]), so they go in undo-free and always, 0
    /// included: a re-run overwrites what a failed run left. The last step
    /// frees the old array. A first step that fails — e.g. the pool is too
    /// full to double — defers the split instead of failing the caller.
    pub(super) fn help_migrate(&self, clock: &Clock) -> Result<()> {
        // The section opens before the resize lock is taken: a helper that
        // yielded holding it would have the ranks run meanwhile skip their
        // chunks, and the split lag the puts it is paid by.
        let _atomic = pmem_sim::atomic_section();
        let Some(_resize) = self.resize_lock.try_lock() else {
            return Ok(()); // another helper has this split's step
        };
        let g = self.geo();
        let begin = g.old_buckets == 0;
        if begin && self.live_estimate().saturating_mul(SPLIT_FACTOR) <= g.buckets {
            return Ok(());
        }
        // The old table, `n` buckets at `old_heads`, and the cursor.
        let (n, old_heads, start) = match begin {
            true => (g.buckets, g.heads, 0),
            false => (g.old_buckets, g.old_heads, g.cursor),
        };
        // The undo log holds relinks and header words, 16 bytes each
        // against the lane's 16 KB: 1 017 relinks a chunk, where 256
        // buckets at load 1/2 hold ~192 entries and relink fewer. A chunk
        // that would relink more ends at the bucket that does not fit.
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

        // Each header word that differs from `g`'s, `(offset, was, now)`:
        // `g` mirrors the header (we hold `resize_lock`), so nothing is read.
        let changed = |to: Geo| {
            let words = [
                (HDR_BUCKETS, g.buckets, to.buckets),
                (HDR_HEADS, g.heads, to.heads),
                (HDR_OLD_BUCKETS, g.old_buckets, to.old_buckets),
                (HDR_OLD_HEADS, g.old_heads, to.old_heads),
                (HDR_CURSOR, g.cursor, to.cursor),
            ];
            let differ = words.into_iter().filter(|&(_, was, now)| was != now);
            differ.map(|(off, was, now)| (self.header + off, was, now))
        };
        let mut entries_moved = 0u64;
        let src = self.pool.charged(clock);
        let step = self.pool.tx(clock, |tx| {
            // Destination heads: slots start..end (lo), start+n.. (hi).
            let mut runs = [Vec::new(), Vec::new()];
            let (mut end, mut relinks, mut run) = (start, Vec::new(), None);
            for b in start..last {
                let mirror = mirror_in(&mut held, stripe_of(b));
                let c = self.whole(clock, &src, mirror, (old_heads, start..last), b, &mut run)?;
                // Each partition relinks in original order with a nul
                // tail; next pointers already correct are left untouched.
                // The mirror holds each pre-image.
                let (mut these, mut heads) = (Vec::new(), [0u64; 2]);
                for k in c.entries.iter().rev() {
                    let head = &mut heads[(k.e.hash % (2 * n) != b) as usize];
                    if k.e.next != *head {
                        these.push((k.e.at + ENT_NEXT, k.e.next, *head));
                    }
                    *head = k.e.at;
                }
                let moved = c.entries.len() as u64;
                mirror.put(b, Some(c));
                // Room for these, the five header words and the carve's
                // intent or the old array's state word, or stop here.
                if b > start && !tx.undo_fits((relinks.len() + these.len()) as u64 + 6) {
                    break;
                }
                relinks.append(&mut these);
                for (run, head) in runs.iter_mut().zip(heads) {
                    run.extend_from_slice(&head.to_le_bytes());
                }
                entries_moved += moved;
                end = b + 1;
            }
            // `g'`. The step that reaches the old table's end retires the
            // split: its words are 0. A begun split's array is not carved
            // yet: until it is, 0 — no offset `g` holds — stands in for it.
            let on = (end < n) as u64;
            let mut to = Geo {
                buckets: 2 * n,
                heads: if begin { 0 } else { g.heads },
                old_buckets: n * on,
                old_heads: old_heads * on,
                cursor: end * on,
            };
            let pres = relinks.iter().copied().chain(changed(to));
            tx.log(pres.map(|(off, was, _)| (off, was.to_le_bytes())))?;
            if end == n {
                tx.free(old_heads)?;
            }
            if begin {
                to.heads = tx.alloc(2 * n * 8)?;
            }
            relinks.extend(changed(to));
            tx.store_words(&relinks);
            tx.write_new(to.heads + start * 8, &runs[0]);
            tx.write_new(to.heads + (start + n) * 8, &runs[1]);
            Ok((end, to))
        });
        let (end, to) = match step {
            Err(_) if begin => {
                machine.metric_counter_add("ht.split.deferred", 1);
                return Ok(());
            }
            step => step?,
        };
        // A committed step moves the hi half of each source bucket to its
        // destination; the lo half stays, under the same bucket number.
        for b in start..end {
            let hi = |k: &Known| k.e.hash % to.buckets != b;
            let moved = mirror_in(&mut held, stripe_of(b)).split(b, to.heads + b * 8, hi);
            let (slot, mut dest) = (to.heads + (b + n) * 8, Chain::default());
            dest.relink(slot, &[], moved);
            mirror_in(&mut held, stripe_of(b + n)).put(b + n, Some(dest));
        }
        self.geo_store(to);
        let flight = self.pool.flight();
        if begin {
            machine.metric_counter_add("ht.splits.begun", 1);
            flight.record(clock, EventCode::SplitBegin, n, to.buckets);
        }
        if end == n {
            machine.metric_counter_add("ht.splits", 1);
            flight.record(clock, EventCode::SplitRetire, n, 0);
        } else {
            flight.record(clock, EventCode::SplitChunk, end, entries_moved);
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
