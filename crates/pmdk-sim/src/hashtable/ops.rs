//! Mutation and lookup: group puts, removes and gets, each bucket looked
//! up by one `lookup`.
//!
//! All structural mutations run in a pool transaction (pointer and state
//! word snapshots + alloc intents), so a crash at any point leaves a table.
//! Values may be large; they are written into freshly-allocated space, with
//! no undo image, before the transaction links them. Bucket access is
//! striped with volatile locks — rebuilt trivially on open, like PMDK's
//! runtime lock state.

use super::mirror::{search, Chain, Key, Known, Mirror};
use super::route::{mirror_in, Held, Route};
use super::*;
use pmem_sim::SimTime;
use std::collections::BTreeMap;

/// What [`PersistentHashtable::lookup`] found in one bucket: each key's
/// index in the chain and its entry, whose `slot` is the pointer a splice
/// rewrites; the chain's head; the walk's pool reads, `None` when the mirror
/// answered; where the walk ended (a mutation refuses a bad hop, a read
/// degrades).
type Found = (Vec<Option<(usize, Entry)>>, u64, Option<u64>, Result<()>);

impl PersistentHashtable {
    /// Look `keys`, `(key, hash)` each, up in the bucket `r` routes to,
    /// whose stripe's `mirror` the caller holds inside its atomic section:
    /// from DRAM when the mirror answers every key — one probe, in `phase`
    /// if one is named — else by a walk resumed at the prefix's tail, whose
    /// reads are all it pays. Records `ht.chain_len`, then puts the walked
    /// chain back unless it ended at a bad hop.
    fn lookup(
        &self,
        clock: &Clock,
        mirror: &mut Mirror,
        r: Route,
        keys: &[(&[u8], u64)],
        phase: Option<&'static str>,
    ) -> Found {
        let machine = self.pool.device().machine();
        let settle = |c: &Chain, found: Vec<Option<usize>>, reads, end| {
            machine.metric_hist_record("ht.chain_len", SimTime::from_nanos(c.depth(&found)));
            let at = (found.into_iter()).map(|i| i.map(|i| (i, c.entries[i].e)));
            (at.collect(), c.head(), reads, end)
        };
        if let Some(c) = mirror.get(r.bucket) {
            if let Some(found) = keys.iter().map(|&(k, hash)| c.answer(k, hash)).collect() {
                self.charge_probe(clock, phase);
                return settle(c, found, None, Ok(()));
            }
        }
        let _span = (machine.span(clock, "pmdk", "ht.probe")).arg("keys", keys.len() as u64);
        let (known, src) = (mirror.take(r.bucket), self.pool.charged(clock));
        let cold = known.is_none() as u64;
        let mut c = known.unwrap_or_else(|| Chain::at(src.u64_at(r.head_slot)));
        let (found, reads, (_, end)) = search(&src, r.head_slot, &mut c, keys, false);
        let torn = end.is_err();
        let found = settle(&c, found, Some(cold + reads), end);
        mirror.put(r.bucket, Some(c).filter(|_| !torn));
        found
    }

    /// Insert (or replace) every `(key, val_len, header_len)` as **one pool
    /// transaction**, values first. `header_len` is stored in the entry for
    /// readers ([`ValueRef::header_len`]); the table only holds it to
    /// `val_len`. The group takes its stripes and looks
    /// its chains up (the mirror), so each entry's `next` is known before
    /// its block is carved; one allocator pass then carves every entry, and
    /// `fill(i, vref, head)` stores key `i`'s value into its window behind
    /// `head` and flushes both — the caller serializes *directly into PMEM*
    /// (zero staging), into a block nothing reaches yet; a value ready in
    /// memory is stored by the table's own `storing` fill (`put`). `head`
    /// holds what lies right before the value: its block's header (empty
    /// for a carve's first block, whose header is the carve's commit point
    /// and follows) and its entry's with the key. The fills run with the
    /// stripes and the heap lock held. One undo append logs every head and
    /// unlink word and each replaced entry's state word before the carve,
    /// whose count store is the group's only one; the heads, and FREE over
    /// those state words, are written once it commits. One fence before
    /// the commit point makes them, the entries and the values durable.
    ///
    /// Crash contract: a crash anywhere before the lane commit point, or an
    /// error from `fill`, rolls the *entire group* back (no key from the
    /// batch visible, every replaced entry intact); a key is never linked
    /// before its value is durable. Duplicate keys within one batch are
    /// rejected: two entries cannot both be linked under one key. So is a
    /// length its entry field cannot hold, before anything is stored.
    pub fn put_many(
        &self,
        clock: &Clock,
        reqs: &[(&[u8], u64, u64)],
        mut fill: impl FnMut(usize, ValueRef, [&[u8]; 2]) -> Result<()>,
    ) -> Result<Vec<ValueRef>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        // The entry header stores the key and header lengths in 16 bits,
        // the value length in 32.
        for &(key, len, header_len) in reqs {
            if key.len() > u16::MAX as usize {
                return Err(PmdkError::KeyTooLong {
                    len: key.len() as u64,
                });
            }
            if len > u32::MAX as u64 {
                return Err(PmdkError::ValueTooLarge { len });
            }
            if header_len > len.min(u16::MAX as u64) {
                return Err(PmdkError::HeaderTooLong { header_len, len });
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(reqs.len());
        if let Some((key, ..)) = reqs.iter().find(|(key, ..)| !seen.insert(*key)) {
            let key = String::from_utf8_lossy(key);
            return Err(PmdkError::TxFailure(format!(
                "duplicate key in batch: {key:?}"
            )));
        }
        let hashes: Vec<u64> = reqs.iter().map(|&(k, ..)| fnv1a(k)).collect();
        let sizes: Vec<u64> = (reqs.iter())
            .map(|(k, len, _)| ENT_KEY + k.len() as u64 + len)
            .collect();
        let value = |i: usize, at: &[u64]| ValueRef {
            offset: at[i] + ENT_KEY + reqs[i].0.len() as u64,
            len: reqs[i].1,
            header_len: reqs[i].2,
        };
        let lens = |i: usize| (reqs[i].2 as u16, reqs[i].1 as u32);
        // Entry `i` at `at[i]`; its `next` is the new entry before it in its
        // chain, else what is left of the chain.
        let entry = |links: &[(u64, Option<usize>)], i: usize, at: &[u64]| {
            let next = links[i].1.map_or(links[i].0, |j| at[j]);
            encode_entry(hashes[i], reqs[i].0, lens(i), next)
        };
        self.maybe_resize(clock)?;

        let _atomic = pmem_sim::atomic_section();
        let (mut locked, mut spliced) = (None, Vec::new());
        let committed = self.pool.tx(clock, |tx| {
            // Route every key and lock the involved stripes in ascending
            // index order, so concurrent batches and single puts cannot
            // deadlock; the heap lock is only ever taken after them.
            let (g, held) =
                locked.insert(self.lock_routes(self.geo(), hashes.iter().copied(), true));
            // Group per head slot: an ordered map keeps the splice order —
            // and thus every persisted byte — deterministic.
            let mut by_slot: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, r) in hashes.iter().map(|&h| g.route(h)).enumerate() {
                by_slot.entry(r.head_slot).or_default().push(i);
            }
            let (mut words, mut frees) = (Vec::new(), Vec::new());
            let (mut links, mut heads) = (vec![(0, None); reqs.len()], Vec::new());
            for (&head_slot, idxs) in &by_slot {
                let r = g.route(hashes[idxs[0]]);
                let keys: Vec<_> = idxs.iter().map(|&i| (reqs[i].0, hashes[i])).collect();
                let (at, head, _, end) = self.lookup(clock, mirror_in(held, r.sid), r, &keys, None);
                end?;
                // The new entries chain onto the old chain without the ones
                // replaced: a run of those is skipped by the pointer that
                // named its first — the head's folded into the head's own
                // write. The mirror holds every pre-image.
                let mut gone: Vec<(usize, Entry)> = at.into_iter().flatten().collect();
                gone.sort_by_key(|&(i, _)| i);
                let mut rest = head;
                for run in gone.chunk_by(|a, b| a.0 + 1 == b.0) {
                    let (first, last) = (run[0].1, run[run.len() - 1].1);
                    frees.extend(run.iter().map(|(_, e)| e.at));
                    if first.slot == head_slot {
                        rest = last.next;
                    } else {
                        words.push((first.slot, first.at, last.next));
                    }
                }
                for (k, &i) in idxs.iter().enumerate() {
                    links[i] = (rest, k.checked_sub(1).map(|k| idxs[k]));
                }
                heads.push((words.len(), idxs[idxs.len() - 1]));
                words.push((head_slot, head, 0));
                let gone: Vec<usize> = gone.into_iter().map(|(i, _)| i).collect();
                spliced.push((r, gone, idxs.clone()));
            }
            // The frees' state words and the words, one append before the
            // carve: its count store counts them.
            tx.free_many(&frees)?;
            tx.log(words.iter().map(|&(off, was, _)| (off, was.to_le_bytes())))?;
            // Each entry stored with its record, undo-free: nothing reaches it yet.
            let entries = tx.alloc_many(&sizes, |i, at, header| {
                fill(i, value(i, at), [header, &entry(&links, i, at)])
            })?;
            for (w, i) in heads {
                words[w].2 = entries[i];
            }
            tx.store_words(&words);
            Ok(entries)
        });
        let entries = committed?;
        // The mirror and the count take the group's splice only once it
        // committed, with its stripes still held.
        if let Some((_, mut held)) = locked {
            for (r, gone, idxs) in spliced {
                self.count(r, (idxs.len() - gone.len()) as i64);
                let fresh = idxs.iter().rev().map(|&i| {
                    let (mut e, key) = (Entry::default(), Some(Key::of(reqs[i].0)));
                    (e.at, e.hash) = (entries[i], hashes[i]);
                    (e.klen, (e.hlen, e.vlen)) = (reqs[i].0.len() as u16, lens(i));
                    Known { e, key }
                });
                mirror_in(&mut held, r.sid).splice(r.bucket, r.head_slot, &gone, fresh.collect());
            }
        }
        Ok((0..reqs.len()).map(|i| value(i, &entries)).collect())
    }

    /// The fill of a value ready in memory, `bytes` for every key: its
    /// head and value stored as one metadata write, then one flush.
    pub(crate) fn storing<'a>(
        &'a self,
        clock: &'a Clock,
        bytes: &'a [u8],
    ) -> impl FnMut(usize, ValueRef, [&[u8]; 2]) -> Result<()> + 'a {
        move |_, v, head| {
            let (dev, whole) = (self.pool.device(), [head[0], head[1], bytes].concat());
            let start = v.offset as usize - head[0].len() - head[1].len();
            dev.write_meta(clock, start, &whole);
            dev.flush(clock, start, whole.len());
            Ok(())
        }
    }

    /// [`Self::put_many`] with a fill that writes no value: each key is
    /// linked, naming no header, with whatever bytes its block held (its
    /// head is stored alone). Nothing in the product reserves without
    /// filling — this stays `pub`, with its signature, only because
    /// `benchmark/src/ladder.rs` (frozen) calls it to time the metadata
    /// half of a group put.
    pub fn put_reserve_many(&self, clock: &Clock, reqs: &[(&[u8], u64)]) -> Result<Vec<ValueRef>> {
        let reqs: Vec<_> = reqs.iter().map(|&(key, len)| (key, len, 0)).collect();
        self.put_many(clock, &reqs, self.storing(clock, &[]))
    }

    /// Insert (or replace) `key → value` atomically, naming no header: on a
    /// crash at any point the table holds either the complete old mapping
    /// or the complete new one.
    pub fn put(&self, clock: &Clock, key: &[u8], value: &[u8]) -> Result<ValueRef> {
        let fill = self.storing(clock, value);
        Ok(self.put_many(clock, &[(key, value.len() as u64, 0)], fill)?[0])
    }

    /// Locate `key`'s value without copying it: answered from the mirror
    /// under the key's stripe, else by one chain walk with the stripe still
    /// held.
    pub fn get_ref(&self, clock: &Clock, key: &[u8]) -> Option<ValueRef> {
        self.get_ref_many(clock, &[key])[0]
    }

    /// Batched lookup: resolve every key with at most one chain walk per
    /// touched bucket. Keys are grouped by (stripe, head slot) in sorted
    /// order — the same deterministic grouping the write batches use for
    /// stripe acquisition — so keys sharing a bucket share its head/header
    /// reads, and each group resolves under its stripe. A group a migration
    /// split between routing and lock acquisition is routed again. Results
    /// are positionally parallel to `keys`. A lookup never migrates: a
    /// read-only session on a mid-split pool runs no pool transaction.
    pub fn get_ref_many(&self, clock: &Clock, keys: &[&[u8]]) -> Vec<Option<ValueRef>> {
        let mut out = vec![None; keys.len()];
        let keyed: Vec<(&[u8], u64)> = keys.iter().map(|&k| (k, fnv1a(k))).collect();
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        while !pending.is_empty() {
            let g = self.geo();
            let route = |i: usize| g.route(keyed[i].1);
            pending.sort_by_key(|&i| (route(i), i));
            let mut moved = Vec::new();
            for group in pending.chunk_by(|&a, &b| route(a).head_slot == route(b).head_slot) {
                let _atomic = pmem_sim::atomic_section();
                if self.resolve(clock, g, &keyed, group, &mut out).is_none() {
                    moved.extend_from_slice(group);
                }
            }
            pending = moved;
        }
        out
    }

    /// Resolve `group` — indices of `(key, hash)` pairs `g` routes to one
    /// chain — into `out`, inside the caller's atomic section: lock the
    /// chain's stripe, re-check the route and look the keys up. A torn
    /// chain degrades. Returns the stripe, still held; `None`, with nothing
    /// resolved, if a migration split the group between chains.
    fn resolve(
        &self,
        clock: &Clock,
        g: Geo,
        keyed: &[(&[u8], u64)],
        group: &[usize],
        out: &mut [Option<ValueRef>],
    ) -> Option<Held<'_>> {
        let mut hashes = group.iter().map(|&i| keyed[i].1);
        let (now, mut held) = self.lock_routes(g, hashes.clone(), false);
        let r = now.route(keyed[group[0]].1);
        if now != g && hashes.any(|h| now.route(h).head_slot != r.head_slot) {
            return None;
        }
        let mirror = mirror_in(&mut held, r.sid);
        let keys: Vec<(&[u8], u64)> = group.iter().map(|&i| keyed[i]).collect();
        let (at, _, reads, end) = self.lookup(clock, mirror, r, &keys, Some("get.lookup.cached"));
        let machine = self.pool.device().machine();
        if !mirror.off {
            let outcome = reads.map_or("shadow.hits", |_| "shadow.misses");
            machine.metric_counter_add(outcome, group.len() as u64);
        }
        // Charged pool read ops: the head, each header, each key fetch.
        if let Some(reads) = reads {
            machine.metric_counter_add("get.lookup.pool_reads", reads);
        }
        self.degraded((0, end));
        for (&i, at) in group.iter().zip(at) {
            out[i] = at.map(|(_, e)| value_ref_of(&e));
        }
        Some(held)
    }

    /// Copy out `key`'s value. The byte copy runs with the stripe still
    /// held: resolving a ref and then reading the bytes unlocked would race
    /// a concurrent replace/remove that frees and recycles the value region
    /// between the two (a torn read of reused memory).
    pub fn get(&self, clock: &Clock, key: &[u8]) -> Option<Vec<u8>> {
        let (keyed, mut out) = ([(key, fnv1a(key))], [None]);
        let _atomic = pmem_sim::atomic_section();
        // One key never splits between chains: its stripe is held.
        let _held = self.resolve(clock, self.geo(), &keyed, &[0], &mut out);
        let vref = out[0]?;
        let mut buf = vec![0u8; vref.len as usize];
        self.pool.read_bytes(clock, vref.offset, &mut buf);
        Some(buf)
    }

    pub fn contains(&self, clock: &Clock, key: &[u8]) -> bool {
        self.get_ref(clock, key).is_some()
    }

    /// Remove `key`; returns whether it was present. The mirror unlinks it
    /// once the transaction committed.
    pub fn remove(&self, clock: &Clock, key: &[u8]) -> Result<bool> {
        let hash = fnv1a(key);
        self.maybe_resize(clock)?;
        let _atomic = pmem_sim::atomic_section();
        let (g, mut held) = self.lock_routes(self.geo(), [hash].into_iter(), true);
        let r = g.route(hash);
        let mirror = mirror_in(&mut held, r.sid);
        let (at, _, _, end) = self.lookup(clock, mirror, r, &[(key, hash)], None);
        end?;
        let Some((i, e)) = at[0] else {
            return Ok(false);
        };
        // The free's state word rides the unlink's append and count store.
        let unlinked = self.pool.tx(clock, |tx| {
            tx.free(e.at)?;
            tx.set_words(&[(e.slot, e.at, e.next)])
        });
        unlinked?;
        mirror.splice(r.bucket, r.head_slot, &[i], Vec::new());
        self.count(r, -1);
        Ok(true)
    }
}
