//! Mutation and lookup: group puts, removes and the probes behind `get*`.
//!
//! All structural mutations run in a pool transaction (pointer snapshots +
//! alloc/free intents), so a crash at any point leaves a consistent table.
//! Values may be large; they are written into freshly-allocated space, with
//! no undo image, before the transaction links them. Bucket access is
//! striped with volatile locks — rebuilt trivially on open, like PMDK's
//! runtime lock state.

use super::mirror::{search, Chain, Key, Known, Mirror};
use super::route::{mirror_in, Held, Route};
use super::*;
use crate::error::PmdkError;
use pmem_sim::SimTime;
use std::collections::BTreeMap;

impl PersistentHashtable {
    /// Find `keys`, `(key, hash)` each, in the bucket `bucket` at
    /// `head_slot` that `mirror` holds (the caller holds its stripe): from
    /// DRAM — one probe charged — when it answers them all, else by a walk
    /// resumed at its tail, whose chain comes back too, for the caller to
    /// put back. Each key's index in the chain; an entry's `slot` is the
    /// pointer a splice rewrites. A bad hop refuses the mutation.
    fn find(
        &self,
        clock: &Clock,
        mirror: &mut Mirror,
        (bucket, head_slot): (u64, u64),
        keys: &[(&[u8], u64)],
    ) -> Result<(Vec<Option<usize>>, Option<Chain>)> {
        let machine = self.pool.device().machine();
        let answer = |&(key, hash): &(&[u8], u64)| mirror.get(bucket)?.answer(key, hash);
        let (found, walked) = match keys.iter().map(answer).collect() {
            Some(found) => {
                self.charge_probes(clock, 1, None);
                (found, None)
            }
            None => {
                let _span = machine.span(clock, "pmdk", "ht.probe");
                let (mut chain, src) = (mirror.take(bucket), self.pool.charged(clock));
                let (found, _, (_, end)) = search(&src, head_slot, &mut chain, keys, false);
                end?;
                (found, chain)
            }
        };
        let c = walked.as_ref().or(mirror.get(bucket)).expect("found");
        machine.metric_hist_record("ht.chain_len", SimTime::from_nanos(c.depth(&found)));
        Ok((found, walked))
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

        let _atomic = pmem_sim::atomic_section();
        self.ensure_dirty(clock);
        let (mut locked, mut spliced) = (None, Vec::new());
        let committed = self.pool.tx(clock, |tx| {
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
            // deadlock.
            let (g, held) =
                locked.insert(self.lock_routes(self.geo(), hashes.iter().copied(), true));
            // Group per head slot: an ordered map keeps the splice order —
            // and thus every persisted byte — deterministic.
            let mut by_slot: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, r) in hashes.iter().map(|&h| g.route(h)).enumerate() {
                by_slot.entry(r.head_slot).or_default().push(i);
            }
            let (mut words, mut frees, mut live) = (Vec::new(), Vec::new(), Vec::new());
            for (&head_slot, idxs) in &by_slot {
                let Route { sid, bucket, .. } = g.route(hashes[idxs[0]]);
                let keys: Vec<_> = idxs.iter().map(|&i| (reqs[i].0, hashes[i])).collect();
                let mirror = mirror_in(held, sid);
                let (found, walked) = self.find(clock, mirror, (bucket, head_slot), &keys)?;
                let c = walked.as_ref().or(mirror.get(bucket)).expect("found");
                let seen: Vec<(Entry, bool)> = (c.entries.iter().enumerate())
                    .map(|(i, k)| (k.e, found.contains(&Some(i))))
                    .collect();
                // The new entries chain onto the old chain without the ones
                // replaced: a run of those is skipped by the pointer that
                // named its first — the head's folded into the head's own
                // write. The mirror holds every pre-image.
                let head = c.head();
                mirror.put(bucket, walked);
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
                let mut fresh = Vec::with_capacity(idxs.len());
                for &i in idxs {
                    let (key, vlen) = (reqs[i].0, reqs[i].1 as u32);
                    let entry = encode_entry(hashes[i], key, vlen, rest, carried[i]);
                    tx.write_new(entries[i], &entry);
                    rest = entries[i];
                    let (mut e, key) = (Entry::default(), Some(Key::of(key)));
                    (e.at, e.hash, e.klen, e.vlen) =
                        (rest, hashes[i], reqs[i].0.len() as u32, vlen);
                    fresh.push(Known { e, key });
                }
                fresh.reverse();
                words.push((head_slot, head, rest));
                live.push((sid, (idxs.len() + replaced - frees.len()) as i64));
                spliced.push((sid, head_slot, bucket, found, fresh));
            }
            tx.free_many(&frees)?;
            tx.set_words(&words)?;
            Ok((refs, live))
        });
        // The mirror takes the group's splice only once it committed.
        if let (Some((_, mut held)), Ok(_)) = (locked, &committed) {
            for (sid, head_slot, bucket, found, fresh) in spliced {
                let gone: Vec<usize> = found.into_iter().flatten().collect();
                mirror_in(&mut held, sid).splice(bucket, head_slot, &gone, fresh);
            }
        }
        let (refs, live) = committed?;
        for (sid, d) in live {
            self.stripes[sid].live.fetch_add(d, Ordering::Relaxed);
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
    /// reads, and each group resolves under its stripe, which is released
    /// before the group's answers from the mirror are charged. A group a
    /// migration split between routing and lock acquisition is routed
    /// again. Results are positionally parallel to `keys`. A lookup never
    /// migrates: a read-only session on a mid-split pool runs no pool
    /// transaction.
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
                let hits = {
                    let _atomic = pmem_sim::atomic_section();
                    let Some((_held, hits)) = self.probe(clock, g, &keyed, group, &mut out) else {
                        moved.extend_from_slice(group);
                        continue;
                    };
                    hits
                };
                self.charge_probes(clock, hits, Some("get.lookup.cached"));
            }
            pending = moved;
        }
        out
    }

    /// Resolve `group` — indices of `(key, hash)` pairs `g` routes to one
    /// chain — into `out`, inside the caller's atomic section: lock the
    /// chain's stripe and re-check the route, then answer what the mirror
    /// can and walk, resumed at the prefix's tail, for the rest; the walk's
    /// finds are mirrored under the same guard. Returns the stripes, still
    /// held, and the number of keys answered from the mirror, left for the
    /// caller to charge; `None`, with nothing resolved, if a migration split
    /// the group between chains.
    fn probe(
        &self,
        clock: &Clock,
        g: Geo,
        keyed: &[(&[u8], u64)],
        group: &[usize],
        out: &mut [Option<ValueRef>],
    ) -> Option<(Held<'_>, usize)> {
        let mut hashes = group.iter().map(|&i| keyed[i].1);
        let (now, mut held) = self.lock_routes(g, hashes.clone(), false);
        let Route {
            head_slot,
            sid,
            bucket,
        } = now.route(keyed[group[0]].1);
        if now != g && hashes.any(|h| now.route(h).head_slot != head_slot) {
            return None;
        }
        let mirror = mirror_in(&mut held, sid);
        let vref = |c: &Chain, at: Option<usize>| at.map(|at| value_ref_of(&c.entries[at].e));
        let mut hits = 0;
        if let Some(c) = mirror.get(bucket) {
            for &i in group {
                if let Some(at) = c.answer(keyed[i].0, keyed[i].1) {
                    (out[i], hits) = (vref(c, at), hits + 1);
                }
            }
        }
        let (machine, cold) = (self.pool.device().machine(), group.len() - hits);
        for (outcome, n) in [("shadow.hits", hits), ("shadow.misses", cold)] {
            if n > 0 && !mirror.off {
                machine.metric_counter_add(outcome, n as u64);
            }
        }
        if cold == 0 {
            return Some((held, hits));
        }
        let _span = machine
            .span(clock, "pmdk", "ht.probe")
            .arg("keys", cold as u64);
        let (mut chain, src) = (mirror.take(bucket), self.pool.charged(clock));
        let keys: Vec<(&[u8], u64)> = group.iter().map(|&i| keyed[i]).collect();
        let (found, reads, walked) = search(&src, head_slot, &mut chain, &keys, false);
        let c = chain.as_ref().expect("a searched bucket is known");
        for (&i, &at) in group.iter().zip(&found) {
            out[i] = vref(c, at);
        }
        let torn = walked.1.is_err();
        self.degraded(walked);
        // Charged pool read ops: the head, each header, each key fetch.
        machine.metric_counter_add("get.lookup.pool_reads", reads);
        machine.metric_hist_record("ht.chain_len", SimTime::from_nanos(c.depth(&found)));
        mirror.put(bucket, chain.filter(|_| !torn));
        Some((held, hits))
    }

    /// Copy out `key`'s value. The byte copy runs with the stripe still
    /// held: resolving a ref and then reading the bytes unlocked would race
    /// a concurrent replace/remove that frees and recycles the value region
    /// between the two (a torn read of reused memory).
    pub fn get(&self, clock: &Clock, key: &[u8]) -> Option<Vec<u8>> {
        let (keyed, mut out) = ([(key, fnv1a(key))], [None]);
        let _atomic = pmem_sim::atomic_section();
        let (_held, hits) = (self.probe(clock, self.geo(), &keyed, &[0], &mut out))
            .expect("one key routes to one chain");
        self.charge_probes(clock, hits, Some("get.lookup.cached"));
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
        let Route {
            head_slot,
            sid,
            bucket,
        } = g.route(hash);
        let mirror = mirror_in(&mut held, sid);
        let (found, walked) = self.find(clock, mirror, (bucket, head_slot), &[(key, hash)])?;
        let c = walked.as_ref().or(mirror.get(bucket)).expect("found");
        let e = found[0].map(|i| c.entries[i].e);
        mirror.put(bucket, walked);
        let Some(e) = e else {
            return Ok(false);
        };
        self.ensure_dirty(clock);
        let unlinked = self.pool.tx(clock, |tx| {
            tx.set_words(&[(e.slot, e.at, e.next)])?;
            tx.free(e.at)
        });
        if unlinked.is_ok() {
            mirror.splice(bucket, head_slot, &[found[0].expect("present")], Vec::new());
        }
        unlinked?;
        self.stripes[sid].live.fetch_sub(1, Ordering::Relaxed);
        Ok(true)
    }
}
