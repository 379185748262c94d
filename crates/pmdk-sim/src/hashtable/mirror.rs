//! The volatile mirror of the chains (DESIGN §10): each stripe mutex owns,
//! by head slot, a *prefix* of each of its buckets' chains — headers in
//! chain order, keys once known — and the word after it, 0 once complete.
//! Walks record what they fetch; a mutation's splice lands once committed.

use super::route::{mirror_in, stripe_of, STRIPES};
use super::*;
use pmem_sim::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bucket numbers are the table's own, not input: one multiply spreads
/// them, where SipHash costs more than the probe it serves (the storm's
/// `host_s` measured ≈ 10 % apart).
#[derive(Default)]
pub(super) struct BucketHasher(u64);

impl Hasher for BucketHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 bucket numbers are hashed")
    }

    fn write_u64(&mut self, b: u64) {
        let h = b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Modelled cost of an answer from the mirror (one cache-missy probe).
const SHADOW_HIT_NS: u64 = 120;

/// One mirrored entry: its header, and its key once known.
pub(super) struct Known {
    pub(super) e: Entry,
    pub(super) key: Option<Key>,
}

/// Key bytes, inline when short: mirroring a short key allocates nothing,
/// and comparing it touches no other cache line. 30 bytes make it 32.
pub(super) enum Key {
    Inline(u8, [u8; 30]),
    Heap(Box<[u8]>),
}

impl Key {
    pub(super) fn of(key: &[u8]) -> Key {
        let mut inline = [0; 30];
        match inline.get_mut(..key.len()) {
            Some(head) => {
                head.copy_from_slice(key);
                Key::Inline(key.len() as u8, inline)
            }
            None => Key::Heap(key.into()),
        }
    }
}

impl std::ops::Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..*len as usize],
            Key::Heap(bytes) => bytes,
        }
    }
}

/// One bucket as far as the mirror knows it: a prefix of its chain and the
/// word after it — the head if the prefix is empty, 0 if it is the chain.
#[derive(Default)]
pub(super) struct Chain {
    pub(super) entries: Vec<Known>,
    pub(super) tail: u64,
}

impl Chain {
    /// A bucket of which only the head is known.
    pub(super) fn at(tail: u64) -> Chain {
        Chain {
            tail,
            ..Chain::default()
        }
    }

    pub(super) fn head(&self) -> u64 {
        self.entries.first().map_or(self.tail, |k| k.e.at)
    }

    /// DRAM's answer for `key`, if it has one: the index of its entry,
    /// mirrored with its key, or none — the bucket is complete and every
    /// entry its hash and length could name has its key mirrored.
    pub(super) fn answer(&self, key: &[u8], hash: u64) -> Option<Option<usize>> {
        let same = |k: &Known| k.e.hash == hash && k.e.klen as usize == key.len();
        let at = (self.entries.iter()).position(|k| same(k) && k.key.as_deref() == Some(key));
        let sure = self.tail == 0 && !self.entries.iter().any(|k| same(k) && k.key.is_none());
        (at.is_some() || sure).then_some(at)
    }

    /// The entries a walk from the head passes to settle `found`: up to the
    /// last key found, the whole prefix when one is absent — the
    /// `ht.chain_len` of a lookup, whether or not the mirror answered it.
    pub(super) fn depth(&self, found: &[Option<usize>]) -> u64 {
        let last = (found.iter()).try_fold(0, |deepest, at| at.map(|i| deepest.max(i + 1)));
        last.unwrap_or(self.entries.len()) as u64
    }

    /// Splice `fresh` (head first) in front and unlink the entries at
    /// `gone`, re-deriving every `slot` and `next`.
    pub(super) fn relink(&mut self, head_slot: u64, gone: &[usize], mut fresh: Vec<Known>) {
        if !gone.is_empty() {
            let mut at = 0..;
            (self.entries).retain(|_| at.next().is_some_and(|i| !gone.contains(&i)));
        }
        if !fresh.is_empty() {
            // Exact, not amortized: most chains are one or two entries.
            fresh.reserve_exact(self.entries.len());
            fresh.append(&mut self.entries);
            self.entries = fresh;
        }
        let mut slot = head_slot;
        for i in 0..self.entries.len() {
            let next = self.entries.get(i + 1).map_or(self.tail, |k| k.e.at);
            let e = &mut self.entries[i].e;
            (e.slot, e.next, slot) = (slot, next, e.at + ENT_NEXT);
        }
    }
}

/// Find `keys` in the bucket at `head_slot` that `c` mirrors, fetching only
/// what it lacks: mirrored keys, then the key of a prefix entry whose hash
/// and length match, then a walk from the tail to the last key found or the
/// end (always, when `whole`). Returns each key's index, the reads taken,
/// the walk's end.
pub(super) fn search<B: Bytes>(
    src: &B,
    head_slot: u64,
    c: &mut Chain,
    keys: &[(&[u8], u64)],
    whole: bool,
) -> (Vec<Option<usize>>, u64, (u64, Result<()>)) {
    let mut reads = 0;
    let mut found: Vec<Option<usize>> = (keys.iter())
        .map(|&(key, _)| (c.entries.iter()).position(|k| k.key.as_deref() == Some(key)))
        .collect();
    let mut compare = |i: usize, k: &mut Known, found: &mut [Option<usize>]| {
        for (f, &(key, hash)) in found.iter_mut().zip(keys) {
            if f.is_none() && k.e.hash == hash && k.e.klen as usize == key.len() {
                let e = k.e;
                let known = k.key.get_or_insert_with(|| {
                    reads += 1;
                    Key::of(&e.key(src))
                });
                *f = (**known == *key).then_some(i);
            }
        }
    };
    for (i, k) in c.entries.iter_mut().enumerate() {
        compare(i, k, &mut found);
    }
    let mut walked = (0, Ok(()));
    if c.tail != 0 && (whole || found.contains(&None)) {
        let from = c.entries.last().map_or(head_slot, |k| k.e.at + ENT_NEXT);
        walked = walk_from(src, from, c.tail, Fetch::Header, |e| {
            let mut k = Known { e: *e, key: None };
            compare(c.entries.len(), &mut k, &mut found);
            c.entries.push(k);
            whole || found.contains(&None)
        });
        c.tail = c.entries.last().map_or(c.tail, |k| k.e.next);
    }
    (found, reads + walked.0, walked)
}

/// One stripe's slice: its non-empty known buckets by bucket number, and a
/// bit a bucket number saying its head is known. No two reachable head
/// slots share a number: mid-split, old buckets are those at or past the
/// cursor, new ones those below it or `old_buckets` above that.
#[derive(Default)]
pub(super) struct Mirror {
    /// Nothing is kept while the mirror is off.
    pub(super) off: bool,
    pub(super) chains: HashMap<u64, Chain, BuildHasherDefault<BucketHasher>>,
    pub(super) known: Vec<u64>,
}

impl Mirror {
    /// Stripe `sid`'s slice: knowing nothing, or — `fresh` — that each of a
    /// new table's `buckets` it owns is empty (a number past them is known
    /// once the chunk that makes it reachable writes it).
    pub(super) fn new(sid: usize, fresh: bool, buckets: u64) -> Mirror {
        let mut m = Mirror::default();
        for b in (sid as u64..buckets * fresh as u64).step_by(STRIPES) {
            m.mark(b, true);
        }
        m
    }

    /// Bucket `b`'s word in `known`, and its bit there.
    fn bit(b: u64) -> (usize, u64) {
        let i = b / STRIPES as u64;
        ((i / 64) as usize, 1 << (i % 64))
    }

    /// Set whether bucket `b`'s head is known; whether it was.
    fn mark(&mut self, b: u64, known: bool) -> bool {
        let (w, bit) = Mirror::bit(b);
        if self.known.len() <= w {
            self.known.resize(w + 1, 0);
        }
        let was = self.known[w] & bit != 0;
        self.known[w] = self.known[w] & !bit | if known { bit } else { 0 };
        was
    }

    /// Bucket `b`, if its head is known.
    pub(super) fn get(&self, b: u64) -> Option<&Chain> {
        static EMPTY: Chain = Chain {
            entries: Vec::new(),
            tail: 0,
        };
        let (w, bit) = Mirror::bit(b);
        let known = self.known.get(w).is_some_and(|word| word & bit != 0);
        self.chains.get(&b).or(known.then_some(&EMPTY))
    }

    /// Apply a committed splice to bucket `b`, if its head is known.
    pub(super) fn splice(&mut self, b: u64, head_slot: u64, gone: &[usize], fresh: Vec<Known>) {
        if let Some(mut c) = self.take(b) {
            c.relink(head_slot, gone, fresh);
            self.put(b, Some(c));
        }
    }

    /// Move bucket `b`'s entries that `hi` picks out, the rest re-derived
    /// as the chain at `head_slot`.
    pub(super) fn split(
        &mut self,
        b: u64,
        head_slot: u64,
        hi: impl Fn(&Known) -> bool,
    ) -> Vec<Known> {
        let Some(lo) = self.chains.get_mut(&b) else {
            return Vec::new();
        };
        let mut moved = Vec::with_capacity(lo.entries.iter().filter(|k| hi(k)).count());
        moved.extend(lo.entries.extract_if(.., |k| hi(k)));
        lo.relink(head_slot, &[], Vec::new());
        if lo.entries.is_empty() {
            self.chains.remove(&b);
        }
        moved
    }

    /// Take bucket `b` out: `None` when its head is not known.
    pub(super) fn take(&mut self, b: u64) -> Option<Chain> {
        let chain = self.chains.remove(&b);
        let known = self.mark(b, false);
        chain.or_else(|| known.then(Chain::default))
    }

    /// Put bucket `b` back, as `chain` knows it now.
    pub(super) fn put(&mut self, b: u64, chain: Option<Chain>) {
        let Some(chain) = chain.filter(|_| !self.off) else {
            return;
        };
        self.mark(b, true);
        if chain.head() != 0 {
            self.chains.insert(b, chain);
        }
    }
}

impl PersistentHashtable {
    /// Off drops the mirror and keeps nothing: every lookup walks cold.
    /// `pub` only for `benchmark/src/ladder.rs` (frozen), which times cold
    /// walks against the mirror.
    pub fn set_shadow_enabled(&self, enabled: bool) {
        for s in &self.stripes {
            let mut mirror = s.lock.lock();
            if !enabled {
                *mirror = Mirror::default();
            }
            mirror.off = !enabled;
        }
    }

    /// Mirror every reachable bucket whole, keys and all: one charged scan
    /// of the directory. Returns the number of entries mirrored.
    pub fn rebuild_shadow(&self, clock: &Clock) -> u64 {
        let _atomic = pmem_sim::atomic_section();
        if self.stripes[0].lock.lock().off {
            return 0;
        }
        // Under the resize lock no bucket migrates while the scan runs.
        let (_resize, mut installed) = (self.resize_lock.lock(), 0);
        let (g, src) = (self.geo(), self.pool.charged(clock));
        for (array, buckets) in g.head_runs() {
            // A head is as fresh as its run: hold the run's stripes (64
            // consecutive buckets are all of them) before fetching it.
            let mut held = self.lock_stripes(buckets.clone().take(STRIPES).map(stripe_of), true);
            for (slot, bucket, head) in read_heads(&src, array, buckets) {
                let mut chain = Chain::at(head);
                let (_, _, walked) = search(&src, slot, &mut chain, &[], true);
                let torn = walked.1.is_err();
                installed += self.degraded(walked);
                for k in &mut chain.entries {
                    k.key = Some(Key::of(&k.e.key(&src)));
                }
                let mirror = mirror_in(&mut held, stripe_of(bucket));
                mirror.take(bucket);
                mirror.put(bucket, Some(chain).filter(|_| !torn));
            }
        }
        installed
    }

    /// Charge one answer from the mirror, in `phase` if one is named.
    pub(super) fn charge_probe(&self, clock: &Clock, phase: Option<&'static str>) {
        let machine = self.pool.device().machine();
        let _phase = phase.map(|name| machine.phase(clock, "pmdk", name));
        let probe = SimTime::from_nanos(SHADOW_HIT_NS);
        machine.charge_compute_labeled(clock, probe, "index.probe");
    }
}
