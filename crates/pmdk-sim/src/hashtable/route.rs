//! Routing and stripe locking.
//!
//! There is one lock per stripe and readers take it too: an operation
//! routes its keys, locks their stripes, re-checks the routes (a migration
//! holds the stripes it moves buckets between, so a route that is stable
//! under the lock stays stable) and only then walks or mutates a chain.
//! Every charge made while a stripe is held sits inside a
//! [`pmem_sim::atomic_section`], so under the deterministic scheduler a
//! stripe is never found held and virtual time never depends on which
//! thread won it; free-threaded, a reader behind a writer waits on the
//! host and is billed nothing for the wait.

use super::mirror::Mirror;
use super::*;
use pmem_sim::sync::MutexGuard;
use std::sync::atomic::AtomicI64;
use std::sync::OnceLock;

pub(crate) const STRIPES: usize = u64::BITS as usize; // `lock_stripes`: a bit a stripe

/// The stripes an operation holds, ascending, each with its guard.
pub(super) type Held<'a> = Vec<(usize, MutexGuard<'a, Mirror>)>;

/// Stripe `sid`'s slice of the mirror, out of the stripes `held`.
#[allow(clippy::expect_used, reason = "every caller passes a stripe it locked")]
pub(super) fn mirror_in<'h>(held: &'h mut Held<'_>, sid: usize) -> &'h mut Mirror {
    let i = held.binary_search_by_key(&sid, |&(s, _)| s);
    &mut held[i.expect("the stripe is held")].1
}

/// Per-stripe runtime state (volatile; rebuilt on open).
#[derive(Default)]
pub(super) struct Stripe {
    /// The stripe mutex: every walk and every structural mutation of this
    /// stripe's chains holds it, and it owns the stripe's slice of the
    /// mirror, so the mirror cannot be touched without it.
    pub(super) lock: Mutex<Mirror>,
    /// The net entries this stripe's mutations made in counted buckets,
    /// plus the count chunks begun at its buckets; the trigger sums all.
    pub(super) live: AtomicI64,
}

/// Where a key lives *right now*: the stripe guarding its chain and the
/// device slot holding the chain's head. Compared for equality to detect a
/// migration racing a lock acquisition; ordered stripe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Route {
    pub(super) sid: usize,
    pub(super) head_slot: u64,
    /// The head slot's bucket in its heads array.
    pub(super) bucket: u64,
}

/// The stripe guarding `bucket`'s chain (of either directory).
pub(super) fn stripe_of(bucket: u64) -> usize {
    (bucket % STRIPES as u64) as usize
}

impl Geo {
    pub(super) fn route(&self, hash: u64) -> Route {
        if self.old_buckets != 0 {
            let ob = hash % self.old_buckets;
            if ob >= self.cursor {
                return Route {
                    head_slot: self.old_heads + ob * 8,
                    sid: stripe_of(ob),
                    bucket: ob,
                };
            }
        }
        let b = hash % self.buckets;
        Route {
            head_slot: self.heads + b * 8,
            sid: stripe_of(b),
            bucket: b,
        }
    }
}

impl PersistentHashtable {
    /// Acquire stripe `id`, feeding the per-stripe heat map for a `write`
    /// when metrics are enabled: every acquisition bumps
    /// `stripe.NN.acquires`, and an acquisition that found the stripe
    /// already held bumps `stripe.NN.contended` too. Under the deterministic
    /// scheduler the contended counts are always zero — charges under a
    /// stripe run in an atomic section, so the token never moves while a
    /// stripe is held — which makes nonzero values a free-threaded-only
    /// contention signal. Lookups are not counted, so the heat map is a
    /// *write* heat map.
    pub(super) fn lock_stripe(&self, id: usize, write: bool) -> MutexGuard<'_, Mirror> {
        // The 64 × 2 counter names, built once instead of per acquisition.
        static NAMES: OnceLock<Vec<[String; 2]>> = OnceLock::new();
        let names = |i| ["acquires", "contended"].map(|what| format!("stripe.{i:02}.{what}"));
        let machine = self.pool.device().machine();
        if write && machine.metrics_enabled() {
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
    /// concurrent multi-stripe operations cannot deadlock).
    pub(super) fn lock_stripes(&self, ids: impl Iterator<Item = usize>, write: bool) -> Held<'_> {
        let mut wanted: u64 = ids.fold(0, |set, i| set | 1 << i);
        let mut held = Vec::with_capacity(wanted.count_ones() as usize);
        while wanted != 0 {
            let i = wanted.trailing_zeros() as usize;
            held.push((i, self.lock_stripe(i, write)));
            wanted &= wanted - 1;
        }
        held
    }

    /// Route `hashes` through `g` and lock the stripes the routes name. A
    /// migration may move a bucket in between; holding a stripe pins its
    /// routes (migration locks it too), so one stable re-check suffices. On
    /// a moved key every key counts in `ht.route.retries` and all are routed
    /// again through the geometry the check read. Returns the geometry used.
    pub(super) fn lock_routes(
        &self,
        mut g: Geo,
        hashes: impl Iterator<Item = u64> + Clone,
        write: bool,
    ) -> (Geo, Held<'_>) {
        let machine = self.pool.device().machine();
        loop {
            let held = self.lock_stripes(hashes.clone().map(|h| g.route(h).sid), write);
            let now = self.geo();
            if now == g || hashes.clone().all(|h| now.route(h) == g.route(h)) {
                return (g, held);
            }
            machine.metric_counter_add("ht.route.retries", hashes.clone().count() as u64);
            g = now;
        }
    }
}
