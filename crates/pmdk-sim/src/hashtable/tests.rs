//! Unit tests of the hashtable, one file a concern under `tests/`, next to
//! the fixtures they share. The files are included rather than declared as
//! modules so every test keeps its path, `hashtable::tests::<name>`.

use super::route::stripe_of;
use super::*;
use crate::pool::tests::{crashed_at, last_uncommitted};
use pmem_sim::{DetRng, Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

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

include!("tests/handle.rs");
include!("tests/route.rs");
include!("tests/mirror.rs");
include!("tests/ops.rs");
include!("tests/resize.rs");
