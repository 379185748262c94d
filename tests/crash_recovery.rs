//! Failure injection across the persistence stack: crashes at every stage of
//! a pMEMCPY store must leave the pool consistent and old data intact.

use pmdk_sim::{PmdkError, PmemPool};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use std::sync::Arc;

fn tracked_pool(mb: usize) -> (Arc<PmemPool>, Arc<PmemDevice>, Clock) {
    let dev = PmemDevice::new(Machine::chameleon(), mb << 20, PersistenceMode::Tracked);
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, Arc::clone(&dev), "crash").unwrap();
    (pool, dev, clock)
}

fn reopen(dev: &Arc<PmemDevice>, clock: &Clock) -> Arc<PmemPool> {
    PmemPool::open(clock, Arc::clone(dev), "crash").unwrap()
}

/// Arm `site` under an RAII [`pmdk_sim::FailPointGuard`]: the guard asserts
/// that every armed site fired (an unfired site means the test never reached
/// the code path it meant to crash, and would silently pass while testing
/// nothing), and disarms whatever remains on drop so a panicking assert
/// can't leave a live fail point behind.
fn arm_guarded<'a>(
    pool: &'a PmemPool,
    site: &'static str,
    nth: u32,
) -> pmdk_sim::FailPointGuard<'a> {
    let guard = pool.fail_points.guard();
    pool.fail_points.arm(site, nth);
    guard
}

/// Fail-point hygiene: armed sites are visible, and dropping the pool (the
/// crash-simulation path) disarms whatever a test left behind instead of
/// letting it fire in an unrelated later open.
#[test]
fn fail_points_disarm_when_the_pool_drops() {
    let (pool, dev, clock) = tracked_pool(8);
    pool.fail_points.arm("tx::commit-before", 1);
    pool.fail_points.arm("wal::append", 3);
    assert_eq!(
        pool.fail_points.armed_sites(),
        vec!["tx::commit-before", "wal::append"]
    );
    drop(pool);
    let pool = reopen(&dev, &clock);
    pool.fail_points.guard().assert_unfired("reopened pool");
    // The RAII guard gives the same hygiene without dropping the pool:
    // leaving its scope (even by panic) disarms whatever never fired.
    {
        let _fp = pool.fail_points.guard();
        pool.fail_points.arm("tx::commit-before", 1);
    }
    assert_eq!(
        pool.fail_points.armed_sites(),
        Vec::<&str>::new(),
        "dropping the guard must disarm"
    );
    // A put that would have crashed under the stale arm succeeds.
    let ht = pmdk_sim::PersistentHashtable::create(&clock, &pool, 16).unwrap();
    ht.put(&clock, b"key", b"value").unwrap();
}

/// Crash at every distinct fail site of a replace transaction: afterwards
/// the table must still hold the old value and pass heap invariants.
#[test]
fn hashtable_replace_is_crash_atomic_at_every_site() {
    for site in [
        "tx::snapshot",
        "tx::alloc",
        "tx::alloc-after",
        "tx::commit-before",
    ] {
        let (pool, dev, clock) = tracked_pool(8);
        let ht = pmdk_sim::PersistentHashtable::create(&clock, &pool, 16).unwrap();
        ht.put(&clock, b"key", b"stable-value").unwrap();
        let header = ht.header_offset();

        let fp = arm_guarded(&pool, site, 1);
        let err = ht.put(&clock, b"key", b"doomed-value").unwrap_err();
        assert!(matches!(err, PmdkError::Injected(_)), "site {site}: {err}");
        fp.assert_unfired(site);
        drop(fp);
        dev.crash();
        drop((ht, pool));

        let pool = reopen(&dev, &clock);
        let ht = pmdk_sim::PersistentHashtable::open(&clock, &pool, header).unwrap();
        assert_eq!(
            ht.get(&clock, b"key").as_deref(),
            Some(&b"stable-value"[..]),
            "site {site} lost the old value"
        );
        assert_eq!(ht.len(&clock), 1, "site {site} corrupted the count");
        pool.check_heap()
            .unwrap_or_else(|e| panic!("site {site}: {e}"));
    }
}

/// Crash *after* the commit point: the new value must win.
#[test]
fn committed_replacement_survives_crash_during_cleanup() {
    let (pool, dev, clock) = tracked_pool(8);
    let ht = pmdk_sim::PersistentHashtable::create(&clock, &pool, 16).unwrap();
    ht.put(&clock, b"key", b"old").unwrap();
    let header = ht.header_offset();

    let fp = arm_guarded(&pool, "tx::commit-during", 1);
    let _ = ht.put(&clock, b"key", b"new");
    fp.assert_unfired("commit-during");
    drop(fp);
    dev.crash();
    drop((ht, pool));

    let pool = reopen(&dev, &clock);
    let ht = pmdk_sim::PersistentHashtable::open(&clock, &pool, header).unwrap();
    assert_eq!(ht.get(&clock, b"key").as_deref(), Some(&b"new"[..]));
    assert_eq!(ht.len(&clock), 1);
    pool.check_heap().unwrap();
}

/// Repeated crash/recover cycles with interleaved successful work: the pool
/// must stay usable and leak-free throughout.
#[test]
fn repeated_crash_cycles_do_not_leak() {
    let (mut pool, dev, clock) = tracked_pool(8);
    let ht = pmdk_sim::PersistentHashtable::create(&clock, &pool, 32).unwrap();
    let header = ht.header_offset();
    let baseline = pool.allocated_bytes();
    drop(ht);

    for round in 0..10u32 {
        let ht = pmdk_sim::PersistentHashtable::open(&clock, &pool, header).unwrap();
        // A successful put...
        ht.put(&clock, format!("k{round}").as_bytes(), b"v")
            .unwrap();
        // ...then a crashed replace of the same key.
        let fp = arm_guarded(&pool, "tx::commit-before", 1);
        let _ = ht.put(&clock, format!("k{round}").as_bytes(), b"doomed");
        fp.assert_unfired("crash cycle");
        drop(fp);
        dev.crash();
        drop(ht);
        pool = reopen(&dev, &clock);
        pool.check_heap().unwrap();
    }
    let ht = pmdk_sim::PersistentHashtable::open(&clock, &pool, header).unwrap();
    assert_eq!(ht.len(&clock), 10);
    // Allocations grew only by the 10 live entries, not by leaked doom.
    let per_entry = pmdk_sim::layout::align_up(24 + 2 + 1);
    assert!(
        pool.allocated_bytes() <= baseline + 10 * per_entry,
        "leak: {} vs baseline {}",
        pool.allocated_bytes(),
        baseline
    );
}

/// The pMEMCPY core API: data persisted before a crash is readable after
/// reopening the pool; an unflushed store is not torn into other entries.
#[test]
fn core_api_data_survives_crash_after_store_returns() {
    use mpi_sim::{Comm, World};
    use pmemcpy::{MmapTarget, Pmem};

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Tracked);
    let world = World::new(Arc::clone(&machine), 1);
    let comm = Comm::new(world, 0);

    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
    pmem.store_slice("checkpoint", &data).unwrap();
    pmem.munmap().unwrap();

    // Power failure after a completed store+munmap.
    dev.crash();

    let world = World::new(Arc::clone(&machine), 1);
    let comm = Comm::new(world, 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_eq!(pmem.load_slice::<f64>("checkpoint").unwrap(), data);
    pmem.munmap().unwrap();
}

/// A crash in the middle of a group commit rolls back the *whole* batch:
/// none of the batch's keys become visible, a value the batch would have
/// replaced survives, and the heap passes its invariants.
#[test]
fn crash_mid_write_batch_rolls_back_the_whole_group() {
    use mpi_sim::{Comm, World};
    use pmemcpy::{registry, MmapTarget, Pmem};

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Tracked);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);

    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let original: Vec<f64> = (0..128).map(|i| i as f64).collect();
    pmem.store_slice("stable", &original).unwrap();

    // Reach under the API for the interned pool and arm a crash right
    // before the batch's transaction commits.
    let clock = Clock::new();
    let shared = registry::shared_pool(&clock, &dev, "pmemcpy", 4096).unwrap();
    let fp = arm_guarded(&shared.pool, "tx::commit-before", 1);

    let doomed: Vec<f64> = vec![-1.0; 128];
    let mut batch = pmem.batch();
    batch.store_scalar("n1", 7u64).unwrap();
    batch.store_slice("stable", &doomed).unwrap();
    batch.store_scalar("n2", 9u64).unwrap();
    assert!(batch.commit().is_err(), "armed fail point must abort");
    fp.assert_unfired("batch commit");
    drop(fp);
    dev.crash();
    drop(pmem);
    drop(shared);
    registry::release_pool(&dev);

    // Remap: pool recovery must roll the whole group back.
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert!(!pmem.exists("n1"), "batch key n1 leaked through the crash");
    assert!(!pmem.exists("n2"), "batch key n2 leaked through the crash");
    assert_eq!(
        pmem.load_slice::<f64>("stable").unwrap(),
        original,
        "replaced value must survive an aborted group commit"
    );
    let shared = registry::shared_pool(&Clock::new(), &dev, "pmemcpy", 4096).unwrap();
    shared.pool.check_heap().unwrap();
    drop(shared);
    pmem.munmap().unwrap();
}
