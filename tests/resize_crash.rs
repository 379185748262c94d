//! Crash injection at every incremental-resize fail site, end to end:
//!
//! 1. a crash mid bucket migration or at the split-cursor advance rolls the
//!    in-flight chunk back to the persisted cursor; reopen lands mid-split
//!    and the contents are byte-identical to a fixed-geometry reference;
//! 2. mutations after the reopen finish the interrupted split and the
//!    heap checks clean;
//! 3. a crash at the quiesce-time count fold leaves the dirty flag set and
//!    the next open recounts the sharded total from the chains;
//! 4. write-behind WAL replay works across a table that crashed mid-split
//!    during its checkpoint drain;
//!
//! all under both scheduler modes.

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmdk_sim::PmemPool;
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use std::collections::HashMap;
use std::sync::Arc;

/// Small initial directory so a handful of puts crosses the split trigger
/// (`2 * live > buckets`, i.e. the 33rd key).
const BUCKETS: u64 = 64;

fn resize_opts() -> Options {
    Options {
        hashtable_buckets: BUCKETS,
        ..Options::default()
    }
}

fn single_rank(machine: &Arc<Machine>) -> Comm {
    Comm::new(World::new(Arc::clone(machine), 1), 0)
}

fn key(i: u64) -> String {
    format!("var{i:04}")
}

fn put(pmem: &Pmem, i: u64) -> pmemcpy::Result<()> {
    let v: Vec<u64> = (0..8).map(|j| i * 1000 + j).collect();
    pmem.store_slice(&key(i), &v)
}

/// Arm `site` under an RAII [`pmdk_sim::FailPointGuard`]: the guard asserts
/// that every armed site fired (an unfired site means the scenario never
/// reached the code path it meant to crash), and — because tests share
/// interned pools — disarms on drop, so a panicking assert can't leave a
/// live fail point behind for an unrelated later scenario.
fn arm_guarded<'a>(
    pool: &'a PmemPool,
    site: &'static str,
    nth: u32,
) -> pmdk_sim::FailPointGuard<'a> {
    let guard = pool.fail_points.guard();
    pool.fail_points.arm(site, nth);
    guard
}

/// The ground truth: keys 0..n through a table pre-sized so the split
/// trigger (`2 * live > buckets`) never fires — the byte-level reference
/// any crashed-and-recovered resizable table must match exactly. A split
/// must never change what is stored, only where.
fn fixed_reference(n: u64) -> (Vec<String>, HashMap<String, Vec<u8>>) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let buckets = 2 * n;
    let mut pmem = Pmem::with_options(Options {
        hashtable_buckets: buckets,
        ..Options::default()
    });
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    for i in 0..n {
        put(&pmem, i).unwrap();
    }
    let shared = registry::shared_pool(&Clock::new(), &dev, "pmemcpy", buckets).unwrap();
    assert_eq!(
        shared.hashtable.bucket_count(),
        buckets,
        "the reference table must never split"
    );
    drop(shared);
    let keys = pmem.keys().unwrap();
    let records = keys
        .iter()
        .map(|k| (k.clone(), pmem.raw_record(k).unwrap()))
        .collect();
    pmem.munmap().unwrap();
    (keys, records)
}

fn assert_matches_reference(
    pmem: &Pmem,
    ref_keys: &[String],
    ref_records: &HashMap<String, Vec<u8>>,
    context: &str,
) {
    let mut keys = pmem.keys().unwrap();
    keys.sort();
    let mut expect = ref_keys.to_vec();
    expect.sort();
    assert_eq!(keys, expect, "{context}: key listing diverged");
    for key in ref_keys {
        assert_eq!(
            &pmem.raw_record(key).unwrap(),
            &ref_records[key],
            "{context}: record for {key} diverged from the fixed-geometry table"
        );
    }
}

/// Crash during bucket migration or at the cursor advance: the migration
/// transaction rolls back whole, reopen lands mid-split with every key
/// readable, and later puts finish the split.
#[test]
fn crash_mid_split_recovers_and_later_puts_finish_it() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for site in ["ht::migrate", "ht::cursor-advance"] {
            crash_mid_split_scenario(site, mode);
        }
    }
}

fn crash_mid_split_scenario(site: &'static str, mode: SchedMode) {
    let ctx = format!("{site} ({mode:?})");
    // The triggering put fails before inserting its own key, so exactly
    // the first 33 keys survive the crash.
    let (ref_keys, ref_records) = fixed_reference(33);

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        for i in 0..33 {
            put(&pmem, i).unwrap();
        }

        // Reach under the API for the interned pool's fail points. The
        // 34th put crosses the split trigger: begin_split commits, then
        // the first migration chunk hits the armed site.
        let clock = Clock::new();
        let shared = registry::shared_pool(&clock, dev, "pmemcpy", BUCKETS).unwrap();
        assert!(!shared.hashtable.splitting(), "{ctx}: split began early");
        let fp = arm_guarded(&shared.pool, site, 1);
        let err = put(&pmem, 33).unwrap_err();
        assert!(
            matches!(
                err,
                pmemcpy::PmemCpyError::Pmdk(pmdk_sim::PmdkError::Injected(_))
            ),
            "{ctx}: {err}"
        );
        fp.assert_unfired(ctx);
        drop(fp);

        // Power failure mid-split; DRAM state evaporates.
        dev.crash();
        drop(pmem);
        drop(shared);
        registry::release_pool(dev);

        // Reopen: recovery rolls the migration chunk back to the persisted
        // cursor, the table is still splitting, and — because the crash
        // outran the quiesce-time count fold — the open recounts the
        // entries from the chains.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        assert!(
            shared.hashtable.splitting(),
            "{ctx}: reopen must land mid-split"
        );
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);

        // Every mutation helps migrate a chunk; a handful of fresh puts
        // must retire the old table.
        let mut i = 33u64;
        while shared.hashtable.splitting() {
            put(&pmem, i).unwrap();
            i += 1;
            assert!(i < 33 + 1000, "{ctx}: split never completed");
        }
        let (all_keys, all_records) = fixed_reference(i);
        assert_matches_reference(&pmem, &all_keys, &all_records, &format!("{ctx} post-split"));
        shared
            .pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        drop(shared);
        pmem.munmap().unwrap();
    });
}

/// Crash at the quiesce-time count fold: the dirty flag stays set, the
/// next open recounts the sharded total from the chains, and a clean
/// munmap afterwards folds for real.
#[test]
fn crash_at_count_fold_recounts_on_reopen() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        crash_at_count_fold_scenario(mode);
    }
}

fn crash_at_count_fold_scenario(mode: SchedMode) {
    let ctx = format!("ht::count-fold ({mode:?})");
    const N: u64 = 48; // enough puts to trigger and fully retire one split
    let (ref_keys, ref_records) = fixed_reference(N);

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        for i in 0..N {
            put(&pmem, i).unwrap();
        }
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        assert!(
            !shared.hashtable.splitting(),
            "{ctx}: split still in flight after {N} puts"
        );

        // The fold happens inside munmap's quiesce; a failure must leave
        // the handle mapped for retry.
        let fp = arm_guarded(&shared.pool, "ht::count-fold", 1);
        assert!(pmem.munmap().is_err(), "{ctx}: quiesce must abort");
        assert!(pmem.is_mapped(), "{ctx}: failed unmap must keep the handle");
        fp.assert_unfired(ctx);
        drop(fp);

        dev.crash();
        drop(pmem);
        drop(shared);
        registry::release_pool(dev);

        // Reopen: the dirty flag forces a recount from the chains; the
        // folded-at-crash-time header count is never trusted.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        assert_eq!(shared.hashtable.len(&Clock::new()), N, "{ctx}: recount");
        shared
            .pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        drop(shared);
        pmem.munmap().unwrap();

        // This munmap folded cleanly: a third open must see the same
        // contents without the recount path.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&pmem, &ref_keys, &ref_records, &format!("{ctx} clean open"));
        pmem.munmap().unwrap();
    });
}

/// Write-behind WAL replay across a mid-split table: the checkpoint drain
/// pushes the hashtable over the split trigger and crashes mid-migration;
/// replay on reopen plus a second checkpoint must converge to the same
/// bytes as inline mode.
#[test]
fn wal_replay_recovers_across_interrupted_split() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        wal_replay_scenario(mode);
    }
}

fn wal_replay_scenario(mode: SchedMode) {
    let ctx = format!("wal-replay-over-split ({mode:?})");
    const N: u64 = 40;
    let (ref_keys, ref_records) = fixed_reference(N);
    let wb = || Options {
        hashtable_buckets: BUCKETS,
        wal_capacity: 1 << 20,
        ..Options::write_behind()
    };

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        let mut pmem = Pmem::with_options(wb());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        // Puts land in the WAL; the hashtable only fills when the
        // checkpoint drains, which is what crosses the split trigger.
        for i in 0..N {
            put(&pmem, i).unwrap();
        }
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        assert!(!shared.hashtable.splitting(), "{ctx}: split began early");
        let fp = arm_guarded(&shared.pool, "ht::migrate", 1);
        assert!(pmem.checkpoint().is_err(), "{ctx}: drain must abort");
        fp.assert_unfired(ctx);
        drop(fp);

        dev.crash();
        drop(pmem);
        drop(shared);
        registry::release_pool(dev);

        // Reopen: replay rebuilds the front index over the partially
        // drained, mid-split table. Every key must read back.
        let mut pmem = Pmem::with_options(wb());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);

        // A clean checkpoint finishes both the drain and the split.
        pmem.checkpoint().unwrap();
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        assert_matches_reference(&pmem, &ref_keys, &ref_records, &format!("{ctx} drained"));
        shared
            .pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        drop(shared);
        pmem.munmap().unwrap();

        // An inline-mode remap sees the same bytes with no write-behind
        // machinery at all.
        let mut inline = Pmem::with_options(resize_opts());
        inline.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&inline, &ref_keys, &ref_records, &format!("{ctx} inline"));
        inline.munmap().unwrap();
    });
}
