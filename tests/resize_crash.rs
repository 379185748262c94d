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
//! 5. the destination heads a rolled-back chunk wrote (undo-free, so they
//!    survive the rollback) are followed by no walker — `len`, `keys`, the
//!    chain histogram, the doctor — and the chunk's re-run overwrites them,
//!    also where the partition they pointed into has been removed since;
//!
//! all under both scheduler modes.

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmdk_sim::layout::{Bytes, HDR_BUCKETS, HDR_HEADS};
use pmdk_sim::PmemPool;
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::{diagnose, Status};
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

/// Store keys 0..33 in a fresh mount, arm `site` and let the 34th put —
/// which crosses the split trigger: `begin_split` commits, then the first
/// migration chunk hits the armed site — fail; then cut the power. The
/// failing put never inserted its own key, so exactly 33 keys survive.
/// `heads_reached_media` picks the crash image: the chunk's destination
/// heads are stored but not yet flushed at `ht::cursor-advance`, so whether
/// their lines made it to the new directory is the hardware's choice.
fn crash_in_the_first_chunk(
    dev: &Arc<PmemDevice>,
    comm: &Comm,
    site: &'static str,
    heads_reached_media: bool,
    ctx: &str,
) {
    let mut pmem = Pmem::with_options(resize_opts());
    pmem.mmap(MmapTarget::DevDax(dev), comm).unwrap();
    for i in 0..33 {
        put(&pmem, i).unwrap();
    }
    // Reach under the API for the interned pool's fail points.
    let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
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
    let header = shared.hashtable.header_offset();
    let heads = dev.u64_at(header + HDR_HEADS);
    let directory = heads..heads + dev.u64_at(header + HDR_BUCKETS) * 8;
    let mut reached = dev.in_flight();
    reached.retain(|l| heads_reached_media && directory.contains(&(l.line as u64 * 64)));
    assert_eq!(
        !reached.is_empty(),
        heads_reached_media,
        "{ctx}: {reached:?}"
    );
    dev.crash_keeping(&reached);
    drop(pmem);
    drop(shared);
    registry::release_pool(dev);
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
    let (ref_keys, ref_records) = fixed_reference(33);

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        crash_in_the_first_chunk(dev, &comm, site, false, ctx);

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

/// A chunk stores its destination heads without undo and without a fence of
/// their own, so a crash at the cursor advance — which fires after them —
/// may leave them in the new directory while the relinks roll back: the
/// crash image in which exactly their lines reached media. Those slots are unreachable until
/// the cursor passes their bucket: every walker must skip them, and the
/// re-run must overwrite them whatever happened to the chains since.
#[test]
fn stale_destination_heads_are_skipped_and_overwritten() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        stale_destination_scenario(mode);
    }
}

fn stale_destination_scenario(mode: SchedMode) {
    let ctx = format!("stale destination heads ({mode:?})");
    let (ref_keys, ref_records) = fixed_reference(33);

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        crash_in_the_first_chunk(dev, &comm, "ht::cursor-advance", true, ctx);

        // Reopen (recovery rolls the relinks back) and look at the image.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        let clock = Clock::new();
        let shared = registry::shared_pool(&clock, dev, "pmemcpy", BUCKETS).unwrap();
        let d = diagnose(dev).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let ht = d.hashtable.as_ref().expect("the pool roots a hashtable");
        let g = ht.header.geo;
        assert_eq!((g.old_buckets, g.cursor), (BUCKETS, 0), "{ctx}: {g:?}");
        // The first chunk is source buckets 0..8.
        let stale = (0..8)
            .flat_map(|b| [b, b + BUCKETS])
            .filter(|b| dev.u64_at(g.heads + b * 8) != 0)
            .count();
        assert!(stale > 0, "{ctx}: the chunk left no destination head");

        // Every walker sees each of the 33 entries exactly once.
        assert!(ht.ok(), "{ctx}: {:?}", ht.errors);
        assert_eq!(ht.reachable, 33, "{ctx}: doctor");
        let hashtable = d.verdicts.iter().find(|v| v.check == "hashtable");
        assert_eq!(hashtable.unwrap().status, Status::Pass, "{ctx}");
        assert_eq!(shared.hashtable.len(&clock), 33, "{ctx}: recount");
        assert_eq!(shared.hashtable.keys(&clock).len(), 33, "{ctx}: keys");
        let hist = shared.hashtable.chain_length_histogram(&clock);
        assert_eq!(hist.iter().sum::<u64>(), BUCKETS, "{ctx}: slots walked");
        let entries: u64 = hist.iter().zip(0..).map(|(n, len)| n * len).sum();
        assert_eq!(entries, 33, "{ctx}: histogram");
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);

        // Remove the fullest bucket of the rolled-back chunk, then let
        // ordinary puts finish the split.
        let in_bucket = |b: u64| -> Vec<&String> {
            let lives_in = |k: &&String| pmdk_sim::hashtable::fnv1a(k.as_bytes()) % BUCKETS == b;
            ref_keys.iter().filter(lives_in).collect()
        };
        let doomed = (0..8).map(in_bucket).max_by_key(Vec::len).unwrap();
        assert!(!doomed.is_empty(), "{ctx}: no key in the first chunk");
        for key in &doomed {
            assert!(pmem.remove(key).unwrap(), "{ctx}: {key} was stored");
        }
        let mut i = 33u64;
        while shared.hashtable.splitting() {
            put(&pmem, i).unwrap();
            i += 1;
            assert!(i < 33 + 1000, "{ctx}: split never completed");
        }
        let (mut all_keys, all_records) = fixed_reference(i);
        all_keys.retain(|k| !doomed.contains(&k));
        let ctx = &format!("{ctx} post-split");
        assert_matches_reference(&pmem, &all_keys, &all_records, ctx);
        shared
            .pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        drop(shared);
        pmem.munmap().unwrap();

        // No head points at a freed entry: the offline walk of the closed
        // image finds the live keys and nothing else.
        let d = diagnose(dev).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for v in &d.verdicts {
            assert_ne!(v.status, Status::Fail, "{ctx}: {v:?}");
        }
        let mut walked: Vec<String> = (d.hashtable.unwrap().entries.iter())
            .map(|e| String::from_utf8(e.key.clone()).unwrap())
            .collect();
        walked.sort();
        all_keys.sort();
        assert_eq!(walked, all_keys, "{ctx}: doctor walk");
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
