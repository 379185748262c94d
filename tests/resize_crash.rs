//! Crashes inside incremental resizing, end to end, at the crash points the
//! flight recorder places there (`support::Timeline`):
//!
//! 1. a crash inside the step that begins a split rolls it back to no
//!    split (or, past its commit point, forward to its first chunk done);
//!    the contents are byte-identical to a fixed-geometry reference;
//! 2. mutations after the reopen finish the interrupted split and the
//!    heap checks clean;
//! 3. write-behind WAL replay works across a table that crashed in the
//!    step that begins a split during its checkpoint drain;
//! 4. the destination heads a rolled-back later chunk wrote (undo-free, so they
//!    survive the rollback) are followed by no walker — `len`, `keys`, the
//!    chain histogram, the doctor — and the chunk's re-run overwrites them,
//!    also where the partition they pointed into has been removed since;
//!
//! all under both scheduler modes.

mod support;

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmdk_sim::layout::Bytes;
use pmem_sim::flight::EventCode::{SplitBegin, SplitChunk, TxBegin, TxCommit};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::{diagnose, Status};
use std::collections::HashMap;
use std::sync::Arc;
use support::{device_with, first_active, image_at, Timeline};

/// Small initial directory so a handful of puts crosses the split trigger
/// (`2 * live > buckets`, i.e. the 34th key).
const BUCKETS: u64 = 64;

/// Crashed devices; the references run on devices of their own.
const DEVICE_BYTES: usize = 8 << 20;

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

/// `workload` on `dev` under scheduler `mode`, one rank; the interned pool
/// is released afterwards, whether or not the workload unmapped.
fn run_on(dev: &Arc<PmemDevice>, mode: SchedMode, workload: fn(&Arc<PmemDevice>, &Comm)) {
    let dev_in = Arc::clone(dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        workload(&dev_in, &comm)
    });
    registry::release_pool(dev);
}

fn tracked() -> Arc<PmemDevice> {
    PmemDevice::new(Machine::chameleon(), DEVICE_BYTES, PersistenceMode::Tracked)
}

/// The crash points of `workload` right after the flight events `before`
/// and right before `after`.
fn points(
    mode: SchedMode,
    workload: fn(&Arc<PmemDevice>, &Comm),
    before: &[pmem_sim::EventCode],
    after: &[pmem_sim::EventCode],
) -> Vec<usize> {
    let dev = tracked();
    Timeline::of(&dev, || run_on(&dev, mode, workload)).between(before, after)
}

/// The durable image at crash point `k` of `workload`, on a device of its
/// own.
fn crashed(mode: SchedMode, workload: fn(&Arc<PmemDevice>, &Comm), k: usize) -> Arc<PmemDevice> {
    let dev = tracked();
    let image = image_at(&dev, k, || run_on(&dev, mode, workload));
    device_with(&image, PersistenceMode::Fast)
}

/// Keys 0..n on a table of `BUCKETS` buckets.
fn puts(dev: &Arc<PmemDevice>, comm: &Comm, n: u64) {
    let mut pmem = Pmem::with_options(resize_opts());
    pmem.mmap(MmapTarget::DevDax(dev), comm).unwrap();
    for i in 0..n {
        put(&pmem, i).unwrap();
    }
}

/// Keys 0..33, then the 34th put, which crosses the split trigger: its
/// step begins the split and migrates the first chunk. A crash inside the
/// step comes before the put's own insert: 33 keys survive.
fn into_the_first_step(dev: &Arc<PmemDevice>, comm: &Comm) {
    puts(dev, comm, 34);
}

/// The 35th put too, whose step migrates the second chunk: 34 keys
/// survive a crash inside it.
fn into_the_second_chunk(dev: &Arc<PmemDevice>, comm: &Comm) {
    puts(dev, comm, 35);
}

/// The crash points inside the transaction of the step that begins the
/// split.
fn first_step(mode: SchedMode) -> Vec<usize> {
    let points = points(
        mode,
        into_the_first_step,
        &[TxBegin],
        &[TxCommit, SplitBegin],
    );
    assert!(!points.is_empty(), "the 34th put begins a split");
    points
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

/// Crash inside the step that begins the split, at its first crash point
/// and at its last: reopen lands with no split or with the first chunk
/// done, every key readable, and later puts finish the split.
#[test]
fn crash_mid_split_recovers_and_later_puts_finish_it() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        let points = first_step(mode);
        for k in [points[0], points[points.len() - 1]] {
            crash_mid_split_scenario(k, mode);
        }
    }
}

fn crash_mid_split_scenario(k: usize, mode: SchedMode) {
    let ctx = format!("crash point {k}, inside the first step ({mode:?})");
    let (ref_keys, ref_records) = fixed_reference(33);
    let dev = crashed(mode, into_the_first_step, k);
    let dev_in = Arc::clone(&dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx;
        // Reopen: recovery rolls the step back to no split, or (past its
        // commit point) the first chunk is done.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
        let ht = &shared.hashtable;
        let at = (ht.bucket_count(), ht.splitting());
        assert!(
            [(BUCKETS, false), (2 * BUCKETS, true)].contains(&at),
            "{ctx}: reopen must land before the split or after its first chunk: {at:?}"
        );
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);

        // Every mutation takes a split step; a handful of fresh puts must
        // begin the split if it rolled back, and retire the old table.
        let mut i = 33u64;
        while ht.bucket_count() == BUCKETS || ht.splitting() {
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

/// A chunk stores its destination heads without undo and flushes them
/// before its commit point, so a crash after that and before the commit
/// point leaves them in the new directory while the relinks and the cursor
/// roll back. Here the chunk is the split's second: the first step's
/// rollback would free the whole new directory. Those slots are unreachable until the cursor passes
/// their bucket: every walker must skip them, and the re-run must overwrite
/// them whatever happened to the chains since.
#[test]
fn stale_destination_heads_are_skipped_and_overwritten() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        stale_destination_scenario(mode);
    }
}

fn stale_destination_scenario(mode: SchedMode) {
    let ctx = format!("stale destination heads ({mode:?})");
    let (ref_keys, ref_records) = fixed_reference(34);
    // The second chunk's last crash point before its commit point.
    let chunk = points(
        mode,
        into_the_second_chunk,
        &[TxBegin],
        &[TxCommit, SplitChunk],
    );
    let k = first_active(chunk.iter().rev(), |k| {
        crashed(mode, into_the_second_chunk, k)
    });
    let dev = crashed(mode, into_the_second_chunk, k);
    let dev_in = Arc::clone(&dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx;
        // Reopen (recovery rolls the relinks back) and look at the image.
        let mut pmem = Pmem::with_options(resize_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        let clock = Clock::new();
        let shared = registry::shared_pool(&clock, dev, "pmemcpy", BUCKETS).unwrap();
        let d = diagnose(dev).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let ht = d.hashtable.as_ref().expect("the pool roots a hashtable");
        let g = ht.geo;
        assert_eq!((g.old_buckets, g.cursor), (BUCKETS, 8), "{ctx}: {g:?}");
        // The second chunk is source buckets 8..16.
        let stale = (8..16)
            .flat_map(|b| [b, b + BUCKETS])
            .filter(|b| dev.u64_at(g.heads + b * 8) != 0)
            .count();
        assert!(stale > 0, "{ctx}: the chunk left no destination head");

        // Every walker sees each of the 34 entries exactly once.
        assert!(ht.ok(), "{ctx}: {:?}", ht.errors);
        assert_eq!(ht.reachable, 34, "{ctx}: doctor");
        let hashtable = d.verdicts.iter().find(|v| v.check == "hashtable");
        assert_eq!(hashtable.unwrap().status, Status::Pass, "{ctx}");
        assert_eq!(shared.hashtable.len(&clock), 34, "{ctx}: len");
        assert_eq!(shared.hashtable.keys(&clock).len(), 34, "{ctx}: keys");
        let hist = shared.hashtable.chain_length_histogram(&clock);
        // 56 old buckets left, 8 migrated into 16.
        assert_eq!(hist.iter().sum::<u64>(), BUCKETS + 8, "{ctx}: slots walked");
        let entries: u64 = hist.iter().zip(0..).map(|(n, len)| n * len).sum();
        assert_eq!(entries, 34, "{ctx}: histogram");
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);

        // Remove the fullest bucket of the rolled-back chunk, then let
        // ordinary puts finish the split.
        let in_bucket = |b: u64| -> Vec<&String> {
            let lives_in = |k: &&String| pmdk_sim::hashtable::fnv1a(k.as_bytes()) % BUCKETS == b;
            ref_keys.iter().filter(lives_in).collect()
        };
        let doomed = (8..16).map(in_bucket).max_by_key(Vec::len).unwrap();
        assert!(!doomed.is_empty(), "{ctx}: no key in the second chunk");
        for key in &doomed {
            assert!(pmem.remove(key).unwrap(), "{ctx}: {key} was stored");
        }
        let mut i = 34u64;
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

fn wb_opts() -> Options {
    Options {
        hashtable_buckets: BUCKETS,
        wal_capacity: 1 << 20,
        ..Options::write_behind()
    }
}

const LOGGED: u64 = 40;

/// 40 write-behind puts, then a checkpoint whose drain pushes the table
/// over the split trigger and migrates.
fn drain_into_a_split(dev: &Arc<PmemDevice>, comm: &Comm) {
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(dev), comm).unwrap();
    // Puts land in the WAL; the hashtable only fills when the checkpoint
    // drains, which is what crosses the split trigger.
    for i in 0..LOGGED {
        put(&pmem, i).unwrap();
    }
    let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", BUCKETS).unwrap();
    assert!(!shared.hashtable.splitting(), "split began early");
    drop(shared);
    pmem.checkpoint().unwrap();
}

/// Write-behind WAL replay across an interrupted split: a crash at the
/// first crash point of the step that begins the split in the checkpoint
/// drain;
/// replay on reopen plus a second checkpoint must converge to the same bytes
/// as inline mode.
#[test]
fn wal_replay_recovers_across_interrupted_split() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        wal_replay_scenario(mode);
    }
}

fn wal_replay_scenario(mode: SchedMode) {
    let ctx = format!("wal-replay-over-split ({mode:?})");
    let (ref_keys, ref_records) = fixed_reference(LOGGED);
    let step = points(
        mode,
        drain_into_a_split,
        &[TxBegin],
        &[TxCommit, SplitBegin],
    );
    let dev = crashed(mode, drain_into_a_split, step[0]);
    let dev_in = Arc::clone(&dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx;
        // Reopen: replay rebuilds the front index over the partially
        // drained table, its split rolled back. Every key must read back.
        let mut pmem = Pmem::with_options(wb_opts());
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
