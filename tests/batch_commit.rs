//! Group-commit write batches: a batched store must produce byte-identical
//! records to the per-key path, while paying for one pool transaction and
//! one allocator pass per group instead of one per key.

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::{Machine, MetricsRegistry, PersistenceMode, PmemDevice, SimTime};
use pmemcpy::{MmapTarget, Pmem};
use std::sync::Arc;

fn mapped_single() -> (Pmem, Comm, Arc<PmemDevice>) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    (pmem, comm, dev)
}

/// Every record written through a batch is byte-identical to the one the
/// per-key path writes, and reads back identically.
#[test]
fn batched_and_unbatched_stores_are_equivalent() {
    let slice: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
    let block: Vec<f64> = (0..64).map(|i| i as f64 - 32.0).collect();

    // Per-key reference run.
    let (mut a, _comm_a, _dev_a) = mapped_single();
    a.store_scalar("s", 42u64).unwrap();
    a.store_slice("v", &slice).unwrap();
    a.alloc::<f64>("g", &[64]).unwrap();
    a.store_block("g", &block, &[0], &[64]).unwrap();
    a.set_attr("obj", "unit", "kelvin").unwrap();

    // Same stores, one group commit.
    let (mut b, _comm_b, _dev_b) = mapped_single();
    let mut batch = b.batch();
    batch.store_scalar("s", 42u64).unwrap();
    batch.store_slice("v", &slice).unwrap();
    batch.alloc::<f64>("g", &[64]).unwrap();
    // Dims resolve from the pending alloc in the same batch.
    batch.store_block("g", &block, &[0], &[64]).unwrap();
    batch.set_attr("obj", "unit", "kelvin").unwrap();
    assert_eq!(batch.len(), 5);
    batch.commit().unwrap();

    for key in ["s", "v", "g#dims", "g#block@0", "obj#attr:unit"] {
        assert_eq!(
            a.raw_record(key).unwrap(),
            b.raw_record(key).unwrap(),
            "record for {key} differs between per-key and batched stores"
        );
    }
    assert_eq!(b.load_scalar::<u64>("s").unwrap(), 42);
    assert_eq!(b.load_slice::<f64>("v").unwrap(), slice);
    let mut back = vec![0f64; 64];
    b.load_block("g", &mut back, &[0], &[64]).unwrap();
    assert_eq!(back, block);
    assert_eq!(b.get_attr("obj", "unit").unwrap(), "kelvin");
    a.munmap().unwrap();
    b.munmap().unwrap();
}

/// The deterministic counters prove the group commit collapses the
/// transaction and allocator work: one pool transaction and one allocator
/// pass for N keys, strictly fewer than the per-key path's N of each.
#[test]
fn group_commit_pays_one_transaction_and_one_allocator_pass() {
    const N: usize = 6;
    let payloads: Vec<Vec<f64>> = (0..N).map(|v| vec![v as f64; 512]).collect();

    let (mut batched, _c1, dev1) = mapped_single();
    let before = dev1.machine().stats.snapshot();
    let mut batch = batched.batch();
    for (v, p) in payloads.iter().enumerate() {
        batch.store_slice(&format!("var{v}"), p).unwrap();
    }
    batch.commit().unwrap();
    let after = dev1.machine().stats.snapshot();
    let batched_txs = after.pool_txs - before.pool_txs;
    let batched_passes = after.alloc_passes - before.alloc_passes;
    assert_eq!(batched_txs, 1, "batched commit must claim exactly one lane");
    assert_eq!(
        batched_passes, 1,
        "batched commit must walk the free list once"
    );

    let (mut perkey, _c2, dev2) = mapped_single();
    let before = dev2.machine().stats.snapshot();
    for (v, p) in payloads.iter().enumerate() {
        perkey.store_slice(&format!("var{v}"), p).unwrap();
    }
    let after = dev2.machine().stats.snapshot();
    let perkey_txs = after.pool_txs - before.pool_txs;
    let perkey_passes = after.alloc_passes - before.alloc_passes;
    assert_eq!(perkey_txs, N as u64);
    assert_eq!(perkey_passes, N as u64);
    assert!(batched_txs < perkey_txs && batched_passes < perkey_passes);

    // And the collapse is visible in virtual time: batching never loses.
    assert!(
        batched.now() <= perkey.now(),
        "batched write time {} exceeds per-key {}",
        batched.now(),
        perkey.now()
    );
    batched.munmap().unwrap();
    perkey.munmap().unwrap();
}

/// An empty batch is a no-op; a batch error (bad block shape) leaves nothing
/// staged-but-committed.
#[test]
fn empty_and_failed_batches_commit_nothing() {
    let (mut pmem, _comm, dev) = mapped_single();
    let before = dev.machine().stats.snapshot();
    pmem.batch().commit().unwrap();
    let after = dev.machine().stats.snapshot();
    assert_eq!(after.pool_txs - before.pool_txs, 0);

    let mut batch = pmem.batch();
    batch.store_scalar("ok", 1u64).unwrap();
    // No dims record for "nope": rejected at stage time.
    assert!(batch
        .store_block("nope", &[1.0f64; 3], &[0], &[64])
        .is_err());
    drop(batch); // never committed
    assert!(!pmem.exists("ok"));
    assert!(!pmem.exists("nope#block@0"));
    pmem.munmap().unwrap();
}

/// Rank 0 commits groups of fresh keys while rank 1 loads each key the
/// moment `exists` finds it. A group is published by the commit that makes
/// its values durable, so every load returns the value that was stored —
/// never the bytes a reservation held before its value was written, never a
/// record that does not decode. The device is tracked: every store and
/// flush takes its tracker lock, an interaction point, so under the
/// deterministic scheduler rank 1 runs wherever rank 0 could hand off.
fn a_key_is_never_visible_before_its_value(mode: SchedMode) {
    const GROUPS: u64 = 6;
    const KEYS: u64 = 8;
    let value = |i: u64| -> Vec<u64> { (0..3 + i % 5).map(|j| i << 8 | j).collect() };
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Tracked);
    run_world_mode(machine, 2, mode, move |comm| {
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        if comm.rank() == 0 {
            for g in 0..GROUPS {
                let values: Vec<_> = (g * KEYS..(g + 1) * KEYS).map(value).collect();
                let mut batch = pmem.batch();
                for (i, v) in (g * KEYS..).zip(&values) {
                    batch.store_slice(&format!("key{i}"), v).unwrap();
                }
                batch.commit().unwrap();
            }
        } else {
            let mut polled_early = 0;
            for i in 0..GROUPS * KEYS {
                let key = format!("key{i}");
                while !pmem.exists(&key) {
                    // A lookup charges inside atomic sections only: the poll
                    // owes the scheduler its turn, or rank 0 never gets one.
                    let poll = SimTime::from_nanos(100);
                    comm.machine()
                        .charge_compute_labeled(comm.clock(), poll, "poll");
                    std::thread::yield_now();
                    polled_early += 1;
                }
                match pmem.load_slice::<u64>(&key) {
                    Ok(got) => assert_eq!(got, value(i), "{key} read other bytes"),
                    Err(e) => panic!("{key} is listed and does not load: {e}"),
                }
            }
            // The two ranks did interleave: some key was looked for before
            // its group committed.
            if mode == SchedMode::Deterministic {
                assert!(polled_early > 0);
            }
        }
        comm.barrier();
        pmem.munmap().unwrap();
    });
}

#[test]
fn a_reader_never_sees_a_key_before_its_value() {
    a_key_is_never_visible_before_its_value(SchedMode::Deterministic);
}

/// The same race on free-running threads, several times over: host
/// interleavings the deterministic order does not take.
#[test]
fn a_reader_never_sees_a_key_before_its_value_free_threaded() {
    for _ in 0..16 {
        a_key_is_never_visible_before_its_value(SchedMode::FreeThreaded);
    }
}

/// Four free-running ranks commit groups of records — each stored with its
/// heads, behind the group's stripes — while they remove keys another rank
/// stored, on the same stripes: their blocks neighbour the blocks being
/// carved. Every lock order is stripe → heap, so the run ends; the heap it
/// leaves walks clean, and every key no rank removed reads back. It runs
/// with 8-byte scalars, and 1 KiB and 4 KiB byte records, whose fills are
/// longer than a window, and prints how often a stripe was found held.
#[test]
fn small_groups_and_removes_on_shared_stripes_end_with_a_clean_heap() {
    const RANKS: u64 = 4;
    const GROUPS: u64 = 12;
    const KEYS: u64 = 16;
    let key = |rank: u64, g: u64, j: u64| format!("r{rank}g{g}k{j}");
    let record = |len: usize, v: u64| vec![v as u8 ^ (v >> 8) as u8; len];
    for len in [8, 1024, 4096] {
        let machine = Machine::chameleon();
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let shared = Arc::clone(&dev);
        run_world_mode(
            machine,
            RANKS as usize,
            SchedMode::FreeThreaded,
            move |comm| {
                let mut pmem = Pmem::new();
                pmem.mmap(MmapTarget::DevDax(&shared), &comm).unwrap();
                let (rank, next) = (comm.rank() as u64, (comm.rank() as u64 + 1) % RANKS);
                for g in 0..GROUPS {
                    let values: Vec<_> = (0..KEYS)
                        .map(|j| record(len, rank << 16 | g << 8 | j))
                        .collect();
                    let mut batch = pmem.batch();
                    for (j, value) in (0..KEYS).zip(&values) {
                        let v = rank << 16 | g << 8 | j;
                        match len {
                            8 => batch.store_scalar(&key(rank, g, j), v).unwrap(),
                            _ => batch.store_slice(&key(rank, g, j), value).unwrap(),
                        }
                    }
                    batch.commit().unwrap();
                    // The even keys of the next rank's previous group, stored
                    // or not.
                    for j in (0..KEYS).step_by(2) {
                        pmem.remove(&key(next, g.saturating_sub(1), j)).unwrap();
                    }
                }
                comm.barrier();
                pmem.munmap().unwrap();
            },
        );
        let counters = registry.snapshot().counters;
        let total = |what: &str| -> u64 {
            (counters.iter())
                .filter(|(name, _)| name.starts_with("stripe.") && name.ends_with(what))
                .map(|(_, n)| n)
                .sum()
        };
        eprintln!(
            "{len} B records: stripe.*.contended {} of {} acquires",
            total(".contended"),
            total(".acquires")
        );
        let clock = pmem_sim::Clock::new();
        let pool = pmdk_sim::PmemPool::open(&clock, Arc::clone(&dev), "pmemcpy").unwrap();
        pool.check_heap().unwrap();
        drop(pool);
        let comm = Comm::new(World::new(Arc::clone(dev.machine()), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        for (rank, g) in (0..RANKS).flat_map(|r| (0..GROUPS).map(move |g| (r, g))) {
            for j in (1..KEYS).step_by(2) {
                let (k, v) = (key(rank, g, j), rank << 16 | g << 8 | j);
                match len {
                    8 => assert_eq!(pmem.load_scalar::<u64>(&k).unwrap(), v),
                    _ => assert_eq!(pmem.load_slice::<u8>(&k).unwrap(), record(len, v)),
                }
            }
        }
        pmem.munmap().unwrap();
    }
}

/// A group holds its transaction's lane while its values are written. Fig.
/// 6's widest cell — 24 ranks, each committing its output step as one group
/// — on free-running threads still finds a lane for every rank (a pool has
/// 32), and reads back what it wrote.
#[test]
fn twenty_four_free_threaded_ranks_never_run_out_of_lanes() {
    use pmemcpy_bench::{run_cell, CellConfig, Direction};
    let machine = pmem_sim::MachineConfig::chameleon_skylake();
    let mut cfg = CellConfig::paper_on(24, 2 << 20, machine);
    cfg.sched = SchedMode::FreeThreaded;
    for direction in [Direction::Write, Direction::Read] {
        let cell = run_cell(
            &baselines::PmemcpyLib::variant_a(),
            direction,
            &cfg,
            None,
            None,
        );
        assert_eq!(cell.mismatches, 0, "{direction:?}");
    }
}
