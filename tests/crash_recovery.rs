//! Crashes across the persistence stack: a power failure at any crash point
//! of a pMEMCPY store must leave the pool consistent and old data intact.

mod support;

use pmdk_sim::doctor::read_lanes;
use pmdk_sim::{PersistentHashtable, PmemPool};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use std::sync::Arc;
use support::device_with;

const LAYOUT: &str = "crash";

/// A pool on a fresh tracked device (`start` = `None`) or on the one in a
/// crash image — recovered, heap checked — holding the table at `header`
/// (created when fresh); then `key` = `value`, and a replacement of it with
/// `doomed`, with a power failure at crash point `k` of the run. Returns the
/// table's header, the marks where the replacement begins and ends, the
/// allocated bytes before the puts, and the durable image at `k`. A persist
/// of bytes already durable follows: its crash points, the first at the
/// end mark, lie past the replacement's commit point (`IDLE`, its last
/// store).
fn replace_crashed_at(
    start: Option<(&[u8], u64)>,
    (key, value, doomed): (&[u8], &[u8], &[u8]),
    k: usize,
) -> (u64, [usize; 2], u64, Option<Vec<u8>>) {
    let dev = match start {
        Some((image, _)) => device_with(image, PersistenceMode::Tracked),
        None => PmemDevice::new(Machine::chameleon(), 1 << 20, PersistenceMode::Tracked),
    };
    let crashed = dev.crash_at(k);
    let clock = Clock::new();
    let (pool, ht) = match start {
        Some((_, header)) => {
            let pool = PmemPool::open(&clock, dev, LAYOUT).unwrap();
            pool.check_heap().unwrap();
            let ht = PersistentHashtable::open(&clock, &pool, header).unwrap();
            (pool, ht)
        }
        None => {
            let pool = PmemPool::create(&clock, dev, LAYOUT).unwrap();
            let ht = PersistentHashtable::create(&clock, &pool, 32).unwrap();
            (pool, ht)
        }
    };
    let allocated = pool.allocated_bytes();
    ht.put(&clock, key, value).unwrap();
    let begin = crashed().0;
    ht.put(&clock, key, doomed).unwrap();
    let marks = [begin, crashed().0];
    pool.device().persist(&clock, 0, 8);
    (ht.header_offset(), marks, allocated, crashed().1)
}

const REPLACE: (&[u8], &[u8], &[u8]) = (b"key", b"stable-value", b"doomed-value");

/// The table a power failure left on `dev`, recovered.
fn recovered(dev: Arc<PmemDevice>, header: u64) -> (Arc<PmemPool>, PersistentHashtable, Clock) {
    let clock = Clock::new();
    let pool = PmemPool::open(&clock, dev, LAYOUT).unwrap();
    let ht = PersistentHashtable::open(&clock, &pool, header).unwrap();
    (pool, ht, clock)
}

/// Whether `image` is past a transaction's commit point, given whether an
/// earlier crash point found its lane ACTIVE: the lane is idle again.
fn past_commit(image: &PmemDevice, was_active: &mut bool) -> bool {
    let active = read_lanes(image).active > 0;
    let committed = *was_active && !active;
    *was_active |= active;
    committed
}

/// Crash at every crash point of a replace and the first past it: before
/// its commit point the table must still hold the old value, from it on
/// the new one, with one key and a clean heap throughout.
#[test]
fn hashtable_replace_is_crash_atomic_at_every_site() {
    let (_, [begin, end], ..) = replace_crashed_at(None, REPLACE, usize::MAX);
    let (mut committed, mut was_active) = (false, false);
    for k in begin..=end {
        let (header, _, _, image) = replace_crashed_at(None, REPLACE, k);
        let image = device_with(&image.unwrap(), PersistenceMode::Fast);
        committed |= past_commit(&image, &mut was_active);
        let (pool, ht, clock) = recovered(image, header);
        let want = if committed { REPLACE.2 } else { REPLACE.1 };
        assert_eq!(
            ht.get(&clock, b"key").as_deref(),
            Some(want),
            "crash point {k}"
        );
        assert_eq!(ht.len(&clock), 1, "crash point {k} corrupted the count");
        pool.check_heap()
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
    }
    assert!(committed, "the replace has a commit point");
}

/// Crash right *after* the commit point, with the replaced entry freed on
/// media (its FREE word is durable before `IDLE`) and not yet in the free
/// map: the new value must win and the old entry's block stays free.
#[test]
fn committed_replacement_survives_crash_during_cleanup() {
    let (_, [begin, end], allocated, _) = replace_crashed_at(None, REPLACE, usize::MAX);
    let mut was_active = false;
    let (header, image) = (begin..=end)
        .map(|k| replace_crashed_at(None, REPLACE, k))
        .map(|(header, _, _, image)| (header, device_with(&image.unwrap(), PersistenceMode::Fast)))
        .find(|(_, image)| past_commit(image, &mut was_active))
        .expect("a crash point past the replace's commit point");
    let (pool, ht, clock) = recovered(image, header);
    assert_eq!(ht.get(&clock, b"key").as_deref(), Some(REPLACE.2));
    assert_eq!(ht.len(&clock), 1);
    let entry = pmdk_sim::layout::align_up(24 + 3 + 12);
    assert_eq!(pool.allocated_bytes(), allocated + entry);
    pool.check_heap().unwrap();
}

/// Repeated crash/recover cycles with interleaved successful work: the pool
/// must stay usable and leak-free throughout. Each cycle crashes at a
/// different point of its replace, before and after its commit point.
#[test]
fn repeated_crash_cycles_do_not_leak() {
    let mut state: Option<(Vec<u8>, u64)> = None;
    let mut baseline = None;
    for round in 0..10u32 {
        let key = format!("k{round}");
        let put = (key.as_bytes(), &b"v"[..], &b"doomed"[..]);
        let start = state
            .as_ref()
            .map(|(image, header)| (image.as_slice(), *header));
        let (_, [begin, end], allocated, _) = replace_crashed_at(start, put, usize::MAX);
        baseline.get_or_insert(allocated);
        // Every third cycle crashes at the end mark, past the commit point.
        let k = match round % 3 {
            2 => end,
            _ => begin + (round as usize * 7) % (end - begin),
        };
        let (header, _, _, image) = replace_crashed_at(start, put, k);
        state = Some((image.unwrap(), header));
    }
    let (image, header) = state.unwrap();
    let (pool, ht, clock) = recovered(device_with(&image, PersistenceMode::Fast), header);
    pool.check_heap().unwrap();
    assert_eq!(ht.len(&clock), 10);
    // Allocations grew only by the 10 live entries, not by leaked doom.
    let per_entry = pmdk_sim::layout::align_up(24 + 2 + 6);
    let baseline = baseline.unwrap();
    assert!(
        pool.allocated_bytes() <= baseline + 10 * per_entry,
        "leak: {} vs baseline {baseline}",
        pool.allocated_bytes(),
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
