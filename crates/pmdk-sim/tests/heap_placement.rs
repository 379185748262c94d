//! Where the allocator puts things, pinned: a scripted `alloc` / `free` /
//! `alloc_many` sequence over every carve shape yields these payload offsets
//! and this physical block list, recorded before `alloc` became a group of
//! one (PR 22). Sizes no heap can hold are `OutOfMemory`, in release builds
//! too — wrapping arithmetic used to hand out zero-byte blocks.

use pmdk_sim::layout::{heap_start, walk_blocks, BLOCK_ALLOC, BLOCK_HEADER_SIZE};
use pmdk_sim::{PersistentLog, PmdkError, PmemPool};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use std::sync::Arc;

const POOL_BYTES: usize = 2 << 20;

fn fresh_pool() -> (Arc<PmemPool>, Clock) {
    let dev = PmemDevice::new(Machine::chameleon(), POOL_BYTES, PersistenceMode::Fast);
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "placement").unwrap();
    (pool, clock)
}

/// `(header offset relative to the heap, is allocated, payload size)` per
/// physical block, in address order.
fn blocks(pool: &PmemPool) -> Vec<(u64, bool, u64)> {
    let mut out = vec![];
    let dev = pool.device();
    walk_blocks(dev, heap_start(), dev.size() as u64, false, |block| {
        let (at, h) = block.expect("the heap walks clean");
        out.push((at - heap_start(), h.state == BLOCK_ALLOC, h.size));
        true
    });
    out
}

#[test]
fn a_scripted_sequence_lands_where_it_always_did() {
    let (pool, clock) = fresh_pool();
    // Every payload offset handed out, relative to the heap, in order.
    let got = std::cell::RefCell::new(vec![]);
    let many = |sizes: &[u64]| {
        let offs = pool.alloc_many(&clock, sizes).unwrap();
        got.borrow_mut()
            .extend(offs.iter().map(|off| off - heap_start()));
        offs
    };
    let one = |size: u64| {
        let off = pool.alloc(&clock, size).unwrap();
        got.borrow_mut().push(off - heap_start());
        off
    };
    // Splits of the one big block.
    let a = one(1000);
    let b = one(200);
    let _c = one(64);
    let d = one(4096);
    let _e = one(64);
    // Exact fit: the hole `b` left is reused whole, nothing to split off.
    pool.free(&clock, b).unwrap();
    one(256);
    // A group splits the hole `d` left; the hole has a successor.
    pool.free(&clock, d).unwrap();
    many(&[64, 200, 64]);
    // Whole block, slack absorbed: 32 bytes cannot stand alone as a block.
    let whole = one(3580);
    assert_eq!(pool.usable_size(whole).unwrap(), 3616);
    // A group of one.
    many(&[64]);
    // Leave a 1 KiB and a 1.5 KiB hole and nothing else: no single block
    // fits a pair of 900s.
    let tail = pool.free_bytes();
    one(tail - 1536 - BLOCK_HEADER_SIZE);
    pool.free(&clock, a).unwrap();
    let before = blocks(&pool);
    let err = pool.alloc_many(&clock, &[900, 900, 900]).unwrap_err();
    assert!(matches!(err, PmdkError::OutOfMemory { requested: 900 }));
    assert_eq!(blocks(&pool), before, "a failed group leaves no trace");
    pool.check_heap().unwrap();
    // Two carves: the 1 KiB hole whole, then a split of the other.
    many(&[900, 900]);
    pool.check_heap().unwrap();

    assert_eq!(*got.borrow(), GOLDEN_OFFSETS);
    assert_eq!(blocks(&pool), GOLDEN_BLOCKS);
}

const GOLDEN_OFFSETS: [u64; 14] = [
    32, 1088, 1376, 1472, 5600, 1088, 1472, 1568, 1856, 1952, 5696, 5792, 32, 1501696,
];
const GOLDEN_BLOCKS: [(u64, bool, u64); 12] = [
    (0, true, 1024),
    (1056, true, 256),
    (1344, true, 64),
    (1440, true, 64),
    (1536, true, 256),
    (1824, true, 64),
    (1920, true, 3616),
    (5568, true, 64),
    (5664, true, 64),
    (5760, true, 1495872),
    (1501664, true, 960),
    (1502656, false, 512),
];

#[test]
fn a_size_that_wraps_when_aligned_is_out_of_memory() {
    let (pool, clock) = fresh_pool();
    let before = blocks(&pool);
    for size in [u64::MAX, u64::MAX - 10, u64::MAX - 63] {
        let err = pool.alloc(&clock, size).unwrap_err();
        assert!(
            matches!(err, PmdkError::OutOfMemory { requested } if requested == size),
            "{err}"
        );
    }
    assert_eq!(blocks(&pool), before);
    pool.check_heap().unwrap();
}

#[test]
fn a_group_whose_sum_wraps_is_out_of_memory() {
    let (pool, clock) = fresh_pool();
    let before = blocks(&pool);
    let half = u64::MAX / 2 + 64;
    let err = pool.alloc_many(&clock, &[half, half]).unwrap_err();
    assert!(matches!(err, PmdkError::OutOfMemory { .. }), "{err}");
    let err = pool.alloc_many(&clock, &[64, u64::MAX - 10]).unwrap_err();
    assert!(matches!(err, PmdkError::OutOfMemory { .. }), "{err}");
    assert_eq!(blocks(&pool), before);
    pool.check_heap().unwrap();
}

/// `Options { wal_capacity: u64::MAX, ..Options::write_behind() }` passes
/// `validate()` and lands here; the ring used to be a zero-byte block and the
/// first append overwrote its neighbour.
#[test]
fn a_log_no_pool_can_hold_is_refused() {
    let (pool, clock) = fresh_pool();
    let err = PersistentLog::create(&clock, &pool, u64::MAX)
        .err()
        .unwrap();
    assert!(matches!(err, PmdkError::OutOfMemory { .. }), "{err}");
    pool.check_heap().unwrap();
}
