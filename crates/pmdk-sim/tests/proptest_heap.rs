//! Property-style tests: the persistent allocator against a reference model,
//! driven by a seeded deterministic generator (offline replacement for the
//! former proptest dependency; same invariants, reproducible cases).

use pmdk_sim::PmemPool;
use pmem_sim::{Clock, DetRng, Machine, PersistenceMode, PmemDevice};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// One allocation of these sizes, all of them or none: `alloc` for a
    /// group of one, `alloc_many` otherwise.
    AllocMany(Vec<u64>),
    /// Free the nth live allocation (modulo count).
    Free(usize),
    /// Write a pattern into the nth live allocation and read it back.
    Touch(usize),
    /// Reopen the pool (rebuild volatile state) and re-check.
    Reopen,
}

fn arb_op(rng: &mut DetRng) -> Op {
    fn sizes(rng: &mut DetRng, n: u64) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(1, 5000)).collect()
    }
    match rng.pick_weighted(&[4, 2, 2, 1, 2]) {
        0 => Op::AllocMany(sizes(rng, 1)),
        1 => Op::Free(rng.next_u64() as usize),
        2 => Op::Touch(rng.next_u64() as usize),
        3 => Op::Reopen,
        _ => {
            let n = rng.gen_range(2, 6);
            Op::AllocMany(sizes(rng, n))
        }
    }
}

#[test]
fn allocator_matches_reference_model() {
    let mut rng = DetRng::new(0xA110C);
    for case in 0..64 {
        let ops: Vec<Op> = (0..rng.gen_range(1, 60))
            .map(|_| arb_op(&mut rng))
            .collect();
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let mut pool = PmemPool::create(&clock, Arc::clone(&dev), "prop").unwrap();

        // Reference model: live allocations and their fill pattern.
        let mut live: Vec<(u64, u64, u8)> = vec![]; // (off, size, pattern)
        let mut next_pattern = 1u8;
        let mut expected_bytes: HashMap<u64, (u64, u8)> = HashMap::new();

        for op in ops {
            match op {
                Op::AllocMany(sizes) => {
                    let got = match sizes[..] {
                        [size] => pool.alloc(&clock, size).map(|off| vec![off]),
                        _ => pool.alloc_many(&clock, &sizes),
                    };
                    match got {
                        Ok(offs) => {
                            assert_eq!(offs.len(), sizes.len(), "case {case}");
                            for (off, size) in offs.into_iter().zip(sizes) {
                                // No overlap with any live allocation.
                                for &(o, s, _) in &live {
                                    assert!(
                                        off + size <= o || off >= o + s,
                                        "case {case}: overlap: [{off},{}) vs [{o},{})",
                                        off + size,
                                        o + s
                                    );
                                }
                                let pat = next_pattern;
                                next_pattern = next_pattern.wrapping_add(1).max(1);
                                pool.write_bytes(&clock, off, &vec![pat; size as usize]);
                                live.push((off, size, pat));
                                expected_bytes.insert(off, (size, pat));
                            }
                        }
                        // All or nothing: a group that does not fit leaves
                        // nothing allocated behind.
                        Err(pmdk_sim::PmdkError::OutOfMemory { .. }) => assert_eq!(
                            pool.allocated_bytes(),
                            live.iter()
                                .map(|&(off, _, _)| pool.usable_size(off).unwrap())
                                .sum::<u64>(),
                            "case {case}"
                        ),
                        Err(e) => panic!("case {case}: alloc: {e}"),
                    }
                }
                Op::Free(n) => {
                    if !live.is_empty() {
                        let (off, _, _) = live.remove(n % live.len());
                        expected_bytes.remove(&off);
                        pool.free(&clock, off).unwrap();
                        // Double free must fail.
                        assert!(pool.free(&clock, off).is_err(), "case {case}");
                    }
                }
                Op::Touch(n) => {
                    if !live.is_empty() {
                        let (off, size, pat) = live[n % live.len()];
                        let mut buf = vec![0u8; size as usize];
                        pool.read_bytes(&clock, off, &mut buf);
                        assert!(
                            buf.iter().all(|&b| b == pat),
                            "case {case}: pattern torn at {off}"
                        );
                    }
                }
                Op::Reopen => {
                    let dev2 = Arc::clone(pool.device());
                    drop(pool);
                    pool = PmemPool::open(&clock, dev2, "prop").unwrap();
                    // All live data must survive.
                    for (&off, &(size, pat)) in &expected_bytes {
                        let mut buf = vec![0u8; size as usize];
                        pool.read_bytes(&clock, off, &mut buf);
                        assert!(
                            buf.iter().all(|&b| b == pat),
                            "case {case}: lost data at {off}"
                        );
                    }
                }
            }
            if let Err(e) = pool.check_heap() {
                panic!("case {case}: invariant: {e}");
            }
        }
    }
}

/// `alloc(s)` is `alloc_many(&[s])`: twin pools driven by the same script,
/// one through each spelling, hand out the same offsets, charge the same
/// virtual time and end byte-identical.
#[test]
fn a_group_of_one_is_an_alloc_image_for_image() {
    const BYTES: usize = 1 << 20;
    let mut rng = DetRng::new(0x0221);
    for case in 0..32 {
        let ops: Vec<Op> = (0..rng.gen_range(1, 60))
            .map(|_| arb_op(&mut rng))
            .collect();
        let twin = || {
            let dev = PmemDevice::new(Machine::chameleon(), BYTES, PersistenceMode::Fast);
            let clock = Clock::new();
            let pool = PmemPool::create(&clock, dev, "prop").unwrap();
            (pool, clock)
        };
        let (a, a_clock) = twin();
        let (b, b_clock) = twin();
        let mut live: Vec<u64> = vec![];
        for op in ops {
            match op {
                Op::AllocMany(sizes) => {
                    let group = match sizes[..] {
                        [size] => a.alloc(&a_clock, size).ok().map(|off| vec![off]),
                        _ => a.alloc_many(&a_clock, &sizes).ok(),
                    };
                    assert_eq!(group, b.alloc_many(&b_clock, &sizes).ok(), "case {case}");
                    live.extend(group.into_iter().flatten());
                }
                Op::Free(n) if !live.is_empty() => {
                    let off = live.remove(n % live.len());
                    a.free(&a_clock, off).unwrap();
                    b.free(&b_clock, off).unwrap();
                }
                _ => {}
            }
            assert_eq!(a_clock.now(), b_clock.now(), "case {case}");
        }
        let image = |pool: &PmemPool| pool.device().read_vec_untimed(0, BYTES);
        assert!(image(&a) == image(&b), "case {case}: the images differ");
    }
}

#[test]
fn usable_size_is_at_least_requested() {
    let mut rng = DetRng::new(0x517E);
    for _case in 0..64 {
        let size = rng.gen_range(1, 100_000);
        let dev = PmemDevice::new(Machine::chameleon(), 8 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "sz").unwrap();
        let off = pool.alloc(&clock, size).unwrap();
        assert!(pool.usable_size(off).unwrap() >= size);
    }
}
