//! Property-style tests: transactions (crash atomicity at arbitrary crash
//! points) and the persistent hashtable against a HashMap model, driven by a
//! seeded deterministic generator (offline replacement for the former
//! proptest dependency; same invariants, reproducible cases).

use pmdk_sim::{PersistentHashtable, PmemPool};
use pmem_sim::{Clock, DetRng, Machine, PersistenceMode, PmemDevice};
use std::collections::HashMap;
use std::sync::Arc;

/// A transaction that crashes at any crash point before its commit point
/// (counted from its first: the lane going ACTIVE, to the end of its body)
/// leaves the pre-tx state bit-for-bit intact after recovery.
#[test]
fn tx_crash_at_any_snapshot_rolls_back() {
    let mut rng = DetRng::new(0xC4A5);
    let initial: Vec<u8> = (0..8 * 64).map(|i| (i % 251) as u8).collect();
    for case in 0..48 {
        let writes: Vec<(u64, Vec<u8>)> = (0..rng.gen_range(1, 8))
            .map(|_| {
                let slot = rng.gen_range(0, 8);
                let len = rng.gen_range(1, 64) as usize;
                let data = rng.bytes(len);
                (slot, data)
            })
            .collect();
        // Eight 64-byte slots with known contents, then the transaction;
        // crash point `k` of it, if `k` is given. The marks are where it
        // begins and where its body ends.
        let run = |k: Option<usize>| {
            let dev = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Tracked);
            let clock = Clock::new();
            let pool = PmemPool::create(&clock, Arc::clone(&dev), "txp").unwrap();
            let base = pool.alloc(&clock, 8 * 64).unwrap();
            pool.write_bytes(&clock, base, &initial);
            let crashed = dev.crash_at(k.unwrap_or(usize::MAX));
            let mut body_end = 0;
            pool.tx(&clock, |tx| {
                for (slot, data) in &writes {
                    tx.set(base + slot * 64, data)?;
                }
                body_end = crashed().0;
                Ok(())
            })
            .unwrap();
            (base, body_end, crashed().1)
        };
        let (_, body_end, _) = run(None);
        let k = rng.gen_range(0, body_end as u64 + 1) as usize;
        let (base, _, image) = run(Some(k));
        let dev = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Fast);
        dev.write_untimed(0, &image.unwrap());
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, dev, "txp").unwrap();
        let mut buf = vec![0u8; 8 * 64];
        pool.read_bytes(&clock, base, &mut buf);
        assert_eq!(
            buf, initial,
            "case {case}, crash point {k}: rollback not atomic"
        );
        if let Err(e) = pool.check_heap() {
            panic!("case {case}: {e}");
        }
    }
}

/// The persistent hashtable behaves exactly like a HashMap under an
/// arbitrary interleaving of puts, gets, and removes, across a crash and
/// remount halfway: the ops after it count the remounted table in the
/// chunks they pay for, and its `len` stays the model's.
#[test]
fn hashtable_matches_hashmap_model() {
    let mut rng = DetRng::new(0x4A54);
    for case in 0..48 {
        let ops: Vec<(u8, u16, Vec<u8>)> = (0..rng.gen_range(1, 80))
            .map(|_| {
                let kind = rng.gen_range(0, 3) as u8;
                let key_id = rng.gen_range(0, 24) as u16;
                let len = rng.gen_range(0, 40) as usize;
                let value = rng.bytes(len);
                (kind, key_id, value)
            })
            .collect();
        let buckets = rng.gen_range(1, 32);

        let dev = PmemDevice::new(Machine::chameleon(), 8 << 20, PersistenceMode::Tracked);
        let clock = Clock::new();
        let mut pool = PmemPool::create(&clock, Arc::clone(&dev), "htp").unwrap();
        let mut ht = PersistentHashtable::create(&clock, &pool, buckets).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();

        let remount = ops.len() / 2;
        for (n, (kind, key_id, value)) in ops.into_iter().enumerate() {
            if n == remount {
                let header = ht.header_offset();
                drop((ht, pool));
                dev.crash();
                pool = PmemPool::open(&clock, Arc::clone(&dev), "htp").unwrap();
                ht = PersistentHashtable::open(&clock, &pool, header).unwrap();
            }
            let key = format!("key-{key_id}").into_bytes();
            match kind {
                0 => {
                    ht.put(&clock, &key, &value).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    assert_eq!(
                        ht.get(&clock, &key),
                        model.get(&key).cloned(),
                        "case {case}"
                    );
                }
                _ => {
                    let removed = ht.remove(&clock, &key).unwrap();
                    assert_eq!(removed, model.remove(&key).is_some(), "case {case}");
                }
            }
            assert_eq!(ht.len(&clock), model.len() as u64, "case {case}");
        }
        // Final full comparison, including key enumeration.
        let mut keys = ht.keys(&clock);
        keys.sort();
        let mut expected: Vec<Vec<u8>> = model.keys().cloned().collect();
        expected.sort();
        assert_eq!(keys, expected, "case {case}");
        for (k, v) in &model {
            let got = ht.get(&clock, k);
            assert_eq!(got.as_ref(), Some(v), "case {case}");
        }
        if let Err(e) = pool.check_heap() {
            panic!("case {case}: {e}");
        }
    }
}
