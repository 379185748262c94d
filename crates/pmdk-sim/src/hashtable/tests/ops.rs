// Mutation and lookup: `ops.rs`.

#[test]
fn put_get_round_trip() {
    let (ht, _pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"temperature", b"310.5K").unwrap();
    assert_eq!(ht.get(&clock, b"temperature").unwrap(), b"310.5K");
    assert!(ht.get(&clock, b"pressure").is_none());
    assert_eq!(ht.len(&clock), 1);
}

#[test]
fn replace_updates_value_and_keeps_count() {
    let (ht, pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"k", b"old").unwrap();
    ht.put(&clock, b"k", b"newer-value").unwrap();
    assert_eq!(ht.get(&clock, b"k").unwrap(), b"newer-value");
    assert_eq!(ht.len(&clock), 1);
    pool.check_heap().unwrap(); // replaced entry was freed
}

#[test]
fn remove_unlinks_and_frees() {
    let (ht, pool, clock) = table(1 << 22, 4);
    // Force collisions with few buckets.
    for i in 0..20u32 {
        ht.put(&clock, format!("key{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    assert_eq!(ht.len(&clock), 20);
    assert!(ht.remove(&clock, b"key7").unwrap());
    assert!(!ht.remove(&clock, b"key7").unwrap());
    assert!(ht.get(&clock, b"key7").is_none());
    assert_eq!(ht.get(&clock, b"key8").unwrap(), 8u32.to_le_bytes());
    assert_eq!(ht.len(&clock), 19);
    pool.check_heap().unwrap();
}

/// A fill that writes `value(i)` into key `i`'s window, behind the head it
/// shares a store with, and flushes it, as `Layout::store_many`'s does
/// through its mapping.
fn writing<'a>(
    pool: &'a PmemPool,
    clock: &'a Clock,
    value: impl Fn(usize) -> Vec<u8> + 'a,
) -> impl FnMut(usize, ValueRef, [&[u8]; 2]) -> Result<()> + 'a {
    move |i, v, head| {
        let bytes = value(i);
        assert_eq!(bytes.len() as u64, v.len);
        let start = v.offset as usize - head[0].len() - head[1].len();
        let whole = [head[0], head[1], &bytes].concat();
        pool.device().write_meta(clock, start, &whole);
        pool.device().flush(clock, start, whole.len());
        Ok(())
    }
}

/// A key longer than a 256-byte window, with an 8-byte and a 4 KiB value,
/// in one group and put alone: each reads back, and is durable once its put
/// returns.
#[test]
fn a_key_longer_than_a_window_is_stored_and_survives_a_crash() {
    let (ht, pool, clock) = table(1 << 22, 16);
    let keys: Vec<Vec<u8>> = (0..4u8).map(|i| [&[b'k'; 300][..], &[i]].concat()).collect();
    let value = |i: usize| vec![i as u8 + 1; [8, 4096][i % 2]];
    let reqs: Vec<(&[u8], u64, u64)> = (0..2)
        .map(|i| (keys[i].as_slice(), value(i).len() as u64, 0))
        .collect();
    ht.put_many(&clock, &reqs, writing(&pool, &clock, value))
        .unwrap();
    for (i, key) in keys.iter().enumerate().skip(2) {
        ht.put(&clock, key, &value(i)).unwrap();
    }
    pool.device().crash();
    let (ht, pool) = reopen(ht, pool, &clock);
    pool.check_heap().unwrap();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(ht.get(&clock, key).unwrap(), value(i), "key {i}");
    }
}

/// The entry names each value's header length: `get_ref` hands back what
/// `put_many` was given, from the mirror and from a cold walk after a
/// remount alike; `put` and `put_reserve_many` name none. A key of the
/// longest length the entry holds is stored and found.
#[test]
fn an_entry_carries_its_header_length_across_a_remount() {
    let (ht, pool, clock) = table(1 << 22, 16);
    let long = vec![b'k'; u16::MAX as usize];
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"rec", 1024, 97), (&long, 16, 16)];
    ht.put_many(&clock, &reqs, writing(&pool, &clock, |i| vec![i as u8; [1024, 16][i]]))
        .unwrap();
    ht.put(&clock, b"plain", b"v").unwrap();
    ht.put_reserve_many(&clock, &[(b"reserved", 8)]).unwrap();
    let heads = |ht: &PersistentHashtable| {
        let keys: [&[u8]; 4] = [b"rec", &long, b"plain", b"reserved"];
        let refs = ht.get_ref_many(&clock, &keys);
        refs.iter().map(|v| v.map(|v| (v.len, v.header_len))).collect::<Vec<_>>()
    };
    let want = vec![Some((1024, 97)), Some((16, 16)), Some((1, 0)), Some((8, 0))];
    assert_eq!(heads(&ht), want);
    let (ht, _pool) = reopen(ht, pool, &clock);
    assert_eq!(heads(&ht), want, "after a remount");
    assert_eq!(ht.get(&clock, &long).unwrap(), vec![1u8; 16]);
}

/// A length the entry cannot hold — a key over 65 535 bytes, a header
/// longer than its value or than 65 535 bytes — is refused with a typed
/// error before anything is stored: no `as u16` cast truncates it.
#[test]
fn put_many_refuses_a_length_its_entry_cannot_hold_before_any_store() {
    let (ht, pool, clock) = table(1 << 22, 8);
    let nothing = |_, _, _: [&[u8]; 2]| -> Result<()> { panic!("a refused group filled") };
    let huge = vec![b'k'; u16::MAX as usize + 1];
    let stats = || pool.device().machine().stats.snapshot();
    let before = stats();
    type Reqs<'a> = Vec<(&'a [u8], u64, u64)>;
    let cases: [(Reqs, PmdkError); 3] = [
        (
            vec![(b"fits", 8, 0), (&huge, 8, 0)],
            PmdkError::KeyTooLong { len: 1 << 16 },
        ),
        (
            vec![(b"fits", 8, 0), (b"head", 8, 9)],
            PmdkError::HeaderTooLong { header_len: 9, len: 8 },
        ),
        (
            vec![(b"wide", 1 << 20, 1 << 16)],
            PmdkError::HeaderTooLong { header_len: 1 << 16, len: 1 << 20 },
        ),
    ];
    for (reqs, want) in cases {
        assert_eq!(ht.put_many(&clock, &reqs, nothing).unwrap_err(), want);
    }
    let d = stats().delta_since(&before);
    assert_eq!((d.pmem_bytes_written, d.flush_calls, d.fences), (0, 0, 0));
    assert_eq!(ht.len(&clock), 0);
    assert!(ht.get_ref(&clock, b"fits").is_none());
    pool.check_heap().unwrap();
}

/// `put_reserve_many` is the group put with a fill that writes nothing:
/// the caller writes the value in place afterwards.
#[test]
fn put_reserve_allows_direct_value_writes() {
    let (ht, pool, clock) = table(1 << 22, 16);
    let vref = ht.put_reserve_many(&clock, &[(b"array", 8)]).unwrap()[0];
    pool.write_bytes(&clock, vref.offset, &42u64.to_le_bytes());
    let got = ht.get(&clock, b"array").unwrap();
    assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 42);
}

#[test]
fn put_many_is_one_tx_one_alloc_pass() {
    let (ht, pool, clock) = table(1 << 22, 8);
    let machine = Arc::clone(pool.device().machine());
    let before = machine.stats.snapshot();
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"alpha", 8, 0), (b"beta", 16, 0), (b"gamma", 8, 0), (b"delta", 32, 0)];
    let value = |i: usize| vec![reqs[i].0[0]; reqs[i].1 as usize];
    let refs = ht
        .put_many(&clock, &reqs, writing(&pool, &clock, value))
        .unwrap();
    let delta = machine.stats.snapshot().delta_since(&before);
    assert_eq!(delta.pool_txs, 1, "group commit must claim one lane");
    assert_eq!(delta.alloc_passes, 1, "group alloc must be one pass");
    assert_eq!(refs.len(), 4);
    for (i, ((key, vlen, _), vref)) in reqs.iter().zip(&refs).enumerate() {
        assert_eq!(vref.len, *vlen);
        assert_eq!(ht.get(&clock, key).unwrap(), value(i));
    }
    assert_eq!(ht.len(&clock), 4);
    pool.check_heap().unwrap();
}

#[test]
fn put_many_replaces_and_inserts_mixed() {
    let (ht, pool, clock) = table(1 << 22, 1); // everything chains
    ht.set_auto_resize(false);
    ht.put(&clock, b"a", b"old-a").unwrap();
    ht.put(&clock, b"b", b"old-b").unwrap();
    ht.put(&clock, b"keep", b"kept").unwrap();
    // Replace two adjacent chain entries and insert two fresh keys in
    // one group.
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"a", 5, 0), (b"b", 5, 0), (b"c", 5, 0), (b"d", 5, 0)];
    let value = |i: usize| [b"new-", reqs[i].0].concat();
    ht.put_many(&clock, &reqs, writing(&pool, &clock, value))
        .unwrap();
    assert_eq!(ht.len(&clock), 5);
    assert_eq!(ht.get(&clock, b"a").unwrap(), b"new-a");
    assert_eq!(ht.get(&clock, b"b").unwrap(), b"new-b");
    assert_eq!(ht.get(&clock, b"c").unwrap(), b"new-c");
    assert_eq!(ht.get(&clock, b"d").unwrap(), b"new-d");
    assert_eq!(ht.get(&clock, b"keep").unwrap(), b"kept");
    pool.check_heap().unwrap(); // replaced entries were freed
}

/// A fill that fails on its third key — a serializer error, say — rolls
/// the whole group back: the values already written sit in blocks the
/// rollback frees, no key of the group is visible, the key it would
/// have replaced keeps its value, and the stripes and the lane are free.
#[test]
fn a_fill_that_fails_rolls_back_the_whole_group() {
    let (ht, pool, clock) = table(1 << 22, 4);
    ht.put(&clock, b"replaced", b"original").unwrap();
    let allocated = pool.allocated_bytes();
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"n1", 8, 0), (b"replaced", 8, 0), (b"n2", 8, 0), (b"n3", 8, 0)];
    let err = {
        let mut fill = writing(&pool, &clock, |_| b"written!".to_vec());
        let failing = |i, v, head: [&[u8]; 2]| match i {
            2 => Err(PmdkError::TxFailure("the serializer failed".into())),
            _ => fill(i, v, head),
        };
        ht.put_many(&clock, &reqs, failing).unwrap_err()
    };
    assert_eq!(err, PmdkError::TxFailure("the serializer failed".into()));
    for key in [&b"n1"[..], b"n2", b"n3"] {
        assert!(ht.get(&clock, key).is_none());
    }
    assert_eq!(ht.get(&clock, b"replaced").unwrap(), b"original");
    assert_eq!((ht.len(&clock), pool.allocated_bytes()), (1, allocated));
    assert!(ht.stripes.iter().all(|s| s.lock.try_lock().is_some()));
    pool.check_heap().unwrap();
    let (ht, pool) = reopen(ht, pool, &clock);
    assert_eq!(ht.keys(&clock), vec![b"replaced".to_vec()]);
    pool.check_heap().unwrap();
}

/// An overwrite group logs its head and unlink words and stages its free
/// before its carve. A fill that fails after the carve's count store rolls
/// an `ACTIVE` lane back; a carve that does not fit aborts a lane never
/// published, its log and free slot stored and uncounted. Each runs on a
/// fresh lane (lane 0 held by an enclosing transaction) and on the lane
/// the earlier groups used, whose counts are stale: the old value reads
/// back byte-identical, the replaced block is still allocated, every lane
/// is IDLE and the heap is clean — before and after a remount.
#[test]
fn an_overwrite_group_that_fails_keeps_the_old_value_and_idles_every_lane() {
    for fresh_lane in [true, false] {
        for fits in [true, false] {
            let case = format!("fresh lane {fresh_lane}, carve fits {fits}");
            let (ht, pool, clock) = table(1 << 22, 4);
            ht.set_auto_resize(false);
            for key in [&b"a"[..], b"replaced", b"b"] {
                ht.put(&clock, key, b"original").unwrap();
            }
            let old = ht.get_ref(&clock, b"replaced").unwrap();
            let block = old.offset - ENT_KEY - b"replaced".len() as u64;
            let allocated = pool.allocated_bytes();
            let reqs: Vec<(&[u8], u64, u64)> =
                vec![(b"n1", 8, 0), (b"replaced", 8, 0), (b"n2", if fits { 8 } else { 8 << 20 }, 0)];
            let group = || {
                let mut fill = writing(&pool, &clock, |_| b"written!".to_vec());
                let failing = |i, v, head: [&[u8]; 2]| match i {
                    2 => Err(PmdkError::TxFailure("the serializer failed".into())),
                    _ => fill(i, v, head),
                };
                ht.put_many(&clock, &reqs, failing).unwrap_err()
            };
            let err = match fresh_lane {
                true => pool.tx(&clock, |_| Ok(group())).unwrap(),
                false => group(),
            };
            match fits {
                true => assert_eq!(err, PmdkError::TxFailure("the serializer failed".into())),
                false => assert!(matches!(err, PmdkError::OutOfMemory { .. }), "{err:?}"),
            }
            let check = |ht: &PersistentHashtable, pool: &PmemPool| {
                assert_eq!(ht.get_ref(&clock, b"replaced"), Some(old), "{case}");
                assert_eq!(ht.get(&clock, b"replaced").unwrap(), b"original", "{case}");
                assert!(pool.usable_size(block).is_ok(), "{case}: the old block was freed");
                assert!(ht.get(&clock, b"n1").is_none() && ht.get(&clock, b"n2").is_none());
                assert_eq!(pool.allocated_bytes(), allocated, "{case}");
                let idle = |i| pool.device().u32_at(lane_offset(i) + lane::STATE) == LANE_IDLE;
                assert!((0..LANES).all(idle), "{case}");
                pool.check_heap().unwrap();
            };
            check(&ht, &pool);
            let (ht, pool) = reopen(ht, pool, &clock);
            check(&ht, &pool);
        }
    }
}

/// A one-key overwrite whose fill fails after the carve's count store
/// rolls its lane back in process, and restores only what the group
/// stored: its head word, logged before the carve, is written only once
/// the carve commits, so the abort leaves it as it is. The count store —
/// the lane's header words with the freed block's record, the head
/// word's and the alloc intent (8 + 12 + 16 + 8 bytes) in one line —, the
/// tail (32), the commit header (32), the rollback's FREE word over the
/// new block (4) and IDLE (4): 5 fences, 5 flushes and 116 bytes written
/// (6, 7 and 128 while the records, the alloc slot and the counts were
/// three stores; 148 bytes while the rollback's free stored a merged
/// 32-byte header; 7 fences, 8 flushes and 156 bytes while every logged
/// word was restored).
#[test]
fn a_one_key_overwrite_whose_fill_fails_restores_no_word_it_never_wrote() {
    let (ht, pool, clock) = table(1 << 22, 4);
    ht.put(&clock, b"key", b"original").unwrap();
    let stats = || pool.device().machine().stats.snapshot();
    let before = stats();
    let failing = |_, _, _: [&[u8]; 2]| Err(PmdkError::TxFailure("the serializer failed".into()));
    ht.put_many(&clock, &[(b"key", 8, 0)], failing).unwrap_err();
    let paid = stats().delta_since(&before);
    assert_eq!((paid.fences, paid.flush_calls, paid.pmem_bytes_written), (5, 5, 116));
    assert_eq!(ht.get(&clock, b"key").unwrap(), b"original");
    let idle = |i| pool.device().u32_at(lane_offset(i) + lane::STATE) == LANE_IDLE;
    assert!((0..LANES).all(idle));
    pool.check_heap().unwrap();
}

/// The head's undo record holds what the walk read, not a second media
/// read (debug builds compare the two): a group that unlinks its
/// bucket's first and last entries and splices onto the one between
/// rolls back to the old chain, and commits to the new one.
#[test]
fn a_group_that_moves_its_head_rolls_back_and_commits_whole() {
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"a", 3, 0), (b"c", 3, 0), (b"d", 3, 0)];
    let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
        let ht = PersistentHashtable::create(clock, pool, 1).unwrap(); // c → b → a
        ht.set_auto_resize(false);
        for key in [b"a", b"b", b"c"] {
            ht.put(clock, key, b"old").unwrap();
        }
        ht.put_many(clock, &reqs, writing(pool, clock, |_| b"new".to_vec()))
            .unwrap();
        (ht.header_offset(), passed())
    });
    ht.set_auto_resize(false);
    for key in [b"a", b"b", b"c"] {
        assert_eq!(ht.get(&clock, key).unwrap(), b"old");
    }
    assert_eq!((ht.get(&clock, b"d"), ht.len(&clock)), (None, 3));

    ht.put_many(&clock, &reqs, writing(&pool, &clock, |_| b"new".to_vec()))
        .unwrap();
    for (key, want) in [
        (b"a", b"new"),
        (b"b", b"old"),
        (b"c", b"new"),
        (b"d", b"new"),
    ] {
        assert_eq!(ht.get(&clock, key).unwrap(), want);
    }
    assert_eq!(ht.len(&clock), 4);
    pool.check_heap().unwrap();
}

/// A put on a bucket the mirror does not know — every bucket, after a
/// mount — fetches its head pointer once — the walk's read serves the
/// splice and the undo record — and its commit reads nothing back: the
/// transaction knows which of its intents are frees.
#[test]
fn a_put_reads_its_bucket_head_once() {
    const BUCKETS: u64 = 4096;
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, BUCKETS).unwrap();
    let (ht, pool) = reopen(ht, pool, &clock);
    ht.set_auto_resize(false); // no count chunk: the puts' own reads only
    let mut taken = std::collections::HashSet::new();
    let mut fresh = (0u32..)
        .map(|i| format!("k{i}").into_bytes())
        .filter(|k| taken.insert(fnv1a(k) % BUCKETS));
    let reads = || registry.snapshot().hists["pmem.meta_read"].count;
    // A key in an empty bucket: the walk's read of the head. A 64-alloc
    // group commits without reading its 64 intent slots back.
    for group in [1, 3, 64] {
        let keys: Vec<Vec<u8>> = fresh.by_ref().take(group).collect();
        let reqs: Vec<(&[u8], u64, u64)> = keys.iter().map(|k| (k.as_slice(), 8, 0)).collect();
        let before = reads();
        ht.put_many(&clock, &reqs, writing(&pool, &clock, |_| vec![7; 8]))
            .unwrap();
        assert_eq!(reads() - before, group as u64);
    }
}

#[test]
fn put_many_rejects_duplicate_keys() {
    let (ht, pool, clock) = table(1 << 22, 8);
    let nothing = |_, _, _: [&[u8]; 2]| Ok(());
    let err = ht
        .put_many(&clock, &[(b"same", 4, 0), (b"same", 8, 0)], nothing)
        .unwrap_err();
    assert!(matches!(err, PmdkError::TxFailure(_)));
    // A length the entry header cannot hold is refused the same way:
    // an error, before anything is allocated.
    let err = ht
        .put_many(&clock, &[(b"fits", 4, 0), (b"huge", 1 << 32, 0)], nothing)
        .unwrap_err();
    assert_eq!(err, PmdkError::ValueTooLarge { len: 1 << 32 });
    assert_eq!(ht.len(&clock), 0);
    pool.check_heap().unwrap();
}

#[test]
fn crash_mid_batch_rolls_back_the_whole_group() {
    let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
        let ht = PersistentHashtable::create(clock, pool, 4).unwrap();
        ht.put(clock, b"pre-existing", b"survives").unwrap();
        ht.put(clock, b"replaced", b"original").unwrap();
        let reqs: Vec<(&[u8], u64, u64)> = vec![(b"n1", 8, 0), (b"replaced", 8, 0), (b"n2", 8, 0)];
        ht.put_many(clock, &reqs, writing(pool, clock, |_| b"the new!".to_vec()))
            .unwrap();
        (ht.header_offset(), passed())
    });
    // None of the batch's keys are visible; replaced keeps its old value.
    assert!(ht.get(&clock, b"n1").is_none());
    assert!(ht.get(&clock, b"n2").is_none());
    assert_eq!(ht.get(&clock, b"replaced").unwrap(), b"original");
    assert_eq!(ht.get(&clock, b"pre-existing").unwrap(), b"survives");
    assert_eq!(ht.len(&clock), 2);
    pool.check_heap().unwrap();
}

#[test]
fn crash_mid_put_leaves_old_value() {
    // The replacement is logged in full — the head's undo record, the
    // new entry's intent — and never commits.
    let (ht, pool, clock) = recovered_before_commit(1 << 22, |pool, clock, passed| {
        let ht = PersistentHashtable::create(clock, pool, 16).unwrap();
        ht.put(clock, b"k", b"stable").unwrap();
        ht.put(clock, b"k", b"doomed").unwrap();
        (ht.header_offset(), passed())
    });
    assert_eq!(ht.get(&clock, b"k").unwrap(), b"stable");
    assert_eq!(ht.len(&clock), 1);
    pool.check_heap().unwrap();
}

#[test]
fn get_ref_many_matches_per_key_gets() {
    let (ht, _pool, clock) = table(1 << 22, 2); // heavy bucket sharing
    for i in 0..10u32 {
        ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    let names: Vec<String> = (0..12).map(|i| format!("k{i}")).collect();
    let keys: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
    ht.set_shadow_enabled(false); // force the chain walks
    ht.set_shadow_enabled(true);
    let batched = ht.get_ref_many(&clock, &keys);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(batched[i], ht.get_ref(&clock, k), "key {i} diverged");
    }
    assert!(batched[10].is_none() && batched[11].is_none());
}

#[test]
fn single_pass_walk_charges_at_most_three_reads_per_key() {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, 4096).unwrap();
    for i in 0..32u32 {
        ht.put(&clock, format!("var{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    ht.set_shadow_enabled(false); // cold walks only
    ht.set_shadow_enabled(true);
    let before = registry.snapshot().counter("get.lookup.pool_reads");
    for i in 0..32u32 {
        assert!(ht.get_ref(&clock, format!("var{i}").as_bytes()).is_some());
    }
    let reads = registry.snapshot().counter("get.lookup.pool_reads") - before;
    // Single-entry buckets: head + header + key = 3 charged reads per
    // key (the pre-batch walk paid 6: head, hash, klen, key, klen, vlen).
    assert!(
        reads <= 3 * 32,
        "expected ≤ 3 reads/key from the single-pass walk, got {reads} for 32 keys"
    );
}

#[test]
fn chain_len_histogram_records_probe_depths() {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, 1).unwrap();
    ht.set_auto_resize(false);
    ht.set_shadow_enabled(false);
    for i in 0..4u32 {
        ht.put(&clock, format!("c{i}").as_bytes(), b"v").unwrap();
    }
    for i in 0..4u32 {
        assert!(ht.get_ref(&clock, format!("c{i}").as_bytes()).is_some());
    }
    let snap = registry.snapshot();
    let total = snap.hists.get("ht.chain_len").map(|h| h.count).unwrap_or(0);
    assert!(total >= 8, "writer finds + reader walks must record depths");
}

/// `ht.chain_len` records the entries a walk from the head passes to find a
/// put's or a remove's keys — the whole chain for a fresh key — whether the
/// mirror answered or a walk did: the same ops record the same histogram
/// with the mirror on and off.
#[test]
fn chain_len_is_the_chain_a_mutation_passes_whoever_answers() {
    let hist = |mirrored: bool| {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "ht").unwrap();
        let ht = PersistentHashtable::create(&clock, &pool, 1).unwrap();
        ht.set_auto_resize(false);
        ht.set_shadow_enabled(mirrored);
        for i in 0..6u32 {
            ht.put(&clock, format!("c{i}").as_bytes(), b"v").unwrap();
        }
        ht.put(&clock, b"c1", b"w").unwrap();
        assert!(ht.remove(&clock, b"c3").unwrap());
        assert!(!ht.remove(&clock, b"absent").unwrap());
        let h = registry.snapshot().hists["ht.chain_len"].clone();
        (h.count, h.sum.as_nanos(), h.max.as_nanos())
    };
    // Fresh puts pass 0..=5 entries; the overwrite of c1 stops at it (the
    // 5th of c5..c0), c3 then at the 4th of c1 c5 c4 c3 c2 c0, and the
    // absent key passes all 5 left.
    assert_eq!(hist(true), (9, 15 + 5 + 4 + 5, 5));
    assert_eq!(hist(false), hist(true));
}
