// Creating, opening and walking a table: `mod.rs`.

#[test]
fn chains_handle_collisions() {
    let (ht, _pool, clock) = table(1 << 22, 1); // everything collides
    ht.set_auto_resize(false); // pin the single bucket
    for i in 0..50u32 {
        ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    for i in 0..50u32 {
        assert_eq!(
            ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
            i.to_le_bytes()
        );
    }
    assert_eq!(ht.max_chain_len(&clock), 50);
}

#[test]
fn keys_enumerates_everything() {
    let (ht, _pool, clock) = table(1 << 22, 8);
    for name in ["a", "bb", "ccc"] {
        ht.put(&clock, name.as_bytes(), b"v").unwrap();
    }
    let mut keys = ht.keys(&clock);
    keys.sort();
    assert_eq!(keys, vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]);
}

#[test]
fn survives_reopen() {
    let (ht, pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"persisted", b"yes").unwrap();
    let (ht, _pool) = reopen(ht, pool, &clock);
    assert_eq!(ht.get(&clock, b"persisted").unwrap(), b"yes");
    assert_eq!(ht.len(&clock), 1);
}

#[test]
fn dirty_crash_reopen_recounts_from_chains() {
    let (ht, pool, clock) = table(1 << 22, 64);
    for i in 0..7u32 {
        ht.put(&clock, format!("k{i}").as_bytes(), b"v").unwrap();
    }
    // Crash without quiesce: dirty flag is set, header count stale.
    pool.device().crash();
    let (ht, pool) = reopen(ht, pool, &clock);
    assert_eq!(ht.len(&clock), 7);
    // The recount folded + cleared the flag with plain persisted writes.
    assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_COUNT), 7);
    assert_eq!(pool.read_u64(&clock, ht.header_offset() + HDR_DIRTY), 0);
}

#[test]
fn open_rejects_implausible_headers() {
    let (ht, pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"k", b"v").unwrap();
    let header = ht.header_offset();
    // Heads array past the device: bucket count huge but < 1<<32, which
    // the old check accepted.
    pool.write_u64(&clock, header + HDR_BUCKETS, 1 << 30);
    assert!(matches!(
        PersistentHashtable::open(&clock, &pool, header),
        Err(PmdkError::BadPool(_))
    ));
    pool.write_u64(&clock, header + HDR_BUCKETS, 16);
    // Heads array on the device but below the heap (the doctor's rule,
    // now open's too).
    let heads = pool.read_u64(&clock, header + HDR_HEADS);
    pool.write_u64(&clock, header + HDR_HEADS, 4096);
    assert!(matches!(
        PersistentHashtable::open(&clock, &pool, header),
        Err(PmdkError::BadPool(_))
    ));
    pool.write_u64(&clock, header + HDR_HEADS, heads);
    // Split state that is not old×2.
    pool.write_u64(&clock, header + HDR_OLD_BUCKETS, 7);
    assert!(matches!(
        PersistentHashtable::open(&clock, &pool, header),
        Err(PmdkError::BadPool(_))
    ));
    pool.write_u64(&clock, header + HDR_OLD_BUCKETS, 0);
    // Cursor with no old table.
    pool.write_u64(&clock, header + HDR_CURSOR, 3);
    assert!(matches!(
        PersistentHashtable::open(&clock, &pool, header),
        Err(PmdkError::BadPool(_))
    ));
    pool.write_u64(&clock, header + HDR_CURSOR, 0);
    // Dirty-flag recount over a torn chain: a `next` that self-loops
    // must not hang the open, one that points past the device must not
    // trip the device's bounds assert.
    let entry = ht.get_ref(&clock, b"k").unwrap().offset - ENT_KEY - 1;
    for torn_next in [entry, pool.device().size() as u64 - 8] {
        pool.write_u64(&clock, header + HDR_DIRTY, 1);
        pool.write_u64(&clock, entry + ENT_NEXT, torn_next);
        assert!(matches!(
            PersistentHashtable::open(&clock, &pool, header),
            Err(PmdkError::BadPool(_))
        ));
    }
    pool.write_u64(&clock, entry + ENT_NEXT, 0);
    assert!(PersistentHashtable::open(&clock, &pool, header).is_ok());
}

#[test]
fn fnv1a_is_stable() {
    // Pinned values keep on-pool layouts portable across builds.
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
}
