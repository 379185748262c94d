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
    // A torn chain: the mount reads the header only, so it mounts. The
    // first mutation's count takes the torn chain as empty, and mutations
    // of other chains go on; an insert into the torn one is refused. A
    // `next` that self-loops must not hang that walk, one that points past
    // the device must not trip the device's bounds assert.
    let entry = ht.get_ref(&clock, b"k").unwrap().offset - ENT_KEY - 1;
    let bucket = |k: &str| fnv1a(k.as_bytes()) % 16;
    let other = |same: bool| {
        let mut keys = (0..).map(|i| format!("o{i}"));
        keys.find(|o| (bucket(o) == bucket("k")) == same).unwrap()
    };
    let (healthy, behind_tear) = (other(false), other(true));
    for torn_next in [entry, pool.device().size() as u64 - 8] {
        pool.write_u64(&clock, entry + ENT_NEXT, torn_next);
        let torn = PersistentHashtable::open(&clock, &pool, header).unwrap();
        torn.put(&clock, healthy.as_bytes(), b"v").unwrap();
        assert_eq!(torn.live_estimate(), 1);
        assert!(torn.remove(&clock, healthy.as_bytes()).unwrap());
        let refused = torn.put(&clock, behind_tear.as_bytes(), b"v");
        assert!(matches!(refused, Err(PmdkError::BadPool(_))));
        assert_eq!(torn.live_estimate(), 0);
        assert!(!torn.splitting());
    }
    pool.write_u64(&clock, entry + ENT_NEXT, 0);
    let mended = PersistentHashtable::open(&clock, &pool, header).unwrap();
    assert!(!mended.remove(&clock, b"absent").unwrap());
    assert_eq!((mended.live_estimate(), mended.len(&clock)), (1, 1));
}

#[test]
fn fnv1a_is_stable() {
    // Pinned values keep on-pool layouts portable across builds.
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
}
