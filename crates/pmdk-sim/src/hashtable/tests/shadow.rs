// The volatile shadow index: `shadow.rs`.

/// A head served from a run is only as fresh as the run, so
/// `rebuild_shadow` fetches each run with the run's stripes held. One
/// thread keeps replacing the entries at the heads of their chains
/// (remove, then put: a fresh entry at the head, the old one freed and
/// its block reused) while another rebuilds the cache; afterwards every
/// cached ref must be the live entry of its key, not a freed one a stale
/// head led to.
#[test]
fn rebuilding_the_shadow_races_no_head_it_follows() {
    let (ht, _pool, clock) = table(1 << 23, 256);
    let keys: Vec<String> = (0..96).map(|i| format!("head-{i}")).collect();
    for k in &keys {
        ht.put(&clock, k.as_bytes(), k.as_bytes()).unwrap();
    }
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let clock = Clock::new();
            start.wait();
            for round in 0..40 {
                for k in keys.iter().skip(round % 3).step_by(3) {
                    assert!(ht.remove(&clock, k.as_bytes()).unwrap());
                    ht.put(&clock, k.as_bytes(), k.as_bytes()).unwrap();
                }
            }
        });
        let clock = Clock::new();
        start.wait();
        for _ in 0..40 {
            // At most one key is between its remove and its put.
            assert!(ht.rebuild_shadow(&clock) + 1 >= keys.len() as u64);
            std::thread::yield_now();
        }
    });
    let cached: Vec<(Vec<u8>, ValueRef)> = (ht.stripes.iter())
        .flat_map(|s| s.lock.lock().clone())
        .collect();
    assert_eq!(cached.len(), keys.len());
    ht.set_shadow_enabled(false); // cold walks from here on
    for (key, vref) in cached {
        assert_eq!(ht.get_ref(&clock, &key), Some(vref), "{key:?}");
        assert_eq!(ht.get(&clock, &key).unwrap(), key);
    }
}

#[test]
fn shadow_index_hits_skip_pool_reads_and_invalidate_on_mutation() {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, 16).unwrap();
    ht.put(&clock, b"cached", b"value-1").unwrap();
    // put's write-through makes the very first get a shadow hit.
    let before = registry.snapshot();
    assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-1");
    let after = registry.snapshot();
    assert_eq!(
        after.counter("shadow.hits") - before.counter("shadow.hits"),
        1
    );
    assert_eq!(
        after.counter("get.lookup.pool_reads"),
        before.counter("get.lookup.pool_reads"),
        "a shadow hit must not charge chain-walk reads"
    );
    // Overwrite invalidates, then re-caches the new location.
    ht.put(&clock, b"cached", b"value-2").unwrap();
    assert!(registry.snapshot().counter("shadow.invalidations") >= 1);
    assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-2");
    // Remove invalidates; the next lookup walks and misses.
    ht.remove(&clock, b"cached").unwrap();
    assert!(ht.get(&clock, b"cached").is_none());
    let s = registry.snapshot();
    assert!(s.counter("shadow.invalidations") >= 2);
    assert!(s.counter("shadow.misses") >= 1);
}

#[test]
fn rebuild_shadow_warms_the_cache_from_the_persistent_table() {
    let (ht, pool, clock) = table(1 << 22, 16);
    for i in 0..8u32 {
        ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    let (ht, _pool) = reopen(ht, pool, &clock);
    assert_eq!(ht.shadow_len(), 0, "reopened tables start cold");
    assert_eq!(ht.rebuild_shadow(&clock), 8);
    assert_eq!(ht.shadow_len(), 8);
    for i in 0..8u32 {
        assert_eq!(
            ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
            i.to_le_bytes()
        );
    }
}

#[test]
fn shadow_can_be_disabled() {
    let (ht, _pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"k", b"v").unwrap();
    assert!(ht.shadow_len() > 0);
    ht.set_shadow_enabled(false);
    assert_eq!(ht.shadow_len(), 0);
    assert_eq!(ht.get(&clock, b"k").unwrap(), b"v"); // chain walk still works
    assert_eq!(ht.shadow_len(), 0, "disabled cache must not repopulate");
    assert_eq!(ht.rebuild_shadow(&clock), 0);
}

/// The shadow invariant under an op mix: after every step each cached
/// key → [`ValueRef`] sits in the stripe its key routes to now and is the
/// entry a fresh chain walk finds. The table starts at 3 buckets and takes
/// at least 3 splits, so no old directory size is a multiple of the stripe
/// count and every chunk that moves a hi entry to another stripe must drop
/// its source stripes' caches.
#[test]
fn the_shadow_holds_each_cached_key_at_its_route_under_an_op_mix() {
    let (mut ht, mut pool, clock) = table(1 << 23, 3);
    let mut rng = DetRng::new(0x5AD0);
    let key = |i: u64| format!("mix-{i}").into_bytes();
    let (mut live, mut minted) = (BTreeMap::new(), 0u64);
    for step in 0..400 {
        match rng.index(8) {
            // A group put: fresh keys and overwrites of live ones.
            0..=3 => {
                let n = 1 + rng.index(6) as u64;
                let mut keys = std::collections::BTreeSet::new();
                for _ in 0..n {
                    keys.insert(match rng.index(3) {
                        0 if minted > 0 => key(rng.gen_range(0, minted)),
                        _ => {
                            minted += 1;
                            key(minted - 1)
                        }
                    });
                }
                let value = format!("v{step}").into_bytes();
                let reqs: Vec<(&[u8], u64)> =
                    keys.iter().map(|k| (&k[..], value.len() as u64)).collect();
                ht.put_many(&clock, &reqs, |_, _| Ok(Some(&value[..])))
                    .unwrap();
                live.extend(keys.into_iter().map(|k| (k, value.clone())));
            }
            4 | 5 if minted > 0 => {
                let k = key(rng.gen_range(0, minted));
                assert_eq!(ht.remove(&clock, &k).unwrap(), live.remove(&k).is_some());
            }
            _ if minted > 0 => {
                let k = key(rng.gen_range(0, minted));
                assert_eq!(ht.get(&clock, &k), live.get(&k).cloned());
            }
            _ => {}
        }
        if step == 200 {
            (ht, pool) = reopen(ht, pool, &clock);
            assert_eq!(ht.shadow_len(), 0);
        }
        let g = ht.geo();
        for (sid, stripe) in ht.stripes.iter().enumerate() {
            for (k, &vref) in stripe.lock.lock().iter() {
                let r = g.route(fnv1a(k));
                assert_eq!(r.sid, sid, "step {step}: {k:?} cached off its route");
                let mut walked = None;
                let (_, end) = walk_chain(&**pool.device(), r.head_slot, Fetch::Header, |e| {
                    if e.key(&**pool.device()) == *k {
                        walked = Some(value_ref_of(e));
                    }
                    walked.is_none()
                });
                end.unwrap();
                assert_eq!(walked, Some(vref), "step {step}: {k:?} cached stale");
            }
        }
    }
    assert!(ht.bucket_count() >= 3 << 3, "{} buckets", ht.bucket_count());
    assert!(ht.shadow_len() > 0);
    assert_eq!(ht.len(&clock), live.len() as u64);
}
