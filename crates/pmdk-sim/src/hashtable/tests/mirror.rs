// The volatile mirror of the chains: `mirror.rs`.

impl PersistentHashtable {
    /// Number of mirrored entries.
    fn shadow_len(&self) -> usize {
        let len = |s: &Stripe| s.lock.lock().chains.values().map(|c| c.entries.len()).sum::<usize>();
        self.stripes.iter().map(len).sum()
    }
}

/// Every key the mirror holds, with the value its entry locates.
fn mirrored(ht: &PersistentHashtable) -> Vec<(Vec<u8>, ValueRef)> {
    let mut out = Vec::new();
    for s in &ht.stripes {
        for chain in s.lock.lock().chains.values() {
            let known = chain.entries.iter().filter_map(|k| Some((k.key.as_deref()?.to_vec(), value_ref_of(&k.e))));
            out.extend(known);
        }
    }
    out
}

/// A head served from a run is only as fresh as the run, so
/// `rebuild_shadow` fetches each run with the run's stripes held. One
/// thread keeps replacing the entries at the heads of their chains
/// (remove, then put: a fresh entry at the head, the old one freed and
/// its block reused) while another rebuilds the mirror; afterwards every
/// mirrored ref must be the live entry of its key, not a freed one a stale
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
    let cached = mirrored(&ht);
    assert_eq!(cached.len(), keys.len());
    ht.set_shadow_enabled(false); // cold walks from here on
    for (key, vref) in cached {
        assert_eq!(ht.get_ref(&clock, &key), Some(vref), "{key:?}");
        assert_eq!(ht.get(&clock, &key).unwrap(), key);
    }
}

/// Gets, overwrites and removes on a table created this session are all
/// answered from the mirror: the mirror takes each committed splice, so a
/// get after an overwrite finds the new value and one after a remove finds
/// nothing, neither walking the pool.
#[test]
fn shadow_index_hits_skip_pool_reads_and_invalidate_on_mutation() {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, 16).unwrap();
    ht.put(&clock, b"cached", b"value-1").unwrap();
    let hits = || registry.snapshot().counter("shadow.hits");
    let before = registry.snapshot();
    assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-1");
    ht.put(&clock, b"cached", b"value-2").unwrap();
    assert_eq!(ht.get(&clock, b"cached").unwrap(), b"value-2");
    ht.remove(&clock, b"cached").unwrap();
    assert!(ht.get(&clock, b"cached").is_none());
    let after = registry.snapshot();
    assert_eq!(hits() - before.counter("shadow.hits"), 3);
    assert_eq!(after.counter("shadow.misses"), 0);
    assert_eq!(
        after.counter("get.lookup.pool_reads"),
        before.counter("get.lookup.pool_reads"),
        "an answer from the mirror must not charge chain-walk reads"
    );
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
    assert_eq!(ht.shadow_len(), 0, "disabled mirror must not repopulate");
    assert_eq!(ht.rebuild_shadow(&clock), 0);
}

/// The mirror invariant: each bucket the mirror knows holds a prefix of
/// the chain a fresh walk finds — header for header, each mirrored key the
/// entry's — and the word after it, so a complete one reaches the nul
/// tail; no bucket number no reachable slot has is known or holds a chain,
/// and no chain is off its stripe. Returns how many known buckets are not
/// complete.
fn assert_the_mirror_is_a_prefix(ht: &PersistentHashtable, dev: &PmemDevice, what: &str) -> usize {
    let g = ht.geo();
    let slots: BTreeMap<u64, u64> = g.head_slots().map(|(slot, b)| (b, slot)).collect();
    assert_eq!(slots.len(), g.head_slots().count(), "{what}: reachable slots share a number");
    let mut partial = 0;
    for (sid, stripe) in ht.stripes.iter().enumerate() {
        let mut mirror = stripe.lock.lock();
        for b in mirror.chains.keys() {
            let routed = slots.contains_key(b).then(|| stripe_of(*b));
            assert_eq!(routed, Some(sid), "{what}: chain of bucket {b} off its route");
        }
        for (w, word) in mirror.known.iter().enumerate() {
            for bit in (0..64).filter(|bit| word >> bit & 1 == 1) {
                let b = ((w * 64 + bit) * STRIPES + sid) as u64;
                assert!(slots.contains_key(&b), "{what}: bucket {b} known, not reachable");
            }
        }
        for (&b, &slot) in slots.iter().filter(|&(&b, _)| stripe_of(b) == sid) {
            let Some(chain) = mirror.take(b) else {
                continue;
            };
            let mut walked = Vec::new();
            let (_, end) = walk_from(dev, slot, dev.u64_at(slot), Fetch::Header, |e| {
                walked.push((*e, e.key(dev)));
                true
            });
            end.unwrap();
            assert!(chain.entries.len() <= walked.len(), "{what}: {slot:#x}");
            for (k, (e, key)) in chain.entries.iter().zip(&walked) {
                let header = |e: &Entry| (e.at, e.slot, e.hash, (e.klen, e.hlen, e.vlen), e.next);
                assert_eq!(header(&k.e), header(e), "{what}: {slot:#x}");
                if let Some(known) = &k.key {
                    assert_eq!(**known, key[..], "{what}: {slot:#x}");
                }
            }
            let after = walked.get(chain.entries.len()).map_or(0, |(e, _)| e.at);
            assert_eq!(chain.tail, after, "{what}: {slot:#x}: the word after the prefix");
            partial += (chain.tail != 0) as usize;
            mirror.put(b, Some(chain));
        }
    }
    partial
}

/// `image` on a device of its own, mounted: the pool recovered, the table
/// attached cold.
fn mounted(image: &[u8], header: u64, clock: &Clock) -> (PersistentHashtable, Arc<PmemPool>) {
    let dev = PmemDevice::new(Machine::chameleon(), image.len(), PersistenceMode::Tracked);
    dev.write_untimed(0, image);
    dev.persist_untimed(0, image.len());
    let pool = PmemPool::open(clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::open(clock, &pool, header).unwrap();
    (ht, pool)
}

/// The mirror invariant under an op mix: group puts of fresh keys and
/// overwrites, removes, gets of live, removed and never-minted keys,
/// crashes between operations and crashes inside a migration chunk, each
/// followed by a mount that starts every bucket unknown. After every step
/// [`assert_the_mirror_is_a_prefix`] holds and every live key reads back.
/// The table starts at 3 buckets and takes at least 3 splits, so no old
/// directory size is a multiple of the stripe count and a chunk moves hi
/// entries to other stripes.
#[test]
fn the_shadow_holds_each_cached_key_at_its_route_under_an_op_mix() {
    let (mut ht, mut pool, clock) = table(1 << 23, 3);
    let mut rng = DetRng::new(0x5AD0);
    let key = |i: u64| format!("mix-{i}").into_bytes();
    let (mut live, mut minted) = (BTreeMap::new(), 0u64);
    let (mut crashes, mut mid_chunk, mut partial) = (0, 0, 0);
    for step in 0..400 {
        match rng.index(10) {
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
                let reqs: Vec<(&[u8], u64, u64)> =
                    keys.iter().map(|k| (&k[..], value.len() as u64, 0)).collect();
                ht.put_many(&clock, &reqs, ht.storing(&clock, &value))
                    .unwrap();
                live.extend(keys.into_iter().map(|k| (k, value.clone())));
            }
            4 | 5 if minted > 0 => {
                let k = key(rng.gen_range(0, minted));
                assert_eq!(ht.remove(&clock, &k).unwrap(), live.remove(&k).is_some());
            }
            6 | 7 if minted > 0 => {
                let k = key(rng.gen_range(0, minted + minted / 4));
                assert_eq!(ht.get(&clock, &k), live.get(&k).cloned(), "step {step}");
            }
            // A crash: between operations, or inside the next migration
            // chunk when a split is in flight.
            8 => {
                let (dev, header) = (Arc::clone(pool.device()), ht.header_offset());
                let image = match ht.splitting() {
                    true => {
                        let crashed = dev.crash_at(rng.index(4));
                        ht.help_migrate(&clock).unwrap();
                        crashed().1
                    }
                    false => None,
                };
                mid_chunk += image.is_some() as usize;
                let image = image.unwrap_or_else(|| {
                    dev.crash();
                    dev.read_vec_untimed(0, dev.size())
                });
                drop((ht, pool));
                (ht, pool) = mounted(&image, header, &clock);
                crashes += 1;
                assert_eq!(ht.shadow_len(), 0, "a mount starts every bucket unknown");
            }
            _ => {}
        }
        let what = format!("step {step}");
        partial += assert_the_mirror_is_a_prefix(&ht, pool.device(), &what);
    }
    for (k, v) in &live {
        assert_eq!(ht.get(&clock, k).as_ref(), Some(v));
    }
    partial += assert_the_mirror_is_a_prefix(&ht, pool.device(), "read back");
    assert!(ht.bucket_count() >= 3 << 3, "{} buckets", ht.bucket_count());
    assert!(crashes > 10 && mid_chunk > 0, "{crashes} crashes, {mid_chunk} mid-chunk");
    assert!(partial > 0, "no walk stopped short of a chain's end");
    assert!(ht.shadow_len() > 0);
    assert_eq!(ht.len(&clock), live.len() as u64);
}

/// A table with a registry on its machine, and the metadata reads made so
/// far.
fn metered(buckets: u64) -> (PersistentHashtable, Arc<PmemPool>, Clock, impl Fn() -> u64) {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, buckets).unwrap();
    let reads = move || registry.snapshot().hists.get("pmem.meta_read").map_or(0, |h| h.count);
    (ht, pool, clock, reads)
}

/// `pmem.meta_read`s a path makes. On buckets the mirror holds whole, a
/// put (fresh or overwrite), a remove, a get of an absent key and a
/// migration chunk read nothing. After a mount a cold get reads what a walk
/// from the head does — the head, every header up to its key, its key — and
/// a second key of that bucket resumes where that walk stopped, re-reading
/// none of it.
#[test]
fn each_path_reads_only_what_the_mirror_lacks() {
    let (ht, _pool, clock, reads) = metered(64);
    ht.set_auto_resize(false);
    let counted = |what: &str, want: u64, op: &dyn Fn()| {
        let before = reads();
        op();
        assert_eq!(reads() - before, want, "{what}");
    };
    for i in 0..40 {
        counted("a fresh put", 0, &|| {
            ht.put(&clock, format!("w{i}").as_bytes(), b"v").unwrap();
        });
    }
    let group: Vec<Vec<u8>> = (30..50).map(|i| format!("w{i}").into_bytes()).collect();
    let reqs: Vec<(&[u8], u64, u64)> = group.iter().map(|k| (&k[..], 8, 0)).collect();
    counted("a group of overwrites and fresh keys", 0, &|| {
        ht.put_many(&clock, &reqs, ht.storing(&clock, b"12345678"))
            .unwrap();
    });
    counted("a remove", 0, &|| assert!(ht.remove(&clock, b"w7").unwrap()));
    counted("an absent remove", 0, &|| assert!(!ht.remove(&clock, b"w7").unwrap()));
    counted("an absent get", 0, &|| assert!(ht.get_ref(&clock, b"absent").is_none()));
    counted("a present get", 0, &|| assert!(ht.get_ref(&clock, b"w8").is_some()));
    counted("the step that begins a split", 0, &|| ht.help_migrate(&clock).unwrap());
    assert!(ht.splitting());
    while ht.splitting() {
        counted("a migration chunk", 0, &|| ht.help_migrate(&clock).unwrap());
    }
    counted("a put after the split", 0, &|| {
        ht.put(&clock, b"w8", b"again").unwrap();
    });

    // A cold bucket: c → b → a, after a mount.
    let (ht, pool, clock, reads) = metered(1);
    ht.set_auto_resize(false);
    for key in [b"a", b"b", b"c"] {
        ht.put(&clock, key, b"v").unwrap();
    }
    let (ht, _pool) = reopen(ht, pool, &clock);
    let counted = |what: &str, want: u64, key: &[u8]| {
        let before = reads();
        assert!(ht.get_ref(&clock, key).is_some(), "{what}");
        assert_eq!(reads() - before, want, "{what}");
    };
    counted("b cold: the head, c's and b's headers, b's key", 4, b"b");
    counted("c: its key, its header already mirrored", 1, b"c");
    counted("a: resumed at b's next — a's header and key", 2, b"a");
    counted("b again", 0, b"b");
    let before = reads();
    assert!(ht.get_ref(&clock, b"d").is_none());
    assert_eq!(reads() - before, 0, "the bucket is complete");
}

/// One charge rule for every lookup: a bucket the mirror answers whole
/// costs one `index.probe` however many of its keys are asked for, by a
/// put group or a get; a bucket it answers only in part pays its walk's
/// reads and no probe. Each bucket looked up records one `ht.chain_len`.
#[test]
fn each_bucket_the_mirror_answers_costs_one_probe() {
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, 1).unwrap();
    ht.set_auto_resize(false);
    // (probes, chain_len records, metadata reads) an op makes.
    let counted = |op: &dyn Fn()| {
        let names = ["index.probe", "ht.chain_len", "pmem.meta_read"];
        let count = || names.map(|n| registry.snapshot().hists.get(n).map_or(0, |h| h.count));
        let before = count();
        op();
        let after = count();
        (after[0] - before[0], after[1] - before[1], after[2] - before[2])
    };
    let reqs: Vec<(&[u8], u64, u64)> = vec![(b"a", 1, 0), (b"b", 1, 0)];
    let put = || drop(ht.put_many(&clock, &reqs, ht.storing(&clock, b"v")).unwrap());
    assert_eq!(counted(&put), (1, 1, 0), "a 2-key group into a complete bucket");
    ht.put(&clock, b"c", b"v").unwrap(); // chain: c → b → a
    let get = || assert!(ht.get_ref_many(&clock, &[b"a", b"b"]).iter().all(Option::is_some));
    assert_eq!(counted(&get), (1, 1, 0), "2 keys of a complete bucket");

    let (ht, _pool) = reopen(ht, pool, &clock);
    let cold = || assert!(ht.get_ref(&clock, b"b").is_some());
    assert_eq!(counted(&cold), (0, 1, 4), "b cold: the head, c's and b's headers, b's key");
    let partial = || assert!(ht.get_ref_many(&clock, &[b"b", b"a"]).iter().all(Option::is_some));
    assert_eq!(counted(&partial), (0, 1, 2), "b mirrored, a past the tail: a's header and key");
}
