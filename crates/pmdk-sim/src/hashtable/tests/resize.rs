// Incremental resize and the entry count: `resize.rs`.

#[test]
fn resize_grows_the_directory_and_preserves_contents() {
    let (ht, pool, clock) = table(1 << 23, 4);
    let mut expect = BTreeMap::new();
    for i in 0..300u32 {
        let k = format!("grow-{i}");
        ht.put(&clock, k.as_bytes(), &i.to_le_bytes()).unwrap();
        expect.insert(k.into_bytes(), i.to_le_bytes().to_vec());
    }
    // Drive any in-flight migration to completion.
    while ht.splitting() {
        ht.remove(&clock, b"absent").unwrap();
    }
    assert!(
        ht.bucket_count() > 300,
        "4 buckets must double past the live count, got {}",
        ht.bucket_count()
    );
    assert_eq!(ht.len(&clock), 300);
    for (k, v) in &expect {
        assert_eq!(&ht.get(&clock, k).unwrap(), v, "key {:?}", k);
    }
    let mut keys = ht.keys(&clock);
    keys.sort();
    assert_eq!(keys, expect.keys().cloned().collect::<Vec<_>>());
    assert!(
        ht.max_chain_len(&clock) <= 8,
        "post-split chains stay short"
    );
    pool.check_heap().unwrap(); // retired heads arrays were freed
}

#[test]
fn resized_table_survives_reopen_mid_split_and_after() {
    let (ht, pool, clock) = table(1 << 23, 64);
    // Insert until a split is actually in flight (the triggering put
    // migrates only the first chunk of the 64-bucket old table).
    let mut total = 0u32;
    while !ht.splitting() {
        ht.put(&clock, format!("k{total}").as_bytes(), &total.to_le_bytes())
            .unwrap();
        total += 1;
    }
    // Reopen mid-split: the persisted two-table state must route every
    // key correctly.
    let (ht, pool) = reopen(ht, pool, &clock);
    assert!(ht.splitting(), "split state survives reopen");
    assert_eq!(ht.len(&clock), total as u64);
    for i in 0..total {
        assert_eq!(
            ht.get(&clock, format!("k{i}").as_bytes()).unwrap(),
            i.to_le_bytes()
        );
    }
    // Finish the split and reopen once more.
    while ht.splitting() {
        ht.put(&clock, b"nudge", b"v").unwrap();
    }
    let (ht, _pool) = reopen(ht, pool, &clock);
    assert_eq!(ht.len(&clock), total as u64 + 1);
    assert_eq!(ht.get(&clock, b"k20").unwrap(), 20u32.to_le_bytes());
}

/// 33 keys in a 64-bucket table and `k` split steps over them, the first
/// of which begins the split; the mark is the last step's end.
fn split_steps(k: usize) -> impl Fn(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> (u64, usize) {
    move |pool, clock, passed| {
        let ht = PersistentHashtable::create(clock, pool, 64).unwrap();
        for i in 0..33u32 {
            ht.put(clock, format!("m{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for _ in 0..k {
            ht.help_migrate(clock).unwrap();
        }
        (ht.header_offset(), passed())
    }
}

#[test]
fn crash_mid_migration_rolls_back_to_the_cursor() {
    // Every relink and header word is logged and written; the step's
    // transaction has not committed. The first step rolls back to no
    // split, the second to the first's cursor.
    for (steps, cursor) in [(1, None), (2, Some(8))] {
        let (ht, pool, clock) = recovered_before_commit(1 << 23, split_steps(steps));
        assert_eq!(ht.splitting().then(|| ht.geo().cursor), cursor, "{steps} steps");
        assert_eq!(ht.len(&clock), 33);
        for i in 0..33u32 {
            assert_eq!(
                ht.get(&clock, format!("m{i}").as_bytes()).unwrap(),
                i.to_le_bytes()
            );
        }
        // The interrupted split resumes, or begins again, and completes.
        ht.put(&clock, b"m33", &33u32.to_le_bytes()).unwrap();
        assert!(ht.splitting());
        while ht.splitting() {
            ht.remove(&clock, b"absent").unwrap();
        }
        assert_eq!(ht.len(&clock), 34);
        pool.check_heap().unwrap();
    }
}

/// A chunk that rolled back may leave its destination heads behind
/// (undo-free, unfenced writes). If the partition they point into is emptied
/// before the chunk re-runs — a mutator that found `resize_lock` busy
/// does not help first — the re-run must overwrite them with 0, not
/// skip the empty partition.
#[test]
fn a_rerun_chunk_overwrites_the_heads_a_rolled_back_one_left() {
    // The chunk's destination heads went in undo-free and were flushed
    // before its commit point: the crash that rolls the chunk back leaves
    // them on media.
    let (ht, pool, clock) = recovered_before_commit(1 << 23, split_steps(2));
    let keys: Vec<String> = (0..33).map(|i| format!("m{i}")).collect();
    let g = ht.geo();
    assert_eq!((g.old_buckets, g.cursor), (64, 8), "second chunk rolled back");
    // The second chunk is buckets 8..16; its destination heads went in.
    let in_chunk = |k: &&String| (8..16).contains(&(fnv1a(k.as_bytes()) % 64));
    let stale = |g: Geo| {
        let slots = (8..16).flat_map(|b| [b, b + 64]);
        slots
            .filter(|b| pool.read_u64(&clock, g.heads + b * 8) != 0)
            .count()
    };
    assert!(stale(g) > 0, "some key of 33 hashes into the second chunk");
    assert_eq!(ht.keys(&clock).len(), 33, "no walker follows them");
    // 56 old buckets left, 8 migrated into 16.
    assert_eq!(ht.chain_length_histogram(&clock).iter().sum::<u64>(), 72);

    // Empty those partitions without helping, then let the split run.
    ht.set_auto_resize(false);
    for k in keys.iter().filter(in_chunk) {
        assert!(ht.remove(&clock, k.as_bytes()).unwrap());
    }
    ht.set_auto_resize(true);
    while ht.splitting() {
        ht.remove(&clock, b"absent").unwrap();
    }
    assert_eq!(stale(g), 0, "freed entries are unreachable");
    let mut left: Vec<_> = keys.iter().filter(|k| !in_chunk(k)).cloned().collect();
    let mut found: Vec<_> = ht
        .keys(&clock)
        .into_iter()
        .map(|k| String::from_utf8(k).unwrap())
        .collect();
    left.sort();
    found.sort();
    assert_eq!(found, left);
    pool.check_heap().unwrap();
}

/// A header mid-split at cursor 0 — what a split begun by a transaction of
/// its own left when a crash came before its first chunk — still mounts:
/// it passes `Geo::check` and the doctor, the next mutation's step resumes
/// at cursor 0 (and retires a one-chunk directory's split at once), and
/// the contents come through intact.
#[test]
fn a_header_mid_split_at_cursor_0_mounts_and_its_split_finishes() {
    for n in [8u64, 64] {
        let (ht, pool, clock) = table(1 << 23, n);
        ht.set_auto_resize(false);
        let keys: Vec<String> = (0..=n / 2).map(|i| format!("h{i}")).collect();
        for k in &keys {
            ht.put(&clock, k.as_bytes(), k.as_bytes()).unwrap();
        }
        // The doubled array, garbage in every slot, and the five words.
        let (old, bytes) = (ht.geo().heads, 2 * n * 8);
        let heads = pool.alloc(&clock, bytes).unwrap();
        pool.write_bytes(&clock, heads, &vec![0xa5; bytes as usize]);
        let header = ht.header_offset();
        for (off, word) in [
            (HDR_OLD_BUCKETS, n),
            (HDR_OLD_HEADS, old),
            (HDR_CURSOR, 0),
            (HDR_BUCKETS, 2 * n),
            (HDR_HEADS, heads),
        ] {
            pool.write_u64(&clock, header + off, word);
        }
        let (ht, pool) = reopen(ht, pool, &clock);
        let split = |cursor| Geo {
            buckets: 2 * n,
            heads,
            old_buckets: n,
            old_heads: old,
            cursor,
        };
        assert_eq!(ht.geo(), split(0), "{n} buckets");
        let doctor = || crate::doctor::walk_hashtable(pool.device(), header);
        assert!(doctor().ok(), "{n} buckets: {:?}", doctor().errors);
        assert_eq!(doctor().reachable, keys.len() as u64);

        ht.put(&clock, b"next", b"next").unwrap();
        let retired = Geo { old_buckets: 0, old_heads: 0, ..split(0) };
        let want = if n == 8 { retired } else { split(8) };
        assert_eq!(ht.geo(), want, "{n} buckets: one step");
        while ht.splitting() {
            ht.remove(&clock, b"absent").unwrap();
        }
        assert_eq!(ht.geo(), retired);
        for k in keys.iter().map(String::as_bytes).chain([&b"next"[..]]) {
            assert_eq!(ht.get(&clock, k).unwrap(), k, "{n} buckets");
        }
        assert_eq!(ht.len(&clock), keys.len() as u64 + 1);
        assert!(doctor().ok(), "{n} buckets: {:?}", doctor().errors);
        pool.check_heap().unwrap();
    }
}

/// The step that begins a split does not zero the new directory: a slot is read only
/// once the chunk whose cursor passes it has written it. Here the new
/// heads array is handed out from a freed block full of pointer-shaped
/// garbage — live entries of other buckets, and self-pointers — and no
/// walker, router or doctor may follow any of it, mid-split or after.
#[test]
fn a_split_onto_a_poisoned_block_follows_none_of_it() {
    const N: u64 = 64;
    let (ht, pool, clock) = table(1 << 23, N);
    let mut expect = BTreeMap::new();
    let put = |expect: &mut BTreeMap<_, _>, i: u32| {
        let (k, v) = (
            format!("p{i}"),
            format!("value-{i}").repeat(1 + i as usize % 3),
        );
        ht.put(&clock, k.as_bytes(), v.as_bytes()).unwrap();
        expect.insert(k.into_bytes(), v.into_bytes());
    };
    // 33 live keys: the next mutation begins a split.
    for i in 0..33 {
        put(&mut expect, i);
    }
    assert!(!ht.splitting());

    // A block the size of the doubled directory between two live ones
    // (no coalescing on free), poisoned, then freed.
    let poison = pool.alloc(&clock, 2 * N * 8).unwrap();
    pool.alloc(&clock, 64).unwrap();
    let live: Vec<(u64, u64)> = (expect.keys())
        .map(|k| {
            let entry = ht.get_ref(&clock, k).unwrap().offset - ENT_KEY - k.len() as u64;
            (fnv1a(k) % (2 * N), entry)
        })
        .collect();
    let garbage: Vec<u8> = (0..2 * N)
        .map(|b| match b % 2 {
            0 => poison + b * 8,
            _ => live.iter().find(|&&(home, _)| home != b).unwrap().1,
        })
        .flat_map(u64::to_le_bytes)
        .collect();
    pool.write_bytes(&clock, poison, &garbage);
    pool.free(&clock, poison).unwrap();

    put(&mut expect, 33);
    let g = ht.geo();
    assert_eq!(g.heads, poison, "the split reused the poisoned block");
    assert_eq!((g.old_buckets, g.cursor), (N, 8), "one chunk helped");
    let poisoned = |b: u64| pool.read_u64(&clock, g.heads + b * 8) != 0;
    assert!(
        (g.cursor..N).all(poisoned),
        "unreachable slots keep the garbage"
    );
    let walk = crate::doctor::walk_hashtable(pool.device(), ht.header_offset());
    assert!(walk.ok(), "{:?}", walk.errors);
    assert_eq!(walk.reachable, 34);

    // Puts and removes drive the split to its retirement.
    let mut i = 34;
    while ht.splitting() {
        put(&mut expect, i);
        if i % 3 == 0 {
            let k = format!("p{}", i / 3).into_bytes();
            assert!(ht.remove(&clock, &k).unwrap());
            expect.remove(&k);
        }
        i += 1;
    }
    assert_eq!(ht.bucket_count(), 2 * N);
    let mut listed = ht.keys(&clock);
    listed.sort();
    assert_eq!(
        listed,
        expect.keys().cloned().collect::<Vec<_>>(),
        "each key once"
    );
    for (k, v) in &expect {
        assert_eq!(&ht.get(&clock, k).unwrap(), v);
    }
    assert_eq!(ht.len(&clock), expect.len() as u64);
    let hist = ht.chain_length_histogram(&clock);
    assert_eq!(hist.iter().sum::<u64>(), 2 * N);
    let entries: u64 = hist.iter().zip(0..).map(|(n, len)| n * len).sum();
    assert_eq!(entries, expect.len() as u64);
    pool.check_heap().unwrap();
}

/// The step that begins a split is one pool transaction: it logs each
/// header word it changes by value and reads none back, and its carve's
/// count store is its only one. Beyond its own chunk — priced by the next
/// step, an equal chunk that moves no entry either — it costs the same at
/// any directory size: `[txs, fences, flushes, bytes read, sim ns]`.
#[test]
fn the_step_that_begins_a_split_is_one_transaction_at_any_directory_size() {
    let ledger = |n: u64| {
        let (ht, pool, clock) = table(1 << 23, n);
        ht.set_auto_resize(false);
        // n/2 + 1 keys, none in the first two chunks.
        let chunk = (n / 32).clamp(8, 256);
        let keys = (0..).map(|i| format!("s{i}"));
        let keys = keys.filter(|k| fnv1a(k.as_bytes()) % n >= 2 * chunk);
        for k in keys.take(n as usize / 2 + 1) {
            ht.put(&clock, k.as_bytes(), b"v").unwrap();
        }
        ht.set_auto_resize(true);
        let stats = &pool.device().machine().stats;
        let step = || {
            let (before, t) = (stats.snapshot(), clock.now().as_nanos());
            ht.maybe_resize(&clock).unwrap();
            let d = stats.snapshot().delta_since(&before);
            let ns = clock.now().as_nanos() - t;
            [d.pool_txs, d.fences, d.flush_calls, d.pmem_bytes_read, ns]
        };
        let (begin, next) = (step(), step());
        assert_eq!(ht.geo().cursor, 2 * chunk, "{n} buckets");
        (begin, std::array::from_fn(|i| begin[i] - next[i]))
    };
    let (begin, beyond) = ledger(64);
    assert_eq!(begin, [1, 6, 12, 0, 2_784], "the step at 64 buckets");
    assert_eq!(beyond, [0, 3, 7, 0, 1_552], "beyond its chunk");
    assert_eq!(ledger(4096).1, beyond, "beyond its chunk at 4 096 buckets");
}

/// A migration chunk of `c` buckets the mirror does not know, holding `m`
/// entries, is `1 + m` metadata reads — its source heads in one run, one
/// header an entry — however many next pointers it rewrites: each
/// pre-image is what the walk read, and the cursor's is the geometry the
/// helper holds.
#[test]
fn a_chunk_costs_one_run_read_and_one_header_read_an_entry() {
    const N: u64 = 64;
    let dev = PmemDevice::new(Machine::chameleon(), 1 << 22, PersistenceMode::Fast);
    let registry = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, dev, "ht").unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, N).unwrap();
    ht.set_auto_resize(false);
    let keys: Vec<String> = (0..200).map(|i| format!("c{i}")).collect();
    for k in &keys {
        ht.put(&clock, k.as_bytes(), b"v").unwrap();
    }
    ht.set_shadow_enabled(false); // every source bucket cold
    let seen = || {
        let snap = registry.snapshot();
        let undo = snap.counter("tx.undo_bytes");
        let reads = snap.hists.get("pmem.meta_read").map_or(0, |h| h.count);
        (reads, undo)
    };
    let mut relinked = std::collections::BTreeSet::new();
    // The first step begins the split.
    while relinked.is_empty() || ht.splitting() {
        let (start, (reads, undo)) = (ht.geo().cursor, seen());
        ht.help_migrate(&clock).unwrap();
        let end = match ht.geo().cursor {
            0 => N,
            cursor => cursor,
        };
        assert_eq!(end - start, 8, "a 64-bucket table moves 8 a chunk");
        let held = |k: &&String| (start..end).contains(&(fnv1a(k.as_bytes()) % N));
        let m = keys.iter().filter(held).count() as u64;
        let (reads, undo) = (seen().0 - reads, seen().1 - undo);
        assert_eq!(reads, 1 + m, "chunk {start}..{end}");
        // The relinks and the header words the step changes, 16 bytes of
        // log each: five when it begins the split (with the carve's 8-byte
        // intent), the cursor alone, or three when it retires the split
        // (with the old array's 12-byte state word record).
        let words = match (start, end) {
            (0, _) => 5,
            (_, N) => 3,
            _ => 1,
        };
        relinked.insert(undo / 16 - words);
    }
    assert!(
        relinked.len() > 2,
        "chunks that relink differently: {relinked:?}"
    );
    for k in &keys {
        assert!(ht.contains(&clock, k.as_bytes()), "{k} lost");
    }
    pool.check_heap().unwrap();
}

/// The worst relink pattern a 256-bucket chunk can meet: every source
/// chain is 8 long and alternates lo/hi, so 7 of its 8 next pointers
/// are rewritten — 28 KB of undo against a 16 KB lane. The chunk ends
/// at the last bucket that fits instead of overflowing (an overflow
/// would fail this and every later mutation). The pattern spans two
/// chunks' worth of buckets, so the chunk that resumes where the first
/// stopped meets it too.
#[test]
fn one_chunk_of_the_worst_relink_pattern_fits_the_undo_log() {
    const N: u64 = 8192; // the smallest directory whose chunk is 256
    const CHUNK: u64 = 256;
    const PATTERN: u64 = 2 * CHUNK;
    let (ht, pool, clock) = table(1 << 24, N);
    ht.set_auto_resize(false);
    // Per source bucket of the pattern: four keys for each half.
    let mut picked: Vec<[Vec<String>; 2]> = vec![Default::default(); PATTERN as usize];
    let mut fillers = Vec::new();
    let mut missing = PATTERN * 8;
    for i in 0.. {
        let k = format!("w{i}");
        let h = fnv1a(k.as_bytes());
        if h % N >= PATTERN {
            if (fillers.len() as u64) < N / 2 {
                fillers.push(k);
            }
            continue;
        }
        let half = &mut picked[(h % N) as usize][(h % (2 * N) / N) as usize];
        if half.len() < 4 {
            half.push(k);
            missing -= 1;
        }
        if missing == 0 {
            break;
        }
    }
    let mut all = fillers;
    for [lo, hi] in &picked {
        all.extend(lo.iter().zip(hi).flat_map(|(l, h)| [l.clone(), h.clone()]));
    }
    for k in &all {
        ht.put(&clock, k.as_bytes(), b"v").unwrap();
    }
    ht.set_auto_resize(true);

    // A mutation that only helps — removing an absent key logs nothing —
    // begins the split.
    let registry = MetricsRegistry::new();
    pool.device().machine().set_metrics(Arc::clone(&registry));
    assert!(!ht.remove(&clock, b"absent").unwrap());
    assert!(ht.splitting(), "2 x {} keys > {N} buckets", all.len());
    let (undo, cursor) = (
        registry.snapshot().counter("tx.undo_bytes"),
        ht.geo().cursor,
    );
    // 7 relinks per bucket, the five header words, 8 + 8 bytes each, and
    // the carve's 8-byte intent. Room is kept for six words beyond the
    // relinks: a step logs at most five, and an intent or a state word.
    let relinks = cursor * 7 * 16;
    assert_eq!(undo, relinks + 5 * 16 + 8);
    let capacity = LANE_LOG_BYTES;
    assert!(relinks + 6 * 16 <= capacity && relinks + (7 + 6) * 16 > capacity);
    assert!(cursor < CHUNK, "the whole chunk would have taken 28 KB");
    // The next chunk resumes at that bucket: with the mirror off, one run
    // read from there, one header read an entry of every bucket it walked
    // (the one that no longer fit included), and it is cut short the same
    // way.
    let reads = || registry.snapshot().hists.get("pmem.meta_read").map_or(0, |h| h.count);
    ht.set_shadow_enabled(false);
    let before = reads();
    ht.help_migrate(&clock).unwrap();
    assert_eq!(ht.geo().cursor, 2 * cursor);
    assert_eq!(reads() - before, 1 + 8 * (cursor + 1));

    while ht.geo().cursor < CHUNK {
        ht.remove(&clock, b"absent").unwrap();
    }
    for k in &all {
        assert!(ht.contains(&clock, k.as_bytes()), "{k} lost");
    }
    assert_eq!(ht.keys(&clock).len(), all.len());
}

/// `n` puts into a 256-bucket table, the mark after the last: too few to
/// begin a split.
fn puts(n: u32) -> impl Fn(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> (u64, usize) {
    move |pool, clock, passed| {
        let ht = PersistentHashtable::create(clock, pool, 256).unwrap();
        for i in 0..n {
            ht.put(clock, format!("c{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        (ht.header_offset(), passed())
    }
}

/// A mount reads the table's header and nothing else, crashed or not: a
/// table crashed inside its 101st put mounts at the cost of its clean twin
/// of 100, and its `len` and contents are exact.
#[test]
fn a_crashed_mount_costs_what_a_clean_mount_costs() {
    const BYTES: usize = 1 << 22;
    let mount = |dev: Arc<PmemDevice>, header: u64| {
        let pool = PmemPool::open(&Clock::new(), dev, "test-layout").unwrap();
        let clock = Clock::new();
        let ht = PersistentHashtable::open(&clock, &pool, header).unwrap();
        (ht, pool, clock.now())
    };
    let k = last_uncommitted(BYTES, crashed_at(BYTES, usize::MAX, puts(101)).0 .1, puts(101));
    let ((header, _), image) = crashed_at(BYTES, k, puts(101));
    let (ht, pool, crashed) = mount(image.unwrap(), header);

    let twin = PmemDevice::new(Machine::chameleon(), BYTES, PersistenceMode::Tracked);
    let clock = Clock::new();
    let twin_pool = PmemPool::create(&clock, Arc::clone(&twin), "test-layout").unwrap();
    let (twin_header, _) = puts(100)(&twin_pool, &clock, &|| 0);
    drop(twin_pool);
    let (_, _, clean) = mount(twin, twin_header);
    assert_eq!(crashed, clean, "the crashed mount paid more than the clean one");

    let clock = Clock::new();
    assert_eq!(ht.len(&clock), 100);
    for i in 0..100u32 {
        let got = ht.get(&clock, format!("c{i}").as_bytes());
        assert_eq!(got.unwrap(), i.to_le_bytes());
    }
    assert!(ht.get(&clock, b"c100").is_none());
    pool.check_heap().unwrap();
}

/// The puts that begin the first two splits of a `buckets`-bucket table,
/// remounted after every `session` puts, crashed before every other mount.
/// Each session's first put counts the chains, so the split trigger is
/// exact however few puts a session takes.
fn splits_begun(buckets: u64, session: u32) -> Vec<u32> {
    let (mut ht, mut pool, clock) = table(1 << 23, buckets);
    let (mut begun, mut i) = (Vec::new(), 0);
    while begun.len() < 2 {
        if i > 0 && i % session == 0 {
            if (i / session) % 2 == 1 {
                pool.device().crash();
            }
            (ht, pool) = reopen(ht, pool, &clock);
        }
        let was = ht.splitting();
        ht.put(&clock, format!("t{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
        if ht.splitting() && !was {
            begun.push(i);
        }
        i += 1;
    }
    assert_eq!(ht.len(&clock), i as u64);
    assert_eq!(ht.live_estimate(), i as u64);
    pool.check_heap().unwrap();
    begun
}

/// Twins take the same puts; one is remounted every few puts, the other
/// never unmounted. Both begin each split at the same put, even when each
/// session takes far fewer puts than the count has chunks (32 for 256
/// buckets): a checkpoint that mounts, stores a few variables and unmounts
/// keeps its table under the load bound.
#[test]
fn a_remounted_table_splits_at_the_key_its_unmounted_twin_does() {
    for (buckets, session, expect) in [(64, 20, [33, 65]), (256, 5, [129, 257])] {
        let twin = splits_begun(buckets, u32::MAX);
        assert_eq!(twin, expect, "2 × live > buckets");
        assert_eq!(splits_begun(buckets, session), twin, "{session}-put sessions");
    }
}

/// Eight threads put and remove on a remounted table while it is being
/// counted, and split once it is: each entry is counted once, by the chunk
/// that walks its chain or by the mutation that made or unmade it.
#[test]
fn concurrent_mutations_while_counting_count_each_entry_once() {
    const THREADS: u32 = 8;
    let (ht, pool, clock) = table(1 << 25, 1024);
    for i in 0..300u32 {
        ht.put(&clock, format!("old{i}").as_bytes(), b"v").unwrap();
    }
    pool.device().crash();
    let (ht, _pool) = reopen(ht, pool, &clock);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ht = &ht;
            s.spawn(move || {
                let clock = Clock::new();
                for i in 0..100u32 {
                    let new = format!("new{t}-{i}");
                    ht.put(&clock, new.as_bytes(), b"v").unwrap();
                    let old = format!("old{}", t + THREADS * (i % 37));
                    assert_eq!(ht.remove(&clock, old.as_bytes()).unwrap(), i < 37);
                    if i % 4 == 0 {
                        assert!(ht.remove(&clock, new.as_bytes()).unwrap());
                    }
                }
            });
        }
    });
    assert_eq!(ht.counted.load(Ordering::Relaxed), u64::MAX);
    assert!(ht.bucket_count() > 1024, "no split began");
    let len = ht.len(&clock);
    assert_eq!(len, 300 - 37 * 8 + 75 * 8);
    assert_eq!(ht.live_estimate(), len);
}
