// Routing and stripe locking: `route.rs`.

#[test]
fn failed_put_releases_its_stripes() {
    let (ht, _pool, clock) = table(1 << 22, 16);
    ht.put(&clock, b"k", b"stable").unwrap();
    // The pool cannot hold the replacement: the transaction fails at
    // its allocation and rolls back.
    let err = ht.put(&clock, b"k", &vec![0u8; 1 << 23]).unwrap_err();
    assert!(matches!(err, PmdkError::OutOfMemory { .. }));
    // The error path dropped every stripe guard, or this get — which
    // locks the same stripe — would never return.
    assert!(ht.stripes.iter().all(|s| s.lock.try_lock().is_some()));
    assert_eq!(ht.get(&clock, b"k").unwrap(), b"stable");
}

/// `head_slots` is the one walker recount, `keys`, the histogram and
/// the doctor share: it must yield exactly the slots a key can route
/// to, under the stripe that guards them — never a destination slot the
/// cursor has not passed (a rolled-back chunk may have left a head
/// there).
#[test]
fn head_slots_are_exactly_the_slots_keys_route_to() {
    let split = Geo {
        buckets: 128,
        heads: 0x2000,
        old_buckets: 64,
        old_heads: 0x1000,
        cursor: 0,
    };
    let whole = Geo {
        old_buckets: 0,
        old_heads: 0,
        ..split
    };
    let mid = [0, 8, 63, 64].map(|cursor| Geo { cursor, ..split });
    for g in mid.into_iter().chain([whole]) {
        let mut walked: Vec<_> = g.head_slots().map(|(s, b)| (s, stripe_of(b))).collect();
        let expect = match g.old_buckets {
            0 => g.buckets,
            n => (n - g.cursor) + 2 * g.cursor,
        };
        assert_eq!(walked.len() as u64, expect, "{g:?}");
        let mut routed: Vec<_> = (0..g.buckets)
            .map(|h| g.route(h))
            .map(|r| (r.head_slot, r.sid))
            .collect();
        routed.sort_unstable();
        routed.dedup();
        walked.sort_unstable();
        assert_eq!(walked, routed, "{g:?}");
    }
}

#[test]
fn concurrent_inserts_from_many_threads() {
    let (ht, _pool, clock) = table(1 << 23, 64);
    let ht = Arc::new(ht);
    let clock = Arc::new(clock);
    let mut handles = vec![];
    for t in 0..8 {
        let ht = Arc::clone(&ht);
        let clock = Arc::clone(&clock);
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let key = format!("t{t}-k{i}");
                ht.put(&clock, key.as_bytes(), key.as_bytes()).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ht.len(&clock), 200);
    for t in 0..8 {
        for i in 0..25 {
            let key = format!("t{t}-k{i}");
            assert_eq!(ht.get(&clock, key.as_bytes()).unwrap(), key.as_bytes());
        }
    }
}

#[test]
fn a_racing_writer_costs_a_reader_no_virtual_time() {
    const GETS: u64 = 64;
    let (ht, _pool, clock) = table(1 << 22, 1);
    ht.set_auto_resize(false); // one chain: the reader walks past `hot`
    ht.set_shadow_enabled(false); // every get is a cold walk
    ht.put(&clock, b"cold", b"value").unwrap();
    ht.put(&clock, b"hot", b"v0").unwrap();
    let alone = Clock::new();
    assert_eq!(ht.get(&alone, b"cold").unwrap(), b"value");

    let stop = AtomicBool::new(false);
    let writing = std::sync::Barrier::new(2);
    let reader = Clock::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let clock = Clock::new();
            ht.put(&clock, b"hot", b"v1").unwrap();
            writing.wait();
            while !stop.load(Ordering::Relaxed) {
                ht.put(&clock, b"hot", b"v2").unwrap();
            }
        });
        writing.wait();
        for _ in 0..GETS {
            // On one core, hand the writer the CPU so the next get
            // finds it preempted mid-put.
            std::thread::yield_now();
            assert_eq!(ht.get(&reader, b"cold").unwrap(), b"value");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // A get behind a put waits on the host; its clock is charged the
    // walk it made and nothing for the wait.
    assert_eq!(reader.now(), alone.now() * GETS);
}

#[test]
fn concurrent_readers_and_writers_always_see_consistent_values() {
    // Stripe-lock stress: writers repeatedly overwrite the same keys
    // while readers get them — with resize enabled, so splits and
    // migrations race the readers too. Every read must return either a
    // complete old or complete new value — never torn bytes, never a
    // panic from chasing a recycled pointer.
    let (ht, _pool, clock) = table(1 << 24, 4); // few buckets: long chains
    let ht = Arc::new(ht);
    let clock = Arc::new(clock);
    let stop = Arc::new(AtomicBool::new(false));
    let keys: Vec<String> = (0..16).map(|i| format!("hot-{i}")).collect();
    for k in &keys {
        ht.put(&clock, k.as_bytes(), format!("{k}-v0").as_bytes())
            .unwrap();
    }
    let mut handles = vec![];
    for w in 0..2 {
        let ht = Arc::clone(&ht);
        let clock = Arc::clone(&clock);
        let keys = keys.clone();
        handles.push(std::thread::spawn(move || {
            for round in 1..30u32 {
                for k in keys.iter().skip(w).step_by(2) {
                    ht.put(&clock, k.as_bytes(), format!("{k}-v{round}").as_bytes())
                        .unwrap();
                }
            }
        }));
    }
    for _ in 0..4 {
        let ht = Arc::clone(&ht);
        let clock = Arc::clone(&clock);
        let keys = keys.clone();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for k in &keys {
                    let got = ht.get(&clock, k.as_bytes()).expect("hot key must exist");
                    let s = String::from_utf8(got).expect("value must be utf-8");
                    assert!(
                        s.starts_with(&format!("{k}-v")),
                        "torn read: key {k} returned {s:?}"
                    );
                }
            }
        }));
    }
    for h in handles.drain(..2) {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}
