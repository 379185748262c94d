//! Corrupt-image agreement: for every row, the mounted path must refuse the
//! image with a typed `BadPool` (or, for reads whose signature cannot carry
//! an error, terminate and count a torn chain) **and** the doctor's walk of
//! the same bytes must fault it. One builder, one table; a row is a byte
//! mutation plus the mounted call that meets it.
//!
//! Each mounted call runs on its own thread under a timeout: a torn `next`
//! that self-loops used to hang, and a hang must fail the row, not the run.

use pmdk_sim::doctor::{read_lanes, walk_hashtable, walk_heap, walk_log};
use pmdk_sim::hashtable::fnv1a;
use pmdk_sim::layout::{
    blk, heap_start, lane, lane_offset, sb, Bytes, Superblock, ENT_HLEN, ENT_KEY, ENT_NEXT,
    HDR_BUCKETS, HDR_HEADS, HDR_OLD_BUCKETS, HDR_OLD_HEADS, LANE_ACTIVE, LANE_IDLE, LANE_LOG_BYTES,
    LAYOUT_VERSION, LOG_HEAD,
};
use pmdk_sim::{PersistentHashtable, PersistentLog, PmdkError, PmemPool};
use pmem_sim::{Clock, Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LAYOUT: &str = "corrupt-images";
const BUCKETS: u64 = 8;
const TIMEOUT: Duration = Duration::from_secs(60);

/// A cleanly shut down pool holding one table and one log, plus the
/// offsets the mutations aim at.
#[derive(Clone)]
struct Image {
    dev: Arc<PmemDevice>,
    metrics: Arc<MetricsRegistry>,
    table: u64,
    /// Tail entry of bucket 0's two-entry chain.
    tail_entry: u64,
    /// The key of that tail entry.
    held: Vec<u8>,
    /// A key that routes to bucket 0 but is not in the table: looking it
    /// up, or inserting it, walks that chain to its end.
    absent: Vec<u8>,
    log: (u64, u64),
}

fn build() -> Image {
    let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
    let metrics = MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&metrics));
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, Arc::clone(&dev), LAYOUT).unwrap();
    let ht = PersistentHashtable::create(&clock, &pool, BUCKETS).unwrap();
    let mut bucket0 = (0u32..)
        .map(|i| format!("k{i}").into_bytes())
        .filter(|k| fnv1a(k).is_multiple_of(BUCKETS)); // bucket 0
    let (first, second) = (bucket0.next().unwrap(), bucket0.next().unwrap());
    ht.put(&clock, &first, b"v1").unwrap();
    ht.put(&clock, &second, b"v2").unwrap(); // chain: second -> first -> nil
    ht.quiesce(&clock).unwrap(); // clean count: open will not recount
    let tail_entry = ht.get_ref(&clock, &first).unwrap().offset - ENT_KEY - first.len() as u64;
    let log = PersistentLog::create(&clock, &pool, 4096).unwrap();
    log.append(&clock, b"alpha").unwrap();
    log.append(&clock, b"beta").unwrap();
    Image {
        dev,
        metrics,
        table: ht.header_offset(),
        tail_entry,
        held: first,
        absent: bucket0.next().unwrap(),
        log: log.location(),
    }
}

impl Image {
    fn pool(&self, clock: &Clock) -> Result<Arc<PmemPool>, PmdkError> {
        PmemPool::open(clock, Arc::clone(&self.dev), LAYOUT)
    }

    fn table(&self, clock: &Clock) -> Result<PersistentHashtable, PmdkError> {
        PersistentHashtable::open(clock, &self.pool(clock)?, self.table)
    }
}

enum Expect {
    /// The mounted call returns `Err(PmdkError::BadPool(_))`.
    Refused,
    /// The mounted call returns and `ht.chain.torn` was counted.
    Degraded,
}

struct Row {
    name: &'static str,
    /// `(device offset, 8-byte little-endian word to store there)` each.
    corrupt: fn(&Image) -> Vec<(u64, u64)>,
    mounted: fn(&Image, &Clock) -> Result<(), PmdkError>,
    expect: Expect,
    /// The doctor's verdict on the structure the mutation hit.
    doctor_ok: fn(&Image) -> bool,
}

fn table_ok(img: &Image) -> bool {
    walk_hashtable(&img.dev, img.table).ok()
}

fn put_absent(img: &Image, clock: &Clock) -> Result<(), PmdkError> {
    img.table(clock)?.put(clock, &img.absent, b"v").map(drop)
}

fn lanes_ok(img: &Image) -> bool {
    read_lanes(&img.dev).errors.is_empty()
}

/// Lane 0's header words: state (low half) and log length (high).
fn lane_word(state: u32, log_len: u64) -> (u64, u64) {
    (lane_offset(0) + lane::STATE, state as u64 | log_len << 32)
}

/// The header of lane 0's `i`-th 8-byte slot of log: a record of `len`
/// bytes of pre-image targeting `off` (an intent for `len` 0).
fn record(i: u64, off: u64, len: u64) -> (u64, u64) {
    (lane_offset(0) + lane::RECORDS + 8 * i, len << 48 | off)
}

/// The tail entry's length word — key length, header length, value
/// length — naming a header one byte longer than its 2-byte value.
const LONG_HEADER: fn(&Image) -> Vec<(u64, u64)> = |img| {
    let lens = img.tail_entry + ENT_HLEN - 2;
    let word = img.dev.u64_at(lens) & !(0xffff << 16);
    vec![(lens, word | 3 << 16)]
};

const SELF_LOOP: fn(&Image) -> Vec<(u64, u64)> =
    |img| vec![(img.tail_entry + ENT_NEXT, img.tail_entry)];
const WILD_NEXT: fn(&Image) -> Vec<(u64, u64)> = |img| vec![(img.tail_entry + ENT_NEXT, 1 << 40)];

const ROWS: &[Row] = &[
    Row {
        name: "superblock layout-name length of 1 MiB",
        corrupt: |_| vec![(sb::LAYOUT_LEN, 1 << 20)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: |img| Superblock::read(img.dev.as_ref()).fault.is_none(),
    },
    Row {
        // The format before a lane was one log: the words of its intent
        // array and undo records would read as records.
        name: "superblock layout version 10",
        corrupt: |_| vec![(sb::VERSION, LAYOUT_VERSION - 1)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: |img| Superblock::read(img.dev.as_ref()).fault.is_none(),
    },
    Row {
        name: "first heap block size of u64::MAX - 7",
        corrupt: |_| vec![(heap_start() + blk::SIZE, u64::MAX - 7)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: |img| walk_heap(&img.dev).ok(),
    },
    Row {
        name: "active lane: log length past the lane",
        corrupt: |_| vec![lane_word(LANE_ACTIVE, LANE_LOG_BYTES + 8)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: log record of 60 000 bytes in a 16-byte log",
        corrupt: |img| vec![lane_word(LANE_ACTIVE, 16), record(0, img.table, 60_000)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: log record header cut by the logged length",
        corrupt: |img| vec![lane_word(LANE_ACTIVE, 12), record(0, img.table, 0)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: log record targets 1 << 40",
        corrupt: |_| vec![lane_word(LANE_ACTIVE, 16), record(0, 1 << 40, 8)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: intent naming no block payload (outside the heap)",
        corrupt: |_| vec![lane_word(LANE_ACTIVE, 8), record(0, 1 << 40, 0)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: intent naming no block payload (unaligned)",
        corrupt: |img| vec![lane_word(LANE_ACTIVE, 8), record(0, img.table + 8, 0)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        // IDLE is every commit point: the state a committing lane once
        // stored is a corrupt lane, refused before anything is written.
        name: "lane state 2, once COMMITTING",
        corrupt: |img| vec![lane_word(2, 8), record(0, img.table, 0)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "log head far outside the ring",
        corrupt: |img| vec![(img.log.0 + LOG_HEAD, 1 << 40)],
        mounted: |img, clock| {
            let log = PersistentLog::open(clock, &img.pool(clock)?, img.log.0, img.log.1)?;
            log.replay(clock).map(drop)
        },
        expect: Expect::Refused,
        doctor_ok: |img| walk_log(&img.dev, img.log.0, img.log.1).ok(),
    },
    Row {
        name: "hashtable bucket count of 1 << 61",
        corrupt: |img| vec![(img.table + HDR_BUCKETS, 1 << 61)],
        mounted: |img, clock| img.table(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        name: "old table of 3 buckets under a new table of 8",
        // The old heads alias the live array, so every range rule holds
        // and only "new = old doubled" can object.
        corrupt: |img| {
            let heads = img.dev.u64_at(img.table + HDR_HEADS);
            vec![
                (img.table + HDR_OLD_BUCKETS, 3),
                (img.table + HDR_OLD_HEADS, heads),
            ]
        },
        mounted: |img, clock| img.table(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        name: "self-looping next: put into that bucket",
        corrupt: SELF_LOOP,
        mounted: put_absent,
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        name: "next of 1 << 40: put into that bucket",
        corrupt: WILD_NEXT,
        mounted: put_absent,
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        name: "next of 1 << 40: keys",
        corrupt: WILD_NEXT,
        mounted: |img, clock| {
            // Both entries precede the bad hop, so both are still listed.
            assert_eq!(img.table(clock)?.keys(clock).len(), 2);
            Ok(())
        },
        expect: Expect::Degraded,
        doctor_ok: table_ok,
    },
    Row {
        name: "self-looping next: get of an absent key",
        corrupt: SELF_LOOP,
        mounted: |img, clock| {
            assert!(img.table(clock)?.get(clock, &img.absent).is_none());
            Ok(())
        },
        expect: Expect::Degraded,
        doctor_ok: table_ok,
    },
    Row {
        name: "self-looping next: remove of an absent key",
        corrupt: SELF_LOOP,
        mounted: |img, clock| img.table(clock)?.remove(clock, &img.absent).map(drop),
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        name: "self-looping next: get_ref_many of an absent key and a key the bucket holds",
        corrupt: SELF_LOOP,
        mounted: |img, clock| {
            let found = img
                .table(clock)?
                .get_ref_many(clock, &[&img.absent, &img.held]);
            // The held key precedes the bad hop, so it still resolves.
            assert!(found[0].is_none() && found[1].is_some());
            Ok(())
        },
        expect: Expect::Degraded,
        doctor_ok: table_ok,
    },
    Row {
        name: "self-looping next: a degraded get, then a put into that bucket",
        // A torn walk leaves nothing in the mirror that would let the put
        // skip the bad hop.
        corrupt: SELF_LOOP,
        mounted: |img, clock| {
            let ht = img.table(clock)?;
            assert!(ht.get(clock, &img.absent).is_none());
            ht.put(clock, &img.absent, b"v").map(drop)
        },
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
    Row {
        // A reader would split its one load of the value at the header's
        // end: a header past the value's end would load past the record.
        name: "entry header length past its value: get_ref_many of that key",
        corrupt: LONG_HEADER,
        mounted: |img, clock| {
            let found = img.table(clock)?.get_ref_many(clock, &[&img.held]);
            assert!(found[0].is_none(), "the walk ends before the entry");
            Ok(())
        },
        expect: Expect::Degraded,
        doctor_ok: table_ok,
    },
    Row {
        name: "entry header length past its value: put into that bucket",
        corrupt: LONG_HEADER,
        mounted: put_absent,
        expect: Expect::Refused,
        doctor_ok: table_ok,
    },
];

/// `None` when the row holds; otherwise what went wrong.
fn run(row: &Row) -> Option<String> {
    let img = build();
    for (off, word) in (row.corrupt)(&img) {
        img.dev.write_untimed(off as usize, &word.to_le_bytes());
    }
    // The doctor promises "never panics": hold it to that row by row.
    match std::panic::catch_unwind(AssertUnwindSafe(|| (row.doctor_ok)(&img))) {
        Ok(false) => {}
        Ok(true) => return Some("the doctor walk found nothing wrong".into()),
        Err(_) => return Some("the doctor walk panicked".into()),
    }
    let (tx, rx) = mpsc::channel();
    let (mounted, on_thread) = (row.mounted, img.clone());
    let worker = std::thread::spawn(move || {
        let _ = tx.send(mounted(&on_thread, &Clock::new()));
    });
    let outcome = match rx.recv_timeout(TIMEOUT) {
        Ok(outcome) => outcome,
        // A hung worker cannot be joined; it dies with the test process.
        Err(mpsc::RecvTimeoutError::Timeout) => return Some("the mounted call hung".into()),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Some(format!("the mounted call panicked: {:?}", worker.join()))
        }
    };
    worker.join().expect("worker already reported");
    let torn = img.metrics.snapshot().counter("ht.chain.torn");
    match (&row.expect, outcome) {
        (Expect::Refused, Err(PmdkError::BadPool(_))) => None,
        (Expect::Degraded, Ok(())) if torn > 0 => None,
        (_, outcome) => Some(format!(
            "mounted call gave {outcome:?} (torn chains: {torn})"
        )),
    }
}

#[test]
fn mounted_paths_and_the_doctor_reject_the_same_images() {
    let failures: Vec<String> = ROWS
        .iter()
        .filter_map(|row| run(row).map(|why| format!("{}: {why}", row.name)))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An idle lane's log length is stale by design: IDLE is its state word
/// alone, and the next transaction's first count store rewrites the
/// length. A length that would fault in a busy lane, over garbage records
/// — one past the logged length, one targeting 1 << 40 and intents naming
/// no payload — is never read: the image mounts, the doctor passes its
/// lanes, and the lane runs a put that survives a remount.
#[test]
fn an_idle_lane_with_stale_counts_and_garbage_slots_mounts_clean() {
    let img = build();
    let slots = (2..6).map(|i| record(i, 0xdead_beef_0003 + i, 0));
    let garbage = [
        lane_word(LANE_IDLE, LANE_LOG_BYTES + 8),
        record(0, 1 << 40, 8),
        record(1, img.table, 60_000),
    ];
    for (at, word) in garbage.into_iter().chain(slots) {
        img.dev.write_untimed(at as usize, &word.to_le_bytes());
    }
    let lanes = read_lanes(&img.dev);
    assert!(lanes.all_idle() && lanes.errors.is_empty(), "{lanes:?}");
    let clock = Clock::new();
    let pool = img.pool(&clock).unwrap();
    let ht = PersistentHashtable::open(&clock, &pool, img.table).unwrap();
    ht.put(&clock, &img.absent, b"fresh").unwrap();
    pool.check_heap().unwrap();
    drop((ht, pool));
    assert!(read_lanes(&img.dev).all_idle());
    let ht = img.table(&clock).unwrap();
    assert_eq!(ht.get(&clock, &img.absent).as_deref(), Some(&b"fresh"[..]));
}
