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
    blk, heap_start, lane, lane_offset, lane_undo, sb, Bytes, Superblock, ENT_KEY, ENT_NEXT,
    HDR_BUCKETS, HDR_HEADS, HDR_OLD_BUCKETS, HDR_OLD_HEADS, LANE_ACTIVE, LANE_COMMITTING,
    LANE_INTENTS, LOG_HEAD, UNDO_CAPACITY,
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

/// Lane 0's first header word: state (low half) and undo length (high).
fn lane_word(state: u32, undo_len: u64) -> (u64, u64) {
    (lane_offset(0) + lane::STATE, state as u64 | undo_len << 32)
}

/// One undo record header at the start of lane 0's log: target, length.
fn undo_header(off: u64, len: u64) -> [(u64, u64); 2] {
    let at = lane_undo(lane_offset(0));
    [(at, off), (at + 8, len)]
}

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
        name: "first heap block size of u64::MAX - 7",
        corrupt: |_| vec![(heap_start() + blk::SIZE, u64::MAX - 7)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: |img| walk_heap(&img.dev).ok(),
    },
    Row {
        name: "active lane: undo length past the lane",
        corrupt: |_| vec![lane_word(LANE_ACTIVE, UNDO_CAPACITY + 8)],
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: undo record of 1 MiB in a 20-byte log",
        corrupt: |img| {
            let [off, len] = undo_header(img.table, 1 << 20);
            vec![lane_word(LANE_ACTIVE, 20), off, len]
        },
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "active lane: undo record targets 1 << 40",
        corrupt: |_| {
            let [off, len] = undo_header(1 << 40, 8);
            vec![lane_word(LANE_ACTIVE, 20), off, len]
        },
        mounted: |img, clock| img.pool(clock).map(drop),
        expect: Expect::Refused,
        doctor_ok: lanes_ok,
    },
    Row {
        name: "committing lane: intent count past the intent array",
        corrupt: |_| {
            vec![
                lane_word(LANE_COMMITTING, 0),
                (lane_offset(0) + lane::INTENT_COUNT, LANE_INTENTS + 1),
            ]
        },
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
