//! A crash-safe persistent append log — the structure DStore (§2.1) builds
//! its PMEM tier around: *"DStore uses PMEM to store the logs rather than as
//! the main store, offering greater performance while still offering
//! predictable consistency."*
//!
//! The log is a fixed-capacity ring of variable-length records. Appends are
//! lock-free-ordered for crash safety without transactions: the record body
//! is written and persisted *before* the tail pointer moves (the tail
//! advance is the 8-byte atomic commit point), so a crash can only lose the
//! in-flight record, never tear committed ones.
//!
//! The on-pool layout, its plausibility rules and the ring walk live in
//! [`crate::layout`], shared with the offline doctor.

use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::pool::PmemPool;
use pmem_sim::flight::EventCode;
use pmem_sim::sync::Mutex;
use pmem_sim::Clock;
use std::sync::Arc;

/// A persistent append-only ring log.
pub struct PersistentLog {
    pool: Arc<PmemPool>,
    header: u64,
    ring: u64,
    capacity: u64,
    /// Serializes appenders (the tail commit must be ordered).
    append_lock: Mutex<()>,
}

impl PersistentLog {
    /// Allocate a log with a ring of `capacity` bytes.
    pub fn create(clock: &Clock, pool: &Arc<PmemPool>, capacity: u64) -> Result<Self> {
        assert!(capacity >= 64, "ring too small to hold any record");
        let header = pool.alloc(clock, LOG_HDR_LEN)?;
        let ring = pool.alloc(clock, capacity)?;
        pool.write_u64(clock, header + LOG_CAPACITY, capacity);
        pool.write_u64(clock, header + LOG_HEAD, 0);
        pool.write_u64(clock, header + LOG_TAIL, 0);
        // The caller persists `location()` wherever it roots its state;
        // `open` takes both offsets back.
        Ok(PersistentLog {
            pool: Arc::clone(pool),
            header,
            ring,
            capacity,
            append_lock: Mutex::new(()),
        })
    }

    /// Attach to an existing log.
    pub fn open(clock: &Clock, pool: &Arc<PmemPool>, header: u64, ring: u64) -> Result<Self> {
        let capacity = log_capacity(&pool.charged(clock), header, ring)?;
        Ok(PersistentLog {
            pool: Arc::clone(pool),
            header,
            ring,
            capacity,
            append_lock: Mutex::new(()),
        })
    }

    /// (header offset, ring offset) — persist these in your root object.
    pub fn location(&self) -> (u64, u64) {
        (self.header, self.ring)
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently used (records + headers, including wrap slack).
    ///
    /// Lock-free, and the two words are read at two instants: the head, then
    /// — after the charge for that read, once every rank earlier than it has
    /// run — the tail. That is the order the charges always implied; reading
    /// both at one instant moves the write-behind storm's virtual time.
    pub fn used(&self, clock: &Clock) -> Result<u64> {
        let src = self.pool.charged(clock);
        pmem_sim::interaction_point();
        let head = src.u64_at(self.header + LOG_HEAD);
        pmem_sim::interaction_point();
        let tail = src.u64_at(self.header + LOG_TAIL);
        check_log_pointers(head, tail, self.capacity)?;
        Ok(if tail >= head {
            tail - head
        } else {
            self.capacity - head + tail
        })
    }

    /// Append a record. Fails with `OutOfMemory` when the ring is full
    /// (callers trim with [`PersistentLog::truncate_front`] — the DStore
    /// pattern where the DRAM store periodically truncates the log).
    pub fn append(&self, clock: &Clock, record: &[u8]) -> Result<()> {
        assert!(!record.is_empty(), "empty records are not representable");
        let need = REC_HDR + record.len() as u64;
        assert!(
            need <= self.capacity / 2,
            "record larger than half the ring"
        );
        // Ring writes charge the clock under the append lock; don't let the
        // deterministic scheduler park us while holding it.
        let _atomic = pmem_sim::atomic_section();
        let _g = self.append_lock.lock();
        let (head, mut tail) = log_pointers(&self.pool.charged(clock), self.header, self.capacity)?;

        // Wrap if the record will not fit before the ring's end.
        if tail + need > self.capacity {
            if head > tail {
                // Already wrapped once: the slack before `head` is all that
                // is left and it does not fit either.
                return Err(PmdkError::OutOfMemory { requested: need });
            }
            // After wrapping, the record occupies [0, need); it must stay
            // strictly below `head` or it would overwrite the oldest record
            // (and tail==head must continue to mean *empty*).
            if need >= head {
                return Err(PmdkError::OutOfMemory { requested: need });
            }
            // Mark the slack with a WRAP record (header only).
            if self.capacity - tail >= REC_HDR {
                self.pool
                    .write_bytes(clock, self.ring + tail, &WRAP.to_le_bytes());
            }
            tail = 0;
        } else if tail < head && tail + need >= head {
            // Wrapped ring: the record grows toward `head` and must stop
            // strictly short of it (tail==head means *empty*). In the
            // unwrapped case the record grows toward the ring's end and
            // cannot collide — in particular an append that exactly fills
            // the remaining capacity is fine: the resulting tail==capacity
            // is distinct from head==0 and every reader normalizes it.
            return Err(PmdkError::OutOfMemory { requested: need });
        }

        // Body first (persisted), then the atomic tail commit.
        let rec = self.ring + tail;
        self.pool
            .write_bytes(clock, rec, &(record.len() as u32).to_le_bytes());
        self.pool
            .write_bytes(clock, rec + 4, &crc32(record).to_le_bytes());
        self.write_body(clock, rec + REC_HDR, record);
        // Crash window: the body is durable but the tail never moves, so
        // the record simply does not exist after recovery.
        self.pool.fail_check(clock, "wal::append")?;
        self.pool
            .write_u64(clock, self.header + LOG_TAIL, tail + need);
        self.pool.flight().record(
            clock,
            EventCode::WalAppend,
            0,
            record.len() as u64,
            tail + need,
        );
        Ok(())
    }

    /// Record bodies are data-plane traffic — the application payloads the
    /// log carries — so they charge byte-scaled PMEM bandwidth like any
    /// other data movement. Only the 8-byte record headers and the ring
    /// pointers are metadata-timed.
    fn write_body(&self, clock: &Clock, off: u64, body: &[u8]) {
        let dev = self.pool.device();
        dev.write(clock, off as usize, body);
        dev.persist(clock, off as usize, body.len());
    }

    /// Drop the `n` oldest records in one step — the checkpoint watermark
    /// advance. There is exactly one persisted head write, *after* every
    /// record to drop has been walked: a crash anywhere before that commit
    /// leaves the head untouched, so a re-drain simply replays the same
    /// (idempotently applied) records. Returns how many records were
    /// actually dropped (≤ `n` if the log ran dry first).
    pub fn truncate_front(&self, clock: &Clock, n: usize) -> Result<usize> {
        if n == 0 {
            return Ok(0); // the walk consults its visitor only after a fetch
        }
        let _atomic = pmem_sim::atomic_section();
        let _g = self.append_lock.lock();
        let src = self.pool.charged(clock);
        let pointers = log_pointers(&src, self.header, self.capacity)?;
        let mut dropped = 0usize;
        let (head, end) = walk_ring(&src, self.ring, self.capacity, pointers, |_| {
            dropped += 1;
            dropped < n
        });
        end?;
        // Crash window: everything walked, watermark not yet advanced — the
        // records stay in the log and recovery re-applies them.
        self.pool.fail_check(clock, "wal::truncate")?;
        if dropped > 0 {
            self.pool.write_u64(clock, self.header + LOG_HEAD, head);
            self.pool
                .flight()
                .record(clock, EventCode::WalTruncate, 0, dropped as u64, head);
        }
        Ok(dropped)
    }

    /// Replay every committed record oldest-first (recovery / apply path).
    pub fn replay(&self, clock: &Clock) -> Result<Vec<Vec<u8>>> {
        let _atomic = pmem_sim::atomic_section();
        let _g = self.append_lock.lock();
        let src = self.pool.charged(clock);
        let pointers = log_pointers(&src, self.header, self.capacity)?;
        let (mut out, mut crc_ok) = (vec![], true);
        let (_, end) = walk_ring(&src, self.ring, self.capacity, pointers, |rec| {
            let (body, ok) = rec.body(&src, self.ring);
            out.push(body);
            crc_ok = ok;
            crc_ok
        });
        end?;
        if !crc_ok {
            return Err(PmdkError::BadPool("log record CRC mismatch".into()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};

    fn fixture(capacity: u64) -> (PersistentLog, Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Tracked);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "log").unwrap();
        let log = PersistentLog::create(&clock, &pool, capacity).unwrap();
        (log, pool, clock)
    }

    /// Trim the oldest record the way production does (`truncate_front(1)`)
    /// and hand it back, `None` when the log is empty.
    fn trim_one(log: &PersistentLog, clock: &Clock) -> Option<Vec<u8>> {
        let front = log.replay(clock).unwrap().into_iter().next();
        let dropped = log.truncate_front(clock, 1).unwrap();
        assert_eq!(dropped, front.is_some() as usize);
        front
    }

    #[test]
    fn append_replay_pop_fifo() {
        let (log, _pool, clock) = fixture(1024);
        log.append(&clock, b"first").unwrap();
        log.append(&clock, b"second").unwrap();
        log.append(&clock, b"third").unwrap();
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
        );
        assert_eq!(trim_one(&log, &clock).unwrap(), b"first");
        assert_eq!(trim_one(&log, &clock).unwrap(), b"second");
        assert_eq!(log.replay(&clock).unwrap(), vec![b"third".to_vec()]);
    }

    #[test]
    fn ring_wraps_and_keeps_order() {
        let (log, _pool, clock) = fixture(128);
        // Fill, trim, fill again repeatedly to force wraps.
        let mut next = 0u32;
        let mut expect_front = 0u32;
        for _ in 0..100 {
            while log.append(&clock, &next.to_le_bytes()).is_ok() {
                next += 1;
            }
            // Trim two records.
            for _ in 0..2 {
                let got = trim_one(&log, &clock).unwrap();
                assert_eq!(got, expect_front.to_le_bytes());
                expect_front += 1;
            }
        }
        // Remaining records replay in order.
        let rest = log.replay(&clock).unwrap();
        for (i, r) in rest.iter().enumerate() {
            assert_eq!(r[..4], (expect_front + i as u32).to_le_bytes());
        }
    }

    #[test]
    fn full_ring_reports_out_of_memory() {
        let (log, _pool, clock) = fixture(64);
        let mut appended = 0;
        while log.append(&clock, &[9u8; 8]).is_ok() {
            appended += 1;
        }
        assert!(appended >= 2);
        assert!(matches!(
            log.append(&clock, &[9u8; 8]),
            Err(PmdkError::OutOfMemory { .. })
        ));
        // Trimming frees space again. Two trims: exact fill means the ring
        // was truly full, and reusing a single record's space would land
        // the new tail exactly on head — the reserved "empty" encoding.
        trim_one(&log, &clock).unwrap();
        trim_one(&log, &clock).unwrap();
        log.append(&clock, &[9u8; 8]).unwrap();
    }

    #[test]
    fn crash_loses_only_the_uncommitted_tail() {
        let (log, pool, clock) = fixture(1024);
        log.append(&clock, b"durable-1").unwrap();
        log.append(&clock, b"durable-2").unwrap();
        let (h, r) = log.location();
        // Persist everything committed so far.
        let dev = Arc::clone(pool.device());
        dev.persist(&clock, 0, dev.size());
        // Simulate the torn window: a record body written past the tail but
        // the tail commit never flushed.
        let tail = pool.read_u64(&clock, h + LOG_TAIL);
        pool.write_bytes(&clock, r + tail, &9u32.to_le_bytes());
        pool.write_bytes(&clock, r + tail + REC_HDR, b"torn-rec!");
        dev.write_untimed((h + LOG_TAIL) as usize, &(tail + REC_HDR + 9).to_le_bytes());
        // (the tail store above was NOT persisted)
        dev.crash();
        drop(log);
        let pool = PmemPool::open(&clock, Arc::clone(&dev), "log").unwrap();
        let log = PersistentLog::open(&clock, &pool, h, r).unwrap();
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![b"durable-1".to_vec(), b"durable-2".to_vec()]
        );
    }

    #[test]
    fn survives_reopen_via_location() {
        let (log, pool, clock) = fixture(512);
        log.append(&clock, b"hello").unwrap();
        let (h, r) = log.location();
        let dev = Arc::clone(pool.device());
        drop((log, pool));
        let pool = PmemPool::open(&clock, dev, "log").unwrap();
        let log = PersistentLog::open(&clock, &pool, h, r).unwrap();
        assert_eq!(log.replay(&clock).unwrap(), vec![b"hello".to_vec()]);
    }

    #[test]
    fn crc_detects_corruption() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_eq!(crc32(b""), 0);
        let (log, pool, clock) = fixture(256);
        log.append(&clock, b"payload").unwrap();
        // Corrupt a body byte directly on the device.
        let (_, ring) = log.location();
        let mut b = [0u8; 1];
        pool.read_bytes(&clock, ring + REC_HDR, &mut b);
        pool.write_bytes(&clock, ring + REC_HDR, &[b[0] ^ 0xFF]);
        assert!(matches!(log.replay(&clock), Err(PmdkError::BadPool(_))));
    }

    /// Regression: an append exactly filling the remaining capacity used to
    /// be rejected as OutOfMemory even though the resulting tail==capacity
    /// state is unambiguous (tail==head is the only "empty" encoding).
    #[test]
    fn exact_fill_append_is_accepted_and_replayable() {
        let (log, _pool, clock) = fixture(128);
        let a = vec![1u8; 56]; // need = 64
        let b = vec![2u8; 56]; // need = 64: lands exactly on capacity
        log.append(&clock, &a).unwrap();
        log.append(&clock, &b).unwrap();
        assert_eq!(log.used(&clock).unwrap(), 128);
        assert!(matches!(
            log.append(&clock, &[3u8; 8]),
            Err(PmdkError::OutOfMemory { .. })
        ));
        assert_eq!(log.replay(&clock).unwrap(), vec![a.clone(), b.clone()]);
        assert_eq!(trim_one(&log, &clock).unwrap(), a);
        assert_eq!(trim_one(&log, &clock).unwrap(), b);
        // head==tail==capacity: empty, and the next append wraps cleanly.
        assert_eq!(log.used(&clock).unwrap(), 0);
        let c = vec![3u8; 8];
        log.append(&clock, &c).unwrap();
        assert_eq!(log.replay(&clock).unwrap(), vec![c.clone()]);
        assert_eq!(trim_one(&log, &clock).unwrap(), c);
        assert!(trim_one(&log, &clock).is_none());
    }

    /// Regression: trim/replay interleaving right after an exact-fill wrap
    /// (head mid-ring, tail parked at capacity) must keep FIFO order.
    #[test]
    fn trim_and_replay_interleave_after_exact_fill_wrap() {
        let (log, _pool, clock) = fixture(128);
        log.append(&clock, &[1u8; 56]).unwrap();
        log.append(&clock, &[2u8; 56]).unwrap(); // tail == capacity
        assert_eq!(trim_one(&log, &clock).unwrap(), vec![1u8; 56]);
        // Wrapped append into the space the trim released.
        log.append(&clock, &[3u8; 40]).unwrap();
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![vec![2u8; 56], vec![3u8; 40]]
        );
        assert_eq!(trim_one(&log, &clock).unwrap(), vec![2u8; 56]);
        assert_eq!(trim_one(&log, &clock).unwrap(), vec![3u8; 40]);
        assert!(trim_one(&log, &clock).is_none());
    }

    #[test]
    fn truncate_front_drops_oldest_records_in_one_commit() {
        let (log, _pool, clock) = fixture(1024);
        for i in 0..5u32 {
            log.append(&clock, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(log.truncate_front(&clock, 3).unwrap(), 3);
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![3u32.to_le_bytes().to_vec(), 4u32.to_le_bytes().to_vec()]
        );
        // Over-asking drains what is there and reports the true count.
        assert_eq!(log.truncate_front(&clock, 10).unwrap(), 2);
        assert_eq!(log.replay(&clock).unwrap().len(), 0);
    }

    #[test]
    fn crash_during_truncate_keeps_the_watermark() {
        let (log, pool, clock) = fixture(1024);
        log.append(&clock, b"one").unwrap();
        log.append(&clock, b"two").unwrap();
        pool.fail_points.arm("wal::truncate", 1);
        assert!(matches!(
            log.truncate_front(&clock, 1),
            Err(PmdkError::Injected(_))
        ));
        // The head never moved: both records still replay, so a re-drain
        // applies them again (idempotently) and then truncates.
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![b"one".to_vec(), b"two".to_vec()]
        );
        assert_eq!(log.truncate_front(&clock, 2).unwrap(), 2);
    }

    #[test]
    fn crash_mid_append_loses_only_that_record() {
        let (log, pool, clock) = fixture(1024);
        log.append(&clock, b"committed").unwrap();
        pool.fail_points.arm("wal::append", 1);
        assert!(matches!(
            log.append(&clock, b"torn"),
            Err(PmdkError::Injected(_))
        ));
        assert_eq!(log.replay(&clock).unwrap(), vec![b"committed".to_vec()]);
        // The ring is not poisoned: the next append overwrites the torn body.
        log.append(&clock, b"after").unwrap();
        assert_eq!(
            log.replay(&clock).unwrap(),
            vec![b"committed".to_vec(), b"after".to_vec()]
        );
    }

    /// Deterministic randomized stress: interleaved append/trim/replay/
    /// truncate against a queue model, across capacities small enough to
    /// force frequent wraps and exact fills.
    #[test]
    fn randomized_ops_match_a_queue_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_rand = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        for capacity in [64u64, 96, 128, 256] {
            let (log, _pool, clock) = fixture(capacity);
            let mut model: std::collections::VecDeque<Vec<u8>> = Default::default();
            let mut seq = 0u8;
            for _ in 0..2000 {
                match next_rand() % 10 {
                    0..=4 => {
                        let max_len = capacity / 2 - REC_HDR;
                        let len = 1 + (next_rand() as u64 % max_len) as usize;
                        let rec = vec![seq; len];
                        match log.append(&clock, &rec) {
                            Ok(()) => {
                                model.push_back(rec);
                                seq = seq.wrapping_add(1);
                            }
                            Err(PmdkError::OutOfMemory { .. }) => {}
                            Err(e) => panic!("append: {e}"),
                        }
                    }
                    5..=6 => assert_eq!(trim_one(&log, &clock), model.pop_front()),
                    7 => {
                        let n = (next_rand() % 3) as usize;
                        let dropped = log.truncate_front(&clock, n).unwrap();
                        assert_eq!(dropped, n.min(model.len()));
                        for _ in 0..dropped {
                            model.pop_front();
                        }
                    }
                    _ => {
                        let replayed = log.replay(&clock).unwrap();
                        assert!(replayed.iter().eq(model.iter()), "replay diverged");
                    }
                }
            }
            assert_eq!(log.replay(&clock).unwrap().len(), model.len());
        }
    }
}
