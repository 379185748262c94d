//! Undo-log transactions over the pool, PMDK-lane style.
//!
//! Each transaction claims a *lane*: a fixed persistent region holding the
//! lane state, an intent array and an undo log. The protocol is the standard
//! pmemobj one:
//!
//! * `set(range)` copies the pre-image into the undo log **before** it
//!   overwrites the range — read from the media, or handed over by a caller
//!   whose walk still holds it (`set_word`); `write_new` stores fresh ranges
//!   undo-free, one fence for all before the next record and the commit.
//! * `alloc_many` (`alloc` is a group of one) has the heap *plan* the group,
//!   persists the planned offsets as *allocation intents*, and only then lets
//!   the heap write block headers: a rollback frees every block that came to
//!   be, and skips an intent that still lies in a free block.
//! * `free` is deferred: a *free intent* is persisted and only executed once
//!   the lane has durably entered `COMMITTING` (a crash before that leaves
//!   the block alive) — by the commit, from the list the transaction kept of
//!   its own frees, or by recovery, which decodes the intents from the media.
//! * Recovery (`LaneTable::recover`, run at pool open) rolls back `ACTIVE`
//!   lanes (apply undo log backwards, free alloc-intents) and rolls forward
//!   `COMMITTING` lanes (execute free-intents, discard the log).
//!
//! Alloc- and free-intents share one array: heap payloads are 64-byte
//! aligned, so the low bit tags the entry kind (1 = deferred free).

use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::pool::PmemPool;
use pmem_sim::flight::EventCode;
use pmem_sim::sync::Mutex;
use pmem_sim::Clock;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Volatile lane bookkeeping: which lanes are free to claim.
#[derive(Debug)]
pub struct LaneTable {
    free: Mutex<Vec<u64>>,
}

impl LaneTable {
    pub fn new() -> Self {
        LaneTable {
            free: Mutex::new((0..LANES).rev().collect()),
        }
    }

    /// Persist pristine lane headers (pool create).
    pub fn format(clock: &Clock, device: &Arc<pmem_sim::PmemDevice>) {
        let zeros = vec![0u8; LANE_HEADER_SIZE as usize];
        for i in 0..LANES {
            let off = lane_offset(i) as usize;
            device.write_meta(clock, off, &zeros);
            device.persist(clock, off, zeros.len());
        }
    }

    fn claim(&self) -> Result<u64> {
        self.free.lock().pop().ok_or(PmdkError::NoFreeLanes)
    }

    fn release(&self, lane: u64) {
        self.free.lock().push(lane);
    }

    /// Scan all lanes and repair interrupted transactions.
    /// Returns how many lanes needed recovery.
    pub fn recover(&self, clock: &Clock, pool: &PmemPool) -> Result<u64> {
        let mut repaired = 0;
        for i in 0..LANES {
            let base = lane_offset(i);
            match pool.read_u32(clock, base + lane::STATE) {
                LANE_IDLE => continue,
                LANE_ACTIVE => rollback_lane(clock, pool, base)?,
                LANE_COMMITTING => rollforward_lane(clock, pool, base)?,
                s => {
                    return Err(PmdkError::BadPool(format!(
                        "lane {i} has invalid state {s}"
                    )))
                }
            }
            repaired += 1;
        }
        Ok(repaired)
    }
}

impl Default for LaneTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Apply the undo log backwards and free alloc-intents (crashed ACTIVE tx).
/// The log and the intents are decoded — and bounds-checked — by
/// [`crate::layout`], so a corrupt lane is `BadPool`, not a wild write.
fn rollback_lane(clock: &Clock, pool: &PmemPool, base: u64) -> Result<()> {
    let src = pool.charged(clock);
    // Restore snapshotted pre-images, newest first.
    for rec in undo_records(&src, base)?.into_iter().rev() {
        pool.write_bytes(clock, rec.off, &rec.pre);
    }
    // Free the blocks the dead transaction allocated. An intent is durable
    // before its carve: one that still lies in a free block never happened,
    // and the interior headers of its group may already say ALLOC in there,
    // so the heap's view decides, not the header. Free intents are simply
    // dropped: the free never executed.
    for entry in intents(&src, base)? {
        if entry & 1 == 0 && !pool.in_free_block(entry) && pool.usable_size(entry).is_ok() {
            pool.free(clock, entry)?;
        }
    }
    reset_lane(clock, pool, base);
    Ok(())
}

/// Finish a committed transaction: execute deferred frees, discard the log.
fn rollforward_lane(clock: &Clock, pool: &PmemPool, base: u64) -> Result<()> {
    for off in deferred_frees(&pool.charged(clock), base)? {
        // Idempotent: skip a free an earlier attempt already executed.
        if pool.usable_size(off).is_ok() {
            pool.free(clock, off)?;
        }
    }
    reset_lane(clock, pool, base);
    Ok(())
}

fn reset_lane(clock: &Clock, pool: &PmemPool, base: u64) {
    pool.write_u32(clock, base + lane::UNDO_LEN, 0);
    pool.write_u32(clock, base + lane::INTENT_COUNT, 0);
    pool.write_u32(clock, base + lane::STATE, LANE_IDLE);
}

/// A live transaction handle.
pub struct Tx<'a> {
    pool: &'a Arc<PmemPool>,
    clock: &'a Clock,
    lane_base: u64,
    undo_used: u64,
    intents_used: u64,
    /// The blocks `free` named, in slot order: what `commit` executes.
    frees: Vec<u64>,
    /// Ranges `write_new` stored that nothing has flushed yet.
    fresh: Vec<(u64, u64)>,
}

impl<'a> Tx<'a> {
    /// Run `body` in a transaction; commit on `Ok`, roll back on `Err`.
    pub fn run<T>(
        pool: &'a Arc<PmemPool>,
        clock: &'a Clock,
        body: impl FnOnce(&mut Tx<'_>) -> Result<T>,
    ) -> Result<T> {
        let machine = Arc::clone(pool.device().machine());
        let _tx = machine.span(clock, "pmdk", "tx");
        let lane = pool.lanes.claim()?;
        machine.stats.pool_txs.fetch_add(1, Ordering::Relaxed);
        let lane_base = lane_offset(lane);
        {
            let _p = machine.phase(clock, "pmdk", "tx.begin");
            pool.write_u32(clock, lane_base + lane::STATE, LANE_ACTIVE);
        }
        pool.flight().record(clock, EventCode::TxBegin, 0, lane, 0);
        let mut tx = Tx {
            pool,
            clock,
            lane_base,
            undo_used: 0,
            intents_used: 0,
            frees: Vec::new(),
            fresh: Vec::new(),
        };
        match body(&mut tx) {
            Ok(v) => {
                machine.metric_counter_add("tx.commits", 1);
                machine.metric_counter_add("tx.undo_bytes", tx.undo_used);
                let committed = {
                    let _p = machine.phase(clock, "pmdk", "tx.commit");
                    tx.commit()
                };
                match committed {
                    Ok(()) => {
                        pool.flight().record(clock, EventCode::TxCommit, 0, lane, 0);
                        pool.lanes.release(lane);
                        Ok(v)
                    }
                    Err(e) => {
                        // Injected commit failures leave the lane untouched so a
                        // test can crash the device and exercise recovery.
                        if !matches!(e, PmdkError::Injected(_)) {
                            pool.lanes.release(lane);
                        }
                        Err(e)
                    }
                }
            }
            Err(e) => {
                if matches!(e, PmdkError::Injected(_)) {
                    // Simulated power-failure point: leave everything as-is.
                    return Err(e);
                }
                rollback_lane(clock, pool, lane_base)?;
                pool.flight().record(clock, EventCode::TxAbort, 0, lane, 0);
                pool.lanes.release(lane);
                Err(e)
            }
        }
    }

    /// Record `pre`, which the caller has just read out of `off..`, so a
    /// rollback can restore it: called before the range is overwritten. The
    /// record is one store, one flush and one fence; the length word after
    /// it is the commit point of the log append.
    fn snapshot(&mut self, off: u64, pre: &[u8]) -> Result<()> {
        let dev = self.pool.device();
        debug_assert_eq!(pre, dev.read_vec_untimed(off as usize, pre.len()));
        self.pool.fail_check(self.clock, "tx::snapshot")?;
        let size = undo_record_size(pre.len() as u64);
        if self.undo_used + size > UNDO_CAPACITY {
            return Err(PmdkError::TxFailure(format!(
                "undo log overflow: {} + {size} > {UNDO_CAPACITY}",
                self.undo_used
            )));
        }
        // The write this record guards may publish what `write_new` stored.
        self.persist_fresh();
        let entry = lane_undo(self.lane_base) + self.undo_used;
        self.pool
            .write_bytes(self.clock, entry, &encode_undo_record(off, pre));
        self.undo_used += size;
        self.pool.write_u32(
            self.clock,
            self.lane_base + lane::UNDO_LEN,
            self.undo_used as u32,
        );
        Ok(())
    }

    /// Whether `words` more 8-byte [`Tx::set`]s fit this lane's undo log.
    pub fn undo_fits(&self, words: u64) -> bool {
        self.undo_used + words * undo_record_size(8) <= UNDO_CAPACITY
    }

    /// Snapshot + overwrite in one step.
    pub fn set(&mut self, off: u64, data: &[u8]) -> Result<()> {
        let mut pre = vec![0u8; data.len()];
        self.pool.read_bytes(self.clock, off, &mut pre);
        self.snapshot(off, &pre)?;
        self.pool.write_bytes(self.clock, off, data);
        Ok(())
    }

    /// [`Tx::set`] of a pointer word the caller's walk has just read as
    /// `was`: the same record, flush and fence sequence, without the read.
    pub(crate) fn set_word(&mut self, off: u64, was: u64, now: u64) -> Result<()> {
        self.snapshot(off, &was.to_le_bytes())?;
        self.pool.write_u64(self.clock, off, now);
        Ok(())
    }

    /// Store without snapshotting or persisting (for freshly-allocated
    /// ranges: no rollback image, and unreachable until a snapshotted write
    /// or the commit publishes them). Every fresh range is flushed behind
    /// one fence before the next undo record and before the commit point.
    pub fn write_new(&mut self, off: u64, data: &[u8]) {
        self.pool
            .device()
            .write_meta(self.clock, off as usize, data);
        self.fresh.push((off, data.len() as u64));
    }

    /// Flush what `write_new` stored since the last call, one fence for all.
    fn persist_fresh(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        let dev = self.pool.device();
        for (off, len) in self.fresh.drain(..) {
            dev.flush(self.clock, off as usize, len as usize);
        }
        dev.drain(self.clock);
    }

    /// Transactionally allocate `size` bytes; rolled back if the tx aborts.
    pub fn alloc(&mut self, size: u64) -> Result<u64> {
        Ok(self.alloc_many(&[size])?[0])
    }

    /// Transactionally allocate a group of blocks in one free-list pass; all
    /// are rolled back together if the tx aborts. Offsets come back in
    /// request order. The heap plans the group, the offsets go into intent
    /// slots — durable, and counted — and only then do the block headers
    /// change: no crash leaves a block allocated that no intent names.
    pub fn alloc_many(&mut self, sizes: &[u64]) -> Result<Vec<u64>> {
        let (pool, clock) = (self.pool, self.clock);
        pool.fail_check(clock, "tx::alloc")?;
        if self.intents_used + sizes.len() as u64 > LANE_INTENTS {
            return Err(PmdkError::TxFailure("intent table overflow".into()));
        }
        let offs = pool.alloc_planned(clock, sizes, |offs| self.push_intents(offs))?;
        pool.fail_check(clock, "tx::alloc-after")?;
        Ok(offs)
    }

    /// Transactionally free `off`; executed only if the tx commits. A block
    /// this transaction already freed is refused here, while the transaction
    /// can still roll back: at commit the second free would fail after the
    /// first had run.
    pub fn free(&mut self, off: u64) -> Result<()> {
        if self.intents_used >= LANE_INTENTS {
            return Err(PmdkError::TxFailure("intent table overflow".into()));
        }
        // Validate now so the error surfaces in the tx, not at commit.
        self.pool.usable_size(off)?;
        if self.frees.contains(&off) {
            return Err(PmdkError::BadPointer(off));
        }
        self.push_intents(&[off | 1]);
        self.frees.push(off);
        Ok(())
    }

    /// Persist `entries` in the next intent slots with one write, then the
    /// count that makes recovery read them.
    fn push_intents(&mut self, entries: &[u64]) {
        let slots: Vec<u8> = entries.iter().flat_map(|e| e.to_le_bytes()).collect();
        let first_slot = lane_intents(self.lane_base) + self.intents_used * 8;
        self.pool.write_bytes(self.clock, first_slot, &slots);
        self.intents_used += entries.len() as u64;
        self.pool.write_u32(
            self.clock,
            self.lane_base + lane::INTENT_COUNT,
            self.intents_used as u32,
        );
    }

    fn commit(&mut self) -> Result<()> {
        self.pool.fail_check(self.clock, "tx::commit-before")?;
        self.persist_fresh();
        // Durable commit point.
        self.pool
            .write_u32(self.clock, self.lane_base + lane::STATE, LANE_COMMITTING);
        self.pool.fail_check(self.clock, "tx::commit-during")?;
        // Execute deferred frees from the transaction's own list; recovery,
        // which has no list, decodes the same blocks from the intent slots.
        debug_assert_eq!(
            deferred_frees(&**self.pool.device(), self.lane_base).as_ref(),
            Ok(&self.frees)
        );
        for off in std::mem::take(&mut self.frees) {
            self.pool.free(self.clock, off)?;
        }
        reset_lane(self.clock, self.pool, self.lane_base);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};

    fn fresh_pool(bytes: usize) -> (Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "tx-test").unwrap();
        (pool, clock)
    }

    fn reopen(pool: Arc<PmemPool>, clock: &Clock) -> Arc<PmemPool> {
        let dev = Arc::clone(pool.device());
        drop(pool);
        PmemPool::open(clock, dev, "tx-test").unwrap()
    }

    #[test]
    fn committed_tx_is_durable() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        pool.tx(&clock, |tx| tx.set(root, b"committed")).unwrap();
        let pool = reopen(pool, &clock);
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, root, &mut buf);
        assert_eq!(&buf, b"committed");
    }

    #[test]
    fn aborted_tx_rolls_back_data() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        pool.write_bytes(&clock, root, b"original!");
        let err = pool
            .tx(&clock, |tx| {
                tx.set(root, b"scribbled")?;
                Err::<(), _>(PmdkError::TxFailure("user abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, PmdkError::TxFailure(_)));
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, root, &mut buf);
        assert_eq!(&buf, b"original!");
    }

    #[test]
    fn aborted_tx_releases_allocations() {
        let (pool, clock) = fresh_pool(1 << 21);
        let before = pool.allocated_bytes();
        let _ = pool.tx(&clock, |tx| {
            tx.alloc(1000)?;
            tx.alloc(2000)?;
            Err::<(), _>(PmdkError::TxFailure("abort".into()))
        });
        assert_eq!(pool.allocated_bytes(), before);
        pool.check_heap().unwrap();
    }

    #[test]
    fn tx_free_applies_only_on_commit() {
        let (pool, clock) = fresh_pool(1 << 21);
        let p = pool.alloc(&clock, 128).unwrap();
        // Aborted: block survives.
        let _ = pool.tx(&clock, |tx| {
            tx.free(p)?;
            Err::<(), _>(PmdkError::TxFailure("abort".into()))
        });
        assert!(pool.usable_size(p).is_ok());
        // Committed: block is gone.
        pool.tx(&clock, |tx| tx.free(p)).unwrap();
        assert!(pool.usable_size(p).is_err());
    }

    /// A commit executes the list the transaction kept, not a decode of its
    /// own intent slots: 64 allocations and 3 frees free exactly those 3 —
    /// debug builds check the list against the media, slot for slot — and
    /// the whole transaction reads no metadata back.
    #[test]
    fn a_commit_frees_what_the_transaction_named_and_reads_nothing_back() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 21, PersistenceMode::Tracked);
        let registry = pmem_sim::MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "tx-test").unwrap();
        let victims = pool.alloc_many(&clock, &[64; 5]).unwrap();
        let reads = || {
            let hists = registry.snapshot().hists;
            hists.get("pmem.meta_read").map_or(0, |h| h.count)
        };
        let before = reads();
        let born = pool
            .tx(&clock, |tx| {
                tx.free(victims[3])?;
                let born = tx.alloc_many(&[64; 64])?;
                tx.free(victims[0])?;
                tx.free(victims[4])?;
                Ok(born)
            })
            .unwrap();
        assert_eq!(reads() - before, 0);
        for (i, &v) in victims.iter().enumerate() {
            assert_eq!(
                pool.usable_size(v).is_ok(),
                [1, 2].contains(&i),
                "victim {i}"
            );
        }
        assert!(born.iter().all(|&b| pool.usable_size(b).is_ok()));
        pool.check_heap().unwrap();
    }

    /// Freeing a block twice in one transaction used to pass both checks,
    /// push two intents and fail at the second `pool.free` — after the commit
    /// point, with the first free executed: `Err` for a transaction that had
    /// committed, and a lane released at COMMITTING with its intents on media.
    /// It is refused inside the body now, where the transaction still aborts.
    #[test]
    fn freeing_a_block_twice_aborts_the_transaction() {
        let (pool, clock) = fresh_pool(1 << 21);
        let block = pool.alloc(&clock, 128).unwrap();
        let err = pool
            .tx(&clock, |tx| {
                tx.free(block)?;
                tx.free(block)
            })
            .unwrap_err();
        assert_eq!(err, PmdkError::BadPointer(block));
        assert!(pool.usable_size(block).is_ok(), "rolled back: still live");
        let lanes_idle = |pool: &PmemPool| {
            (0..LANES).map(lane_offset).all(|base| {
                pool.read_u32(&clock, base + lane::STATE) == LANE_IDLE
                    && intents(&**pool.device(), base).unwrap().is_empty()
            })
        };
        assert!(lanes_idle(&pool));
        pool.check_heap().unwrap();
        let pool = reopen(pool, &clock);
        assert!(lanes_idle(&pool));
        assert!(pool.usable_size(block).is_ok());
        pool.check_heap().unwrap();
        // The block is still this pool's to free, once.
        pool.tx(&clock, |tx| tx.free(block)).unwrap();
        assert!(pool.usable_size(block).is_err());
    }

    #[test]
    fn crash_mid_body_rolls_back_on_open() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        pool.write_bytes(&clock, root, b"original!");
        pool.fail_points.arm("tx::snapshot", 2);
        let err = pool
            .tx(&clock, |tx| {
                tx.set(root, b"first ok!")?; // snapshot #1 succeeds
                tx.set(root, b"second no")?; // snapshot #2 injected
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, PmdkError::Injected(_)));
        pool.device().crash();
        let pool = reopen(pool, &clock);
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, root, &mut buf);
        assert_eq!(&buf, b"original!");
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_before_commit_point_rolls_back() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        pool.write_bytes(&clock, root, b"original!");
        pool.fail_points.arm("tx::commit-before", 1);
        let _ = pool.tx(&clock, |tx| tx.set(root, b"newvalue!"));
        pool.device().crash();
        let pool = reopen(pool, &clock);
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, root, &mut buf);
        assert_eq!(&buf, b"original!");
    }

    #[test]
    fn crash_after_commit_point_rolls_forward() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        let victim = pool.alloc(&clock, 128).unwrap();
        pool.write_bytes(&clock, root, b"original!");
        pool.fail_points.arm("tx::commit-during", 1);
        let _ = pool.tx(&clock, |tx| {
            tx.set(root, b"newvalue!")?;
            tx.free(victim)?;
            Ok(())
        });
        pool.device().crash();
        let pool = reopen(pool, &clock);
        // Data keeps the new value (commit point passed)...
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, root, &mut buf);
        assert_eq!(&buf, b"newvalue!");
        // ...and the deferred free completed during recovery.
        assert!(pool.usable_size(victim).is_err());
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_alloc_does_not_leak() {
        let (pool, clock) = fresh_pool(1 << 21);
        let baseline = pool.allocated_bytes();
        pool.fail_points.arm("tx::alloc-after", 1);
        let _ = pool.tx(&clock, |tx| {
            tx.alloc(4096)?; // injected right after the heap alloc
            Ok(())
        });
        pool.device().crash();
        let pool = reopen(pool, &clock);
        assert_eq!(pool.allocated_bytes(), baseline);
        pool.check_heap().unwrap();
    }

    #[test]
    fn undo_log_overflow_is_detected() {
        let (pool, clock) = fresh_pool(1 << 22);
        let big = pool.alloc(&clock, 128 * 1024).unwrap();
        let err = pool
            .tx(&clock, |tx| tx.set(big, &vec![0; 100 * 1024]))
            .unwrap_err();
        assert!(matches!(err, PmdkError::TxFailure(_)));
    }

    #[test]
    fn concurrent_transactions_use_distinct_lanes() {
        let (pool, clock) = fresh_pool(1 << 22);
        let a = pool.alloc(&clock, 64).unwrap();
        let b = pool.alloc(&clock, 64).unwrap();
        pool.tx(&clock, |tx1| {
            assert_eq!(tx1.lane_base, lane_offset(0));
            tx1.set(a, &[1; 64])?;
            // Nested/overlapping tx from the same thread uses another lane.
            pool.tx(&clock, |tx2| {
                assert_ne!(tx2.lane_base, lane_offset(0));
                tx2.set(b, &[2; 64])
            })
        })
        .unwrap();
        let mut buf = [0u8; 64];
        pool.read_bytes(&clock, a, &mut buf);
        assert_eq!(buf, [1; 64]);
    }

    #[test]
    fn aborted_alloc_many_releases_the_whole_group() {
        let (pool, clock) = fresh_pool(1 << 21);
        let before = pool.allocated_bytes();
        let _ = pool.tx(&clock, |tx| {
            let offs = tx.alloc_many(&[1000, 2000, 64])?;
            assert_eq!(offs.len(), 3);
            Err::<(), _>(PmdkError::TxFailure("abort".into()))
        });
        assert_eq!(pool.allocated_bytes(), before);
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_alloc_many_does_not_leak() {
        let (pool, clock) = fresh_pool(1 << 21);
        let baseline = pool.allocated_bytes();
        pool.fail_points.arm("tx::alloc-after", 1);
        let _ = pool.tx(&clock, |tx| {
            tx.alloc_many(&[4096, 512, 512])?; // injected after the group alloc
            Ok(())
        });
        pool.device().crash();
        let pool = reopen(pool, &clock);
        assert_eq!(pool.allocated_bytes(), baseline);
        pool.check_heap().unwrap();
    }

    /// An image written before PR 22 may hold a reserved, never filled
    /// (zero) slot in an ACTIVE lane: recovery passes over it.
    #[test]
    fn a_zero_intent_slot_of_an_older_image_is_passed_over() {
        let (pool, clock) = fresh_pool(1 << 21);
        let baseline = pool.allocated_bytes();
        let block = pool.alloc(&clock, 64).unwrap();
        let base = lane_offset(0);
        pool.write_u64(&clock, lane_intents(base), 0);
        pool.write_u64(&clock, lane_intents(base) + 8, block);
        pool.write_u32(&clock, base + lane::INTENT_COUNT, 2);
        pool.write_u32(&clock, base + lane::STATE, LANE_ACTIVE);
        let pool = reopen(pool, &clock);
        assert_eq!(pool.allocated_bytes(), baseline);
        pool.check_heap().unwrap();
    }

    #[test]
    fn alloc_many_rejects_intent_overflow() {
        let (pool, clock) = fresh_pool(1 << 21);
        let sizes = vec![64u64; LANE_INTENTS as usize + 1];
        let err = pool.tx(&clock, |tx| tx.alloc_many(&sizes)).unwrap_err();
        assert!(matches!(err, PmdkError::TxFailure(_)));
    }

    fn fences(pool: &PmemPool) -> u64 {
        pool.device().machine().stats.snapshot().fences
    }

    /// The barrier ledger (DESIGN §8): however many fresh ranges a
    /// transaction stores, they share one fence; an undo record is one fence
    /// and its length word another.
    #[test]
    fn fresh_stores_share_one_fence_and_an_undo_record_costs_two() {
        let (pool, clock) = fresh_pool(1 << 21);
        let root = pool.root(&clock, 64).unwrap();
        let block = pool.alloc(&clock, 1024).unwrap();
        for k in [1u64, 4, 16] {
            let before = fences(&pool);
            pool.tx(&clock, |tx| {
                for i in 0..k {
                    tx.write_new(block + i * 64, &[i as u8; 64]);
                }
                tx.set(root, b"publish!")
            })
            .unwrap();
            // begin, fresh, record, UNDO_LEN, data; commit: COMMITTING,
            // UNDO_LEN, INTENT_COUNT, IDLE.
            assert_eq!(fences(&pool) - before, 1 + 1 + 1 + 1 + 1 + 4, "k = {k}");
        }
        // Nothing fresh, nothing to fence; fresh only, fenced by the commit.
        let before = fences(&pool);
        pool.tx(&clock, |tx| tx.set(root, b"set only")).unwrap();
        assert_eq!(fences(&pool) - before, 1 + 3 + 4);
        let before = fences(&pool);
        pool.tx(&clock, |tx| {
            tx.write_new(block, b"fresh only");
            Ok(())
        })
        .unwrap();
        assert_eq!(fences(&pool) - before, 1 + 1 + 4);
        // An allocation, whatever its size: the intent slots, their count,
        // then the carve (a split of the last block: the tail header's drain
        // and the commit header).
        for sizes in [&[64u64][..], &[64, 200, 64]] {
            let before = fences(&pool);
            pool.tx(&clock, |tx| tx.alloc_many(sizes).map(drop))
                .unwrap();
            assert_eq!(fences(&pool) - before, 1 + 2 + 2 + 4, "{sizes:?}");
        }
    }

    /// The put path's budget: a 64-key group of fresh keys in distinct
    /// buckets pays three fences a key for its head write, one for its
    /// value, and shares everything else.
    #[test]
    fn a_64_key_reservation_costs_at_most_five_fences_a_key() {
        use crate::hashtable::{fnv1a, PersistentHashtable};
        const BUCKETS: u64 = 4096;
        let (pool, clock) = fresh_pool(1 << 22);
        let ht = PersistentHashtable::create(&clock, &pool, BUCKETS).unwrap();
        ht.put(&clock, b"warm", b"the dirty flag is set").unwrap();
        let mut taken = std::collections::HashSet::new();
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|i| format!("k{i}").into_bytes())
            .filter(|k| taken.insert(fnv1a(k) % BUCKETS))
            .take(64)
            .collect();
        let reqs: Vec<(&[u8], u64)> = keys.iter().map(|k| (k.as_slice(), 8)).collect();
        let (before, txs) = (
            fences(&pool),
            pool.device().machine().stats.snapshot().pool_txs,
        );
        for vref in ht.put_reserve_many(&clock, &reqs).unwrap() {
            pool.write_bytes(&clock, vref.offset, &[7u8; 8]);
        }
        assert_eq!(pool.device().machine().stats.snapshot().pool_txs - txs, 1);
        let spent = fences(&pool) - before;
        // 64 × (record, UNDO_LEN, head, value) + begin 1 + intents 2 + heap
        // carve 2 + fresh 1 + commit 4.
        assert_eq!(spent, 64 * 4 + 10);
        assert!(spent <= 5 * 64);
    }

    #[test]
    fn many_sequential_transactions_reuse_lanes() {
        let (pool, clock) = fresh_pool(1 << 22);
        let p = pool.alloc(&clock, 8).unwrap();
        for i in 0..200u64 {
            pool.tx(&clock, |tx| tx.set(p, &i.to_le_bytes())).unwrap();
        }
        assert_eq!(pool.read_u64(&clock, p), 199);
    }
}
