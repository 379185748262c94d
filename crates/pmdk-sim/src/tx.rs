//! Undo-log transactions over the pool, PMDK-lane style.
//!
//! Each transaction claims a *lane*: a fixed persistent region holding the
//! lane state, a log length and one log of records — undo records and
//! alloc intents alike (`layout::lane_log`). The protocol is the standard
//! pmemobj one, each lane transition one store of the lane's first line:
//!
//! * `set(range)` logs the pre-image **before** it overwrites the range —
//!   read from the media, or handed over by a caller whose walk still holds
//!   it (`set_words`, one record a word); `write_new` stores fresh ranges
//!   undo-free. The commit flushes both kinds of store.
//! * `alloc_many` (`alloc` is a group of one) has the heap *plan* the group,
//!   counts the planned offsets as *allocation intents*, and only then lets
//!   the heap write block headers: a rollback frees every block that came to
//!   be, and skips an intent that still lies in a free region.
//! * `free` is a logged store: the block's ALLOC state word is a record,
//!   and the commit stores FREE over it. The heap takes the block once the
//!   lane is `IDLE`, never while a crash could undo it.
//! * Logging stores nothing. A *count store* comes before the first store
//!   a rollback must undo: the records past the lane's first line, flushed
//!   and fenced, then one persisted store of that line — `ACTIVE`, the log
//!   length and the records in it, all of a one-key put's. `IDLE`, the
//!   state word alone, is every transaction's commit point.
//! * A rollback — an abort in process, or a mount's for an `ACTIVE` lane —
//!   stores the pre-images newest first, then frees the intents' blocks.
//!   A mount restores before its heap walk (the records restore block
//!   headers) and frees after it; an abort restores only what it stored.

use crate::alloc::{state_word, write_unfenced};
use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::pool::PmemPool;
use pmem_sim::flight::EventCode;
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, PmemDevice};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Volatile lane bookkeeping: which lanes are free to claim.
#[derive(Debug)]
pub(crate) struct LaneTable {
    free: Mutex<Vec<u64>>,
}

impl LaneTable {
    pub(crate) fn new() -> Self {
        LaneTable {
            free: Mutex::new((0..LANES).rev().collect()),
        }
    }

    /// Persist pristine lane header lines (pool create).
    pub(crate) fn format(clock: &Clock, device: &Arc<PmemDevice>) {
        let zeros = vec![0u8; LANE_LINE as usize];
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

    /// A mount's lane recovery before its heap walk: decode every lane (a
    /// lane that faults refuses the mount before any store), then restore
    /// each ACTIVE one's pre-images behind one drain. Returns each such
    /// lane's base and intents, for [`retire_lane`] on the walked heap.
    pub(crate) fn restore(
        clock: &Clock,
        device: &PmemDevice,
    ) -> Result<Vec<(u64, Vec<LogRecord>)>> {
        let src = Charged { device, clock };
        let (mut records, mut busy) = (Vec::new(), Vec::new());
        for i in 0..LANES {
            let base = lane_offset(i);
            match src.u32_at(base + lane::STATE) {
                LANE_IDLE => {}
                LANE_ACTIVE => {
                    let (intents, undo): (Vec<_>, Vec<_>) = lane_log(&src, base)?
                        .into_iter()
                        .partition(LogRecord::is_intent);
                    records.extend(undo.into_iter().rev());
                    busy.push((base, intents));
                }
                s => return bad(format!("lane {i} has invalid state {s}")),
            }
        }
        for rec in &records {
            write_unfenced(clock, device, rec.off, &rec.pre);
        }
        if !records.is_empty() {
            device.drain(clock);
        }
        Ok(busy)
    }
}

/// Roll a lane back: the pre-images of `log`, newest first, and FREE over
/// each live block an intent of it names, one flush each; one drain;
/// `IDLE`; then the heap takes the blocks.
pub(crate) fn retire_lane(clock: &Clock, pool: &PmemPool, base: u64, log: &[LogRecord]) {
    let (dev, free) = (pool.device(), BLOCK_FREE.to_le_bytes());
    let freed: Vec<u64> = (log.iter())
        .filter(|r| r.is_intent() && pool.is_live(r.off))
        .map(|r| r.off)
        .collect();
    let frees = freed.iter().map(|&off| (state_word(off), &free[..]));
    // An intent's empty pre-image is no store.
    for (off, bytes) in (log.iter().rev().map(|r| (r.off, &r.pre[..]))).chain(frees) {
        write_unfenced(clock, dev, off, bytes);
    }
    if log.iter().any(|r| !r.is_intent()) || !freed.is_empty() {
        dev.drain(clock);
    }
    pool.write_u32(clock, base + lane::STATE, LANE_IDLE);
    pool.release(clock, &freed);
}

/// A live transaction handle.
pub struct Tx<'a> {
    pool: &'a Arc<PmemPool>,
    clock: &'a Clock,
    lane_base: u64,
    /// The log length on media: `None` until a count store publishes the
    /// lane (an unpublished lane's length is an older transaction's).
    counted: Option<u64>,
    /// Records behind the counted ones, not stored yet: the next count
    /// store stores and counts them.
    pending: Vec<u8>,
    /// The blocks `free_many` named: stored FREE by the commit.
    frees: Vec<u64>,
    /// Ranges stored, fresh or logged, that the commit flushes.
    fresh: Vec<(u64, u64)>,
}

impl<'a> Tx<'a> {
    /// Run `body` in a transaction; commit on `Ok`, roll back on `Err`.
    pub(crate) fn run<T>(
        pool: &'a Arc<PmemPool>,
        clock: &'a Clock,
        body: impl FnOnce(&mut Tx<'_>) -> Result<T>,
    ) -> Result<T> {
        let machine = Arc::clone(pool.device().machine());
        let _tx = machine.span(clock, "pmdk", "tx");
        let lane = pool.lanes.claim()?;
        machine.stats.pool_txs.fetch_add(1, Ordering::Relaxed);
        pool.flight().record(clock, EventCode::TxBegin, lane, 0);
        let mut tx = Tx {
            pool,
            clock,
            lane_base: lane_offset(lane),
            counted: None,
            pending: Vec::new(),
            frees: Vec::new(),
            fresh: Vec::new(),
        };
        match body(&mut tx) {
            Ok(v) => {
                machine.metric_counter_add("tx.commits", 1);
                tx.commit();
                machine.metric_counter_add("tx.undo_bytes", tx.counted.unwrap_or(0));
                pool.flight().record(clock, EventCode::TxCommit, lane, 0);
                pool.lanes.release(lane);
                Ok(v)
            }
            Err(e) => {
                // The counted records over ranges the body stored, and the
                // counted alloc intents, decoded from the lane.
                if tx.counted.is_some() {
                    let base = tx.lane_base;
                    let mut log = lane_log(&pool.charged(clock), base)?;
                    log.retain(|r| {
                        let end = r.off + r.pre.len() as u64;
                        let stored = |&(off, len): &_| r.off < off + len && off < end;
                        r.is_intent() || tx.fresh.iter().any(stored)
                    });
                    retire_lane(clock, pool, base, &log);
                }
                pool.flight().record(clock, EventCode::TxAbort, lane, 0);
                pool.lanes.release(lane);
                Err(e)
            }
        }
    }

    /// Log `pres` — each a range and the bytes the caller has just read out
    /// of it — so a rollback can restore them, behind the pending records.
    /// Nothing is stored: the next count store stores and counts them, and
    /// must come before any range is overwritten — by [`Tx::write_new`],
    /// whose ranges are all an abort restores.
    pub(crate) fn log<P: AsRef<[u8]>>(
        &mut self,
        pres: impl IntoIterator<Item = (u64, P)>,
    ) -> Result<()> {
        for (off, pre) in pres {
            let pre = pre.as_ref();
            debug_assert_eq!(
                pre,
                self.pool.device().read_vec_untimed(off as usize, pre.len())
            );
            encode_record(&mut self.pending, off, pre);
        }
        self.room(0)
    }

    /// Whether the log, with `more` bytes behind the pending records, fits
    /// this lane.
    fn room(&self, more: u64) -> Result<()> {
        match self.logged() + more {
            used if used > LANE_LOG_BYTES => Err(PmdkError::TxFailure(format!(
                "lane log overflow: {used} > {LANE_LOG_BYTES}"
            ))),
            _ => Ok(()),
        }
    }

    /// Bytes of log, counted and pending.
    fn logged(&self) -> u64 {
        self.counted.unwrap_or(0) + self.pending.len() as u64
    }

    /// Whether `words` more 8-byte [`Tx::set`]s fit this lane's log.
    pub(crate) fn undo_fits(&self, words: u64) -> bool {
        self.room(words * (RECORD_HEADER + 8)).is_ok()
    }

    /// Snapshot + overwrite in one step; the commit flushes the overwrite.
    /// It reads its pre-image back and pays a count store of its own, so no
    /// product path takes it; the benchmark ladder's `tx_set64` rung does.
    pub fn set(&mut self, off: u64, data: &[u8]) -> Result<()> {
        let mut pre = vec![0u8; data.len()];
        self.pool.read_bytes(self.clock, off, &mut pre);
        self.log([(off, pre)])?;
        self.count(&[]);
        self.write_new(off, data);
        Ok(())
    }

    /// [`Tx::set`] of pointer words the caller's walk has just read, each
    /// `(offset, was, now)`: one count store logs them all, and nothing is
    /// read.
    pub(crate) fn set_words(&mut self, words: &[(u64, u64, u64)]) -> Result<()> {
        self.log(words.iter().map(|&(off, was, _)| (off, was.to_le_bytes())))?;
        self.store_words(words);
        Ok(())
    }

    /// Store words `(offset, was, now)` whose pre-images are logged, behind
    /// a count store if a record still waits for one.
    pub(crate) fn store_words(&mut self, words: &[(u64, u64, u64)]) {
        if !self.pending.is_empty() {
            self.count(&[]);
        }
        for &(off, _, now) in words {
            self.write_new(off, &now.to_le_bytes());
        }
    }

    /// Store without snapshotting or persisting: a freshly-allocated range
    /// (no rollback image, unreachable until a logged write publishes it),
    /// or a range whose pre-image is logged. The commit flushes it behind
    /// the fence before its commit point.
    pub fn write_new(&mut self, off: u64, data: &[u8]) {
        self.pool
            .device()
            .write_meta(self.clock, off as usize, data);
        self.fresh.push((off, data.len() as u64));
    }

    /// Transactionally allocate `size` bytes; rolled back if the tx aborts.
    pub fn alloc(&mut self, size: u64) -> Result<u64> {
        // A group of one has no header but its commit header.
        Ok(self.alloc_many(&[size], |_, _, _| Ok(()))?[0])
    }

    /// Transactionally allocate a group of blocks in one free-map pass; all
    /// are rolled back together if the tx aborts. Offsets come back in
    /// request order. The heap plans the group, the offsets join the
    /// pending records as intents, and the count store makes them durable
    /// with whatever waited for it, a merged header the carve needs among
    /// it; only then do the block headers change: no crash leaves a block
    /// allocated that no intent names.
    /// `store(i, offsets, header)` fills block `i` led by its header
    /// ([`PmemPool::headers`] stores the headers alone); a fill that fails
    /// fails the transaction, whose rollback frees every block.
    pub fn alloc_many(
        &mut self,
        sizes: &[u64],
        mut store: impl FnMut(usize, &[u64], &[u8]) -> Result<()>,
    ) -> Result<Vec<u64>> {
        self.room(sizes.len() as u64 * RECORD_HEADER)?;
        let (pool, clock) = (self.pool, self.clock);
        let count = |offs: &[u64], _merged| self.count(offs);
        pool.alloc_planned(clock, sizes, count, &mut store)
    }

    /// Transactionally free `off`; it takes effect only if the tx commits.
    pub fn free(&mut self, off: u64) -> Result<()> {
        self.free_many(&[off])
    }

    /// Transactionally free a group of blocks: each block's ALLOC state
    /// word joins the pending records, and the commit stores FREE over it.
    /// A block this transaction freed already is refused here, while it can
    /// still roll back.
    pub(crate) fn free_many(&mut self, offs: &[u64]) -> Result<()> {
        for (i, &off) in offs.iter().enumerate() {
            // Validate now so the error surfaces in the tx, not at commit.
            self.pool.usable_size(off)?;
            if self.frees.contains(&off) || offs[..i].contains(&off) {
                return Err(PmdkError::BadPointer(off));
            }
        }
        let alloc = BLOCK_ALLOC.to_le_bytes();
        for &off in offs {
            encode_record(&mut self.pending, state_word(off), &alloc);
        }
        self.frees.extend_from_slice(offs);
        self.room(0)
    }

    /// The count store: `allocs` join the pending records as intents; the
    /// records that lie past the lane's first line go out as one flushed
    /// store, then a fence; then one persisted store of that line —
    /// `ACTIVE`, the log length and the records inside it. Its fence also
    /// makes durable whatever the caller flushed before it.
    fn count(&mut self, allocs: &[u64]) {
        for &off in allocs {
            encode_record(&mut self.pending, off, &[]);
        }
        let (dev, clock, base) = (self.pool.device(), self.clock, self.lane_base);
        let at = base + lane::RECORDS + self.counted.unwrap_or(0);
        let inside = (base + LANE_LINE).saturating_sub(at) as usize;
        let (line, spill) = self.pending.split_at(inside.min(self.pending.len()));
        if !spill.is_empty() {
            write_unfenced(clock, dev, at + line.len() as u64, spill);
            dev.drain(clock);
        }
        let len = self.logged();
        let words = [LANE_ACTIVE, len as u32].map(u32::to_le_bytes).concat();
        dev.write_untimed(base as usize, &words);
        let mut end = base + lane::RECORDS;
        if !line.is_empty() {
            dev.write_untimed(at as usize, line);
            end = at + line.len() as u64;
        }
        dev.machine()
            .charge_pmem_write_meta(clock, (words.len() + line.len()) as u64);
        dev.persist(clock, base as usize, (end - base) as usize);
        self.counted = Some(len);
        self.pending.clear();
    }

    fn commit(&mut self) {
        let (dev, clock, pool) = (self.pool.device(), self.clock, self.pool);
        let _p = dev.machine().phase(clock, "pmdk", "tx.commit");
        // Every free's record is counted before its FREE store: a
        // transaction that freed after its last count store stores one more.
        if !self.frees.is_empty() && !self.pending.is_empty() {
            self.count(&[]);
        }
        let frees = std::mem::take(&mut self.frees);
        for &off in &frees {
            self.write_new(state_word(off), &BLOCK_FREE.to_le_bytes());
        }
        // Every store of the body, and whatever the caller flushed, is
        // durable behind one fence before the commit point, IDLE.
        let stored = !self.fresh.is_empty();
        for (off, len) in self.fresh.drain(..) {
            dev.flush(clock, off as usize, len as usize);
        }
        if stored {
            dev.drain(clock);
        }
        // A lane never published is IDLE on media already.
        if self.counted.is_some() {
            pool.write_u32(clock, self.lane_base + lane::STATE, LANE_IDLE);
        }
        pool.release(clock, &frees);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::PersistentHashtable;
    use crate::pool::tests::{crashed_at, last_uncommitted};
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

    /// A commit frees the list the transaction kept: 64 allocations and 3
    /// frees free exactly those 3, and the whole transaction reads no
    /// metadata back.
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
                let born = tx.alloc_many(&[64; 64], pool.headers(&clock))?;
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

    /// Freeing a block twice in one transaction used to pass both checks and
    /// fail at the second free — after the commit point, with the first one
    /// executed: `Err` for a transaction that had committed. It is refused
    /// inside the body, where the transaction still aborts.
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
                pool.device().u32_at(base + lane::STATE) == LANE_IDLE
                    && lane_log(&**pool.device(), base).unwrap().is_empty()
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

    /// A root holding "original!" and a transaction that overwrites it
    /// twice; the mark is where the second overwrite begins.
    fn two_sets(pool: &Arc<PmemPool>, clock: &Clock, passed: &dyn Fn() -> usize) -> (u64, usize) {
        let root = pool.root(clock, 64).unwrap();
        pool.write_bytes(clock, root, b"original!");
        let mut second = 0;
        pool.tx(clock, |tx| {
            tx.set(root, b"first ok!")?;
            second = passed();
            tx.set(root, b"second no")
        })
        .unwrap();
        (root, second)
    }

    fn root_after(pool: &PmemPool, clock: &Clock, root: u64) -> [u8; 9] {
        let mut buf = [0u8; 9];
        pool.read_bytes(clock, root, &mut buf);
        buf
    }

    #[test]
    fn crash_mid_body_rolls_back_on_open() {
        let ((_, second), _) = crashed_at(1 << 21, usize::MAX, two_sets);
        let ((root, _), image) = crashed_at(1 << 21, second, two_sets);
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image.unwrap(), "test-layout").unwrap();
        assert_eq!(&root_after(&pool, &clock, root), b"original!");
        pool.check_heap().unwrap();
    }

    /// A transaction that overwrites the root and frees a block, and a
    /// store behind it (so the transaction's last point is not the run's);
    /// the marks are the end of its body (its commit's first crash point)
    /// and of the transaction.
    fn set_and_free(
        pool: &Arc<PmemPool>,
        clock: &Clock,
        passed: &dyn Fn() -> usize,
    ) -> (u64, u64, [usize; 2]) {
        let root = pool.root(clock, 64).unwrap();
        let victim = pool.alloc(clock, 128).unwrap();
        pool.write_bytes(clock, root, b"original!");
        let mut body_end = 0;
        pool.tx(clock, |tx| {
            tx.set(root, b"newvalue!")?;
            tx.free(victim)?;
            body_end = passed();
            Ok(())
        })
        .unwrap();
        let end = passed();
        pool.write_bytes(clock, root + 32, b"after");
        (root, victim, [body_end, end])
    }

    #[test]
    fn crash_before_commit_point_rolls_back() {
        let ((.., [body_end, end]), _) = crashed_at(1 << 21, usize::MAX, set_and_free);
        for k in [body_end, last_uncommitted(1 << 21, end, set_and_free)] {
            let ((root, victim, _), image) = crashed_at(1 << 21, k, set_and_free);
            let clock = Clock::new();
            let pool = PmemPool::open(&clock, image.unwrap(), "test-layout").unwrap();
            assert_eq!(&root_after(&pool, &clock, root), b"original!", "point {k}");
            assert!(pool.usable_size(victim).is_ok(), "point {k}");
        }
    }

    /// IDLE is the commit point: the first image past it holds the new
    /// value and the free, with nothing left for recovery to do.
    #[test]
    fn crash_after_the_commit_point_keeps_the_new_value_and_the_free() {
        let ((.., [_, end]), _) = crashed_at(1 << 21, usize::MAX, set_and_free);
        let commit = last_uncommitted(1 << 21, end, set_and_free) + 1;
        let ((root, victim, _), image) = crashed_at(1 << 21, commit, set_and_free);
        let image = image.unwrap();
        assert!(crate::doctor::read_lanes(&image).all_idle());
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image, "test-layout").unwrap();
        assert_eq!(&root_after(&pool, &clock, root), b"newvalue!");
        assert!(pool.usable_size(victim).is_err());
        pool.check_heap().unwrap();
    }

    /// The free's window: its FREE state word is durable, the lane still
    /// ACTIVE. A crash there rolls the word back with the root's: the old
    /// value reads back and the block is live, once, after a remount.
    #[test]
    fn a_crash_between_the_freed_state_word_and_idle_keeps_the_old_value_and_the_block() {
        let ((.., [body_end, end]), _) = crashed_at(1 << 21, usize::MAX, set_and_free);
        let freed = |image: &PmemDevice, victim: u64| {
            image.u32_at(state_word(victim)) == BLOCK_FREE
                && crate::doctor::read_lanes(image).active == 1
        };
        let (victim, image, root) = (body_end..end)
            .find_map(|k| {
                let ((root, victim, _), image) = crashed_at(1 << 21, k, set_and_free);
                let image = image.unwrap();
                freed(&image, victim).then_some((victim, image, root))
            })
            .expect("a crash point between the FREE word and IDLE");
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image, "test-layout").unwrap();
        assert_eq!(&root_after(&pool, &clock, root), b"original!");
        assert_eq!(pool.usable_size(victim), Ok(128));
        pool.check_heap().unwrap();
        pool.tx(&clock, |tx| tx.free(victim)).unwrap();
        assert!(pool.usable_size(victim).is_err());
        pool.check_heap().unwrap();
    }

    /// A transaction that allocates `sizes` and commits; the mark is its
    /// commit's first crash point, every block carved by then.
    fn alloc_to_commit(
        sizes: &'static [u64],
    ) -> impl Fn(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> (u64, usize) {
        move |pool, clock, passed| {
            let baseline = pool.allocated_bytes();
            let mut end = 0;
            pool.tx(clock, |tx| {
                tx.alloc_many(sizes, pool.headers(clock))?;
                end = passed();
                Ok(())
            })
            .unwrap();
            (baseline, end)
        }
    }

    fn crash_after_the_carve_does_not_leak(sizes: &'static [u64]) {
        let scenario = alloc_to_commit(sizes);
        let ((_, end), _) = crashed_at(1 << 21, usize::MAX, &scenario);
        let ((baseline, _), image) = crashed_at(1 << 21, end, &scenario);
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image.unwrap(), "test-layout").unwrap();
        assert_eq!(pool.allocated_bytes(), baseline);
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_alloc_does_not_leak() {
        crash_after_the_carve_does_not_leak(&[4096]);
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
            let offs = tx.alloc_many(&[1000, 2000, 64], pool.headers(&clock))?;
            assert_eq!(offs.len(), 3);
            Err::<(), _>(PmdkError::TxFailure("abort".into()))
        });
        assert_eq!(pool.allocated_bytes(), before);
        pool.check_heap().unwrap();
    }

    #[test]
    fn crash_mid_alloc_many_does_not_leak() {
        crash_after_the_carve_does_not_leak(&[4096, 512, 512]);
    }

    #[test]
    fn alloc_many_rejects_intent_overflow() {
        let (pool, clock) = fresh_pool(1 << 21);
        // Each intent is an 8-byte record: one more than the log holds.
        let sizes = vec![64u64; (LANE_LOG_BYTES / RECORD_HEADER) as usize + 1];
        let err = pool
            .tx(&clock, |tx| tx.alloc_many(&sizes, pool.headers(&clock)))
            .unwrap_err();
        assert!(matches!(err, PmdkError::TxFailure(_)));
    }

    fn fences(pool: &PmemPool) -> u64 {
        pool.device().machine().stats.snapshot().fences
    }

    /// The barrier ledger (DESIGN §8): an undo record is no fence of its
    /// own — it rides its count store, one persisted store of the lane's
    /// first line while the log fits it; however many ranges a transaction
    /// stores — fresh, or the targets of its records, a freed block's state
    /// word among them — they share the one fence before the commit point,
    /// the IDLE store.
    #[test]
    fn fresh_stores_share_one_fence_and_an_undo_record_costs_one() {
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
            // The count store (record, ACTIVE); commit: fresh and data, IDLE.
            assert_eq!(fences(&pool) - before, 1 + 1 + 1, "k = {k}");
        }
        // A set alone: the commit fences its target. Fresh stores alone
        // publish no lane: their fence is all.
        let before = fences(&pool);
        pool.tx(&clock, |tx| tx.set(root, b"set only")).unwrap();
        assert_eq!(fences(&pool) - before, 1 + 1 + 1);
        let before = fences(&pool);
        pool.tx(&clock, |tx| {
            tx.write_new(block, b"fresh only");
            Ok(())
        })
        .unwrap();
        assert_eq!(fences(&pool) - before, 1);
        // Words logged together are one count store.
        let before = fences(&pool);
        pool.tx(&clock, |tx| {
            tx.set_words(&[
                (root, u64::from_le_bytes(*b"set only"), 1),
                (root + 8, 0, 2),
            ])
        })
        .unwrap();
        assert_eq!(fences(&pool) - before, 1 + 1 + 1);
        // An allocation, whatever its size: the intents' count store, then
        // the carve (a split of the last block: the tail header's drain and
        // the commit header), then IDLE.
        for sizes in [&[64u64][..], &[64, 200, 64]] {
            let before = fences(&pool);
            pool.tx(&clock, |tx| {
                tx.alloc_many(sizes, pool.headers(&clock)).map(drop)
            })
            .unwrap();
            assert_eq!(fences(&pool) - before, 1 + 2 + 1, "{sizes:?}");
        }
        // A free staged before a set rides its count store; the commit's
        // fence covers the set's target and the FREE word: the set's three.
        // Staged after the count store, it needs a count store of its own
        // in the commit: one more.
        let victims = pool.alloc_many(&clock, &[64, 64]).unwrap();
        let before = fences(&pool);
        pool.tx(&clock, |tx| {
            tx.free(victims[0])?;
            tx.set(root, b"freed 0!")
        })
        .unwrap();
        assert_eq!(fences(&pool) - before, 1 + 1 + 1);
        let before = fences(&pool);
        pool.tx(&clock, |tx| {
            tx.set(root, b"freed 1!")?;
            tx.free(victims[1])
        })
        .unwrap();
        assert_eq!(fences(&pool) - before, 1 + 1 + 1 + 1);
    }

    /// An abort restores every pre-image it stored, one flush each, behind
    /// one fence: a 64-word `set_words` that fails pays the restore's
    /// fences of a 1-word one — its drain and IDLE — where each restored
    /// record was a fence of its own. Its count store is one fence more:
    /// 64 records spill past the lane's first line, and are fenced before
    /// the line that counts them.
    #[test]
    fn an_aborted_set_words_restores_behind_one_fence_whatever_its_length() {
        let (pool, clock) = fresh_pool(1 << 21);
        let block = pool.alloc(&clock, 64 * 8).unwrap();
        for i in 0..64 {
            pool.write_u64(&clock, block + i * 8, i);
        }
        let abort = |n: u64| {
            let before = fences(&pool);
            let words: Vec<_> = (0..n).map(|i| (block + i * 8, i, u64::MAX)).collect();
            let err = pool.tx(&clock, |tx| {
                tx.set_words(&words)?;
                Err::<(), _>(PmdkError::TxFailure("abort".into()))
            });
            assert!(err.is_err());
            fences(&pool) - before
        };
        assert_eq!((abort(1), abort(64)), (1 + 1 + 1, 2 + 1 + 1));
        for i in 0..64 {
            assert_eq!(pool.read_u64(&clock, block + i * 8), i);
        }
        let pool = reopen(pool, &clock);
        assert_eq!(pool.read_u64(&clock, block + 63 * 8), 63);
    }

    /// A table of 4096 buckets on a fresh pool, one key put (its first
    /// put pays for the dirty flag), and 64 fresh keys in distinct buckets.
    fn a_table_and_64_spread_keys() -> (Arc<PmemPool>, Clock, PersistentHashtable, Vec<Vec<u8>>) {
        use crate::hashtable::fnv1a;
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
        (pool, clock, ht, keys)
    }

    fn put_64(ht: &PersistentHashtable, clock: &Clock, keys: &[Vec<u8>]) {
        let reqs: Vec<(&[u8], u64, u64)> = keys.iter().map(|k| (k.as_slice(), 8, 0)).collect();
        ht.put_many(clock, &reqs, ht.storing(clock, &[7u8; 8]))
            .unwrap();
    }

    /// The put path's budget: a 64-key group of fresh keys in distinct
    /// buckets pays no fence a key. Its values are flushed by the fill, its
    /// entries stored, its 64 head records and intents are counted by the
    /// carve's count store, and one fence before the commit point makes
    /// all of it durable: 6 for the group (8 while the records had a count
    /// store of their own after the carve, 12 while every lane transition
    /// was a store of its own, 266 before the values came first). An
    /// overwrite of one key adds its free's record to the same count store
    /// and its FREE word to the same commit fence.
    #[test]
    fn a_64_key_reservation_costs_at_most_five_fences_a_key() {
        let (pool, clock, ht, keys) = a_table_and_64_spread_keys();
        let (before, txs) = (
            fences(&pool),
            pool.device().machine().stats.snapshot().pool_txs,
        );
        put_64(&ht, &clock, &keys);
        assert_eq!(pool.device().machine().stats.snapshot().pool_txs - txs, 1);
        // The count store 2 (the records past the lane's first line, then
        // the line: ACTIVE) + heap carve 2 + commit: heads, entries and
        // values 1, IDLE 1.
        assert_eq!(fences(&pool) - before, 6);
        let before = fences(&pool);
        ht.put(&clock, &keys[0], b"replaced").unwrap();
        // 5: the head word's record, the free's and the intent are one
        // store of the lane's first line, and the FREE word rides behind
        // the commit's fence (6 while the records were a store of their
        // own, 8 while COMMITTING and the heap's free were stores of their
        // own, 10 while the records had a count store of their own, 16
        // while every lane transition was a store of its own, 20 before
        // that — 21 through `Pmem`, whose value had a fence of its own).
        assert_eq!(fences(&pool) - before, 5);
    }

    /// A group whose log spills past the lane's first line pays the fences
    /// it paid while the records, the intent slots and the header line
    /// were three stores — the spill is fenced before the line that counts
    /// it — with one store and one flush fewer: the records and intents
    /// past the line are one.
    #[test]
    fn a_64_key_group_spilling_past_the_first_line_pays_one_store_and_one_flush_fewer() {
        let (pool, clock, ht, keys) = a_table_and_64_spread_keys();
        let registry = pmem_sim::MetricsRegistry::new();
        pool.device().machine().set_metrics(Arc::clone(&registry));
        let stats = || pool.device().machine().stats.snapshot();
        let stores = || (registry.snapshot().hists.get("pmem.meta_write")).map_or(0, |h| h.count);
        let (before, stored) = (stats(), stores());
        put_64(&ht, &clock, &keys);
        let spent = stats().delta_since(&before);
        // (fences, flushes, metadata stores): (6, 134, 134) while the
        // records, the intent slots and the header line were three stores.
        let ledger = (spent.fences, spent.flush_calls, stores() - stored);
        assert_eq!(ledger, (6, 133, 133));
    }

    /// An overwrite group's lane header line is stored twice: `ACTIVE` by
    /// the carve's count store, with the whole log in the same line — the
    /// head word's record, the freed block's state word's and the alloc
    /// intent; then `IDLE`, the commit point. Each store is persisted at
    /// once, so each is one run of crash points at which the line is in
    /// flight.
    #[test]
    fn an_overwrite_group_stores_its_lane_header_at_active_and_idle() {
        use std::sync::Mutex;
        let (pool, clock) = fresh_pool(1 << 22);
        let ht = PersistentHashtable::create(&clock, &pool, 64).unwrap();
        ht.put(&clock, b"key", b"old value").unwrap();
        let base = lane_offset(0);
        // (whether the header line was in flight at the last crash point,
        // the line of each run)
        let runs = Arc::new(Mutex::new((false, Vec::new())));
        let seen = Arc::clone(&runs);
        pool.device().at_crash_points(move |dev| {
            let line = dev
                .in_flight()
                .into_iter()
                .find(|l| l.line as u64 == base / LANE_LINE);
            let mut runs = seen.lock().unwrap();
            if let (Some(line), false) = (&line, runs.0) {
                runs.1.push(line.bytes.to_vec());
            }
            runs.0 = line.is_some();
        });
        ht.put(&clock, b"key", b"new value").unwrap();
        let runs = std::mem::take(&mut runs.lock().unwrap().1);
        let word =
            |line: &[u8], at: u64| u32::from_le_bytes(line[at as usize..][..4].try_into().unwrap());
        let states: Vec<u32> = runs.iter().map(|l| word(l, lane::STATE)).collect();
        assert_eq!(states, [LANE_ACTIVE, LANE_IDLE]);
        // The free's record, the head word's and the intent, all in the
        // line the first store persisted.
        let log = lane_log(&**pool.device(), base).unwrap();
        let sizes: Vec<usize> = log.iter().map(|r| r.pre.len()).collect();
        assert_eq!(sizes, [4, 8, 0]);
        let mut records = vec![];
        for r in &log {
            encode_record(&mut records, r.off, &r.pre);
        }
        let len = word(&runs[0], lane::LOG_LEN) as usize;
        assert_eq!(len, (8 + 4) + (8 + 8) + 8);
        assert_eq!(runs[0][lane::RECORDS as usize..][..len], records[..]);
        assert_eq!(ht.get(&clock, b"key").unwrap(), b"new value");
    }

    /// A committed free rejoins the free map only once its lane's IDLE
    /// store is durable. A free-running thread handed the block sooner
    /// loses it to a crash in between: recovery finds the lane ACTIVE and
    /// restores the block's ALLOC word under that thread's allocation. At
    /// the first crash point at which the block's FREE word is durable and
    /// the lane still ACTIVE, a second thread asks for the freed size: it
    /// must get another block. That image is remounted: both blocks live.
    #[test]
    fn a_committed_free_is_reused_only_once_its_lane_is_idle() {
        use std::sync::Mutex;
        let (pool, clock) = fresh_pool(1 << 21);
        let victim = pool.alloc(&clock, 128).unwrap();
        // The victim frees to a 128-byte block of its own, the best fit.
        pool.alloc(&clock, 128).unwrap();
        let state_at = |image: &[u8], off: u64| {
            u32::from_le_bytes(image[off as usize..][..4].try_into().unwrap())
        };
        let committer = std::thread::current().id();
        // (the second thread's block, the image it was taken in)
        let seen = Arc::new(Mutex::new((None, None)));
        let (hook_pool, hook_seen) = (Arc::clone(&pool), Arc::clone(&seen));
        pool.device().at_crash_points(move |dev| {
            // The second thread's own crash points pass.
            if std::thread::current().id() != committer || hook_seen.lock().unwrap().0.is_some() {
                return;
            }
            let image = dev.crash_image(&[]);
            let freed = state_at(&image, state_word(victim)) == BLOCK_FREE;
            if !freed || state_at(&image, lane_offset(0) + lane::STATE) != LANE_ACTIVE {
                return;
            }
            let pool = Arc::clone(&hook_pool);
            let other = std::thread::spawn(move || pool.alloc(&Clock::new(), 128).unwrap());
            let other = other.join().unwrap();
            *hook_seen.lock().unwrap() = (Some(other), Some(dev.crash_image(&[])));
        });
        pool.tx(&clock, |tx| tx.free(victim)).unwrap();
        let (other, image) = std::mem::take(&mut *seen.lock().unwrap());
        let other = other.expect("no crash point fell between the FREE word and IDLE");
        assert_ne!(
            other, victim,
            "the block was handed out while its lane was ACTIVE"
        );
        let image = image.unwrap();
        let dev = PmemDevice::new(Machine::chameleon(), image.len(), PersistenceMode::Tracked);
        dev.write_untimed(0, &image);
        dev.persist_untimed(0, image.len());
        let remounted = PmemPool::open(&clock, dev, "tx-test").unwrap();
        assert!(remounted.usable_size(other).is_ok() && remounted.usable_size(victim).is_ok());
        remounted.check_heap().unwrap();
        assert_eq!(
            pool.alloc(&clock, 128).unwrap(),
            victim,
            "the freed block is the best fit, once the lane is IDLE"
        );
    }

    /// The one decoder reads back what the count stores wrote: any
    /// sequence of undo records and intents, counted over one or more
    /// count stores — inside the lane's first line, straddling its end and
    /// past it — decodes to the records in the order they were logged.
    #[test]
    fn any_log_counted_over_any_count_stores_decodes_back_identically() {
        let (pool, clock) = fresh_pool(1 << 21);
        let block = pool.alloc(&clock, 4096).unwrap();
        let mut rng = pmem_sim::DetRng::new(48);
        // (inside the line, straddling its end, past it): count stores seen.
        let mut seen = [0; 3];
        for _ in 0..200 {
            let err = pool.tx(&clock, |tx| {
                let mut want = vec![];
                for _ in 0..rng.gen_range(1, 5) {
                    for _ in 0..rng.gen_range(0, 6) {
                        let off = match rng.gen_range(0, 3) {
                            // An intent in the free heap past the block: a
                            // rollback finds no live block to free there.
                            0 => block + 4096 + 32 * rng.gen_range(2, 512),
                            _ => block + rng.gen_range(0, 3800),
                        };
                        let pre = match off < block + 4096 {
                            true => pool
                                .device()
                                .read_vec_untimed(off as usize, rng.gen_range(1, 200) as usize),
                            false => vec![],
                        };
                        match pre.is_empty() {
                            true => encode_record(&mut tx.pending, off, &[]),
                            false => tx.log([(off, &pre)])?,
                        }
                        want.push(LogRecord { off, pre });
                    }
                    let (from, to) = (tx.counted.unwrap_or(0), tx.logged());
                    let inside = LANE_LINE - lane::RECORDS;
                    seen[(from >= inside) as usize + (to > inside) as usize] += 1;
                    tx.count(&[]);
                    assert_eq!(lane_log(&**pool.device(), tx.lane_base).unwrap(), want);
                }
                Err::<(), _>(PmdkError::TxFailure("decoded".into()))
            });
            assert_eq!(err, Err(PmdkError::TxFailure("decoded".into())));
        }
        assert!(seen.iter().all(|&n| n > 10), "{seen:?}");
        pool.check_heap().unwrap();
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
