//! Persistent heap allocator (libpmemobj-style, simplified).
//!
//! The heap is a physical sequence of blocks, each `BLOCK_HEADER_SIZE` bytes
//! of persisted header followed by an aligned payload. Headers record the
//! block state (FREE/ALLOC), payload size, and the physical predecessor's
//! payload size so freeing can coalesce in both directions. The *free list*
//! itself is volatile — a size-ordered map rebuilt by scanning headers at
//! pool-open, exactly like PMDK rebuilds its volatile runtime state — so the
//! only persistence obligations are the block headers, and a single header
//! write is the commit point of every alloc/free.

use crate::error::{PmdkError, Result};
use crate::layout::*;
use pmem_sim::{Clock, PmemDevice};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Volatile allocator state over the persistent heap region.
#[derive(Debug)]
pub struct Heap {
    device: Arc<PmemDevice>,
    heap_start: u64,
    heap_end: u64,
    /// size -> set of block header offsets with exactly that payload size.
    free: BTreeMap<u64, BTreeSet<u64>>,
    /// Bytes currently allocated (payloads only).
    allocated: u64,
}

/// A block of the heap: its header's offset and its payload size.
#[derive(Debug, Clone, Copy)]
struct Block {
    hdr: u64,
    size: u64,
}

/// One planned cut: `blocks`, back to back from the header of the free
/// block `source`, and the free `tail` split off behind them.
#[derive(Debug)]
struct Carve {
    source: Block,
    blocks: Vec<Block>,
    tail: Option<Block>,
}

impl Heap {
    /// Format a fresh heap: one giant free block.
    pub fn format(clock: &Clock, device: &Arc<PmemDevice>, heap_start: u64, heap_end: u64) {
        assert!(heap_end > heap_start + BLOCK_HEADER_SIZE + HEAP_ALIGN);
        let payload = heap_end - heap_start - BLOCK_HEADER_SIZE;
        let payload = payload & !(HEAP_ALIGN - 1);
        write_header(
            clock,
            device,
            heap_start,
            BlockHeader {
                state: BLOCK_FREE,
                size: payload,
                prev_size: 0,
            },
        );
    }

    /// Rebuild the volatile free list from the shared heap walk; the first
    /// implausible block refuses the mount.
    pub fn rebuild(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64) -> Result<Heap> {
        Self::walk(device, heap_start, heap_end, false)
    }

    /// [`Heap::rebuild`] for a pool that may have crashed: a `prev_size`
    /// word one step behind its header (the crash fell between an alloc's or
    /// a free's two persists) is mended, not refused.
    pub fn recover(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64) -> Result<Heap> {
        Self::walk(device, heap_start, heap_end, true)
    }

    fn walk(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64, mend: bool) -> Result<Heap> {
        let mut free: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        let mut allocated = 0;
        let mut fault = Ok(());
        walk_blocks(&device, heap_start, heap_end, mend, |block| {
            match block {
                Ok((at, h)) if h.state == BLOCK_FREE => {
                    free.entry(h.size).or_default().insert(at);
                }
                Ok((_, h)) => allocated += h.size,
                Err(e) => fault = Err(e),
            }
            fault.is_ok()
        });
        fault?;
        Ok(Heap {
            device,
            heap_start,
            heap_end,
            free,
            allocated,
        })
    }

    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    pub fn free_bytes(&self) -> u64 {
        self.free
            .iter()
            .map(|(sz, set)| sz * set.len() as u64)
            .sum()
    }

    #[cfg(test)]
    fn free_block_count(&self) -> usize {
        self.free.values().map(|s| s.len()).sum()
    }

    /// Allocate an aligned payload of at least `size` bytes: a group of one.
    /// Returns the *payload* device offset.
    pub fn alloc(&mut self, clock: &Clock, size: u64) -> Result<u64> {
        Ok(self.alloc_many(clock, &[size], |_| {})?[0])
    }

    /// Allocate one aligned payload per entry of `sizes`; payload offsets
    /// come back in request order. The group is *planned* against the
    /// volatile free map first — one best-fit block for all of it, carved in
    /// a single free-list pass, or a block a request when none holds the
    /// combined extent — and `planned` sees the offsets before any header
    /// says so: a transaction persists its intents there. Then each carve
    /// is committed. A plan that does not fit touches no media.
    ///
    /// Crash semantics: block 0's header is a carve's commit point and is
    /// written last. Until it flips to `BLOCK_ALLOC` the rebuild walk sees
    /// the original free block and skips straight over the interior headers
    /// (which may already say ALLOC), so the carve's blocks appear together.
    pub fn alloc_many(
        &mut self,
        clock: &Clock,
        sizes: &[u64],
        planned: impl FnOnce(&[u64]),
    ) -> Result<Vec<u64>> {
        if sizes.is_empty() {
            return Ok(Vec::new());
        }
        let carves = self.plan(sizes)?;
        let payloads: Vec<u64> = carves
            .iter()
            .flat_map(|c| c.blocks.iter().map(|b| b.hdr + BLOCK_HEADER_SIZE))
            .collect();
        planned(&payloads);
        for carve in &carves {
            self.commit(clock, carve);
        }
        Ok(payloads)
    }

    /// Choose the free blocks `sizes` are cut from and take them out of the
    /// free map (the tails split off go in); on failure the map is as it was.
    fn plan(&mut self, sizes: &[u64]) -> Result<Vec<Carve>> {
        let oom = |i: usize| PmdkError::OutOfMemory {
            requested: sizes[i],
        };
        let wants = (sizes.iter().enumerate())
            .map(|(i, &size)| match size {
                0 => Err(PmdkError::TxFailure("zero-size allocation".into())),
                _ => size.checked_next_multiple_of(HEAP_ALIGN).ok_or(oom(i)),
            })
            .collect::<Result<Vec<u64>>>()?;
        // One block for the whole group — payloads plus the headers between
        // them, which may be more than a `u64`, let alone a block, holds.
        let headers = (wants.len() as u64 - 1) * BLOCK_HEADER_SIZE;
        let extent = (wants.iter()).try_fold(headers, |sum, &want| sum.checked_add(want));
        if let Some(carve) = extent.and_then(|need| self.carve(&wants, need)) {
            return Ok(vec![carve]);
        }
        // None holds it: a block a request.
        let mut carves = Vec::new();
        for (i, want) in wants.iter().enumerate() {
            let Some(carve) = self.carve(std::slice::from_ref(want), *want) else {
                // A later carve may sit in the tail of an earlier one.
                for carve in carves.iter().rev() {
                    self.uncarve(carve);
                }
                return Err(oom(i));
            };
            carves.push(carve);
        }
        Ok(carves)
    }

    /// One free-list pass: cut `group` — `need` bytes with the headers in
    /// between — out of the smallest free block that holds it (best fit).
    fn carve(&mut self, group: &[u64], need: u64) -> Option<Carve> {
        let (&size, at) = self.free.range(need..).next()?;
        let hdr = *at.first().expect("free set empty");
        let source = Block { hdr, size };
        self.device
            .machine()
            .stats
            .alloc_passes
            .fetch_add(1, Ordering::Relaxed);
        self.remove_free(source.size, source.hdr);
        // Block 0 reuses the free block's header.
        let mut end = source.hdr;
        let mut blocks: Vec<Block> = (group.iter())
            .map(|&size| {
                let block = Block { hdr: end, size };
                end += BLOCK_HEADER_SIZE + size;
                block
            })
            .collect();
        let slack = source.size - need;
        let tail = if slack >= BLOCK_HEADER_SIZE + HEAP_ALIGN {
            let size = slack - BLOCK_HEADER_SIZE;
            self.free.entry(size).or_default().insert(end);
            Some(Block { hdr: end, size })
        } else {
            // Too small to stand alone as a block: the last payload takes it.
            blocks.last_mut().expect("group nonempty").size += slack;
            None
        };
        Some(Carve {
            source,
            blocks,
            tail,
        })
    }

    fn uncarve(&mut self, carve: &Carve) {
        if let Some(tail) = carve.tail {
            self.remove_free(tail.size, tail.hdr);
        }
        let Block { hdr, size } = carve.source;
        self.free.entry(size).or_default().insert(hdr);
    }

    /// Write a planned carve's headers. All but block 0's — the tail split
    /// off, the successor's back link, the interior blocks back to front —
    /// are invisible while block 0 still says FREE and share one drain;
    /// block 0's header is the commit point, persisted on its own.
    fn commit(&mut self, clock: &Clock, carve: &Carve) {
        let blocks = &carve.blocks;
        let (first, last) = (blocks[0], blocks[blocks.len() - 1]);
        // A lone block that took its free block whole changes nothing
        // around it.
        if last.size != carve.source.size {
            if let Some(tail) = carve.tail {
                let free = BlockHeader {
                    state: BLOCK_FREE,
                    size: tail.size,
                    prev_size: last.size,
                };
                write_header_unfenced(clock, &self.device, tail.hdr, free);
            }
            let end = carve.tail.unwrap_or(last);
            self.fix_next_prev_size(clock, end.hdr, end.size);
            for pair in blocks.windows(2).rev() {
                let interior = BlockHeader {
                    state: BLOCK_ALLOC,
                    size: pair[1].size,
                    prev_size: pair[0].size,
                };
                write_header_unfenced(clock, &self.device, pair[1].hdr, interior);
            }
            self.device.drain(clock);
        }
        let commit = BlockHeader {
            state: BLOCK_ALLOC,
            size: first.size,
            prev_size: read_prev(&self.device, first.hdr),
        };
        write_header(clock, &self.device, first.hdr, commit);
        self.allocated += blocks.iter().map(|b| b.size).sum::<u64>();
    }

    /// Free the payload at `payload_off`, coalescing with free neighbours.
    pub fn free(&mut self, clock: &Clock, payload_off: u64) -> Result<()> {
        let (hdr_off, h) = self.live_block(payload_off)?;
        self.allocated -= h.size;

        let mut start = hdr_off;
        let mut payload = h.size;
        let mut prev_size = h.prev_size;

        // Coalesce with physical predecessor if free.
        if h.prev_size != 0 {
            let prev_hdr = hdr_off - BLOCK_HEADER_SIZE - h.prev_size;
            let ph = BlockHeader::read(&self.device, prev_hdr)?;
            if ph.state == BLOCK_FREE {
                self.remove_free(ph.size, prev_hdr);
                start = prev_hdr;
                // The predecessor absorbs our header and payload.
                payload = ph.size + BLOCK_HEADER_SIZE + h.size;
                prev_size = ph.prev_size;
            }
        }

        // Coalesce with physical successor if free.
        let next_hdr = hdr_off + BLOCK_HEADER_SIZE + h.size;
        if next_hdr + BLOCK_HEADER_SIZE + HEAP_ALIGN <= self.heap_end {
            let nh = BlockHeader::read(&self.device, next_hdr)?;
            if nh.state == BLOCK_FREE {
                self.remove_free(nh.size, next_hdr);
                payload += BLOCK_HEADER_SIZE + nh.size;
            }
        }

        if start != hdr_off {
            // The predecessor's block is about to absorb our header: flip
            // it to FREE first. A crash between the two persists then finds
            // two adjacent free blocks, and once the merge lands the stale
            // copy already says FREE — a re-run of this free (recovery
            // replays deferred frees) or a double free is refused instead of
            // misreading leftover ALLOC bytes inside a free block.
            write_header(
                clock,
                &self.device,
                hdr_off,
                BlockHeader {
                    state: BLOCK_FREE,
                    size: h.size,
                    prev_size: h.prev_size,
                },
            );
        }
        write_header(
            clock,
            &self.device,
            start,
            BlockHeader {
                state: BLOCK_FREE,
                size: payload,
                prev_size,
            },
        );
        self.fix_next_prev_size(clock, start, payload);
        self.free.entry(payload).or_default().insert(start);
        Ok(())
    }

    /// Whether `payload_off` lies in a block the free map holds. Headers
    /// inside a free block are not blocks, whatever they say: a rollback
    /// asks before it trusts one (see [`Heap::alloc_many`]).
    pub(crate) fn in_free_block(&self, payload_off: u64) -> bool {
        self.free.iter().any(|(&size, at)| {
            (at.iter()).any(|&hdr| (hdr..hdr + BLOCK_HEADER_SIZE + size).contains(&payload_off))
        })
    }

    /// Usable payload size of a live allocation.
    pub fn usable_size(&self, payload_off: u64) -> Result<u64> {
        Ok(self.live_block(payload_off)?.1.size)
    }

    /// Header (and its offset) of the live allocation whose payload starts
    /// at `payload_off`; anything else is a bad pointer.
    fn live_block(&self, payload_off: u64) -> Result<(u64, BlockHeader)> {
        let hdr_off = payload_off
            .checked_sub(BLOCK_HEADER_SIZE)
            .filter(|h| (self.heap_start..self.heap_end).contains(h))
            .ok_or(PmdkError::BadPointer(payload_off))?;
        let h = BlockHeader::read(&self.device, hdr_off)?;
        if h.state != BLOCK_ALLOC {
            return Err(PmdkError::BadPointer(payload_off));
        }
        Ok((hdr_off, h))
    }

    /// Validate heap invariants (test support): walkable, sizes consistent,
    /// free map matches headers.
    pub fn check_invariants(&self) -> Result<()> {
        let rebuilt = Heap::rebuild(Arc::clone(&self.device), self.heap_start, self.heap_end)?;
        if rebuilt.free != self.free {
            return Err(PmdkError::BadPool("volatile free list out of sync".into()));
        }
        if rebuilt.allocated != self.allocated {
            return Err(PmdkError::BadPool(
                "allocated-bytes counter out of sync".into(),
            ));
        }
        Ok(())
    }

    fn remove_free(&mut self, size: u64, hdr: u64) {
        let set = self
            .free
            .get_mut(&size)
            .expect("coalesce target not in free map");
        set.remove(&hdr);
        if set.is_empty() {
            self.free.remove(&size);
        }
    }

    /// After block at `hdr` took payload size `payload`, update the physical
    /// successor's prev_size field (if one exists).
    fn fix_next_prev_size(&self, clock: &Clock, hdr: u64, payload: u64) {
        let next = hdr + BLOCK_HEADER_SIZE + payload;
        if next + BLOCK_HEADER_SIZE + HEAP_ALIGN <= self.heap_end {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&payload.to_le_bytes());
            self.device
                .write_meta(clock, (next + blk::PREV_SIZE) as usize, &buf);
            self.device
                .persist(clock, (next + blk::PREV_SIZE) as usize, 8);
        }
    }
}

fn read_prev(device: &Arc<PmemDevice>, hdr_off: u64) -> u64 {
    let mut b = [0u8; 8];
    device.read_untimed((hdr_off + blk::PREV_SIZE) as usize, &mut b);
    u64::from_le_bytes(b)
}

fn encode_header(h: BlockHeader) -> [u8; BLOCK_HEADER_SIZE as usize] {
    let mut buf = [0u8; BLOCK_HEADER_SIZE as usize];
    buf[blk::MAGIC as usize..][..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    buf[blk::STATE as usize..][..4].copy_from_slice(&h.state.to_le_bytes());
    buf[blk::SIZE as usize..][..8].copy_from_slice(&h.size.to_le_bytes());
    buf[blk::PREV_SIZE as usize..][..8].copy_from_slice(&h.prev_size.to_le_bytes());
    buf
}

/// Persist a full block header (timed write + persist).
pub(crate) fn write_header(clock: &Clock, device: &Arc<PmemDevice>, hdr_off: u64, h: BlockHeader) {
    let buf = encode_header(h);
    device.write_meta(clock, hdr_off as usize, &buf);
    device.persist(clock, hdr_off as usize, BLOCK_HEADER_SIZE as usize);
}

/// Write and flush a block header without fencing; the caller batches one
/// drain over a group of such writes.
fn write_header_unfenced(clock: &Clock, device: &Arc<PmemDevice>, hdr_off: u64, h: BlockHeader) {
    let buf = encode_header(h);
    device.write_meta(clock, hdr_off as usize, &buf);
    device.flush(clock, hdr_off as usize, BLOCK_HEADER_SIZE as usize);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    fn fresh_heap(bytes: usize) -> (Heap, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Fast);
        let clock = Clock::new();
        let start = 0u64;
        let end = bytes as u64;
        Heap::format(&clock, &dev, start, end);
        (Heap::rebuild(dev, start, end).unwrap(), clock)
    }

    #[test]
    fn format_rebuild_yields_one_free_block() {
        let (heap, _) = fresh_heap(64 * 1024);
        assert_eq!(heap.free_block_count(), 1);
        assert_eq!(heap.allocated_bytes(), 0);
    }

    #[test]
    fn alloc_free_round_trip_restores_free_bytes() {
        let (mut heap, clock) = fresh_heap(64 * 1024);
        let initial_free = heap.free_bytes();
        let p = heap.alloc(&clock, 1000).unwrap();
        assert_eq!(heap.allocated_bytes(), align_up(1000));
        heap.free(&clock, p).unwrap();
        assert_eq!(heap.allocated_bytes(), 0);
        assert_eq!(heap.free_bytes(), initial_free);
        assert_eq!(heap.free_block_count(), 1); // fully coalesced
        heap.check_invariants().unwrap();
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut heap, clock) = fresh_heap(1 << 20);
        let mut spans: Vec<(u64, u64)> = vec![];
        for i in 1..100u64 {
            let sz = (i * 37) % 700 + 1;
            let p = heap.alloc(&clock, sz).unwrap();
            let span = (p, p + align_up(sz));
            for &(s, e) in &spans {
                assert!(
                    span.1 <= s || span.0 >= e,
                    "overlap {span:?} vs {:?}",
                    (s, e)
                );
            }
            spans.push(span);
        }
        heap.check_invariants().unwrap();
    }

    #[test]
    fn out_of_memory_is_reported_not_panicked() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        let err = heap.alloc(&clock, 1 << 30).unwrap_err();
        assert!(matches!(err, PmdkError::OutOfMemory { .. }));
    }

    #[test]
    fn free_rejects_bad_pointers() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        assert!(heap.free(&clock, 12345).is_err());
        let p = heap.alloc(&clock, 64).unwrap();
        heap.free(&clock, p).unwrap();
        // Double free is caught (block no longer ALLOC).
        assert!(heap.free(&clock, p).is_err());
    }

    #[test]
    fn coalescing_merges_in_both_directions() {
        let (mut heap, clock) = fresh_heap(64 * 1024);
        let a = heap.alloc(&clock, 64).unwrap();
        let b = heap.alloc(&clock, 64).unwrap();
        let c = heap.alloc(&clock, 64).unwrap();
        // Free outer blocks, then the middle: everything must merge.
        heap.free(&clock, a).unwrap();
        heap.free(&clock, c).unwrap();
        heap.free(&clock, b).unwrap();
        assert_eq!(heap.free_block_count(), 1);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn usable_size_reflects_alignment() {
        let (mut heap, clock) = fresh_heap(64 * 1024);
        let p = heap.alloc(&clock, 10).unwrap();
        assert_eq!(heap.usable_size(p).unwrap(), HEAP_ALIGN);
    }

    #[test]
    fn rebuild_after_activity_matches_live_state() {
        let (mut heap, clock) = fresh_heap(1 << 20);
        let mut live = vec![];
        for i in 1..50u64 {
            live.push(heap.alloc(&clock, i * 13 + 1).unwrap());
        }
        for p in live.drain(..).step_by(2) {
            heap.free(&clock, p).unwrap();
        }
        heap.check_invariants().unwrap();
    }

    #[test]
    fn zero_size_alloc_is_an_error() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        assert!(heap.alloc(&clock, 0).is_err());
    }

    #[test]
    fn alloc_many_is_one_pass_and_walkable() {
        let (mut heap, clock) = fresh_heap(1 << 20);
        let machine = Arc::clone(heap.device.machine());
        let before = machine.stats.snapshot();
        let ptrs = heap
            .alloc_many(&clock, &[100, 7, 4096, 64], |_| {})
            .unwrap();
        let delta = machine.stats.snapshot().delta_since(&before);
        assert_eq!(delta.alloc_passes, 1);
        assert_eq!(ptrs.len(), 4);
        // No overlaps, all usable, heap still walks clean.
        for (i, &p) in ptrs.iter().enumerate() {
            assert!(heap.usable_size(p).unwrap() >= [100, 7, 4096, 64][i]);
        }
        heap.check_invariants().unwrap();
        // Freeing everything coalesces back to one block.
        for &p in &ptrs {
            heap.free(&clock, p).unwrap();
        }
        assert_eq!(heap.allocated_bytes(), 0);
        assert_eq!(heap.free_block_count(), 1);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn alloc_many_absorbs_tiny_tail_slack() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        let free_before = heap.free_bytes();
        // Carve the whole heap so the remainder is below a block's minimum.
        let leave = BLOCK_HEADER_SIZE + HEAP_ALIGN / 2;
        let first = free_before - leave - BLOCK_HEADER_SIZE - HEAP_ALIGN;
        let ptrs = heap.alloc_many(&clock, &[first, 1], |_| {}).unwrap();
        assert_eq!(heap.free_block_count(), 0);
        assert!(heap.usable_size(ptrs[1]).unwrap() > HEAP_ALIGN);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn alloc_many_falls_back_when_fragmented() {
        let (mut heap, clock) = fresh_heap(64 * 1024);
        // Fragment the heap: alternate live/free blocks.
        let chunk = 4 * 1024;
        let mut live = vec![];
        while let Ok(p) = heap.alloc(&clock, chunk) {
            live.push(p);
        }
        for &p in live.iter().step_by(2) {
            heap.free(&clock, p).unwrap();
        }
        // No single free block holds 2 * chunk + header, but two do singly.
        let ptrs = heap.alloc_many(&clock, &[chunk, chunk], |_| {}).unwrap();
        assert_eq!(ptrs.len(), 2);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn alloc_many_of_zero_or_one_degenerates() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        assert!(heap.alloc_many(&clock, &[], |_| {}).unwrap().is_empty());
        let one = heap.alloc_many(&clock, &[33], |_| {}).unwrap();
        assert_eq!(heap.usable_size(one[0]).unwrap(), HEAP_ALIGN);
        assert!(heap.alloc_many(&clock, &[16, 0], |_| {}).is_err());
        heap.check_invariants().unwrap();
    }
}
