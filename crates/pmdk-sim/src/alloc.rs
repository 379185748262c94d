//! Persistent heap allocator (libpmemobj-style, simplified).
//!
//! The heap is a physical sequence of blocks, each `BLOCK_HEADER_SIZE` bytes
//! of persisted header followed by an aligned payload. Headers record the
//! block state (FREE/ALLOC), payload size, and the physical predecessor's
//! payload size so freeing can coalesce in both directions. The *free list*
//! itself is volatile — a size-ordered map rebuilt by scanning headers at
//! pool-open, exactly like PMDK rebuilds its volatile runtime state — so the
//! only persistence obligations are the block headers, and a single header
//! write is the commit point of every alloc/free. A group holds the pool's
//! heap lock from its plan through its fills to its commit.

use crate::error::{PmdkError, Result};
use crate::layout::*;
use pmem_sim::{Clock, PmemDevice};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Volatile allocator state over the persistent heap region.
#[derive(Debug)]
pub(crate) struct Heap {
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

/// How a group's blocks are filled: `store(i, payloads, header)` writes
/// block `i` led by its encoded header — empty for a carve's first block,
/// whose header is the carve's commit point and comes after. A fill runs
/// under the heap lock, which is not reentrant: it must not allocate or free.
pub(crate) type Store<'a> = dyn FnMut(usize, &[u64], &[u8]) -> Result<()> + 'a;

/// One planned cut: `blocks`, back to back from the header of the free
/// block `source`, and the free `tail` split off behind them.
#[derive(Debug)]
struct Carve {
    source: Block,
    blocks: Vec<Block>,
    tail: Option<Block>,
}

impl Carve {
    /// Whether it writes around its blocks: not one block taking its source whole.
    fn splits(&self) -> bool {
        self.tail.is_some() || self.blocks.len() > 1
    }

    /// Each block, with its predecessor's size if the carve holds one.
    fn after(&self) -> impl Iterator<Item = (Block, Option<u64>)> + '_ {
        (self.blocks.iter()).scan(None, |prev, b| Some((*b, prev.replace(b.size))))
    }
}

impl Heap {
    /// Format a fresh heap: one giant free block.
    pub(crate) fn format(clock: &Clock, device: &Arc<PmemDevice>, heap_start: u64, heap_end: u64) {
        assert!(heap_end > heap_start + BLOCK_HEADER_SIZE + HEAP_ALIGN);
        let payload = (heap_end - heap_start - BLOCK_HEADER_SIZE) & !(HEAP_ALIGN - 1);
        write_header(clock, device, heap_start, &header(BLOCK_FREE, payload, 0));
    }

    /// Rebuild the volatile free list from the shared heap walk; the first
    /// implausible block refuses the mount.
    pub(crate) fn rebuild(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64) -> Result<Heap> {
        Self::walk(device, heap_start, heap_end, false)
    }

    /// [`Heap::rebuild`] for a pool that may have crashed: a `prev_size`
    /// word one step behind its header (the crash fell between an alloc's or
    /// a free's two persists) is mended, not refused.
    pub(crate) fn recover(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64) -> Result<Heap> {
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

    pub(crate) fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    pub(crate) fn free_bytes(&self) -> u64 {
        self.free
            .iter()
            .map(|(sz, set)| sz * set.len() as u64)
            .sum()
    }

    /// Allocate one aligned payload per entry of `sizes` — one best-fit
    /// block for all of them, carved in one free-list pass, or a block a
    /// request — under the caller's heap lock from plan to commit. `planned`
    /// sees the offsets before any header says so (a transaction persists
    /// its intents there); each carve's free tail and its successor's back
    /// link are written unfenced; `store` fills every block behind its
    /// header; one drain; then each carve's first header, persisted — the
    /// commit point, before which the walk skips the interior headers. A
    /// plan that does not fit touches no media; one that does is never
    /// undone: a store that fails leaves the rest, its own block among
    /// them, header-only, and the carves commit.
    pub(crate) fn alloc_many(
        &mut self,
        clock: &Clock,
        sizes: &[u64],
        planned: impl FnOnce(&[u64]),
        store: &mut Store,
    ) -> Result<Vec<u64>> {
        if sizes.is_empty() {
            return Ok(Vec::new());
        }
        let carves = self.plan(sizes)?;
        let payloads: Vec<u64> = (carves.iter())
            .flat_map(|c| c.blocks.iter().map(|b| b.hdr + BLOCK_HEADER_SIZE))
            .collect();
        planned(&payloads);
        for carve in carves.iter().filter(|c| c.splits()) {
            let last = carve.blocks[carve.blocks.len() - 1];
            if let Some(tail) = carve.tail {
                let free = header(BLOCK_FREE, tail.size, last.size);
                write_unfenced(clock, &self.device, tail.hdr, &free);
            }
            let end = carve.tail.unwrap_or(last);
            self.back_link(clock, end.hdr, end.size);
        }
        let mut filled = Ok(());
        for (i, (b, prev)) in carves.iter().flat_map(Carve::after).enumerate() {
            let head = prev.map(|prev| header(BLOCK_ALLOC, b.size, prev));
            let head = head.as_ref().map_or(&[][..], |h| &h[..]);
            filled = filled.and_then(|()| store(i, &payloads, head));
            if filled.is_err() {
                write_unfenced(clock, &self.device, b.hdr, head);
            }
        }
        if carves.iter().any(Carve::splits) {
            self.device.drain(clock);
        }
        // Block 0's `prev_size` may be an earlier carve's, as the tail it cut.
        for carve in &carves {
            let b0 = carve.blocks[0];
            let commit = header(BLOCK_ALLOC, b0.size, read_prev(&self.device, b0.hdr));
            write_header(clock, &self.device, b0.hdr, &commit);
            self.allocated += carve.blocks.iter().map(|b| b.size).sum::<u64>();
        }
        filled.map(|()| payloads)
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
        let (size, hdr) = (self.free.range(need..)).find_map(|(&s, at)| Some((s, *at.first()?)))?;
        let source = Block { hdr, size };
        let passes = &self.device.machine().stats.alloc_passes;
        passes.fetch_add(1, Ordering::Relaxed);
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
            // Too small to stand alone as a block: the last payload takes
            // it (`plan` never carves an empty group).
            if let Some(last) = blocks.last_mut() {
                last.size += slack;
            }
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

    /// Free the payload at `payload_off`, coalescing with free neighbours.
    pub(crate) fn free(&mut self, clock: &Clock, payload_off: u64) -> Result<()> {
        let (hdr_off, h) = self.live_block(payload_off)?;
        self.allocated -= h.size;

        let mut start = hdr_off;
        let mut payload = h.size;
        let mut prev_size = h.prev_size;

        // Coalesce with a physical neighbour only if the free map holds it.
        if h.prev_size != 0 {
            let prev_hdr = hdr_off - BLOCK_HEADER_SIZE - h.prev_size;
            if self.holds(h.prev_size, prev_hdr) {
                let ph = BlockHeader::read(&self.device, prev_hdr)?;
                self.remove_free(ph.size, prev_hdr);
                start = prev_hdr;
                // The predecessor absorbs our header and payload.
                payload = ph.size + BLOCK_HEADER_SIZE + h.size;
                prev_size = ph.prev_size;
            }
        }

        let next_hdr = hdr_off + BLOCK_HEADER_SIZE + h.size;
        if next_hdr + BLOCK_HEADER_SIZE + HEAP_ALIGN <= self.heap_end {
            let nh = BlockHeader::read(&self.device, next_hdr)?;
            if self.holds(nh.size, next_hdr) {
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
            let stale = header(BLOCK_FREE, h.size, h.prev_size);
            write_header(clock, &self.device, hdr_off, &stale);
        }
        // One drain for both: a lone back link is mended by the next mount.
        // A block that merged with nothing keeps the back link it has.
        let merged = header(BLOCK_FREE, payload, prev_size);
        write_unfenced(clock, &self.device, start, &merged);
        if (start, payload) != (hdr_off, h.size) {
            self.back_link(clock, start, payload);
        }
        self.device.drain(clock);
        self.free.entry(payload).or_default().insert(start);
        Ok(())
    }

    /// Whether `payload_off` is a live allocation's payload. Headers inside
    /// a block the free map holds are not blocks, whatever they say: a
    /// rollback asks before it trusts one (see [`Heap::alloc_many`]).
    pub(crate) fn is_live(&self, payload_off: u64) -> bool {
        let holds = |(&size, at): (&u64, &BTreeSet<u64>)| {
            (at.iter()).any(|&hdr| (hdr..hdr + BLOCK_HEADER_SIZE + size).contains(&payload_off))
        };
        self.usable_size(payload_off).is_ok() && !self.free.iter().any(holds)
    }

    /// Usable payload size of a live allocation.
    pub(crate) fn usable_size(&self, payload_off: u64) -> Result<u64> {
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
    pub(crate) fn check_invariants(&self) -> Result<()> {
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
        let set = self.free.entry(size).or_default();
        let removed = set.remove(&hdr);
        debug_assert!(removed, "coalesce target not in free map");
        if set.is_empty() {
            self.free.remove(&size);
        }
    }

    /// Whether the free map holds a block of `size` at `hdr`.
    fn holds(&self, size: u64, hdr: u64) -> bool {
        self.free.get(&size).is_some_and(|at| at.contains(&hdr))
    }

    /// After block at `hdr` took payload size `payload`, write the physical
    /// successor's prev_size field (if one exists), unfenced.
    fn back_link(&self, clock: &Clock, hdr: u64, payload: u64) {
        let next = hdr + BLOCK_HEADER_SIZE + payload;
        if next + BLOCK_HEADER_SIZE + HEAP_ALIGN <= self.heap_end {
            write_unfenced(
                clock,
                &self.device,
                next + blk::PREV_SIZE,
                &payload.to_le_bytes(),
            );
        }
    }
}

fn read_prev(device: &Arc<PmemDevice>, hdr_off: u64) -> u64 {
    let mut b = [0u8; 8];
    device.read_untimed((hdr_off + blk::PREV_SIZE) as usize, &mut b);
    u64::from_le_bytes(b)
}

/// A block header's bytes: its `state`, its payload `size` and its physical
/// predecessor's.
fn header(state: u32, size: u64, prev_size: u64) -> [u8; BLOCK_HEADER_SIZE as usize] {
    let mut buf = [0u8; BLOCK_HEADER_SIZE as usize];
    buf[blk::MAGIC as usize..][..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    buf[blk::STATE as usize..][..4].copy_from_slice(&state.to_le_bytes());
    buf[blk::SIZE as usize..][..8].copy_from_slice(&size.to_le_bytes());
    buf[blk::PREV_SIZE as usize..][..8].copy_from_slice(&prev_size.to_le_bytes());
    buf
}

/// Persist a block header (timed write + persist).
fn write_header(clock: &Clock, device: &Arc<PmemDevice>, hdr_off: u64, h: &[u8]) {
    device.write_meta(clock, hdr_off as usize, h);
    device.persist(clock, hdr_off as usize, h.len());
}

/// Write and flush metadata without fencing; the caller batches one drain
/// over a group of such writes. An empty write is none.
pub(crate) fn write_unfenced(clock: &Clock, device: &PmemDevice, off: u64, bytes: &[u8]) {
    if !bytes.is_empty() {
        device.write_meta(clock, off as usize, bytes);
        device.flush(clock, off as usize, bytes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    impl Heap {
        fn free_block_count(&self) -> usize {
            self.free.values().map(|s| s.len()).sum()
        }

        /// Allocate an aligned payload of at least `size` bytes: a group of
        /// one. Returns the *payload* device offset.
        fn alloc(&mut self, clock: &Clock, size: u64) -> Result<u64> {
            Ok(self.alloc_group(clock, &[size])?[0])
        }

        /// A group with its headers stored alone, as `PmemPool::alloc_many`
        /// allocates one.
        fn alloc_group(&mut self, clock: &Clock, sizes: &[u64]) -> Result<Vec<u64>> {
            let device = Arc::clone(&self.device);
            self.alloc_many(clock, sizes, |_| {}, &mut |i, at, head| {
                write_unfenced(clock, &device, at[i] - BLOCK_HEADER_SIZE, head);
                Ok(())
            })
        }
    }

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
        let ptrs = heap.alloc_group(&clock, &[100, 7, 4096, 64]).unwrap();
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
        let ptrs = heap.alloc_group(&clock, &[first, 1]).unwrap();
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
        let ptrs = heap.alloc_group(&clock, &[chunk, chunk]).unwrap();
        assert_eq!(ptrs.len(), 2);
        heap.check_invariants().unwrap();
    }

    /// Two holes, 1 KiB and 4 KiB, and no free block that holds a group of
    /// 512, 256 and 4 096 bytes whole: its plan carves a block a request,
    /// and the second carve is cut from the first carve's tail. Both blocks
    /// commit, and what is left of the tail is free.
    #[test]
    fn a_carve_cut_from_an_earlier_carves_tail_commits_both() {
        let (mut heap, clock) = fresh_heap(64 * 1024);
        let hole = heap.alloc(&clock, 1024).unwrap();
        heap.alloc(&clock, 64).unwrap();
        let big = heap.alloc(&clock, 4096).unwrap();
        heap.alloc(&clock, 64).unwrap();
        heap.alloc(&clock, heap.free_bytes() & !(HEAP_ALIGN - 1))
            .unwrap();
        heap.free(&clock, hole).unwrap();
        heap.free(&clock, big).unwrap();
        let ptrs = heap.alloc_group(&clock, &[512, 256, 4096]).unwrap();
        let cut = hole + 512 + BLOCK_HEADER_SIZE;
        assert_eq!(ptrs, [hole, cut, big]);
        assert!(ptrs.iter().all(|&p| heap.is_live(p)));
        let rest = cut + 256;
        assert!(heap.holds(1024 - 512 - 256 - 2 * BLOCK_HEADER_SIZE, rest));
        assert_eq!(heap.free_block_count(), 1);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn alloc_many_of_zero_or_one_degenerates() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        assert!(heap.alloc_group(&clock, &[]).unwrap().is_empty());
        let one = heap.alloc_group(&clock, &[33]).unwrap();
        assert_eq!(heap.usable_size(one[0]).unwrap(), HEAP_ALIGN);
        assert!(heap.alloc_group(&clock, &[16, 0]).is_err());
        heap.check_invariants().unwrap();
    }
}
