//! Persistent heap allocator (libpmemobj-style, simplified).
//!
//! The heap is a physical sequence of blocks, each `BLOCK_HEADER_SIZE` bytes
//! of persisted header followed by an aligned payload. A header records the
//! block's state (FREE/ALLOC) and payload size; the walk from the heap's
//! start follows the sizes. Free space is volatile — an address-ordered map
//! of free *regions*, indexed by size for best fit, rebuilt by the mount's
//! walk, exactly like PMDK rebuilds its volatile runtime state. Coalescing
//! happens there: a region is a run of adjacent FREE blocks, which media
//! keeps apart until a carve needs them whole. A carve's first header is its
//! commit point; a free is one store of a state word, made durable by its
//! caller (a transaction's commit, whose undo log holds the ALLOC word). A
//! group holds the pool's heap lock from its plan through its fills to its
//! commit.

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
    /// size -> first header offsets of the free regions of that payload size.
    free: BTreeMap<u64, BTreeSet<u64>>,
    /// first header offset -> payload size of every free region.
    regions: BTreeMap<u64, u64>,
    /// The headers inside a free region past its first: FREE blocks the
    /// walk still reads, which no carve may write over before it stores
    /// its region's merged header.
    seams: BTreeSet<u64>,
    /// Bytes currently allocated (payloads only).
    allocated: u64,
}

/// A block of the heap: its header's offset and its payload size.
#[derive(Debug, Clone, Copy)]
struct Block {
    hdr: u64,
    size: u64,
}

impl Block {
    fn end(&self) -> u64 {
        self.hdr + BLOCK_HEADER_SIZE + self.size
    }
}

/// How a group's blocks are filled: `store(i, payloads, header)` writes
/// block `i` led by its encoded header — empty for a carve's first block,
/// whose header is the carve's commit point and comes after. A fill runs
/// under the heap lock, which is not reentrant: it must not allocate or free.
pub(crate) type Store<'a> = dyn FnMut(usize, &[u64], &[u8]) -> Result<()> + 'a;

/// One planned cut: `blocks`, back to back from the header of the free
/// region `source`, and the free `tail` split off behind them.
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
}

impl Heap {
    /// Format a fresh heap: one giant free block.
    pub(crate) fn format(clock: &Clock, device: &Arc<PmemDevice>, heap_start: u64, heap_end: u64) {
        assert!(heap_end > heap_start + BLOCK_HEADER_SIZE + HEAP_ALIGN);
        let payload = (heap_end - heap_start - BLOCK_HEADER_SIZE) & !(HEAP_ALIGN - 1);
        write_header(clock, device, heap_start, &header(BLOCK_FREE, payload));
    }

    /// Rebuild the volatile free map from the one heap walk, each run of
    /// adjacent FREE blocks one region; the first implausible block refuses
    /// the mount.
    pub(crate) fn rebuild(device: Arc<PmemDevice>, heap_start: u64, heap_end: u64) -> Result<Heap> {
        let mut heap = Heap {
            device: Arc::clone(&device),
            heap_start,
            heap_end,
            free: BTreeMap::new(),
            regions: BTreeMap::new(),
            seams: BTreeSet::new(),
            allocated: 0,
        };
        let mut fault = Ok(());
        walk_blocks(&device, heap_start, heap_end, |block| {
            match block {
                Ok((at, h)) if h.state == BLOCK_FREE => heap.join(at, h.size),
                Ok((_, h)) => heap.allocated += h.size,
                Err(e) => fault = Err(e),
            }
            fault.is_ok()
        });
        fault.map(|()| heap)
    }

    pub(crate) fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    pub(crate) fn free_bytes(&self) -> u64 {
        self.regions.values().sum()
    }

    /// Allocate one aligned payload per entry of `sizes` — one best-fit
    /// block for all of them, carved in one free-map pass, or a block a
    /// request — under the caller's heap lock from plan to commit. A region
    /// whose carves would write over a header the walk still reads gets its
    /// merged FREE header first, unfenced; `planned` sees the offsets before
    /// any header says so (a transaction persists its intents there) and
    /// whether such a header waits, and fences it; each carve's free tail is
    /// written unfenced; `store` fills every block behind its header; one
    /// drain; then each carve's first header, persisted — the commit point,
    /// before which the walk skips the interior headers. A plan that does
    /// not fit touches no media; one that does is never undone: a store
    /// that fails leaves the rest, its own block among them, header-only,
    /// and the carves commit.
    pub(crate) fn alloc_many(
        &mut self,
        clock: &Clock,
        sizes: &[u64],
        planned: impl FnOnce(&[u64], bool),
        store: &mut Store,
    ) -> Result<Vec<u64>> {
        if sizes.is_empty() {
            return Ok(Vec::new());
        }
        let carves = self.plan(sizes)?;
        let payloads: Vec<u64> = (carves.iter())
            .flat_map(|c| c.blocks.iter().map(|b| b.hdr + BLOCK_HEADER_SIZE))
            .collect();
        let merged = self.merge_crossed(clock, &carves);
        planned(&payloads, merged);
        for tail in carves.iter().filter_map(|c| c.tail) {
            write_unfenced(
                clock,
                &self.device,
                tail.hdr,
                &header(BLOCK_FREE, tail.size),
            );
        }
        let mut filled = Ok(());
        let blocks = carves.iter().flat_map(|c| c.blocks.iter().enumerate());
        for (i, (k, b)) in blocks.enumerate() {
            let head = (k > 0).then(|| header(BLOCK_ALLOC, b.size));
            let head = head.as_ref().map_or(&[][..], |h| &h[..]);
            filled = filled.and_then(|()| store(i, &payloads, head));
            if filled.is_err() {
                write_unfenced(clock, &self.device, b.hdr, head);
            }
        }
        if carves.iter().any(Carve::splits) {
            self.device.drain(clock);
        }
        for carve in &carves {
            let b0 = carve.blocks[0];
            write_header(clock, &self.device, b0.hdr, &header(BLOCK_ALLOC, b0.size));
            self.allocated += carve.blocks.iter().map(|b| b.size).sum::<u64>();
        }
        filled.map(|()| payloads)
    }

    /// Store the merged FREE header of each region the plan's carves write
    /// over a seam of — a carve cut from an earlier one's tail counts for
    /// the region it was cut from — and forget every seam of the regions
    /// carved: once the carves commit, their tails' headers span them.
    /// Returns whether a header was stored.
    fn merge_crossed(&mut self, clock: &Clock, carves: &[Carve]) -> bool {
        let mut merged = Vec::new();
        for c in carves {
            let holds = |r: &&Carve| (r.source.hdr..r.source.end()).contains(&c.source.hdr);
            let r = carves.iter().find(holds).map_or(c.source, |r| r.source);
            // Its writes end past its tail's header, else at its source's end.
            let end = c.tail.map_or(c.source.end(), |t| t.hdr + BLOCK_HEADER_SIZE);
            let crossed = self.seams.range(r.hdr + 1..end).next();
            if crossed.is_some() && !merged.contains(&r.hdr) {
                write_unfenced(clock, &self.device, r.hdr, &header(BLOCK_FREE, r.size));
                merged.push(r.hdr);
            }
        }
        for c in carves {
            while let Some(&s) = self.seams.range(c.source.hdr..c.source.end()).next() {
                self.seams.remove(&s);
            }
        }
        !merged.is_empty()
    }

    /// Choose the free regions `sizes` are cut from and take them out of
    /// the free map (the tails split off go in); on failure the map is as
    /// it was.
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

    /// One free-map pass: cut `group` — `need` bytes with the headers in
    /// between — out of the smallest free region that holds it (best fit).
    fn carve(&mut self, group: &[u64], need: u64) -> Option<Carve> {
        let (size, hdr) = (self.free.range(need..)).find_map(|(&s, at)| Some((s, *at.first()?)))?;
        let source = Block { hdr, size };
        let passes = &self.device.machine().stats.alloc_passes;
        passes.fetch_add(1, Ordering::Relaxed);
        self.remove_free(source.size, source.hdr);
        // Block 0 reuses the region's first header.
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
            self.insert_free(end, size);
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
        self.insert_free(carve.source.hdr, carve.source.size);
    }

    /// Free the payload at `payload_off` outside a transaction: its state
    /// word, persisted, then the free map takes it.
    pub(crate) fn free(&mut self, clock: &Clock, payload_off: u64) -> Result<()> {
        self.live_block(payload_off)?;
        let word = state_word(payload_off);
        write_unfenced(clock, &self.device, word, &BLOCK_FREE.to_le_bytes());
        self.device.drain(clock);
        self.release(&[payload_off]);
        Ok(())
    }

    /// Take the blocks at `payloads`, whose FREE state words are durable,
    /// into the free map. Media keeps their headers: the walk merges them.
    pub(crate) fn release(&mut self, payloads: &[u64]) {
        for hdr in payloads.iter().map(|off| off - BLOCK_HEADER_SIZE) {
            let size = self.device.u64_at(hdr + blk::SIZE);
            debug_assert_eq!(self.device.u32_at(hdr + blk::STATE), BLOCK_FREE);
            self.allocated -= size;
            self.join(hdr, size);
        }
    }

    /// Add the FREE block at `hdr` to the free map, merged with the regions
    /// it borders: the headers between them become seams.
    fn join(&mut self, hdr: u64, size: u64) {
        let mut r = Block { hdr, size };
        let before = self.regions.range(..hdr).next_back();
        let before = before.map(|(&hdr, &size)| Block { hdr, size });
        if let Some(p) = before.filter(|p| p.end() == hdr) {
            self.remove_free(p.size, p.hdr);
            self.seams.insert(hdr);
            (r.hdr, r.size) = (p.hdr, p.size + BLOCK_HEADER_SIZE + size);
        }
        if let Some(&next) = self.regions.get(&r.end()) {
            self.remove_free(next, r.end());
            self.seams.insert(r.end());
            r.size += BLOCK_HEADER_SIZE + next;
        }
        self.insert_free(r.hdr, r.size);
    }

    /// Whether `payload_off` is a live allocation's payload. Headers inside
    /// a free region are not blocks, whatever they say: a rollback asks
    /// before it trusts one (see [`Heap::alloc_many`]).
    pub(crate) fn is_live(&self, payload_off: u64) -> bool {
        let region = self.regions.range(..=payload_off).next_back();
        let inside =
            region.is_some_and(|(&hdr, &size)| payload_off < hdr + BLOCK_HEADER_SIZE + size);
        self.usable_size(payload_off).is_ok() && !inside
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
    /// free map and seams match headers.
    pub(crate) fn check_invariants(&self) -> Result<()> {
        let rebuilt = Heap::rebuild(Arc::clone(&self.device), self.heap_start, self.heap_end)?;
        if (rebuilt.free != self.free) || (rebuilt.seams != self.seams) {
            return Err(PmdkError::BadPool("volatile free map out of sync".into()));
        }
        if rebuilt.allocated != self.allocated {
            return Err(PmdkError::BadPool(
                "allocated-bytes counter out of sync".into(),
            ));
        }
        Ok(())
    }

    fn insert_free(&mut self, hdr: u64, size: u64) {
        self.free.entry(size).or_default().insert(hdr);
        self.regions.insert(hdr, size);
    }

    fn remove_free(&mut self, size: u64, hdr: u64) {
        let set = self.free.entry(size).or_default();
        let removed = set.remove(&hdr) && self.regions.remove(&hdr).is_some();
        debug_assert!(removed, "region not in the free map");
        if set.is_empty() {
            self.free.remove(&size);
        }
    }
}

/// The state word of the block whose payload is at `payload_off`.
pub(crate) fn state_word(payload_off: u64) -> u64 {
    payload_off - BLOCK_HEADER_SIZE + blk::STATE
}

/// A block header's bytes: its `state` and its payload `size`.
fn header(state: u32, size: u64) -> [u8; BLOCK_HEADER_SIZE as usize] {
    let mut buf = [0u8; BLOCK_HEADER_SIZE as usize];
    buf[blk::MAGIC as usize..][..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    buf[blk::STATE as usize..][..4].copy_from_slice(&state.to_le_bytes());
    buf[blk::SIZE as usize..][..8].copy_from_slice(&size.to_le_bytes());
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
            self.regions.len()
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
            let fence = |_: &[u64], merged| {
                if merged {
                    device.drain(clock);
                }
            };
            self.alloc_many(clock, sizes, fence, &mut |i, at, head| {
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

    /// The free map merges a freed block with the regions on both sides;
    /// media keeps the four FREE blocks apart, which the walk merges back.
    /// A carve that writes over a header the walk still reads stores the
    /// region's merged header first, and media holds one free block again.
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
        let media_free = |heap: &Heap| {
            let mut n = 0;
            walk_blocks(&heap.device, heap.heap_start, heap.heap_end, |block| {
                n += usize::from(block.unwrap().1.state == BLOCK_FREE);
                true
            });
            n
        };
        assert_eq!((media_free(&heap), heap.seams.len()), (4, 3));
        heap.check_invariants().unwrap();
        // 256 bytes from `a`'s header run over `b`'s.
        let machine = Arc::clone(heap.device.machine());
        let before = machine.stats.snapshot().fences;
        assert_eq!(heap.alloc(&clock, 200).unwrap(), a);
        // The merged header's, the tail's and the commit header's.
        assert_eq!(machine.stats.snapshot().fences - before, 3);
        assert_eq!((media_free(&heap), heap.seams.len()), (1, 0));
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
        let left = 1024 - 512 - 256 - 2 * BLOCK_HEADER_SIZE;
        assert_eq!(heap.regions.get(&rest), Some(&left));
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
