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

    pub fn free_block_count(&self) -> usize {
        self.free.values().map(|s| s.len()).sum()
    }

    /// Allocate an aligned payload of at least `size` bytes.
    /// Returns the *payload* device offset.
    pub fn alloc(&mut self, clock: &Clock, size: u64) -> Result<u64> {
        if size == 0 {
            return Err(PmdkError::TxFailure("zero-size allocation".into()));
        }
        self.device
            .machine()
            .stats
            .alloc_passes
            .fetch_add(1, Ordering::Relaxed);
        let want = align_up(size);
        // Best fit: smallest free block that can hold the payload.
        let (&bsize, _) = self
            .free
            .range(want..)
            .next()
            .ok_or(PmdkError::OutOfMemory { requested: size })?;
        let set = self.free.get_mut(&bsize).expect("free map entry vanished");
        let hdr_off = *set.iter().next().expect("free set empty");
        set.remove(&hdr_off);
        if set.is_empty() {
            self.free.remove(&bsize);
        }

        let remainder = bsize - want;
        if remainder >= BLOCK_HEADER_SIZE + HEAP_ALIGN {
            // Split: [hdr_off: want payload][new free block: remainder - hdr]
            let new_payload = remainder - BLOCK_HEADER_SIZE;
            let new_hdr = hdr_off + BLOCK_HEADER_SIZE + want;
            write_header(
                clock,
                &self.device,
                new_hdr,
                BlockHeader {
                    state: BLOCK_FREE,
                    size: new_payload,
                    prev_size: want,
                },
            );
            // Fix the physical successor's prev_size.
            self.fix_next_prev_size(clock, new_hdr, new_payload);
            self.free.entry(new_payload).or_default().insert(new_hdr);
            // Commit point: the allocated header.
            write_header(
                clock,
                &self.device,
                hdr_off,
                BlockHeader {
                    state: BLOCK_ALLOC,
                    size: want,
                    prev_size: read_prev(&self.device, hdr_off),
                },
            );
            self.allocated += want;
            Ok(hdr_off + BLOCK_HEADER_SIZE)
        } else {
            // Use the whole block.
            write_header(
                clock,
                &self.device,
                hdr_off,
                BlockHeader {
                    state: BLOCK_ALLOC,
                    size: bsize,
                    prev_size: read_prev(&self.device, hdr_off),
                },
            );
            self.allocated += bsize;
            Ok(hdr_off + BLOCK_HEADER_SIZE)
        }
    }

    /// Allocate one aligned payload per entry of `sizes` in a single
    /// free-list pass, carving them all out of one free block with one
    /// coalesced set of header persists (interior headers are flushed
    /// together behind a single fence). Returns payload offsets in request
    /// order.
    ///
    /// Crash semantics match [`Heap::alloc`]: the first block's header is the
    /// commit point and is written last. Before it flips to `BLOCK_ALLOC`,
    /// the rebuild walk still sees the original free block and skips straight
    /// over the interior headers, so a crash makes the whole group vanish
    /// together.
    ///
    /// When no single free block can hold the combined extent, degrades to
    /// one [`Heap::alloc`] per request (N honest passes); on failure partway
    /// through, the already-carved blocks are freed again before returning.
    pub fn alloc_many(&mut self, clock: &Clock, sizes: &[u64]) -> Result<Vec<u64>> {
        if sizes.is_empty() {
            return Ok(Vec::new());
        }
        if sizes.len() == 1 {
            return Ok(vec![self.alloc(clock, sizes[0])?]);
        }
        if sizes.contains(&0) {
            return Err(PmdkError::TxFailure("zero-size allocation".into()));
        }
        let mut wants: Vec<u64> = sizes.iter().map(|&s| align_up(s)).collect();
        let total: u64 = wants.iter().sum::<u64>() + (wants.len() as u64 - 1) * BLOCK_HEADER_SIZE;

        // One best-fit pass over the free list for the whole group.
        let Some((&bsize, _)) = self.free.range(total..).next() else {
            // No single block fits the combined extent: fall back to a pass
            // per request, unwinding on failure so nothing leaks.
            let mut out = Vec::with_capacity(sizes.len());
            for &s in sizes {
                match self.alloc(clock, s) {
                    Ok(p) => out.push(p),
                    Err(e) => {
                        for &p in &out {
                            let _ = self.free(clock, p);
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(out);
        };
        self.device
            .machine()
            .stats
            .alloc_passes
            .fetch_add(1, Ordering::Relaxed);
        let set = self.free.get_mut(&bsize).expect("free map entry vanished");
        let hdr_off = *set.iter().next().expect("free set empty");
        set.remove(&hdr_off);
        if set.is_empty() {
            self.free.remove(&bsize);
        }

        let remainder = bsize - total;
        let tail_free = remainder >= BLOCK_HEADER_SIZE + HEAP_ALIGN;
        if !tail_free {
            // Slack too small to stand alone as a block: the last payload
            // absorbs it, exactly like the whole-block path of `alloc`.
            *wants.last_mut().expect("wants nonempty") += remainder;
        }

        // Header offsets: block 0 reuses the original free block's header.
        let mut hdrs = Vec::with_capacity(wants.len());
        let mut cursor = hdr_off;
        for &w in &wants {
            hdrs.push(cursor);
            cursor += BLOCK_HEADER_SIZE + w;
        }

        if tail_free {
            let tail_hdr = cursor;
            let tail_payload = remainder - BLOCK_HEADER_SIZE;
            write_header_unfenced(
                clock,
                &self.device,
                tail_hdr,
                BlockHeader {
                    state: BLOCK_FREE,
                    size: tail_payload,
                    prev_size: *wants.last().expect("wants nonempty"),
                },
            );
            self.fix_next_prev_size(clock, tail_hdr, tail_payload);
            self.free.entry(tail_payload).or_default().insert(tail_hdr);
        } else {
            self.fix_next_prev_size(
                clock,
                *hdrs.last().expect("hdrs nonempty"),
                *wants.last().expect("wants nonempty"),
            );
        }
        // Interior headers, back to front, one fence for the whole set.
        for i in (1..wants.len()).rev() {
            write_header_unfenced(
                clock,
                &self.device,
                hdrs[i],
                BlockHeader {
                    state: BLOCK_ALLOC,
                    size: wants[i],
                    prev_size: wants[i - 1],
                },
            );
        }
        self.device.drain(clock);
        // Commit point: the first header, persisted with its own fence.
        write_header(
            clock,
            &self.device,
            hdr_off,
            BlockHeader {
                state: BLOCK_ALLOC,
                size: wants[0],
                prev_size: read_prev(&self.device, hdr_off),
            },
        );
        self.allocated += wants.iter().sum::<u64>();
        Ok(hdrs.iter().map(|&h| h + BLOCK_HEADER_SIZE).collect())
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
        let ptrs = heap.alloc_many(&clock, &[100, 7, 4096, 64]).unwrap();
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
        let ptrs = heap.alloc_many(&clock, &[first, 1]).unwrap();
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
        let ptrs = heap.alloc_many(&clock, &[chunk, chunk]).unwrap();
        assert_eq!(ptrs.len(), 2);
        heap.check_invariants().unwrap();
    }

    #[test]
    fn alloc_many_of_zero_or_one_degenerates() {
        let (mut heap, clock) = fresh_heap(16 * 1024);
        assert!(heap.alloc_many(&clock, &[]).unwrap().is_empty());
        let one = heap.alloc_many(&clock, &[33]).unwrap();
        assert_eq!(heap.usable_size(one[0]).unwrap(), HEAP_ALIGN);
        assert!(heap.alloc_many(&clock, &[16, 0]).is_err());
        heap.check_invariants().unwrap();
    }
}
