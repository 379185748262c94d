//! On-media format of a pmemobj-style pool — the **single** definition of
//! every persisted structure's field offsets, decode, plausibility rules and
//! traversal. The mounted paths (`pool`, `alloc`, `hashtable`, `log`) and the
//! offline [`crate::doctor`] are its only callers, so they cannot disagree
//! about what a valid image is.
//!
//! ```text
//! offset 0        SUPERBLOCK (one page)
//! offset 4096     LANE TABLE: LANES × LANE_SIZE transaction lanes
//! lanes end       FLIGHT RECORDER: bounded crash-safe event ring
//! flight end      HEAP: block-header-prefixed allocations
//!
//! lane:             [state u32][undo_len u32][intent_count u32][generation u32]
//!                   ...64 B; [intent u64 × LANE_INTENTS]; undo records of
//!                   [target off u64][len u32][pre-image], contiguous
//! hashtable header: [bucket_count u64][entry_count u64][heads_off u64]
//!                   [old_bucket_count u64][old_heads_off u64]
//!                   [split_cursor u64][count_dirty u64]
//! hashtable heads:  [head u64 × bucket_count]           (separate alloc)
//! hashtable entry:  [hash u64][key_len u32][val_len u32][next u64][key][value]
//! log header:       [capacity u64][head u64][tail u64]  (offsets into the ring)
//! log ring:         records of [len u32][crc u32][bytes], contiguous, no wrap
//!                   of a single record (a WRAP marker skips the slack at the
//!                   ring's end)
//! ```
//!
//! All multi-byte integers are little-endian. Readers are generic over a
//! [`Bytes`] source — [`Charged`] for a mounted pool that pays for what it
//! reads, a bare [`PmemDevice`] for the doctor — and every plausibility rule
//! is arithmetic on words the reader fetched anyway, so it costs no virtual
//! time.
//!
//! One access per contiguous run: a fixed-size structure (superblock, table
//! header) decodes from one fetch, a counted one (a lane's intents, its undo
//! log) from the count word plus one fetch of what it counts, and the heads
//! arrays are served a run of at most 4 KiB at a time by the one directory
//! iterator ([`Geo::heads`]). Only a chain's hops, each of which depends on
//! the one before, are a fetch apiece.
//!
//! Cacheline failure-atomicity makes a torn pointer expected input. Callers
//! share one rule: **mutating paths refuse** (a bad header or hop is
//! `PmdkError::BadPool`), **read paths degrade** (end the walk at the bad
//! hop and count it), and the doctor records the same message and goes on.

use crate::error::{PmdkError, Result};
use pmem_sim::{Clock, PmemDevice};
use std::ops::Range;

/// Pool magic ("PMDKSIM1").
pub const POOL_MAGIC: u64 = 0x504d_444b_5349_4d31;
/// Superblock size (one page).
pub const SUPERBLOCK_SIZE: u64 = 4096;
/// Number of transaction lanes (PMDK uses 1024; 32 is plenty for ≤48 ranks
/// since transactions are short-lived).
pub const LANES: u64 = 32;
/// Bytes per lane: 64 B header + undo log + allocation-intent slots.
pub const LANE_SIZE: u64 = 16 * 1024;
/// Lane header size.
pub const LANE_HEADER_SIZE: u64 = 64;
/// Max allocation intents per transaction.
pub const LANE_INTENTS: u64 = 128;
/// Bytes reserved at the head of a lane's variable area for intents.
pub const LANE_INTENT_BYTES: u64 = LANE_INTENTS * 8;
/// Heap block header size.
pub const BLOCK_HEADER_SIZE: u64 = 32;
/// Allocation granularity/alignment of heap payloads.
pub const HEAP_ALIGN: u64 = 64;
/// Block header magic.
pub const BLOCK_MAGIC: u32 = 0x424c_4b31; // "BLK1"

/// Lane states (persisted).
pub const LANE_IDLE: u32 = 0;
pub const LANE_ACTIVE: u32 = 1;
pub const LANE_COMMITTING: u32 = 2;

/// Block states (persisted).
pub const BLOCK_FREE: u32 = 0;
pub const BLOCK_ALLOC: u32 = 1;

/// Superblock field offsets.
pub mod sb {
    pub const MAGIC: u64 = 0;
    pub const VERSION: u64 = 8;
    pub const POOL_SIZE: u64 = 16;
    pub const HEAP_START: u64 = 24;
    pub const ROOT_OFF: u64 = 32; // 0 = no root yet
    pub const ROOT_SIZE: u64 = 40;
    pub const LAYOUT_LEN: u64 = 48;
    pub const LAYOUT_NAME: u64 = 56; // up to 128 bytes
    pub const LAYOUT_NAME_MAX: u64 = 128;
    /// Pool generation: bumped on every open; flight `Mount` events carry
    /// it, so a timeline tells one session from the next.
    pub const GENERATION: u64 = 192;
    /// Device-profile id the pool was last mounted with (u32; see
    /// `pmem_sim::profile`). 0 = unset (legacy pools).
    pub const DEVICE_PROFILE: u64 = 200;
    /// Autotuned flush-strategy code for that profile (u32; 0 = not yet
    /// tuned). Re-probed whenever the mounting machine's profile differs
    /// from `DEVICE_PROFILE`.
    pub const FLUSH_STRATEGY: u64 = 204;
}

/// Lane header field offsets (relative to the lane base).
pub mod lane {
    pub const STATE: u64 = 0;
    pub const UNDO_LEN: u64 = 4; // bytes used in the undo area
    pub const INTENT_COUNT: u64 = 8;
    pub const GENERATION: u64 = 12;
    // variable area starts at LANE_HEADER_SIZE:
    //   [intents: LANE_INTENT_BYTES] [undo entries...]
}

/// Heap block header field offsets (relative to the header base).
pub mod blk {
    pub const MAGIC: u64 = 0;
    pub const STATE: u64 = 4;
    pub const SIZE: u64 = 8; // payload bytes (aligned)
    pub const PREV_SIZE: u64 = 16; // payload bytes of physically-previous block, 0 if first
    pub const RESERVED: u64 = 24;
}

/// Start of the lane table.
pub const fn lane_table_start() -> u64 {
    SUPERBLOCK_SIZE
}

/// Device offset of lane `i`.
pub const fn lane_offset(i: u64) -> u64 {
    lane_table_start() + i * LANE_SIZE
}

/// Bytes reserved for the flight-recorder event ring (header + slots, see
/// `pmem_sim::flight`). Page-aligned so inserting the region between the
/// lane table and the heap shifts every heap offset by whole pages — page
/// fault counts and all charge-accounted byte totals are unchanged.
pub const FLIGHT_SIZE: u64 = 64 * 1024;

/// Start of the flight-recorder region.
pub const fn flight_start() -> u64 {
    lane_table_start() + LANES * LANE_SIZE
}

/// Start of the heap.
pub const fn heap_start() -> u64 {
    flight_start() + FLIGHT_SIZE
}

/// Round `n` up to heap alignment.
pub const fn align_up(n: u64) -> u64 {
    (n + HEAP_ALIGN - 1) & !(HEAP_ALIGN - 1)
}

/// Minimum pool size that leaves a non-trivial heap.
pub const fn min_pool_size() -> u64 {
    heap_start() + 64 * 1024
}

fn bad<T>(msg: String) -> Result<T> {
    Err(PmdkError::BadPool(msg))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("a 4-byte field"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("an 8-byte field"))
}

// ---- byte sources ----

/// How a format reader fetches bytes (static dispatch: the hot chain walks
/// monomorphise over the source).
pub trait Bytes {
    /// Device size in bytes.
    fn size(&self) -> u64;
    /// Fetch metadata bytes at `off` (in range — callers check first).
    fn read(&self, off: u64, dst: &mut [u8]);
    /// Fetch payload bytes (log record bodies): byte-scaled when timed.
    fn read_data(&self, off: u64, dst: &mut [u8]) {
        self.read(off, dst)
    }

    fn u32_at(&self, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(off, &mut b);
        u32::from_le_bytes(b)
    }

    fn u64_at(&self, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Whether `[off, off + len)` lies inside the heap region.
    fn in_heap(&self, off: u64, len: u64) -> bool {
        off >= heap_start() && off.checked_add(len).is_some_and(|end| end <= self.size())
    }
}

/// Untimed source: a raw image, no clock, no charges.
impl Bytes for PmemDevice {
    fn size(&self) -> u64 {
        PmemDevice::size(self) as u64
    }

    fn read(&self, off: u64, dst: &mut [u8]) {
        self.read_untimed(off as usize, dst);
    }
}

/// Timed source: every fetch is a charged device read on `clock`.
pub struct Charged<'a> {
    pub device: &'a PmemDevice,
    pub clock: &'a Clock,
}

impl Bytes for Charged<'_> {
    fn size(&self) -> u64 {
        self.device.size() as u64
    }

    fn read(&self, off: u64, dst: &mut [u8]) {
        self.device.read_meta(self.clock, off as usize, dst);
    }

    fn read_data(&self, off: u64, dst: &mut [u8]) {
        self.device.read(self.clock, off as usize, dst);
    }
}

/// `len` bytes at `off` in one fetch — none at all for an empty range, which
/// a timed source would still charge its latency for.
fn fetch<B: Bytes>(src: &B, off: u64, len: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; len as usize];
    if len > 0 {
        src.read(off, &mut bytes);
    }
    bytes
}

// ---- superblock ----

/// The decoded superblock page.
#[derive(Debug, Clone)]
pub struct Superblock {
    pub magic: u64,
    pub pool_size: u64,
    pub heap_start: u64,
    pub root_off: u64,
    pub root_size: u64,
    pub layout_name: String,
    pub generation: u64,
    /// Device profile the pool was last mounted on (`pmem_sim::profile`
    /// registry id; 0 = unknown / pre-profile pool).
    pub device_profile_id: u32,
    /// Autotuned put-path flush strategy cached at mount (`FlushStrategy`
    /// code; 0 = not yet tuned).
    pub flush_strategy_code: u32,
    /// The first plausibility rule this page breaks on its device, if any.
    pub fault: Option<String>,
}

impl Superblock {
    /// Decode the superblock from one page-sized fetch.
    pub fn read<B: Bytes>(src: &B) -> Superblock {
        let mut page = vec![0u8; SUPERBLOCK_SIZE as usize];
        if src.size() >= SUPERBLOCK_SIZE {
            src.read(0, &mut page);
        }
        let word = |off: u64| u64::from_le_bytes(page[off as usize..][..8].try_into().unwrap());
        let half = |off: u64| u32::from_le_bytes(page[off as usize..][..4].try_into().unwrap());
        let (magic, pool_size, heap) = (word(sb::MAGIC), word(sb::POOL_SIZE), word(sb::HEAP_START));
        let (root_off, root_size) = (word(sb::ROOT_OFF), word(sb::ROOT_SIZE));
        let (name_len, size) = (word(sb::LAYOUT_LEN), src.size());
        let fault = if magic != POOL_MAGIC {
            Some("bad magic (pool not formatted?)".to_string())
        } else if pool_size != size {
            Some(format!("pool size {pool_size} != device size {size}"))
        } else if heap != heap_start() {
            Some(format!("heap recorded at {heap:#x}"))
        } else if name_len > sb::LAYOUT_NAME_MAX {
            Some(format!("implausible layout name length {name_len}"))
        } else if root_off != 0 && !src.in_heap(root_off, root_size) {
            Some(format!("root {root_off:#x}+{root_size} outside heap"))
        } else {
            None
        };
        let name = &page[sb::LAYOUT_NAME as usize..][..name_len.min(sb::LAYOUT_NAME_MAX) as usize];
        Superblock {
            magic,
            pool_size,
            heap_start: heap,
            root_off,
            root_size,
            layout_name: String::from_utf8_lossy(name).into_owned(),
            generation: word(sb::GENERATION),
            device_profile_id: half(sb::DEVICE_PROFILE),
            flush_strategy_code: half(sb::FLUSH_STRATEGY),
            fault,
        }
    }

    /// Human name of the recorded device profile ("unknown" for id 0 or an
    /// unrecognised id).
    pub fn device_profile_name(&self) -> &'static str {
        pmem_sim::profile::profile_name_by_id(self.device_profile_id).unwrap_or("unknown")
    }

    /// Human name of the cached flush strategy ("unset" when not yet tuned).
    pub fn flush_strategy_name(&self) -> &'static str {
        pmem_sim::FlushStrategy::from_code(self.flush_strategy_code)
            .map(|s| s.name())
            .unwrap_or("unset")
    }
}

// ---- transaction lanes ----

/// Bytes of undo log in one lane: what is left after header and intents.
pub const UNDO_CAPACITY: u64 = LANE_SIZE - LANE_HEADER_SIZE - LANE_INTENT_BYTES;
/// Undo record header: target offset u64 + pre-image length u32.
const UNDO_REC_HDR: u64 = 12;

/// Device offset of the intent array of the lane at `base`.
pub const fn lane_intents(base: u64) -> u64 {
    base + LANE_HEADER_SIZE
}

/// Device offset of the undo area of the lane at `base`.
pub const fn lane_undo(base: u64) -> u64 {
    lane_intents(base) + LANE_INTENT_BYTES
}

/// Undo-log bytes a record with a `len`-byte pre-image occupies.
pub const fn undo_record_size(len: u64) -> u64 {
    UNDO_REC_HDR + len
}

/// One undo record as it is stored: offset, length, pre-image — contiguous,
/// so one store and one flush cover it.
pub fn encode_undo_record(off: u64, pre: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(undo_record_size(pre.len() as u64) as usize);
    rec.extend_from_slice(&off.to_le_bytes());
    rec.extend_from_slice(&(pre.len() as u32).to_le_bytes());
    rec.extend_from_slice(pre);
    rec
}

/// One decoded undo record: restore `pre` at `off`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    pub off: u64,
    pub pre: Vec<u8>,
}

/// Decode the undo log of the lane at `base`, oldest record first: the
/// length word, then the logged bytes in one fetch, pre-images included. The
/// log must fit the lane, every record must end inside the logged length,
/// and every target must lie in the heap (where everything a transaction
/// snapshots lives).
pub fn undo_records<B: Bytes>(src: &B, base: u64) -> Result<Vec<UndoRecord>> {
    let undo_len = src.u32_at(base + lane::UNDO_LEN) as u64;
    if undo_len > UNDO_CAPACITY {
        return bad(format!(
            "lane at {base:#x}: undo length {undo_len} past the lane ({UNDO_CAPACITY})"
        ));
    }
    let log = fetch(src, lane_undo(base), undo_len);
    let (mut cursor, mut out) = (0u64, vec![]);
    while cursor < undo_len {
        if undo_len - cursor < UNDO_REC_HDR {
            return bad(format!(
                "lane at {base:#x}: undo record at {cursor} runs past the logged {undo_len}"
            ));
        }
        let rec = &log[cursor as usize..];
        let (off, len) = (le_u64(rec), le_u32(&rec[8..]) as u64);
        if undo_record_size(len) > undo_len - cursor {
            return bad(format!(
                "lane at {base:#x}: undo record at {cursor} (+{len}) runs past the logged {undo_len}"
            ));
        }
        if !src.in_heap(off, len) {
            return bad(format!(
                "lane at {base:#x}: undo record targets {off:#x}+{len}, outside the heap"
            ));
        }
        let pre = rec[UNDO_REC_HDR as usize..][..len as usize].to_vec();
        out.push(UndoRecord { off, pre });
        cursor += undo_record_size(len);
    }
    Ok(out)
}

/// Fetch the filled intent slots of the lane at `base` (low bit set = a
/// deferred free): the count word, then the counted slots in one fetch.
pub fn intents<B: Bytes>(src: &B, base: u64) -> Result<Vec<u64>> {
    let count = src.u32_at(base + lane::INTENT_COUNT) as u64;
    if count > LANE_INTENTS {
        return bad(format!(
            "lane at {base:#x}: intent count {count} > {LANE_INTENTS}"
        ));
    }
    let slots = fetch(src, lane_intents(base), count * 8);
    Ok(slots.chunks_exact(8).map(le_u64).collect())
}

/// The blocks a committed transaction of the lane at `base` still has to
/// free, slot order: its free intents, untagged.
pub fn deferred_frees<B: Bytes>(src: &B, base: u64) -> Result<Vec<u64>> {
    let frees = intents(src, base)?.into_iter().filter(|e| e & 1 == 1);
    Ok(frees.map(|e| e & !1).collect())
}

// ---- heap block chain ----

/// Persisted block header, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    pub state: u32,
    pub size: u64,
    pub prev_size: u64,
}

impl BlockHeader {
    /// Decode the header at `at` (untimed: neither the open-time rebuild
    /// nor the doctor charges for heap scans).
    pub fn read(dev: &PmemDevice, at: u64) -> Result<BlockHeader> {
        if at.saturating_add(BLOCK_HEADER_SIZE) > dev.size() as u64 {
            return bad(format!("block header {at:#x} runs past the device"));
        }
        let mut buf = [0u8; BLOCK_HEADER_SIZE as usize];
        dev.read_untimed(at as usize, &mut buf);
        let magic = u32::from_le_bytes(buf[blk::MAGIC as usize..][..4].try_into().unwrap());
        if magic != BLOCK_MAGIC {
            return bad(format!("bad block magic {magic:#x} at {at:#x}"));
        }
        Ok(BlockHeader {
            state: u32::from_le_bytes(buf[blk::STATE as usize..][..4].try_into().unwrap()),
            size: u64::from_le_bytes(buf[blk::SIZE as usize..][..8].try_into().unwrap()),
            prev_size: u64::from_le_bytes(buf[blk::PREV_SIZE as usize..][..8].try_into().unwrap()),
        })
    }
}

/// The one physical heap walk: `visit` sees `(header offset, header)` per
/// block in address order, or the violation found in its place, and answers
/// whether to go on. An implausible magic or size ends the walk (the
/// successor cannot be located); a broken `prev_size` link or unknown state
/// does not, so the doctor lists every violation while `Heap::rebuild` stops
/// at the first.
///
/// With `mend` (recovery only; untimed) a `prev_size` that is not the walked
/// predecessor's size is rewritten instead of faulted. The forward chain —
/// magic and size — is what locates blocks; `prev_size` is the back link
/// coalescing follows, kept in a different cacheline from the header whose
/// size it mirrors, so a crash between a split's or a merge's two persists
/// legitimately leaves it one step behind.
pub fn walk_blocks(
    dev: &PmemDevice,
    start: u64,
    end: u64,
    mend: bool,
    mut visit: impl FnMut(Result<(u64, BlockHeader)>) -> bool,
) {
    let (mut at, mut prev_payload) = (start, 0u64);
    // Every block holds at least one aligned payload unit; anything smaller
    // at the tail is formatting slack, not a block.
    while end.saturating_sub(at) >= BLOCK_HEADER_SIZE + HEAP_ALIGN {
        // No alignment rule: a tail block's payload is whatever remained.
        let located = BlockHeader::read(dev, at).and_then(|h| {
            match (at + BLOCK_HEADER_SIZE).checked_add(h.size) {
                Some(next) if h.size != 0 && next <= end => Ok((next, h)),
                _ => bad(format!("block at {at:#x}: implausible size {}", h.size)),
            }
        });
        let (next, mut h) = match located {
            Ok(located) => located,
            Err(e) => {
                visit(Err(e));
                return;
            }
        };
        if mend && h.prev_size != prev_payload {
            let word = (at + blk::PREV_SIZE) as usize;
            dev.write_untimed(word, &prev_payload.to_le_bytes());
            dev.persist_untimed(word, 8);
            h.prev_size = prev_payload;
        }
        let block = if h.prev_size != prev_payload {
            let prev = h.prev_size;
            bad(format!(
                "heap chain broken at {at:#x}: prev_size {prev} != walked {prev_payload}"
            ))
        } else if h.state != BLOCK_FREE && h.state != BLOCK_ALLOC {
            bad(format!("block at {at:#x} has invalid state {}", h.state))
        } else {
            Ok((at, h))
        };
        if !visit(block) {
            return;
        }
        (at, prev_payload) = (next, h.size);
    }
}

// ---- hashtable header + entry chain ----

pub const HDR_BUCKETS: u64 = 0;
pub const HDR_COUNT: u64 = 8;
pub const HDR_HEADS: u64 = 16;
pub const HDR_OLD_BUCKETS: u64 = 24;
pub const HDR_OLD_HEADS: u64 = 32;
pub const HDR_CURSOR: u64 = 40;
pub const HDR_DIRTY: u64 = 48;
pub const HDR_SIZE: u64 = 56;

pub const ENT_HASH: u64 = 0;
pub const ENT_KLEN: u64 = 8;
pub const ENT_VLEN: u64 = 12;
pub const ENT_NEXT: u64 = 16;
pub const ENT_KEY: u64 = 24;

/// Bound on chain walks: a torn `next` pointer may form a cycle, so hop
/// counts beyond any plausible chain length are treated as torn.
const MAX_CHAIN_HOPS: u64 = 1 << 16;

/// Hashtable geometry: both directories plus the split cursor — the five
/// header words routing derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Geo {
    pub buckets: u64,
    pub heads: u64,
    /// Non-zero while an incremental split is in flight.
    pub old_buckets: u64,
    pub old_heads: u64,
    pub cursor: u64,
}

/// Heads the directory iterator fetches per read: 4 KiB, sixteen of the
/// media's 256-byte blocks — sequential, so it runs at bandwidth — and a
/// buffer small enough to sit beside a chunk's lock set.
const RUN_HEADS: u64 = 512;

impl Geo {
    /// Every chain-head slot a key can route to, as runs of at most
    /// [`RUN_HEADS`] consecutive buckets of one heads array, `(array, buckets)`
    /// each: unmigrated old buckets first, then the new-directory slots whose
    /// source bucket the cursor has passed — all of them when no split is in
    /// flight. A destination slot at or past the cursor is unreachable and
    /// is written without undo, so it may hold the head a rolled-back
    /// migration chunk left there: no walker may follow it.
    pub fn head_runs(self) -> impl Iterator<Item = (u64, Range<u64>)> {
        let (old, cursor) = (self.old_buckets, self.cursor);
        let reachable = match old {
            0 => [(self.heads, 0..self.buckets), (0, 0..0), (0, 0..0)],
            _ => [
                (self.old_heads, cursor..old),
                (self.heads, 0..cursor),
                (self.heads, old..old + cursor),
            ],
        };
        reachable.into_iter().flat_map(|(array, buckets)| {
            let runs = buckets.clone().step_by(RUN_HEADS as usize);
            runs.map(move |b| (array, b..buckets.end.min(b + RUN_HEADS)))
        })
    }

    /// [`Geo::head_runs`], a slot at a time: `(head_slot, bucket)`.
    pub fn head_slots(self) -> impl Iterator<Item = (u64, u64)> {
        self.head_runs()
            .flat_map(|(array, buckets)| buckets.map(move |b| (array + b * 8, b)))
    }

    /// The one directory iterator: [`Geo::head_slots`] with the head each
    /// slot holds, `(head_slot, bucket, head)`, every run fetched by one
    /// [`read_heads`] as the iteration reaches it. A head is as fresh as its
    /// run: the caller holds whatever pins the run's buckets.
    pub fn heads<B: Bytes>(self, src: &B) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.head_runs()
            .flat_map(move |(array, buckets)| read_heads(src, array, buckets))
    }
}

/// Fetch the heads of `buckets` of the heads array at `array` with one read
/// (in range — the header check covers both arrays): `(head_slot, bucket,
/// head)` each.
pub fn read_heads<B: Bytes>(
    src: &B,
    array: u64,
    buckets: Range<u64>,
) -> impl Iterator<Item = (u64, u64, u64)> {
    let len = buckets.end.saturating_sub(buckets.start) * 8;
    let run = fetch(src, array + buckets.start * 8, len);
    buckets
        .zip(0..)
        .map(move |(b, i)| (array + b * 8, b, le_u64(&run[i * 8..])))
}

/// The decoded hashtable header.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableHeader {
    pub geo: Geo,
    /// Persisted entry count (authoritative only when `dirty` is 0).
    pub count: u64,
    pub dirty: u64,
}

impl TableHeader {
    /// Fetch the seven header words with one 56-byte read.
    pub fn read<B: Bytes>(src: &B, header: u64) -> Result<TableHeader> {
        if !src.in_heap(header, HDR_SIZE) {
            return bad(format!("hashtable header {header:#x} outside heap"));
        }
        let mut words = [0u8; HDR_SIZE as usize];
        src.read(header, &mut words);
        let word = |off: u64| le_u64(&words[off as usize..]);
        Ok(TableHeader {
            geo: Geo {
                buckets: word(HDR_BUCKETS),
                heads: word(HDR_HEADS),
                old_buckets: word(HDR_OLD_BUCKETS),
                old_heads: word(HDR_OLD_HEADS),
                cursor: word(HDR_CURSOR),
            },
            count: word(HDR_COUNT),
            dirty: word(HDR_DIRTY),
        })
    }

    /// Is the stored geometry plausible for this device? A heads array (old
    /// or new) outside the heap, a cursor past the old table, a new table
    /// that is not the old one doubled, split words without a split, or a
    /// dirty flag that is not a flag reject the header before it can fault.
    pub fn check<B: Bytes>(&self, src: &B) -> Result<()> {
        let g = self.geo;
        let fits = |off: u64, n: u64| n.checked_mul(8).is_some_and(|sz| src.in_heap(off, sz));
        if g.buckets == 0 || !fits(g.heads, g.buckets) {
            return bad(format!(
                "implausible hashtable geometry: {} buckets, heads {:#x}",
                g.buckets, g.heads
            ));
        }
        let split_ok = if g.old_buckets != 0 {
            g.old_buckets.checked_mul(2) == Some(g.buckets)
                && g.cursor <= g.old_buckets
                && fits(g.old_heads, g.old_buckets)
        } else {
            g.old_heads == 0 && g.cursor == 0
        };
        if !split_ok {
            return bad(format!(
                "implausible hashtable split state: old_buckets={} old_heads={:#x} cursor={} buckets={}",
                g.old_buckets, g.old_heads, g.cursor, g.buckets
            ));
        }
        if self.dirty > 1 {
            return bad(format!("implausible hashtable dirty flag {}", self.dirty));
        }
        Ok(())
    }
}

/// What a chain walk fetches per hop: counting walks need only the 8-byte
/// `next`; matching walks take the whole 24-byte entry header in one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    Link,
    Header,
}

/// One chain entry's fixed-size header. Under [`Fetch::Link`] only `at`,
/// `slot` and `next` are filled in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    /// Device offset of the entry.
    pub at: u64,
    /// The pointer slot that named it (head slot or predecessor's `next`).
    pub slot: u64,
    pub hash: u64,
    pub klen: u32,
    pub vlen: u32,
    pub next: u64,
}

impl Entry {
    pub fn value_off(&self) -> u64 {
        self.at + ENT_KEY + self.klen as u64
    }

    pub fn key<B: Bytes>(&self, src: &B) -> Vec<u8> {
        let mut k = vec![0u8; self.klen as usize];
        src.read(self.at + ENT_KEY, &mut k);
        k
    }
}

/// A chain entry as it is stored — header, key and (when the caller has
/// them; otherwise they are written in place later) the value bytes — in
/// one buffer, so a fresh entry is one store.
pub fn encode_entry(hash: u64, key: &[u8], vlen: u32, next: u64, value: Option<&[u8]>) -> Vec<u8> {
    let mut ent = Vec::with_capacity(ENT_KEY as usize + key.len() + value.map_or(0, <[u8]>::len));
    ent.extend_from_slice(&hash.to_le_bytes());
    ent.extend_from_slice(&(key.len() as u32).to_le_bytes());
    ent.extend_from_slice(&vlen.to_le_bytes());
    ent.extend_from_slice(&next.to_le_bytes());
    ent.extend_from_slice(key);
    ent.extend_from_slice(value.unwrap_or_default());
    ent
}

/// [`walk_from`] a head pointer this call fetches: one 8-byte read of
/// `head_slot`.
pub fn walk_chain<B: Bytes>(
    src: &B,
    head_slot: u64,
    fetch: Fetch,
    visit: impl FnMut(&Entry) -> bool,
) -> (u64, Result<()>) {
    walk_from(src, head_slot, src.u64_at(head_slot), fetch, visit)
}

/// The one chain walk: follows `next` from `head`, the pointer the caller
/// read out of `head_slot`, hop-bounded and range-checked before every
/// dereference, handing each entry to `visit` until it answers `false`.
/// Returns the entries fetched and how the walk ended: a bad hop ends the
/// chain with the error.
pub fn walk_from<B: Bytes>(
    src: &B,
    head_slot: u64,
    head: u64,
    fetch: Fetch,
    mut visit: impl FnMut(&Entry) -> bool,
) -> (u64, Result<()>) {
    let (mut slot, mut at, mut hops) = (head_slot, head, 0u64);
    while at != 0 {
        let torn = |hops: u64, what: &str| {
            let msg = format!(
                "torn hashtable chain at head slot {head_slot:#x}: entry {at:#x} {what} (hop {hops})"
            );
            (hops, bad(msg))
        };
        if hops >= MAX_CHAIN_HOPS {
            return torn(hops, "suggests a cycle");
        }
        if !src.in_heap(at, ENT_KEY) {
            return torn(hops, "outside heap");
        }
        hops += 1;
        let mut e = Entry {
            at,
            slot,
            ..Entry::default()
        };
        match fetch {
            Fetch::Link => e.next = src.u64_at(at + ENT_NEXT),
            Fetch::Header => {
                let mut b = [0u8; ENT_KEY as usize];
                src.read(at, &mut b);
                (e.hash, e.next) = (le_u64(&b), le_u64(&b[ENT_NEXT as usize..]));
                (e.klen, e.vlen) = (
                    le_u32(&b[ENT_KLEN as usize..]),
                    le_u32(&b[ENT_VLEN as usize..]),
                );
                if !src.in_heap(at, ENT_KEY + e.klen as u64 + e.vlen as u64) {
                    return torn(hops, "body overruns the heap");
                }
            }
        }
        if !visit(&e) {
            break;
        }
        (slot, at) = (at + ENT_NEXT, e.next);
    }
    (hops, Ok(()))
}

// ---- log ring ----

pub const LOG_CAPACITY: u64 = 0;
pub const LOG_HEAD: u64 = 8;
pub const LOG_TAIL: u64 = 16;
pub const LOG_HDR_LEN: u64 = 24;

pub const REC_HDR: u64 = 8; // len u32 + crc u32
pub const WRAP: u32 = u32::MAX;

/// One step of the reflected CRC-32 polynomial `0xEDB8_8320` per input bit.
const fn crc32_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        bit += 1;
    }
    crc
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc32_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE: reflected polynomial `0xEDB8_8320`, init and final XOR
/// `0xFFFF_FFFF`), eight bytes per step — small and dependency-free; the
/// log's records carry it so recovery can reject torn bytes defensively.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Fetch and check a log's capacity word: the header and the whole ring
/// must lie in the heap.
pub fn log_capacity<B: Bytes>(src: &B, header: u64, ring: u64) -> Result<u64> {
    if !src.in_heap(header, LOG_HDR_LEN) {
        return bad(format!("log header {header:#x} outside heap"));
    }
    let capacity = src.u64_at(header + LOG_CAPACITY);
    if capacity == 0 || !src.in_heap(ring, capacity) {
        return bad(format!("implausible log capacity {capacity}"));
    }
    Ok(capacity)
}

/// Fetch a log's `(head, tail)` ring offsets; neither may exceed `capacity`
/// (`tail == capacity` is legal: an append that exactly filled the ring).
pub fn log_pointers<B: Bytes>(src: &B, header: u64, capacity: u64) -> Result<(u64, u64)> {
    let head = src.u64_at(header + LOG_HEAD);
    let tail = src.u64_at(header + LOG_TAIL);
    check_log_pointers(head, tail, capacity)?;
    Ok((head, tail))
}

/// The plausibility rule of [`log_pointers`], for a caller that fetches the
/// two words itself.
pub fn check_log_pointers(head: u64, tail: u64, capacity: u64) -> Result<()> {
    if head > capacity || tail > capacity {
        return bad(format!(
            "log pointers outside ring: head {head} tail {tail} capacity {capacity}"
        ));
    }
    Ok(())
}

/// One committed record: ring-relative offset of its header + body length.
#[derive(Debug, Clone, Copy)]
pub struct RingRecord {
    pub at: u64,
    pub len: u64,
}

impl RingRecord {
    /// Fetch the body, then the stored CRC; returns the bytes and whether
    /// they match.
    pub fn body<B: Bytes>(&self, src: &B, ring: u64) -> (Vec<u8>, bool) {
        let mut body = vec![0u8; self.len as usize];
        src.read_data(ring + self.at + REC_HDR, &mut body);
        let ok = crc32(&body) == src.u32_at(ring + self.at + 4);
        (body, ok)
    }
}

/// The one ring walk: committed records from `head` to `tail` (as
/// [`log_pointers`] fetched them), one 4-byte length fetch per record,
/// handing each to `visit` until it answers `false`. A WRAP marker (or
/// trailing slack too small for a record header) sends the walk back to the
/// ring's start — at most once, which bounds a walk whose tail sits on no
/// record boundary. Returns the ring offset just past the last record
/// visited and how the walk ended.
pub fn walk_ring<B: Bytes>(
    src: &B,
    ring: u64,
    capacity: u64,
    (mut head, tail): (u64, u64),
    mut visit: impl FnMut(RingRecord) -> bool,
) -> (u64, Result<()>) {
    let mut wrapped = false;
    while head != tail {
        let len = if capacity - head >= REC_HDR {
            src.u32_at(ring + head)
        } else {
            WRAP
        };
        if len == WRAP {
            if std::mem::replace(&mut wrapped, true) {
                return (head, bad("double wrap marker".into()));
            }
            head = 0;
            continue;
        }
        // Reject lengths that would walk past the ring (torn headers).
        let len = len as u64;
        if len == 0 || head + REC_HDR + len > capacity {
            return (
                head,
                bad(format!("corrupt log record length {len} at ring+{head}")),
            );
        }
        let rec = RingRecord { at: head, len };
        head += REC_HDR + len;
        if !visit(rec) {
            break;
        }
    }
    (head, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are built from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(0xFFFF_FFFFu32, |crc, &b| crc32_byte(crc ^ b as u32))
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_and_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut rng = pmem_sim::DetRng::new(17);
        // Every tail length 0..8 at both ends of the range, then random ones.
        let lens = (0..=17).chain(4088..=4096).collect::<Vec<u64>>();
        let random: Vec<u64> = (0..200).map(|_| rng.gen_range(0, 4097)).collect();
        for len in lens.into_iter().chain(random) {
            let mut data = vec![0u8; len as usize];
            rng.fill_bytes(&mut data);
            assert_eq!(crc32(&data), crc32_bitwise(&data), "length {len}");
        }
    }

    /// A flat image that records what is fetched from it.
    struct Recorder {
        image: Vec<u8>,
        reads: std::cell::RefCell<Vec<Range<u64>>>,
    }

    impl Bytes for Recorder {
        fn size(&self) -> u64 {
            self.image.len() as u64
        }

        fn read(&self, off: u64, dst: &mut [u8]) {
            dst.copy_from_slice(&self.image[off as usize..][..dst.len()]);
            self.reads.borrow_mut().push(off..off + dst.len() as u64);
        }
    }

    /// The directory iterator is `head_slots()` with heads: the same slots
    /// in the same order, each head the word its slot holds, fetched in runs
    /// of at most 4 KiB that cover the reachable slots and nothing else —
    /// not a byte around the arrays, not a source slot the cursor has passed,
    /// not a destination slot it has yet to reach (every such word is
    /// poisoned here, and a walker that met one would follow it).
    #[test]
    fn the_directory_iterator_reads_each_reachable_run_once_and_nothing_else() {
        const POISON: u64 = u64::MAX;
        let split = |old: u64, cursor| Geo {
            buckets: 2 * old,
            heads: 0x8000,
            old_buckets: old,
            old_heads: 0x1000,
            cursor,
        };
        let whole = |buckets| Geo {
            buckets,
            heads: 0x8000,
            ..Geo::default()
        };
        let geos = [0, 8, 63, 64].map(|c| split(64, c));
        // Arrays that are not a whole number of runs, and a cursor inside one.
        for g in (geos.into_iter()).chain([whole(128), whole(1300), split(700, 600), split(700, 0)])
        {
            let mut src = Recorder {
                image: vec![0xff; 0x10000],
                reads: Default::default(),
            };
            for (n, (slot, _)) in g.head_slots().enumerate() {
                src.image[slot as usize..][..8].copy_from_slice(&(n as u64 + 1).to_le_bytes());
            }
            let served: Vec<_> = g.heads(&src).collect();
            let reads = std::mem::take(&mut *src.reads.borrow_mut());
            let slots: Vec<_> = g.head_slots().collect();
            assert_eq!(
                served.iter().map(|&(s, b, _)| (s, b)).collect::<Vec<_>>(),
                slots,
                "{g:?}"
            );
            for &(slot, _, head) in &served {
                assert_eq!(head, src.u64_at(slot), "{g:?}: slot {slot:#x}");
                assert_ne!(head, POISON);
            }
            // Every fetched word is a reachable slot, fetched once.
            let mut fetched: Vec<u64> =
                (reads.iter().cloned()).flat_map(|r| r.step_by(8)).collect();
            fetched.sort_unstable();
            let mut reachable: Vec<u64> = slots.iter().map(|&(s, _)| s).collect();
            reachable.sort_unstable();
            assert_eq!(fetched, reachable, "{g:?}");
            assert!(reads.iter().all(|r| r.end - r.start <= 4096), "{g:?}");
            let runs: u64 = g.head_runs().map(|_| 1).sum();
            assert_eq!(reads.len() as u64, runs, "{g:?}: one fetch a run");
            assert!(runs <= slots.len() as u64 / RUN_HEADS + 3, "{g:?}");
        }
    }

    /// The fixed-size structures decode from one fetch each, and the lane
    /// decoders from the count word plus one fetch of what it counts.
    #[test]
    fn headers_intents_and_undo_logs_decode_from_one_fetch() {
        let mut src = Recorder {
            image: vec![0; (heap_start() + 4096) as usize],
            reads: Default::default(),
        };
        let (base, header) = (lane_offset(3), heap_start() + 64);
        let put = |image: &mut Vec<u8>, at: u64, bytes: &[u8]| {
            image[at as usize..][..bytes.len()].copy_from_slice(bytes);
        };
        for (i, word) in (1u64..=7).enumerate() {
            put(&mut src.image, header + 8 * i as u64, &word.to_le_bytes());
        }
        let records = [
            UndoRecord {
                off: heap_start() + 256,
                pre: b"eight by".to_vec(),
            },
            UndoRecord {
                off: heap_start() + 512,
                pre: vec![7; 100],
            },
        ];
        let log: Vec<u8> = (records.iter())
            .flat_map(|r| encode_undo_record(r.off, &r.pre))
            .collect();
        put(&mut src.image, lane_undo(base), &log);
        put(
            &mut src.image,
            base + lane::UNDO_LEN,
            &(log.len() as u32).to_le_bytes(),
        );
        let slots = [
            heap_start() + 64,
            (heap_start() + 128) | 1,
            heap_start() + 192,
        ];
        for (i, slot) in slots.iter().enumerate() {
            put(
                &mut src.image,
                lane_intents(base) + 8 * i as u64,
                &slot.to_le_bytes(),
            );
        }
        put(
            &mut src.image,
            base + lane::INTENT_COUNT,
            &3u32.to_le_bytes(),
        );
        let fetches = |src: &Recorder| std::mem::take(&mut *src.reads.borrow_mut());

        let hdr = TableHeader::read(&src, header).unwrap();
        let whole = header..header + HDR_SIZE;
        assert_eq!(fetches(&src), [whole]);
        let g = hdr.geo;
        assert_eq!((g.buckets, hdr.count, g.heads, g.old_buckets), (1, 2, 3, 4));
        assert_eq!((g.old_heads, g.cursor, hdr.dirty), (5, 6, 7));

        assert_eq!(intents(&src, base).unwrap(), slots);
        let count = base + lane::INTENT_COUNT;
        let array = lane_intents(base);
        assert_eq!(fetches(&src), [count..count + 4, array..array + 24]);

        assert_eq!(undo_records(&src, base).unwrap(), records);
        let (len, undo) = (base + lane::UNDO_LEN, lane_undo(base));
        assert_eq!(fetches(&src), [len..len + 4, undo..undo + log.len() as u64]);

        // An idle lane is its two count words and nothing else.
        let idle = lane_offset(4);
        assert!(intents(&src, idle).unwrap().is_empty());
        assert!(undo_records(&src, idle).unwrap().is_empty());
        assert_eq!(fetches(&src).len(), 2);
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        assert!(lane_table_start() >= SUPERBLOCK_SIZE);
        assert_eq!(lane_offset(0), lane_table_start());
        assert_eq!(lane_offset(LANES - 1) + LANE_SIZE, flight_start());
        assert_eq!(flight_start() + FLIGHT_SIZE, heap_start());
        // Page-aligned flight region: heap offsets shift by whole pages.
        assert_eq!(flight_start() % 4096, 0);
        assert_eq!(FLIGHT_SIZE % 4096, 0);
    }

    #[test]
    fn align_up_is_monotone_and_aligned() {
        for n in [0u64, 1, 63, 64, 65, 127, 128, 1000] {
            let a = align_up(n);
            assert!(a >= n);
            assert_eq!(a % HEAP_ALIGN, 0);
            assert!(a - n < HEAP_ALIGN);
        }
    }

    #[test]
    fn lane_variable_area_fits_intents_and_log() {
        // Evaluated through runtime bindings so the layout constants are
        // sanity-checked without constant-folding lints.
        let (hdr, intents, lane) = (LANE_HEADER_SIZE, LANE_INTENT_BYTES, LANE_SIZE);
        assert!(hdr + intents < lane);
        // At least 8 KiB of undo space per lane.
        assert!(lane - hdr - intents >= 8 * 1024);
    }
}
