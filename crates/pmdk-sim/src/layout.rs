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
//! lane:             [state u32][log_len u32][records…], the first records in
//!                   the header's 64-byte line; a record is
//!                   [len << 48 | off  u64][pre-image: len bytes], contiguous,
//!                   and len 0 is an alloc intent for the payload at off
//! heap block:       [magic u32][state u32][size u64][reserved u64 × 2]
//!                   [payload]
//! hashtable header: [bucket_count u64][reserved u64][heads_off u64]
//!                   [old_bucket_count u64][old_heads_off u64]
//!                   [split_cursor u64][reserved u64]
//!                   (`create` zeroes the reserved words; nothing reads them)
//! hashtable heads:  [head u64 × bucket_count]           (separate alloc)
//! hashtable entry:  [hash u64][key_len u16][head_len u16][val_len u32][next u64]
//!                   [key][value]
//! log header:       [capacity u64][head u64][tail u64]  (offsets into the ring)
//! log ring:         records of [len u32][crc u32][bytes], contiguous, no wrap
//!                   of a single record (a WRAP marker skips the slack at the
//!                   ring's end)
//! ```
//!
//! All multi-byte integers are little-endian. Readers are generic over a
//! [`Bytes`] source — `Charged` for a mounted pool that pays for what it
//! reads, a bare [`PmemDevice`] for the doctor — and every plausibility rule
//! is arithmetic on words the reader fetched anyway, so it costs no virtual
//! time.
//!
//! One access per contiguous run: a fixed-size structure (superblock, table
//! header) decodes from one fetch, a counted one (a lane's intents, its undo
//! log) from the count word plus one fetch of what it counts, and the heads
//! arrays are served a run of at most 4 KiB at a time by the one directory
//! iterator (`Geo::heads`). Only a chain's hops, each of which depends on
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
pub(crate) const POOL_MAGIC: u64 = 0x504d_444b_5349_4d31;
/// Superblock size (one page).
pub(crate) const SUPERBLOCK_SIZE: u64 = 4096;
/// Number of transaction lanes (PMDK uses 1024; 32 is plenty for ≤48 ranks
/// since transactions are short-lived).
pub const LANES: u64 = 32;
/// Bytes per lane: the two header words and the log.
pub(crate) const LANE_SIZE: u64 = 16 * 1024;
/// A lane's first cacheline: the header words and the log's first records,
/// which one store persists failure-atomically.
pub(crate) const LANE_LINE: u64 = 64;
/// Heap block header size.
pub const BLOCK_HEADER_SIZE: u64 = 32;
/// Allocation granularity/alignment of heap payloads.
pub(crate) const HEAP_ALIGN: u64 = 64;
/// Block header magic.
pub(crate) const BLOCK_MAGIC: u32 = 0x424c_4b31; // "BLK1"

/// Lane states (persisted); any other word is a corrupt lane.
pub const LANE_IDLE: u32 = 0;
pub const LANE_ACTIVE: u32 = 1;

/// The on-media format this build reads and writes (superblock version
/// word); 11: a lane is one log of undo records and alloc intents (10: an
/// entry names its value's header length beside a 16-bit key length).
pub const LAYOUT_VERSION: u64 = 11;

/// Block states (persisted).
pub const BLOCK_FREE: u32 = 0;
pub const BLOCK_ALLOC: u32 = 1;

/// Superblock field offsets.
pub mod sb {
    pub(crate) const MAGIC: u64 = 0;
    pub const VERSION: u64 = 8;
    pub(crate) const POOL_SIZE: u64 = 16;
    pub(crate) const HEAP_START: u64 = 24;
    pub(crate) const ROOT_OFF: u64 = 32; // 0 = no root yet
    pub(crate) const ROOT_SIZE: u64 = 40;
    pub const LAYOUT_LEN: u64 = 48;
    pub(crate) const LAYOUT_NAME: u64 = 56; // up to 128 bytes
    pub(crate) const LAYOUT_NAME_MAX: u64 = 128;
    /// Pool generation: bumped on every open; flight `Mount` events carry
    /// it, so a timeline tells one session from the next.
    pub(crate) const GENERATION: u64 = 192;
    /// Device-profile id the pool was last mounted with (u32; see
    /// `pmem_sim::profile`). 0 = unset (legacy pools). The four bytes after
    /// it are reserved: older pools cached a flush-strategy code there,
    /// which nothing reads.
    pub(crate) const DEVICE_PROFILE: u64 = 200;
}

/// Lane header field offsets (relative to the lane base).
pub mod lane {
    pub const STATE: u64 = 0;
    pub const LOG_LEN: u64 = 4; // bytes of records logged
    pub const RECORDS: u64 = 8; // the first record
}

/// Heap block header field offsets (relative to the header base); bytes
/// 16..32 are reserved.
pub mod blk {
    pub(crate) const MAGIC: u64 = 0;
    pub(crate) const STATE: u64 = 4;
    pub const SIZE: u64 = 8; // payload bytes (aligned)
}

/// Start of the lane table.
pub(crate) const fn lane_table_start() -> u64 {
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
pub(crate) const FLIGHT_SIZE: u64 = 64 * 1024;

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

pub(crate) fn bad<T>(msg: String) -> Result<T> {
    Err(PmdkError::BadPool(msg))
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(std::array::from_fn(|i| b[i]))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| b[i]))
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
pub(crate) struct Charged<'a> {
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
        let word = |off: u64| le_u64(&page[off as usize..]);
        let half = |off: u64| le_u32(&page[off as usize..]);
        let (magic, pool_size, heap) = (word(sb::MAGIC), word(sb::POOL_SIZE), word(sb::HEAP_START));
        let (root_off, root_size) = (word(sb::ROOT_OFF), word(sb::ROOT_SIZE));
        let (name_len, size, version) = (word(sb::LAYOUT_LEN), src.size(), word(sb::VERSION));
        let name = &page[sb::LAYOUT_NAME as usize..][..name_len.min(sb::LAYOUT_NAME_MAX) as usize];
        let mut sblk = Superblock {
            magic,
            pool_size,
            heap_start: heap,
            root_off,
            root_size,
            layout_name: String::from_utf8_lossy(name).into_owned(),
            generation: word(sb::GENERATION),
            device_profile_id: half(sb::DEVICE_PROFILE),
            fault: None,
        };
        sblk.fault = if !sblk.formatted() {
            Some("bad magic (pool not formatted?)".to_string())
        } else if version != LAYOUT_VERSION {
            Some(format!("layout version {version}, not {LAYOUT_VERSION}"))
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
        sblk
    }

    /// Whether a pool was ever formatted here. `PmemPool::create` persists
    /// the superblock last, so a device without the magic holds no pool
    /// (the one image a mount may format) and one with it holds a pool,
    /// damaged or whole.
    pub fn formatted(&self) -> bool {
        self.magic == POOL_MAGIC
    }

    /// Human name of the recorded device profile ("unknown" for id 0 or an
    /// unrecognised id).
    pub fn device_profile_name(&self) -> &'static str {
        pmem_sim::profile::profile_name_by_id(self.device_profile_id).unwrap_or("unknown")
    }
}

// ---- transaction lanes ----

/// Bytes of log in one lane: all of it past the two header words.
pub const LANE_LOG_BYTES: u64 = LANE_SIZE - lane::RECORDS;
/// A record header names its target in its low 48 bits, its length above.
const OFF_BITS: u32 = 48;
/// The largest device a pool fits: every offset a record can name.
pub const MAX_POOL_SIZE: u64 = 1 << OFF_BITS;
/// Bytes of a record's header: `len << 48 | off`.
pub(crate) const RECORD_HEADER: u64 = 8;

/// Append one log record to `log`: its header, then `pre`, the bytes to
/// restore at `off` — or, with `pre` empty, an alloc intent for the payload
/// at `off`. Contiguous, so one store and one flush cover a run of them.
pub(crate) fn encode_record(log: &mut Vec<u8>, off: u64, pre: &[u8]) {
    log.extend_from_slice(&((pre.len() as u64) << OFF_BITS | off).to_le_bytes());
    log.extend_from_slice(pre);
}

/// One decoded log record: restore `pre` at `off`, or, with `pre` empty,
/// free the block whose payload is at `off` if it came to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub off: u64,
    pub pre: Vec<u8>,
}

impl LogRecord {
    pub fn is_intent(&self) -> bool {
        self.pre.is_empty()
    }
}

/// Decode the log of the lane at `base`, oldest record first: the length
/// word, then the logged bytes in one fetch. The log must fit the lane,
/// every record must end inside the logged length, every pre-image's
/// target must lie in the heap (where everything a transaction snapshots
/// lives), and every intent must name a place a block payload can start.
pub fn lane_log<B: Bytes>(src: &B, base: u64) -> Result<Vec<LogRecord>> {
    let len = src.u32_at(base + lane::LOG_LEN) as u64;
    if len > LANE_LOG_BYTES {
        return bad(format!(
            "lane at {base:#x}: log length {len} past the lane ({LANE_LOG_BYTES})"
        ));
    }
    let log = fetch(src, base + lane::RECORDS, len);
    let (mut cursor, mut out) = (0u64, vec![]);
    while cursor < len {
        // A header cut short by the length reads as the longest record.
        let word = log[cursor as usize..].get(..8).map_or(u64::MAX, le_u64);
        let (off, n) = (word & (MAX_POOL_SIZE - 1), word >> OFF_BITS);
        if RECORD_HEADER + n > len - cursor {
            return bad(format!(
                "lane at {base:#x}: log record at {cursor} runs past the logged {len}"
            ));
        }
        // An intent names a payload: on the 32-byte grid block headers
        // sit on, behind a header and ahead of a payload unit in the heap.
        let payload = off % BLOCK_HEADER_SIZE == 0 && off >= heap_start() + BLOCK_HEADER_SIZE;
        if n == 0 && !(payload && src.in_heap(off, HEAP_ALIGN)) {
            return bad(format!(
                "lane at {base:#x}: intent {off:#x} names no block payload"
            ));
        }
        if !src.in_heap(off, n) {
            return bad(format!(
                "lane at {base:#x}: log record targets {off:#x}+{n}, outside the heap"
            ));
        }
        let at = (cursor + RECORD_HEADER) as usize;
        out.push(LogRecord {
            off,
            pre: log[at..at + n as usize].to_vec(),
        });
        cursor += RECORD_HEADER + n;
    }
    Ok(out)
}

// ---- heap block chain ----

/// Persisted block header, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    pub state: u32,
    pub size: u64,
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
        let magic = le_u32(&buf[blk::MAGIC as usize..]);
        if magic != BLOCK_MAGIC {
            return bad(format!("bad block magic {magic:#x} at {at:#x}"));
        }
        Ok(BlockHeader {
            state: le_u32(&buf[blk::STATE as usize..]),
            size: le_u64(&buf[blk::SIZE as usize..]),
        })
    }
}

/// The one physical heap walk: `visit` sees `(header offset, header)` per
/// block in address order, or the violation found in its place, and answers
/// whether to go on. An implausible magic or size ends the walk (the
/// successor cannot be located); an unknown state does not, so the doctor
/// lists every violation while `Heap::rebuild` stops at the first. Adjacent
/// FREE blocks are legal: media keeps them apart until a carve merges them.
pub fn walk_blocks(
    dev: &PmemDevice,
    start: u64,
    end: u64,
    mut visit: impl FnMut(Result<(u64, BlockHeader)>) -> bool,
) {
    let mut at = start;
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
        let (next, h) = match located {
            Ok(located) => located,
            Err(e) => {
                visit(Err(e));
                return;
            }
        };
        let block = if h.state != BLOCK_FREE && h.state != BLOCK_ALLOC {
            bad(format!("block at {at:#x} has invalid state {}", h.state))
        } else {
            Ok((at, h))
        };
        if !visit(block) {
            return;
        }
        at = next;
    }
}

// ---- hashtable header + entry chain ----

pub const HDR_BUCKETS: u64 = 0;
pub const HDR_HEADS: u64 = 16;
pub const HDR_OLD_BUCKETS: u64 = 24;
pub const HDR_OLD_HEADS: u64 = 32;
pub(crate) const HDR_CURSOR: u64 = 40;
pub(crate) const HDR_SIZE: u64 = 56;

pub(crate) const ENT_HASH: u64 = 0;
pub(crate) const ENT_KLEN: u64 = 8;
/// The value's leading bytes a reader decodes before it knows where the
/// rest goes (0: the writer named none). Opaque to the pool: only
/// `head_len <= val_len` is checked.
pub const ENT_HLEN: u64 = 10;
pub(crate) const ENT_VLEN: u64 = 12;
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
    /// Decode the stored header, fetched whole with one 56-byte read.
    pub fn read<B: Bytes>(src: &B, header: u64) -> Result<Geo> {
        if !src.in_heap(header, HDR_SIZE) {
            return bad(format!("hashtable header {header:#x} outside heap"));
        }
        let mut words = [0u8; HDR_SIZE as usize];
        src.read(header, &mut words);
        let word = |off: u64| le_u64(&words[off as usize..]);
        Ok(Geo {
            buckets: word(HDR_BUCKETS),
            heads: word(HDR_HEADS),
            old_buckets: word(HDR_OLD_BUCKETS),
            old_heads: word(HDR_OLD_HEADS),
            cursor: word(HDR_CURSOR),
        })
    }

    /// Is the stored geometry plausible for this device? A heads array (old
    /// or new) outside the heap, a cursor past the old table, a new table
    /// that is not the old one doubled, or split words without a split
    /// reject the header before it can fault.
    pub(crate) fn check<B: Bytes>(&self, src: &B) -> Result<()> {
        let fits = |off: u64, n: u64| n.checked_mul(8).is_some_and(|sz| src.in_heap(off, sz));
        if self.buckets == 0 || !fits(self.heads, self.buckets) {
            return bad(format!(
                "implausible hashtable geometry: {} buckets, heads {:#x}",
                self.buckets, self.heads
            ));
        }
        let split_ok = if self.old_buckets != 0 {
            self.old_buckets.checked_mul(2) == Some(self.buckets)
                && self.cursor <= self.old_buckets
                && fits(self.old_heads, self.old_buckets)
        } else {
            self.old_heads == 0 && self.cursor == 0
        };
        if !split_ok {
            return bad(format!(
                "implausible hashtable split state: old_buckets={} old_heads={:#x} cursor={} buckets={}",
                self.old_buckets, self.old_heads, self.cursor, self.buckets
            ));
        }
        Ok(())
    }

    /// Every chain-head slot a key can route to, as runs of at most
    /// [`RUN_HEADS`] consecutive buckets of one heads array, `(array, buckets)`
    /// each: unmigrated old buckets first, then the new-directory slots whose
    /// source bucket the cursor has passed — all of them when no split is in
    /// flight. A destination slot at or past the cursor is unreachable and
    /// is written without undo, so it may hold the head a rolled-back
    /// migration chunk left there: no walker may follow it.
    pub(crate) fn head_runs(self) -> impl Iterator<Item = (u64, Range<u64>)> {
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
    #[cfg(test)]
    pub(crate) fn head_slots(self) -> impl Iterator<Item = (u64, u64)> {
        self.head_runs()
            .flat_map(|(array, buckets)| buckets.map(move |b| (array + b * 8, b)))
    }

    /// The one directory iterator: [`Geo::head_slots`] with the head each
    /// slot holds, `(head_slot, bucket, head)`, every run fetched by one
    /// [`read_heads`] as the iteration reaches it. A head is as fresh as its
    /// run: the caller holds whatever pins the run's buckets.
    pub(crate) fn heads<B: Bytes>(self, src: &B) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.head_runs()
            .flat_map(move |(array, buckets)| read_heads(src, array, buckets))
    }
}

/// Fetch the heads of `buckets` of the heads array at `array` with one read
/// (in range — the header check covers both arrays): `(head_slot, bucket,
/// head)` each.
pub(crate) fn read_heads<B: Bytes>(
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

/// What a chain walk fetches per hop: counting walks need only the 8-byte
/// `next`; matching walks take the whole 24-byte entry header in one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    Link,
    Header,
}

/// One chain entry's fixed-size header. Under [`Fetch::Link`] only `at`,
/// `slot` and `next` are filled in.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Entry {
    /// Device offset of the entry.
    pub at: u64,
    /// The pointer slot that named it (head slot or predecessor's `next`).
    pub slot: u64,
    pub hash: u64,
    pub klen: u16,
    pub hlen: u16,
    pub vlen: u32,
    pub next: u64,
}

impl Entry {
    pub(crate) fn value_off(&self) -> u64 {
        self.at + ENT_KEY + self.klen as u64
    }

    pub(crate) fn key<B: Bytes>(&self, src: &B) -> Vec<u8> {
        let mut k = vec![0u8; self.klen as usize];
        src.read(self.at + ENT_KEY, &mut k);
        k
    }
}

/// A chain entry as it is stored — header and key, the value written in
/// place by the fill — in one buffer, so a fresh entry is one store.
pub(crate) fn encode_entry(hash: u64, key: &[u8], (hlen, vlen): (u16, u32), next: u64) -> Vec<u8> {
    let mut ent = Vec::with_capacity(ENT_KEY as usize + key.len());
    ent.extend_from_slice(&hash.to_le_bytes());
    ent.extend_from_slice(&(key.len() as u16).to_le_bytes());
    ent.extend_from_slice(&hlen.to_le_bytes());
    ent.extend_from_slice(&vlen.to_le_bytes());
    ent.extend_from_slice(&next.to_le_bytes());
    ent.extend_from_slice(key);
    ent
}

/// The one chain walk: follows `next` from `head`, the pointer the caller
/// read out of `head_slot`, hop-bounded and range-checked before every
/// dereference, handing each entry to `visit` until it answers `false`.
/// Returns the entries fetched and how the walk ended: a bad hop ends the
/// chain with the error.
pub(crate) fn walk_from<B: Bytes>(
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
                (e.hash, e.next) = (
                    le_u64(&b[ENT_HASH as usize..]),
                    le_u64(&b[ENT_NEXT as usize..]),
                );
                (e.klen, e.hlen, e.vlen) = (
                    le_u16(&b[ENT_KLEN as usize..]),
                    le_u16(&b[ENT_HLEN as usize..]),
                    le_u32(&b[ENT_VLEN as usize..]),
                );
                if !src.in_heap(at, ENT_KEY + e.klen as u64 + e.vlen as u64) {
                    return torn(hops, "body overruns the heap");
                }
                if e.hlen as u32 > e.vlen {
                    return torn(hops, "names a header longer than its value");
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

pub(crate) const LOG_CAPACITY: u64 = 0;
pub const LOG_HEAD: u64 = 8;
pub(crate) const LOG_TAIL: u64 = 16;
pub(crate) const LOG_HDR_LEN: u64 = 24;

pub(crate) const REC_HDR: u64 = 8; // len u32 + crc u32
pub(crate) const WRAP: u32 = u32::MAX;

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
pub(crate) fn crc32(data: &[u8]) -> u32 {
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
pub(crate) fn log_capacity<B: Bytes>(src: &B, header: u64, ring: u64) -> Result<u64> {
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
pub(crate) fn log_pointers<B: Bytes>(src: &B, header: u64, capacity: u64) -> Result<(u64, u64)> {
    let head = src.u64_at(header + LOG_HEAD);
    let tail = src.u64_at(header + LOG_TAIL);
    check_log_pointers(head, tail, capacity)?;
    Ok((head, tail))
}

/// The plausibility rule of [`log_pointers`], for a caller that fetches the
/// two words itself.
pub(crate) fn check_log_pointers(head: u64, tail: u64, capacity: u64) -> Result<()> {
    if head > capacity || tail > capacity {
        return bad(format!(
            "log pointers outside ring: head {head} tail {tail} capacity {capacity}"
        ));
    }
    Ok(())
}

/// One committed record: ring-relative offset of its header + body length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingRecord {
    pub at: u64,
    pub len: u64,
}

impl RingRecord {
    /// Fetch the body, then the stored CRC; returns the bytes and whether
    /// they match.
    pub(crate) fn body<B: Bytes>(&self, src: &B, ring: u64) -> (Vec<u8>, bool) {
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
pub(crate) fn walk_ring<B: Bytes>(
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

    /// The fixed-size structures decode from one fetch each, and a lane's
    /// log — its undo records and intents alike — from the length word plus
    /// one fetch of what it counts.
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
        let record = |off: u64, pre: &[u8]| LogRecord {
            off,
            pre: pre.to_vec(),
        };
        let records = [
            record(heap_start() + 256, b"eight by"),
            record(heap_start() + 96, &[]),
            record(heap_start() + 512, &[7; 100]),
            record(heap_start() + 160, &[]),
        ];
        let mut log = vec![];
        for r in &records {
            encode_record(&mut log, r.off, &r.pre);
        }
        put(&mut src.image, base + lane::RECORDS, &log);
        let len = (log.len() as u32).to_le_bytes();
        put(&mut src.image, base + lane::LOG_LEN, &len);
        let fetches = |src: &Recorder| std::mem::take(&mut *src.reads.borrow_mut());

        let g = Geo::read(&src, header).unwrap();
        let whole = header..header + HDR_SIZE;
        assert_eq!(fetches(&src), [whole]);
        assert_eq!((g.buckets, g.heads, g.old_buckets), (1, 3, 4));
        assert_eq!((g.old_heads, g.cursor), (5, 6));

        assert_eq!(lane_log(&src, base).unwrap(), records);
        let (len, at) = (base + lane::LOG_LEN, base + lane::RECORDS);
        assert_eq!(fetches(&src), [len..len + 4, at..at + log.len() as u64]);

        // An idle lane is its length word and nothing else.
        assert!(lane_log(&src, lane_offset(4)).unwrap().is_empty());
        assert_eq!(fetches(&src).len(), 1);
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
        let (log, lane, line) = (LANE_LOG_BYTES, LANE_SIZE, LANE_LINE);
        // At least 8 KiB of log per lane, its length within the u32 word
        // and every record's within the header's 16 bits.
        assert!(log >= 8 * 1024 && log < lane && log < 1 << 16);
        // A one-key put's records (a head word's, a freed state word's and
        // an intent) fit the header's line beside the two words.
        assert!(lane::RECORDS + 16 + 12 + 8 <= line);
    }
}
